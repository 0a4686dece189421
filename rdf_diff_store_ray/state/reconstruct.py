"""State-at-timestamp reconstruction and store metadata.

Semantics (reference parity):

- ``state_at(ts)``: for each graph, the latest delta with ``warc_ts <= ts``
  (as-of predecessor semantics — the binary search in
  ``/root/reference/src/git.rs:157-161``); graphs whose latest op is
  ``delete`` are absent; a ``ts`` before the first delta yields the empty
  state (``Err(0)`` → empty, ``src/git.rs:157-159``).
- ``graphs_at(ts)``: union of all live graphs' triples serialized as ONE
  canonical N-Triples document — graph identity erased, duplicates folded
  (``combine_graphs`` + oxigraph store dedup, ``src/query.rs:127-169``).
- ``metadata()``: (first, last) delta time (``repo_metadata``,
  ``src/git.rs:78-85``).

Two execution paths:

- **Dataset path** (scales): ``groupby(graph_id).map_groups(latest)`` over
  the delta Dataset — a keyed shuffle; partition pruning applies because
  the log is hash-partitioned by graph_id.
- **Table path** (pyarrow, no Ray): used by the cached query reader on a
  single partition's (or a small store's) delta table; vectorized sort +
  group-take-last, no Python row loop.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import ntriples
from ..schemas import OP_DELETE
from ..shuffle_utils import sort_values_nul_safe


def _ts_scalar(ts) -> pa.Scalar:
    """Accept unix seconds (int) or a datetime; compare at second grain —
    the reference's version-axis resolution (``src/git.rs:82,157``)."""
    if isinstance(ts, (int, np.integer)):
        return pa.scalar(int(ts) * 10**6, pa.timestamp("us")).cast(pa.timestamp("s"))
    return pa.scalar(ts, pa.timestamp("s"))


def prune_log_files(files, ts) -> list:
    """Footer-stat time pruning for as-of reads: drop log files in which
    EVERY row has ``warc_ts > ts`` — on a log-structured store (base
    partition file + append segments in write order) a reconstruction at
    an early instant then opens only the prefix of history that can
    contribute. Driver-side metadata-only reads (O(files), a few KB per
    footer, no row data); files without column statistics are kept
    (pruning is an optimization, never a correctness gate). The min is
    floored to second grain to match ``state_at``'s
    ``warc_ts.cast(timestamp('s')) <= ts`` comparison exactly."""
    import pyarrow.parquet as pq

    bound = pd.Timestamp(_ts_scalar(ts).cast(pa.timestamp("us")).as_py())
    keep = []
    for f in files:
        md = pq.ParquetFile(f).metadata
        if md.num_rows == 0:
            continue  # an empty base/segment file contributes nothing
        try:
            col_idx = next(
                i for i in range(md.num_columns)
                if md.schema.column(i).name == "warc_ts"
            )
        except StopIteration:
            keep.append(f)
            continue
        file_min = None
        has_stats = True
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(col_idx).statistics
            if st is None or not st.has_min_max:
                has_stats = False
                break
            mn = pd.Timestamp(st.min)
            file_min = mn if file_min is None else min(file_min, mn)
        if not has_stats or file_min is None:
            keep.append(f)
        elif file_min.floor("s") <= bound:
            keep.append(f)
    return keep


# ---------------------------------------------------------------- table path
def state_at_table(deltas: pa.Table, ts) -> pa.Table:
    """Live (graph_id, warc_ts, delta_text, digest) rows at ``ts``."""
    from ..schemas import ensure_seq

    t = _ts_scalar(ts)
    deltas = ensure_seq(deltas)  # legacy seq-less tables: row order
    flt = deltas.filter(pc.less_equal(deltas["warc_ts"].cast(pa.timestamp("s")), t))
    latest = latest_rows(flt)
    return latest.filter(pc.not_equal(latest["op"], OP_DELETE))


def latest_rows(table: pa.Table) -> pa.Table:
    """One row per graph: its max-``(warc_ts, seq)`` row, by a vectorized
    per-graph arg-max. The explicit seq replay column makes the sort a
    TOTAL order — same-second ties resolve by write order, never by sort
    stability (pc.sort_indices is not stable)."""
    if table.num_rows == 0:
        return table
    idx = pc.sort_indices(
        table, sort_keys=[("graph_id", "ascending"), ("warc_ts", "ascending"),
                          ("seq", "ascending")]
    )
    srt = table.take(idx)
    gids = srt["graph_id"].to_numpy(zero_copy_only=False)
    last_of_run = np.r_[gids[1:] != gids[:-1], True]
    return srt.filter(pa.array(last_of_run))


def graphs_at_table(deltas: pa.Table, ts) -> str:
    """Merged canonical N-Triples document at ``ts``."""
    live = state_at_table(deltas, ts)
    triples = set()
    for text in live["delta_text"].to_pylist() if live.num_rows else []:
        triples.update(ntriples.parse(text))
    return ntriples.serialize(triples)


def triples_at_table(deltas: pa.Table, ts) -> pa.Table:
    """Distinct (subj, pred, obj, obj_is_literal) live at ``ts``."""
    live = state_at_table(deltas, ts)
    triples = set()
    for text in live["delta_text"].to_pylist() if live.num_rows else []:
        triples.update(ntriples.parse(text))
    rows = sorted(triples)
    return pa.table(
        {
            "subj": pa.array([r[0] for r in rows], pa.string()),
            "pred": pa.array([r[1] for r in rows], pa.string()),
            "obj": pa.array([r[2] for r in rows], pa.string()),
            "obj_is_literal": pa.array([r[3] for r in rows], pa.bool_()),
        }
    )


def quads_at_table(deltas: pa.Table, ts) -> pa.Table:
    """Distinct (graph_id, subj, pred, obj, obj_is_literal) live at
    ``ts`` — the quad view that scopes ``GRAPH`` clauses. The engine's
    named graphs are the reference's one-graph-per-source-id model
    (``src/git.rs:110-120``), so the graph term of a quad is the
    graph id itself."""
    live = state_at_table(deltas, ts)
    gids, ss, ps, os_, lits = [], [], [], [], []
    if live.num_rows:
        for gid, text in zip(live["graph_id"].to_pylist(),
                             live["delta_text"].to_pylist()):
            for s, p, o, is_lit in ntriples.parse(text):
                gids.append(gid)
                ss.append(s)
                ps.append(p)
                os_.append(o)
                lits.append(is_lit)
    return pa.table(
        {
            "graph_id": pa.array(gids, pa.string()),
            "subj": pa.array(ss, pa.string()),
            "pred": pa.array(ps, pa.string()),
            "obj": pa.array(os_, pa.string()),
            "obj_is_literal": pa.array(lits, pa.bool_()),
        }
    )


def _ts_pandas(ts) -> pd.Timestamp:
    return pd.Timestamp(_ts_scalar(ts).as_py())


def _lines_frame(live: pd.DataFrame) -> pd.DataFrame:
    """One (graph_id, line) row per canonical N-Triples line of each live
    graph. Canonical text is sorted + deduped, so LINE-level set algebra
    equals triple-level set algebra — no parsing needed."""
    if live.empty:
        return pd.DataFrame({"graph_id": pd.Series(dtype=object),
                             "line": pd.Series(dtype=object)})
    s = live.set_index("graph_id")["delta_text"].str.split("\n").explode()
    s = s[s.notna() & (s != "")]
    return pd.DataFrame({"graph_id": s.index.to_numpy(),
                         "line": s.to_numpy()})


_DIFF_EMPTY = {"graph_id": object, "change": object, "line": object}


def _diff_live_frames(live1: pd.DataFrame, live2: pd.DataFrame) -> pd.DataFrame:
    """Added/removed canonical lines between two live-state frames
    (columns ``graph_id, digest, delta_text``; one row per live graph).
    Unchanged graphs are skipped up front via the stored content digest —
    only changed graphs' texts are ever exploded."""
    from ..shuffle_utils import merge_outer_nul_safe

    # outer merges on NUL-bearing keys raise in pandas (hostile graph
    # ids; canonical lines carry raw NULs — escape_literal leaves \x00
    # alone); the nul-safe form is exact either way
    m = merge_outer_nul_safe(
        live1[["graph_id", "digest"]], live2[["graph_id", "digest"]],
        on="graph_id", suffixes=("_1", "_2"),
    )
    changed = m.loc[m["digest_1"].ne(m["digest_2"]), "graph_id"]
    old = _lines_frame(live1[live1["graph_id"].isin(changed)])
    new = _lines_frame(live2[live2["graph_id"].isin(changed)])
    j = merge_outer_nul_safe(old, new, on=["graph_id", "line"],
                             indicator=True)
    out = pd.DataFrame(
        {
            "graph_id": j["graph_id"].to_numpy(),
            "change": np.where(j["_merge"].to_numpy() == "left_only",
                               "removed", "added"),
            "line": j["line"].to_numpy(),
        }
    )
    out = out[j["_merge"].to_numpy() != "both"]
    return sort_values_nul_safe(out, ["graph_id", "change", "line"],
                                ignore_index=True)


def diff_table(deltas: pa.Table, ts1, ts2) -> pa.Table:
    """Triples added/removed between the store states at ``ts1`` and
    ``ts2`` — the diff-store's namesake operation. The reference keeps
    exactly this as its storage format (one git commit per graph change,
    ``src/git.rs:151-190``); here it is recovered from the delta log by
    resolving both as-of states and set-differencing canonical lines.
    Returns ``(graph_id, change ∈ {added, removed}, line)`` sorted."""
    cols = ["graph_id", "digest", "delta_text"]
    live1 = state_at_table(deltas, ts1).select(cols).to_pandas()
    live2 = state_at_table(deltas, ts2).select(cols).to_pandas()
    out = _diff_live_frames(live1, live2)
    return pa.table(
        {
            "graph_id": pa.array(out["graph_id"].tolist(), pa.string()),
            "change": pa.array(out["change"].tolist(), pa.string()),
            "line": pa.array(out["line"].tolist(), pa.string()),
        }
    )


def diff_between(deltas_ds, ts1, ts2, num_partitions: int = 64):
    """Distributed ``diff_table``: graphs are hashed into bounded
    partitions (same key as every other state operation, so the log's
    partitioning is reused) and each partition resolves BOTH as-of states
    and emits its graphs' added/removed lines in one vectorized pass —
    one keyed shuffle total, no driver-side state. Rows with
    ``warc_ts > ts2`` never enter the shuffle."""
    t1 = _ts_pandas(ts1)

    def upto2(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.less_equal(batch["warc_ts"].cast(pa.timestamp("s")),
                          _ts_scalar(ts2))
        )

    def add_pid(batch: pa.Table) -> pa.Table:
        from ..shuffle_utils import add_partition_id

        return add_partition_id(batch, key="graph_id",
                                num_partitions=num_partitions,
                                col="state_pid")

    def diff_partition(group: pd.DataFrame) -> pd.DataFrame:
        keys = ["graph_id", "warc_ts"] + (
            ["seq"] if "seq" in group.columns else []
        )
        g = group.sort_values(keys, kind="stable")
        live2 = g.drop_duplicates(subset=["graph_id"], keep="last")
        live2 = live2[live2["op"] != OP_DELETE]
        g1 = g[g["warc_ts"].dt.floor("s") <= t1]
        live1 = g1.drop_duplicates(subset=["graph_id"], keep="last")
        live1 = live1[live1["op"] != OP_DELETE]
        out = _diff_live_frames(live1, live2)
        if out.empty:
            return pd.DataFrame(
                {c: pd.Series(dtype=t) for c, t in _DIFF_EMPTY.items()}
            )
        return out

    return (
        deltas_ds.map_batches(upto2, batch_format="pyarrow")
        .map_batches(add_pid, batch_format="pyarrow")
        .groupby("state_pid")
        .map_groups(diff_partition, batch_format="pandas")
    )


def metadata_table(deltas: pa.Table):
    if deltas.num_rows == 0:
        return (None, None)
    col = deltas["warc_ts"].cast(pa.timestamp("s"))
    return (pc.min(col).as_py(), pc.max(col).as_py())


# -------------------------------------------------------------- Dataset path
def state_at(deltas_ds, ts, num_partitions: int = 64):
    """Dataset of live graph rows at ``ts`` (distributed as-of).

    Graphs are hashed into a BOUNDED number of partitions and each
    partition resolves all of its graphs in one vectorized pass (sort +
    keep-last) — graph cardinality is corpus-scale, so a ``map_groups``
    per graph_id would pay Ray's per-group overhead once per url."""

    def upto(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.less_equal(batch["warc_ts"].cast(pa.timestamp("s")), _ts_scalar(ts))
        )

    def add_pid(batch: pa.Table) -> pa.Table:
        from ..shuffle_utils import add_partition_id

        return add_partition_id(batch, key="graph_id",
                                num_partitions=num_partitions,
                                col="state_pid")

    def latest_per_graph(group: pd.DataFrame) -> pd.DataFrame:
        # (warc_ts, seq) is a total order per graph — post-shuffle arrival
        # order is arbitrary, so an explicit tie-break column is required
        keys = ["graph_id", "warc_ts"] + (
            ["seq"] if "seq" in group.columns else []
        )
        g = group.sort_values(keys, kind="stable")
        last = g.drop_duplicates(subset=["graph_id"], keep="last")
        return last[last["op"] != OP_DELETE].drop(columns=["state_pid"])

    return (
        deltas_ds.map_batches(upto, batch_format="pyarrow")
        .map_batches(add_pid, batch_format="pyarrow")
        .groupby("state_pid")
        .map_groups(latest_per_graph, batch_format="pandas")
    )


def metadata(deltas_ds):
    """(start_time, end_time) via Min/Max tree-reduce (no full shuffle)."""
    from ray.data.aggregate import Max, Min

    res = deltas_ds.aggregate(Min("warc_ts"), Max("warc_ts"))
    return (res["min(warc_ts)"], res["max(warc_ts)"])


def version_times(deltas_ds) -> list:
    """Sorted distinct version instants — ``list_commit_times``
    (``src/git.rs:134-148``, sorted TIME|REVERSE → ascending here)."""
    def distinct(batch: pa.Table) -> pa.Table:
        return pa.table({"warc_ts": batch["warc_ts"].unique()})

    rows = (
        deltas_ds.select_columns(["warc_ts"])
        .map_batches(distinct, batch_format="pyarrow")
        .groupby("warc_ts")
        .count()
        .take_all()
    )
    return sorted(r["warc_ts"] for r in rows)
