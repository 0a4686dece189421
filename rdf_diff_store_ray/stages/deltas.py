"""Delta materialization: per-(graph, version) snapshots → the timestamped
delta log, written as partitioned Parquet with per-partition manifests.

Semantics reproduced from the reference:

- **no-op suppression**: a version whose canonical content digest equals the
  previous live version's digest produces no delta
  (``/root/reference/src/graphs.rs:52-61``; ``test_no_diff``,
  ``tests/integration_test.rs:96-125``);
- **delete tombstones**: a graph absent from a crawl snapshot while
  previously live gets an ``op='delete'`` delta at that snapshot's
  timestamp (``src/graphs.rs:82-93``; the crawl analog of the DELETE
  endpoint) and may later reappear as a new update;
- the delta log is the git commit log analog: partitioned by
  ``partition_id = stable_hash(graph_id) % P`` so each partition has
  exactly **one writer task** — replacing the reference's global write
  lock (repo pool of size 1, ``src/bin/rdf-diff-writer.rs:25-31``) with
  partitioned ownership;
- durable flush = an atomically-renamed Parquet file plus a JSON manifest
  with lineage (graph/url range, row counts, snapshot range, content
  checksum, stage timings) — the analog of the reference's periodic
  ``push_updates`` (``src/git.rs:225-235``) and the basis for
  **checkpoint/resume**: a re-run skips partitions whose manifest is
  already valid.

Execution shape: the whole step is ONE shuffle —
``versions.groupby("partition_id").map_groups(writer)``. Sorting, per-graph
lag comparison, tombstone inference and the Parquet write all happen inside
the partition group (vectorized pandas within the group). The group must
fit a worker's heap: size ``num_partitions`` so (corpus bytes / P) is a few
hundred MB at most; P is a knob, default scales with input size.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..ntriples import sha256_bytes
from ..schemas import DELTAS, OP_DELETE, OP_UPDATE
from .. import fs
from ..state.reconstruct import _ts_scalar
from ..shuffle_utils import (
    drop_duplicates_nul_safe,
    partition_ids,
    sort_values_nul_safe,
)

MANIFEST_NAME = "manifest.json"
SUCCESS_NAME = "_SUCCESS"


def derive_partition_deltas(
    group: pd.DataFrame, snapshot_times, seed_latest: dict | None = None
) -> pd.DataFrame:
    """Delta rows for EVERY graph in one partition, in a single pass over
    the (graph_id, warc_ts)-sorted arrays — one output frame per
    partition, never per graph (a per-graph DataFrame + concat costs more
    than the delta derivation itself at 10⁵ graphs/partition).

    Per graph: versions ordered by ``warc_ts`` (ties keep the last row in
    stable input order — documented tie-break, FIXTURES.md note); a
    version whose digest equals the previous live digest is suppressed;
    absence from a snapshot instant while live emits a delete tombstone.
    ``snapshot_times`` is the sorted global crawl grid (unix seconds).

    ``seed_latest`` (incremental builds): ``graph_id → (ts_seconds, op,
    digest)`` from the partition's EXISTING log before the first
    instant — live seeded graphs start with their stored digest (so an
    unchanged re-crawl is suppressed and absence tombstones them). The
    caller checks the derived rows against the partition's full history
    (``append._check_monotone``) before it writes."""
    g = sort_values_nul_safe(group, ["graph_id", "warc_ts"],
                             ignore_index=True)
    # last row wins on same-second ties (documented tie-break): dedup to
    # one row per (graph, second) — the per-graph `present` map, batched
    ts_all = g["warc_ts"].to_numpy().astype("datetime64[s]").astype("int64")
    # NUL-safe multi-key dedup: pandas' own would collapse two
    # NUL-distinct graph ids sharing a second (see shuffle_utils)
    g = drop_duplicates_nul_safe(
        g.assign(_ts_s=ts_all),
        subset=["graph_id", "_ts_s"], keep="last", ignore_index=True,
    )
    gids = g["graph_id"].to_numpy()
    ts_s = g["_ts_s"].to_numpy()
    texts = g["delta_text"].to_numpy()
    digests = g["digest"].to_numpy()
    snap = sorted(int(t) for t in snapshot_times)

    # vectorized across ALL graphs of the partition, one pass per
    # snapshot instant (the grid is small; the corpus is not): per
    # instant, emit updates where the graph has a version at t whose
    # digest differs from its previous live digest, and tombstones where
    # a live graph is absent — identical semantics to the per-graph scan
    seed_live = [
        gid for gid, (_, op, _d) in (seed_latest or {}).items()
        if op != OP_DELETE
    ]
    if seed_live:
        graphs = np.unique(np.concatenate([gids, np.array(seed_live,
                                                          dtype=object)]))
        gidx = np.searchsorted(graphs, gids)
    else:
        graphs, gidx = np.unique(gids, return_inverse=True)
    n_graphs = len(graphs)
    live = np.zeros(n_graphs, dtype=bool)
    prev = np.empty(n_graphs, dtype=object)  # previous live digest
    if seed_latest:
        for i, gname in enumerate(graphs):
            s = seed_latest.get(gname)
            if s is None:
                continue
            if s[1] != OP_DELETE:
                live[i] = True
                prev[i] = s[2]
    out_gid_parts: list = []
    out_ts_parts: list = []
    out_op_parts: list = []
    out_row_parts: list = []  # row index into g for update text/digest
    for t in snap:
        sel = np.flatnonzero(ts_s == t)  # ≤ 1 row per graph after dedup
        gsel = gidx[sel]
        dig = digests[sel]
        changed = ~live[gsel] | (prev[gsel] != dig)
        present_mask = np.zeros(n_graphs, dtype=bool)
        present_mask[gsel] = True
        del_g = np.flatnonzero(live & ~present_mask)
        out_gid_parts.append(gsel[changed])
        out_ts_parts.append(np.full(int(changed.sum()), t, dtype=np.int64))
        out_op_parts.append(np.full(int(changed.sum()), OP_UPDATE, dtype=object))
        out_row_parts.append(sel[changed])
        out_gid_parts.append(del_g)
        out_ts_parts.append(np.full(len(del_g), t, dtype=np.int64))
        out_op_parts.append(np.full(len(del_g), OP_DELETE, dtype=object))
        out_row_parts.append(np.full(len(del_g), -1, dtype=np.int64))
        prev[gsel] = dig
        live[gsel] = True
        live[del_g] = False
        prev[del_g] = None
    gidx_out = np.concatenate(out_gid_parts) if out_gid_parts else np.array([], dtype=np.int64)
    ts_out = np.concatenate(out_ts_parts) if out_ts_parts else np.array([], dtype=np.int64)
    op_out = np.concatenate(out_op_parts) if out_op_parts else np.array([], dtype=object)
    row_out = np.concatenate(out_row_parts) if out_row_parts else np.array([], dtype=np.int64)
    # restore the per-graph, time-ascending emission order (at most one
    # delta per (graph, instant), so the sort is unambiguous)
    order = np.lexsort((ts_out, gidx_out))
    gidx_out, ts_out, op_out, row_out = (
        gidx_out[order], ts_out[order], op_out[order], row_out[order]
    )
    is_upd = row_out >= 0
    text_out = np.where(is_upd, texts[np.maximum(row_out, 0)], "")
    dig_out = np.where(is_upd, digests[np.maximum(row_out, 0)], b"")
    return pd.DataFrame(
        {
            "graph_id": graphs[gidx_out],
            "warc_ts": pd.to_datetime(ts_out, unit="s"),
            "op": op_out,
            "delta_text": text_out,
            "digest": dig_out,
        }
    )


def make_partition_writer(out_dir: str, snapshot_times):
    """``map_groups`` callable for one ``partition_id`` group: derive deltas
    for every graph in the partition, write Parquet atomically, emit the
    manifest summary row. The snapshot grid is a small broadcast (list of
    unix seconds)."""
    snap = sorted(int(t) for t in snapshot_times)

    def write_delta_partition(group: pd.DataFrame) -> pd.DataFrame:
        t0 = time.monotonic()
        pid = int(group["partition_id"].iloc[0])
        deltas = derive_partition_deltas(group, snap)
        if len(deltas):
            deltas["partition_id"] = np.int32(pid)
            # replay-order column: derive emits (graph, ts-ascending) rows
            # with at most one row per (graph, second), so arange is a
            # valid (and the only) replay order for the base segment
            deltas["seq"] = np.arange(len(deltas), dtype=np.int64)
            table = pa.Table.from_pandas(deltas, preserve_index=False).cast(DELTAS)
        else:
            table = DELTAS.empty_table()
        write_partition(out_dir, pid, table, wall_s=time.monotonic() - t0)
        m = read_manifest(out_dir, pid)
        return pd.DataFrame(
            {
                "partition_id": [pid],
                "rows": [m["rows"]],
                "graphs": [m["graphs"]],
                "content_sha256": [m["content_sha256"]],
            }
        )

    return write_delta_partition


def partition_dir(out_dir: str, pid: int) -> str:
    return os.path.join(fs.local(out_dir), f"partition={pid:05d}")


def segment_files(out_dir: str, pid: int) -> list:
    """All data files of one partition in replay order: the base
    ``deltas.parquet`` then ``deltas.seg-NNNNNN.parquet`` appends
    (lexicographic order == append order by construction)."""
    import glob

    pdir = partition_dir(out_dir, pid)
    if not os.path.isdir(pdir):
        return []
    return sorted(glob.glob(os.path.join(pdir, "deltas*.parquet")))


def segment_count(out_dir: str, pid: int) -> int:
    """How many append segments partition ``pid`` has beside its base."""
    return sum(os.path.basename(f) != "deltas.parquet"
               for f in segment_files(out_dir, pid))


def partitions(delta_dir: str) -> list:
    """The pids of the partitions that have a directory, ascending. A
    build writes none for a partition no graph hashes to."""
    root = fs.local(delta_dir)
    if not os.path.isdir(root):
        raise FileNotFoundError(f"no delta log under {delta_dir!r}")
    return sorted(int(name.split("=")[1]) for name in os.listdir(root)
                  if name.startswith("partition=")
                  and os.path.isdir(os.path.join(root, name)))


def listing(delta_dir: str) -> dict:
    """``(pid, path)`` of every data file of the log → its listing
    signature (:func:`..fs.stat_sig`): what a reader that reads the log
    after this call holds."""
    root = fs.local(delta_dir)
    return {(pid, f): fs.stat_sig(f) for pid in partitions(root)
            for f in segment_files(root, pid)}


def appended(held: dict, now: dict) -> "list | None":
    """The pid of each file listed in ``now`` but not in ``held`` (two
    :func:`listing` results), sorted; None when a file of ``held`` is
    gone or changed — the log was rewritten, not appended to."""
    if any(now.get(key) != sig for key, sig in held.items()):
        return None
    return sorted(pid for pid, _ in now.keys() - held.keys())


def _success(delta_dir: str) -> dict:
    with open(os.path.join(fs.local(delta_dir), SUCCESS_NAME)) as f:
        return json.load(f)


def num_partitions(delta_dir: str) -> int:
    """The log's partition count P (``hash(graph_id) % P`` owns each
    graph), from its ``_SUCCESS`` marker."""
    return int(_success(delta_dir)["num_partitions"])


def snapshot_times(delta_dir: str) -> list:
    """The crawl instants (unix seconds) the log's builds covered, from
    its ``_SUCCESS`` marker (empty for a store only ever appended to)."""
    return [int(t) for t in _success(delta_dir).get("snapshot_times") or []]


def footer_stats(path: str) -> tuple:
    """``(rows, ts_min, ts_max)`` of one log file from its Parquet footer
    alone — no row data is read. The ``warc_ts`` bounds are None when
    any row group lacks statistics."""
    import pyarrow.parquet as pq

    md = pq.ParquetFile(path).metadata
    col = next((i for i in range(md.num_columns)
                if md.schema.column(i).name == "warc_ts"), None)
    stats = [md.row_group(rg).column(col).statistics
             for rg in range(md.num_row_groups)] if col is not None else []
    if not stats or any(st is None or not st.has_min_max for st in stats):
        return md.num_rows, None, None
    return (md.num_rows, min(st.min for st in stats),
            max(st.max for st in stats))


def _log_files(delta_dir: str, pids, upto_ts) -> list:
    """``(pid, path)`` of every data file of partitions ``pids`` (default:
    every partition with a directory) in pid then replay order; with
    ``upto_ts``, minus the files whose every row is later (footer-stat
    pruning — a file without statistics is kept: pruning is an
    optimization, never a correctness gate)."""
    root = fs.local(delta_dir)
    owned = [(pid, f) for pid in (partitions(root) if pids is None else pids)
             for f in segment_files(root, pid)]
    if upto_ts is None:
        return owned
    # floored to the second, the grain of an as-of compare
    bound = pd.Timestamp(_ts_scalar(upto_ts).cast(pa.timestamp("us")).as_py())
    kept = []
    for pid, f in owned:
        rows, lo, _ = footer_stats(f)
        if rows and (lo is None or pd.Timestamp(lo).floor("s") <= bound):
            kept.append((pid, f))
    return kept


def read_log(delta_dir: str, pids=None, upto_ts=None) -> pa.Table:
    """The delta log — of partitions ``pids`` (default: every partition
    with a directory), in pid then replay order — as one ``DELTAS``
    table, read by one dataset scan. This is the one reader of the log's
    files; a pid with no directory holds no rows.

    With ``upto_ts``, only the rows at or before that instant (second
    grain); files whose every row is later are never read past their
    footer, so an early as-of read reads only the prefix of history that
    can contribute.

    Replay order is the ``seq`` column. A legacy file written before it
    existed gets ``seq`` continuing its partition's replay order, in
    file order, which is the order it was written in."""
    import pyarrow.dataset as pads

    owned = _log_files(delta_dir, pids, upto_ts)
    if not owned:
        return DELTAS.empty_table()
    table = pads.dataset([f for _, f in owned], schema=DELTAS).to_table()
    if table["seq"].null_count:
        table = _legacy_seq(table, owned)
    if upto_ts is not None:
        table = table.filter(pc.less_equal(table["warc_ts"],
                                           _ts_scalar(upto_ts)))
    return table


def read_log_dataset(delta_dir: str, upto_ts=None):
    """The whole log as a Ray Dataset, for the distributed as-of driver
    (:func:`..state.reconstruct.per_partition`), pruned as
    :func:`read_log` prunes. When every file is pruned one is kept, so
    the dataset keeps the log's schema; the driver's ``warc_ts <= ts``
    filter drops its rows."""
    import ray.data as rd

    every = _log_files(delta_dir, None, None)
    kept = every if upto_ts is None else \
        _log_files(delta_dir, None, upto_ts) or every[:1]
    return rd.read_parquet([f for _, f in kept])


def _legacy_seq(table: pa.Table, owned: list) -> pa.Table:
    """Fill the ``seq`` of seq-less (legacy) files: ``offset + arange``,
    where ``offset`` is one past the largest ``seq`` of the partition's
    earlier files."""
    col = table["seq"]
    seq = pc.fill_null(col, 0).to_numpy().copy()
    null = col.is_null().to_numpy(zero_copy_only=False)
    start, offset, last_pid = 0, 0, None
    for pid, f in owned:
        n = footer_stats(f)[0]
        if pid != last_pid:
            offset, last_pid = 0, pid
        part = slice(start, start + n)
        if n:
            if null[part].any():
                seq[part] = offset + np.arange(n)
            offset = max(offset, int(seq[part].max()) + 1)
        start += n
    return table.set_column(table.schema.get_field_index("seq"), "seq",
                            pa.array(seq))


def sweep_staging(out_dir: str) -> int:
    """GC crash-orphaned hidden staging keys across all partitions."""
    out_dir = fs.local(out_dir)
    n = fs.sweep_staging(out_dir)
    if os.path.isdir(out_dir):
        for name in os.listdir(out_dir):
            if name.startswith("partition="):
                n += fs.sweep_staging(os.path.join(out_dir, name))
    return n


def write_partition(out_dir: str, pid: int, table: pa.Table, wall_s: float) -> None:
    """Atomic FULL write under object-store rules (:mod:`..fs`): the
    data object publishes as one atomic PUT under its final key, the
    manifest object commits last. A crash mid-write leaves no manifest →
    the partition is recomputed on resume. Any append segments from a
    previous life of this partition are invalidated (a full rewrite
    supersedes the log)."""
    pdir = partition_dir(out_dir, pid)
    os.makedirs(pdir, exist_ok=True)
    fs.put_table(table, os.path.join(pdir, "deltas.parquet"))
    for seg in segment_files(out_dir, pid):
        if os.path.basename(seg) != "deltas.parquet":
            os.remove(seg)
    _write_manifest(pdir, pid, table, wall_s)


def append_segment(out_dir: str, pid: int, add: pa.Table, merged: pa.Table,
                   wall_s: float) -> None:
    """Log-structured append: write ONLY the new rows as the next segment
    file; existing data bytes are never rewritten — the analog of the
    reference's O(delta) git commit (``src/git.rs:192-222``) instead of a
    whole-partition rewrite. The manifest is refreshed from the merged
    view so lineage/resume semantics are unchanged."""
    pdir = partition_dir(out_dir, pid)
    os.makedirs(pdir, exist_ok=True)
    n_seg = segment_count(out_dir, pid)
    fs.put_table(add, os.path.join(pdir, f"deltas.seg-{n_seg:06d}.parquet"))
    _write_manifest(pdir, pid, merged, wall_s)


def _write_manifest(pdir: str, pid: int, table: pa.Table, wall_s: float) -> None:
    gids = table["graph_id"]
    content = sha256_bytes(
        b"".join(sorted(d.as_py() or b"" for d in table["digest"]))
    ).hex()
    manifest = {
        "partition_id": pid,
        "rows": table.num_rows,
        "graphs": len(set(gids.to_pylist())),
        "graph_id_min": min(gids.to_pylist(), default=None),
        "graph_id_max": max(gids.to_pylist(), default=None),
        "ts_min": str(min(table["warc_ts"].to_pylist(), default=None)),
        "ts_max": str(max(table["warc_ts"].to_pylist(), default=None)),
        "content_sha256": content,
        "wall_s": round(wall_s, 4),
        "format": "deltas-v1",
    }
    fs.put_text(os.path.join(pdir, MANIFEST_NAME),
                json.dumps(manifest, sort_keys=True))


def read_manifest(out_dir: str, pid: int):
    path = os.path.join(partition_dir(out_dir, pid), MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def completed_partitions(out_dir: str) -> set:
    """Partitions with a valid manifest + data file (resume skip set)."""
    done = set()
    out_dir = fs.local(out_dir)
    if not os.path.isdir(out_dir):
        return done
    for name in os.listdir(out_dir):
        if not name.startswith("partition="):
            continue
        pid = int(name.split("=")[1])
        m = read_manifest(out_dir, pid)
        if m is not None and os.path.exists(
            os.path.join(out_dir, name, "deltas.parquet")
        ):
            done.add(pid)
    return done


def filter_completed(batch: pa.Table, key: str, num_partitions: int,
                     done: frozenset) -> pa.Table:
    """Early input prune on resume: drop rows whose partition is already
    written — pruning happens at the very first stage, so completed work
    never flows through extraction again."""
    if not done:
        return batch
    pids = partition_ids(batch[key], num_partitions)
    mask = ~np.isin(pids, list(done))
    return batch.filter(pa.array(mask))


def mark_success(out_dir: str, meta: dict) -> None:
    # atomic publish: the _SUCCESS object is the store's commit point
    fs.put_text(os.path.join(fs.local(out_dir), SUCCESS_NAME),
                json.dumps(meta, sort_keys=True))
