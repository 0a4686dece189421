"""Store consistency checker — the ``git fsck`` analog for the delta log.

Verifies, per partition and fully distributed (one verification task
per partition, vectorized inside; the driver folds one counter row per
partition), every invariant the readers rely on:

- **digest integrity**: ``digest == sha256(delta_text)`` for update
  rows (the byte-identity contract the reference enforces through its
  prettifier round-trip, ``src/rdf.rs:45-60``); delete tombstones carry
  the empty digest and empty text.
- **canonical text**: ``delta_text`` is a serializer fixpoint (sorted,
  deduped, NFC, trailing newline) — the property every digest compare
  and no-op suppression depends on.
- **hash ownership**: every row's ``partition_id`` equals both its
  directory and ``hash(graph_id) % P`` — the partition-pruning
  invariant ``QueryService.graph_at`` and constant-``GRAPH`` push-down
  rely on.
- **replay order**: ``seq`` unique and non-negative within the
  partition; per graph (ordered by ``warc_ts, seq``) timestamps are
  non-decreasing.
- **suppression / tombstone legality**: no two consecutive versions of
  a graph share a digest (no-op suppression would have dropped the
  second), ops are in {update, delete}, a graph's first event is not a
  delete and no delete follows a delete (live-only tombstones).

Returns one row per partition; :func:`fsck_ok` reduces to a boolean.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from ..schemas import OP_DELETE, OP_UPDATE
from ..shuffle_utils import sort_values_nul_safe

_VIOLATION_COLS = (
    "bad_digest", "bad_canonical", "bad_ownership", "bad_seq",
    "bad_replay", "bad_suppression", "bad_op", "bad_tombstone",
)


def _check_partition(delta_dir: str, pid: int, num_partitions: int,
                     check_canonical: bool) -> dict:
    from .. import ntriples
    from ..shuffle_utils import partition_ids
    from ..stages.deltas import read_log

    t = read_log(delta_dir, [pid])
    out = {c: 0 for c in _VIOLATION_COLS}
    out.update({"partition": pid, "n_rows": t.num_rows, "n_graphs": 0})
    if t.num_rows == 0:
        return out
    df = t.to_pandas()
    # len(drop_duplicates), not nunique(): nunique rides the NUL-
    # truncating hashtable and undercounts NUL-twin graph ids
    out["n_graphs"] = int(len(df["graph_id"].drop_duplicates()))

    is_del = df["op"] == OP_DELETE
    out["bad_op"] = int((~df["op"].isin([OP_UPDATE, OP_DELETE])).sum())

    want = df["delta_text"].map(
        lambda s: hashlib.sha256(s.encode("utf-8")).digest()
    )
    upd = ~is_del
    out["bad_digest"] = int(
        (df.loc[upd, "digest"] != want[upd]).sum()
        + (df.loc[is_del, "digest"] != b"").sum()
        + (df.loc[is_del, "delta_text"] != "").sum()
    )

    if check_canonical:
        def canonical_ok(s: str) -> bool:
            return ntriples.serialize(ntriples.parse(s)) == s

        out["bad_canonical"] = int(
            (~df.loc[upd, "delta_text"].map(canonical_ok)).sum()
        )

    own = partition_ids(df["graph_id"].tolist(), num_partitions)
    out["bad_ownership"] = int(
        ((own != pid) | (df["partition_id"].to_numpy() != pid)).sum()
    )

    seq = df["seq"].to_numpy("int64")
    out["bad_seq"] = int(
        (len(seq) - len(np.unique(seq))) + int((seq < 0).sum())
    )

    # replay order per graph is (seq): timestamps must be non-decreasing
    # along it (the monotonicity the append path pre-validates)
    srt = sort_values_nul_safe(df, ["graph_id", "seq"],
                               ignore_index=True)
    same_graph = srt["graph_id"].to_numpy()[1:] == \
        srt["graph_id"].to_numpy()[:-1]
    ts = srt["warc_ts"].astype("int64").to_numpy()
    out["bad_replay"] = int((same_graph & (ts[1:] < ts[:-1])).sum())

    digs = srt["digest"].to_numpy()
    dels = (srt["op"] == OP_DELETE).to_numpy()
    if len(srt) > 1:
        out["bad_suppression"] = int(
            (same_graph & (digs[1:] == digs[:-1])
             & ~dels[1:] & ~dels[:-1]).sum()
        )
        first_of_graph = np.concatenate([[True], ~same_graph])
        out["bad_tombstone"] = int(
            (dels & first_of_graph).sum()
            + (same_graph & dels[1:] & dels[:-1]).sum()
        )
    else:
        out["bad_tombstone"] = int(dels[0])
    return out


def fsck_store(delta_dir: str, *, check_canonical: bool = True):
    """Distributed store check: one task per partition, one counter row
    per partition back to the driver. Returns a ``pyarrow.Table`` with
    columns (partition, n_rows, n_graphs, bad_*)."""
    import ray.data as rd

    from .. import fs
    from ..stages.deltas import num_partitions as log_partitions

    # resolved here: a worker may not see the driver's mocks3 root
    delta_dir = fs.local(delta_dir)
    num_partitions = log_partitions(delta_dir)

    def check(batch: pa.Table) -> pa.Table:
        rows = [
            _check_partition(delta_dir, int(pid), num_partitions,
                             check_canonical)
            for pid in batch["pid"].to_pylist()
        ]
        return pa.Table.from_pylist(rows)

    pids = pa.table({"pid": pa.array(range(num_partitions), pa.int64())})
    report = (
        rd.from_arrow(pids)
        .map_batches(check, batch_format="pyarrow", batch_size=1)
        .to_pandas()
        .sort_values("partition", ignore_index=True)
    )
    cols = ["partition", "n_rows", "n_graphs", *_VIOLATION_COLS]
    return pa.Table.from_pandas(report[cols], preserve_index=False)


def fsck_ok(report: pa.Table) -> bool:
    df = report.to_pandas()
    return bool((df[list(_VIOLATION_COLS)].to_numpy() == 0).all())
