"""Store summary from manifests + parquet footers only — the cheap
operational ``du``/``git count-objects`` analog: no row data is read,
so it is O(files) on the driver and safe to run against a live store
(readers never lock). Complements ``fsck`` (which validates content)
with the at-a-glance numbers an operator checks first.

Exactness notes: ``rows``/``bytes``/file counts and the timestamp
range are exact (segment rows and ts bounds come from parquet footer
metadata, the same statistics the as-of pruner trusts);
``graphs_base`` counts distinct graphs in the COMPACTED base files
(from their manifests) — graphs that only exist in un-compacted append
segments are not in it, by design (counting them would read rows).
"""

from __future__ import annotations

import os

from .. import fs
from ..stages import deltas


def store_stats(delta_dir: str) -> dict:
    pids = deltas.partitions(delta_dir)
    if not pids:
        raise ValueError(f"no delta partitions under {delta_dir!r}")
    out = {
        "partitions": len(pids),
        "rows": 0,
        "graphs_base": 0,
        "base_files": 0,
        "segment_files": 0,
        "bytes": 0,
        "ts_min": None,
        "ts_max": None,
        "locked": os.path.exists(os.path.join(fs.local(delta_dir),
                                              ".write.lock")),
    }

    def fold_ts(lo, hi):
        if lo is not None:
            out["ts_min"] = lo if out["ts_min"] is None else min(
                out["ts_min"], lo)
        if hi is not None:
            out["ts_max"] = hi if out["ts_max"] is None else max(
                out["ts_max"], hi)

    for pid in pids:
        for f in deltas.segment_files(delta_dir, pid):
            out["bytes"] += os.path.getsize(f)
            n_rows, lo, hi = deltas.footer_stats(f)
            out["rows"] += n_rows
            fold_ts(lo, hi)
            if ".seg-" in os.path.basename(f):
                out["segment_files"] += 1
            else:
                out["base_files"] += 1
        man = deltas.read_manifest(delta_dir, pid)
        if man is not None:
            out["graphs_base"] += int(man.get("graphs", 0))
    for k in ("ts_min", "ts_max"):
        if out[k] is not None:
            out[k] = str(out[k])
    return out
