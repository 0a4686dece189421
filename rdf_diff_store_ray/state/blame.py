"""Per-line provenance over the delta log — the ``git blame`` analog.

The reference stores one git commit per graph change
(``/root/reference/src/git.rs:151-190``), so "which commit introduced
this triple" is answerable there with ``git blame`` over the graph file.
This module answers the same question over the parquet delta log: for
every canonical N-Triples line live at ``ts``, the timestamp of the
version that STARTED the line's current uninterrupted run of versions
(a line that was removed and later re-added blames the re-add, exactly
like git blame on a reverted-then-restored hunk).

Semantics:

- Versions of a graph are ordered by ``(warc_ts, seq)`` — the explicit
  replay total order; same-second appends resolve by write order.
- A ``delete`` version contributes no lines but still occupies a rank,
  so it breaks every line's run (delete + re-add re-blames all lines).
- Graphs whose latest op at ``ts`` is ``delete`` are absent.

:func:`blame_table` is one more kernel over the lines primitive of
:mod:`.reconstruct`: it explodes every version row ``<= ts`` with the
same :func:`.reconstruct.explode_lines` and sorts with Arrow, which
compares full bytes (NUL-distinct graph ids stay distinct). The
distributed :func:`blame` runs it per partition through the shared
Dataset driver :func:`.reconstruct.per_partition`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import OP_DELETE, ensure_seq
from . import reconstruct


def _starts(a: np.ndarray) -> np.ndarray:
    """True where ``a[i]`` differs from ``a[i - 1]`` (and at ``i = 0``)."""
    out = np.ones(len(a), bool)
    out[1:] = a[1:] != a[:-1]
    return out


def _ends(starts: np.ndarray) -> np.ndarray:
    """True at the last element of each run that ``starts`` opens."""
    return np.r_[starts[1:], True][:len(starts)]


def blame_table(deltas: pa.Table, ts) -> pa.Table:
    """``(graph_id, line, since_ts)`` per canonical line live at ``ts``,
    sorted by ``(graph_id, line)``. Canonical text is sorted + deduped so
    a (graph, line, version) triple is unique — line-level runs equal
    triple-level runs with no parsing."""
    t = ensure_seq(deltas)
    t = t.filter(pc.less_equal(t["warc_ts"].cast(pa.timestamp("s")),
                               reconstruct._ts_scalar(ts)))
    t = t.take(pc.sort_indices(t, sort_keys=[
        ("graph_id", "ascending"), ("warc_ts", "ascending"),
        ("seq", "ascending")]))
    gid = t["graph_id"].to_numpy(zero_copy_only=False)
    starts = _starts(gid)
    graph = np.cumsum(starts) - 1  # row -> its graph's run
    vrank = np.arange(len(gid)) - np.flatnonzero(starts)[graph]
    last = np.flatnonzero(_ends(starts))
    live = t["op"].to_numpy(zero_copy_only=False)[last] != OP_DELETE
    t = t.append_column("vrank", pa.array(vrank, pa.int64()))
    t = t.append_column("last_rank", pa.array(vrank[last][graph], pa.int64()))
    ex = reconstruct.explode_lines(
        t.filter(pa.array(live[graph], pa.bool_())),
        ("graph_id", "warc_ts", "vrank", "last_rank"))
    ex = ex.take(pc.sort_indices(ex, sort_keys=[
        ("graph_id", "ascending"), ("line", "ascending"),
        ("vrank", "ascending")]))

    g = ex["graph_id"].to_numpy(zero_copy_only=False)
    line = ex["line"].to_numpy(zero_copy_only=False)
    vr = ex["vrank"].to_numpy()
    # a run breaks when the (graph, line) key changes OR the line skipped
    # a version rank (absent from some intermediate version, incl. deletes)
    brk = _starts(g) | _starts(line) | _starts(vr - np.arange(len(vr)))
    run = np.cumsum(brk) - 1
    # a run is live when its last version is its graph's last version
    live_run = (vr == ex["last_rank"].to_numpy())[_ends(brk)]
    out = ex.filter(pa.array(brk & live_run[run], pa.bool_()))
    return pa.table({
        "graph_id": out["graph_id"].cast(pa.string()),
        "line": out["line"].cast(pa.string()),
        "since_ts": out["warc_ts"].cast(pa.timestamp("s")),
    })


def blame(deltas_ds, ts):
    """Distributed blame: every partition of the shared Dataset driver
    runs :func:`blame_table` over its graphs' versions ``<= ts``."""
    return reconstruct.per_partition(deltas_ds, ts,
                                     lambda t: blame_table(t, ts))
