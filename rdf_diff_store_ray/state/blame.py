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

:func:`blame_table` is one more kernel over the prepared table of
:mod:`.reconstruct` (:class:`.reconstruct.Versions`): the versions
``<= ts`` are a prefix of each graph's sorted run, their lines are ids
into the one line dictionary (sorted bytewise, so NUL-distinct lines
stay distinct), and the runs are found with integer sorts — no per-read
explode of the log. The distributed :func:`blame` runs it per
partition through the shared Dataset driver
:func:`.reconstruct.per_partition`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import reconstruct
from .reconstruct import _starts


def _ends(starts: np.ndarray) -> np.ndarray:
    """True at the last element of each run that ``starts`` opens."""
    return np.r_[starts[1:], True][:len(starts)]


def blame_table(deltas, ts) -> pa.Table:
    """``(graph_id, line, since_ts)`` per canonical line live at ``ts``,
    sorted by ``(graph_id, line)``. Canonical text is sorted + deduped so
    a (graph, line, version) triple is unique — line-level runs equal
    triple-level runs with no parsing. ``deltas`` is a delta table or
    one prepared by :func:`.reconstruct.prepare`."""
    v = reconstruct.prepare(deltas)
    # the versions <= ts: a prefix of each graph's run of versions
    pos = np.flatnonzero(v.sec <= reconstruct._instant(ts))
    starts = v.first[pos]
    graph = np.cumsum(starts) - 1  # row -> its graph's run
    vrank = np.arange(len(pos)) - np.flatnonzero(starts)[graph]
    last = np.flatnonzero(_ends(starts))
    last_rank = vrank[last][graph]
    keep = v.kept[pos][last][graph]  # the graph is live at ts
    pos, graph = pos[keep], graph[keep]
    vrank, last_rank = vrank[keep], last_rank[keep]
    parent, line = v.lines_of(v.rows["delta_text"].take(pos))
    g, vr, lr = graph[parent], vrank[parent], last_rank[parent]
    # graph runs follow graph_id order and line ids the lines' bytewise
    # order, so this is the (graph_id, line, version) order
    order = np.lexsort((vr, line, g))
    g, line, vr, lr = g[order], line[order], vr[order], lr[order]
    row = pos[parent[order]]
    # a run breaks when the (graph, line) key changes OR the line skipped
    # a version rank (absent from some intermediate version, incl. deletes)
    brk = _starts(g) | _starts(line) | _starts(vr - np.arange(len(vr)))
    run = np.cumsum(brk) - 1
    # a run is live when its last version is its graph's last version
    live_run = (vr == lr)[_ends(brk)]
    sel = np.flatnonzero(brk & live_run[run])
    return pa.table({
        "graph_id": v.rows["graph_id"].take(row[sel]).cast(pa.string()),
        "line": v.lines.take(line[sel]).cast(pa.string()),
        "since_ts": pa.array(v.sec[row[sel]], pa.timestamp("s")),
    })


def blame(deltas_ds, ts):
    """Distributed blame: every partition of the shared Dataset driver
    runs :func:`blame_table` over its graphs' versions ``<= ts``."""
    return reconstruct.per_partition(deltas_ds, ts,
                                     lambda t: blame_table(t, ts))
