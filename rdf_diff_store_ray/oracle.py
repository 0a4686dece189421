"""Single-process reference oracle (deliberately simple, no Ray).

Replicates the observable semantics of the reference's git-backed diff
store so the distributed engine can be tested against it:

- :meth:`RefDiffStore.store` = ``store_graph``
  (``/root/reference/src/graphs.rs:35-79``): upsert with **no-op
  suppression** — storing byte-identical content creates no new version
  (``src/graphs.rs:52-61``; asserted by ``test_no_diff``,
  ``tests/integration_test.rs:96-125``).
- :meth:`RefDiffStore.delete` = ``delete_graph`` (``src/graphs.rs:82-93``):
  a first-class tombstone delta.
- :meth:`RefDiffStore.checkout` = ``checkout_timestamp``
  (``src/git.rs:151-189``): as-of semantics — binary search over sorted
  commit times, take the predecessor; a timestamp before the first commit
  yields the **empty** state (``Err(0)`` → empty, ``src/git.rs:157-159``).
- :meth:`RefDiffStore.combined_graph` = ``combine_graphs`` + store dedup
  (``src/query.rs:127-169``): union of all live graphs' triples in one
  default graph, graph identity erased.
- :meth:`RefDiffStore.metadata` = ``repo_metadata`` (``src/git.rs:78-85``):
  (first, last) commit time.

Version axis is unix **seconds** like the reference (``src/git.rs:82,157``).
Ties on the same second: last event in stable input order wins (documented
tie-break; the reference cannot produce ties going backwards since commits
are appended with ``Signature::now``, ``src/git.rs:208``).
"""

from __future__ import annotations

import bisect
from collections import defaultdict

from . import ntriples


class RefDiffStore:
    """Dict-based in-memory stand-in for the git repo + worktree."""

    def __init__(self) -> None:
        # graph_id -> list[(ts, op, text, digest)] in applied order
        self.log: dict[str, list] = defaultdict(list)
        self.commit_times: list[int] = []  # every applied commit, sorted on read

    # -- write path ----------------------------------------------------------
    def store(self, graph_id: str, ts: int, text: str) -> bool:
        """Upsert; returns True if a new version was committed, False when
        suppressed as a no-op (byte-identical to current content)."""
        cur = self._current(graph_id, ts)
        if cur is not None and cur == text:
            return False
        digest = ntriples.sha256_text(text)
        self.log[graph_id].append((ts, "update", text, digest))
        self.commit_times.append(ts)
        return True

    def delete(self, graph_id: str, ts: int) -> bool:
        """Tombstone; returns False if the graph is already absent."""
        if self._current(graph_id, ts) is None:
            return False
        self.log[graph_id].append((ts, "delete", "", b""))
        self.commit_times.append(ts)
        return True

    def _current(self, graph_id: str, ts: int):
        """Content of graph at ts (inclusive), honoring tombstones."""
        state = None
        for ets, op, text, _ in self.log.get(graph_id, ()):
            if ets <= ts:
                state = text if op == "update" else None
        return state

    # -- read path -----------------------------------------------------------
    def version_times(self) -> list:
        return sorted(self.commit_times)

    def as_of_time(self, ts: int):
        """Latest commit time <= ts, or None (pre-history → empty state)."""
        times = self.version_times()
        i = bisect.bisect_right(times, ts)
        return None if i == 0 else times[i - 1]

    def checkout(self, ts: int) -> dict:
        """{graph_id: canonical text} of all graphs live at ts."""
        if self.as_of_time(ts) is None:
            return {}
        out = {}
        for gid in self.log:
            cur = self._current(gid, ts)
            if cur is not None:
                out[gid] = cur
        return out

    def combined_graph(self, ts: int) -> str:
        """All live graphs merged into one canonical N-Triples doc (union +
        dedup, graph identity erased — ``src/query.rs:148-169``): the
        sorted distinct lines of the live graphs' canonical texts. Each
        graph keeps its own blank-node labels — one graph's labels never
        change because another graph is live beside it."""
        lines = {ln for text in self.checkout(ts).values()
                 for ln in text.split("\n") if ln}
        return "".join(ln + "\n" for ln in sorted(lines))

    def metadata(self):
        """(start_time, end_time) or (None, None) for an empty store."""
        times = self.version_times()
        if not times:
            return (None, None)
        return (times[0], times[-1])

    def deltas(self):
        """Flat delta log rows [(graph_id, ts, op, text, digest)] sorted by
        (graph_id, ts, applied order) — the comparison target for the
        engine's materialized delta table."""
        rows = []
        for gid in sorted(self.log):
            for ts, op, text, digest in self.log[gid]:
                rows.append((gid, ts, op, text, digest))
        return rows


def replay_pages(page_versions, snapshot_times) -> RefDiffStore:
    """Replay per-(url, ts) canonical texts into a :class:`RefDiffStore`,
    inferring deletes from snapshot absence: a url live at snapshot k but
    absent from snapshot k+1 is deleted at snapshot k+1's timestamp (the
    crawl analog of the reference's DELETE endpoint,
    ``src/bin/rdf-diff-writer.rs:72-91``).

    ``page_versions``: iterable of (url, ts, canonical_text).
    ``snapshot_times``: the full, sorted crawl snapshot grid.
    """
    by_ts = defaultdict(dict)  # ts -> {url: text}
    urls = set()
    for url, ts, text in page_versions:
        by_ts[int(ts)][url] = text
        urls.add(url)
    store = RefDiffStore()
    live: set[str] = set()
    for ts in sorted(snapshot_times):
        present = by_ts.get(int(ts), {})
        for url in sorted(live - set(present)):
            store.delete(url, int(ts))
            live.discard(url)
        for url in sorted(present):
            store.store(url, int(ts), present[url])
            live.add(url)
    return store
