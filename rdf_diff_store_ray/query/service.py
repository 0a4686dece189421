"""Distributed query serving: one cached reader ACTOR per delta-log
partition, addressed by its pid, + a driver-side router that merges
partial results.

This is the cluster-scale form of :class:`..query.bgp.DiffStoreReader`
(which holds a whole small log in one process) and the engine analog of
the reference's query-cache deployment — a pool of 32 repo clones each
serving reads with its LRU caches
(``/root/reference/src/bin/rdf-query-cache.rs:137,170``,
``src/query.rs:28-43``). Raw Ray actors are justified here (not a
Dataset stage): each actor owns a *shared mutable index* — its
partition's delta table plus warm LRU caches that persist across
queries — which the streaming-batch model cannot express. The router
sits behind the same front door (:mod:`.front`) as every actor's
reader, with the same per-instant LRU and cache-level rule; the one
form it materializes itself is the merged document.

Correctness of the merge relies on the build's partitioning invariant:
the delta log is hash-partitioned by ``graph_id``, so every graph's full
version history lives in exactly one partition. The router starts one
actor per partition that has a directory (:func:`..stages.deltas.partitions`;
a build writes none for a partition no graph hashes to) and finds a
graph's owner by the commit's rule, ``hash(graph_id) % P`` with P from
the log (:func:`..stages.deltas.num_partitions`) — by pid, never by an
actor's position. State-at-ts, graph text and BGP matching are therefore
per-partition-local:

- ``graphs_at``: union of per-partition canonical N-Triples documents =
  sorted-unique merge of their lines (set-union semantics of the
  reference's merged store, ``src/query.rs:127-139``), by the same
  :func:`..state.reconstruct.union_document` that merges one store's
  live graphs — so every door serves the same bytes, blank-node labels
  included;
- ``query_at``: each pattern is pushed down — scanned per partition
  against that partition's live triples — and the router unions the
  tagged binding sets and runs the in-process reader's own driver
  (:func:`..query.bgp.answer_group`) over them: the same dataset rules,
  joins, OPTIONAL, EXISTS, SERVICE and finalization. A single pattern
  never joins across partitions, so the union is exact; router memory is
  bounded by per-pattern selectivity, never by live-state size (an
  unrestricted ``?s ?p ?o`` still transfers everything, exactly as the
  reference's full-store load does, ``src/query.rs:117-145``);
- ``metadata``: min/max over per-partition metadata.

Every actor scans its partition's per-instant Arrow triple (or quad)
table with the reader's own pattern kernel
(:func:`..query.bgp.eval_one_pattern`), and the tagged Arrow binding set
is what crosses to the router, as Arrow IPC stream bytes (a
variable-free pattern crosses as its row count: pyarrow drops a
zero-column table's rows in pickling). One actor call per partition
carries every pattern of a gather round. The router's gather is
``concat_tables`` + the kernel's first-appearance distinct. A push-down
call reports its cache level by the front door's rule: ``Query`` on a
pattern-cache hit, ``Store`` iff the instant was materialized, else
``Nothing``.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .. import fs
from ..shuffle_utils import partition_ids
from ..stages import deltas
from ..state import reconstruct
from .bgp import DiffStoreReader, _first_rows, _unit
from .front import AsOfReads, ts_key


def _ship(t: pa.Table):
    """What an actor returns for a binding set: its Arrow IPC stream
    bytes (a Ray reply of plain bytes costs about half that of a pickled
    table, measured at 600 rows on one CPU), or for a zero-column set
    its row count."""
    if not t.num_columns:
        return t.num_rows
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _land(part) -> pa.Table:
    """Inverse of :func:`_ship`."""
    return _unit(part) if isinstance(part, int) else \
        pa.ipc.open_stream(part).read_all()


def _union(tables: list) -> pa.Table:
    """The distinct union of per-partition binding sets, first
    appearance in partition order."""
    if not tables[0].num_columns:
        return _unit(min(sum(t.num_rows for t in tables), 1))
    if len(tables) == 1:
        return tables[0]
    return _first_rows(pa.concat_tables(tables))


@ray.remote
class PartitionReaderActor:
    """Delta-log partition ``pid``, loaded once, served with warm
    caches."""

    def __init__(self, delta_dir: str, pid: int):
        self.reader = DiffStoreReader(deltas.read_log(delta_dir, [pid]))

    def extend(self, rows: pa.Table) -> None:
        """Take in a write's delta rows of this partition
        (:meth:`..query.bgp.DiffStoreReader.extended`): cache entries
        before the write's first second, push-down ones included, stay
        warm. An actor runs one call at a time, so no read is in
        flight."""
        self.reader = self.reader.extended(rows)

    def graph_at(self, graph_id: str, ts):
        return self.reader.graph_at(graph_id, ts)

    def _cached(self, ts, key: tuple, scan):
        """A push-down result at ``ts``, cached beside the query cache
        under ``(k,) + key``; ``scan(k)`` computes it on a miss. Reports
        the front door's cache level: ``Query`` on a hit, ``Store`` iff
        the instant was already materialized, else ``Nothing``."""
        reader = self.reader
        k = ts_key(ts)
        hit = reader.query_cache.get((k,) + key)
        if hit is not None:
            reader.last_cache_level = "Query"
            return hit
        reader.last_cache_level = "Store" if reader._entry(k)[1] \
            else "Nothing"
        out = scan(k)
        reader.query_cache.put((k,) + key, out)
        return out

    def pattern_bindings(self, ts, patterns: list) -> list:
        """TAGGED Arrow bindings of each ``(key, pattern)`` against this
        partition's live triples (see :func:`_ship`) — the push-down unit
        of every routed query; one call carries every
        pattern of a gather round. The router ships each pattern parsed,
        with its ``format_pattern`` text as the cache key (a path AST
        holds lists, so the pattern itself is not hashable)."""
        from .bgp import eval_one_pattern

        def scan(pat):
            return lambda k: _ship(eval_one_pattern(
                self.reader._at(k, "store"), pat))

        return [self._cached(ts, (key, "tagged"), scan(pat))
                for key, pat in patterns]

    def graph_pattern_bindings(self, ts, pattern, gterm, graphs=None):
        """TAGGED bindings of one parsed GRAPH-scoped pattern against
        this partition's live QUADS (only those of ``graphs``, when
        given). Per-partition-local for the same reason plain patterns
        are: a graph's whole history lives in exactly one partition, so
        graph-scoped matches never cross partitions."""
        from .bgp import eval_pattern_in_graph, format_pattern, format_term

        key = (format_term(gterm), format_pattern(pattern), "graph",
               None if graphs is None else tuple(graphs))
        return self._cached(ts, key, lambda k: _ship(eval_pattern_in_graph(
            self.reader._at(k, "quads"), pattern, gterm, graphs)))

    def node_terms(self, ts) -> bytes:
        """Distinct tagged subject/object terms of this partition's live
        triples — the partition's share of the zero-length-path node
        universe (``*``/``?``)."""
        from .bgp import graph_node_terms

        def scan(k):
            return _ship(pa.table(
                {"__node": graph_node_terms(self.reader._at(k, "store"))}))

        return self._cached(ts, ("__node_terms__",), scan)

    def graphs_at(self, ts) -> str:
        return self.reader.graphs_at(ts)

    def graphs_at_to(self, ts, path: str) -> int:
        """Write this partition's canonical text to ``path`` (spill file
        for the router's streaming k-way merge); returns line count."""
        text = self.reader.graphs_at(ts)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
        return text.count("\n")

    def blame_at(self, ts) -> pa.Table:
        """Per-line provenance of this partition's live graphs at ``ts``
        (a graph's whole history lives in exactly one partition, so
        blame never crosses partitions)."""
        from ..state.blame import blame_table

        return blame_table(self.reader.versions, ts)

    def diff(self, ts1, ts2) -> pa.Table:
        """This partition's share of the store diff between ``ts1`` and
        ``ts2`` (a graph's whole history lives in one partition)."""
        return reconstruct.diff_table(self.reader.versions, ts1, ts2)

    def metadata(self):
        return self.reader.metadata()

    def cache_level(self) -> str:
        return self.reader.last_cache_level


class QueryService(AsOfReads):
    """Router over one :class:`PartitionReaderActor` per partition,
    behind the same as-of front door as the in-process reader
    (:mod:`.front`): one (ts, query) LRU, cacheability rule, NOW slot,
    endpoint resolution, metrics and result formats. SERVICE endpoints
    (a reader, a store directory loaded on first use, or a live
    server's URL) resolve on the router — endpoint stores are assumed
    router-sized vocabularies/metadata; a corpus-scale endpoint should
    be its own server behind SERVICE."""

    def __init__(self, delta_dir: str, services: "dict | None" = None):
        super().__init__(services)
        # resolved here: an actor need not share the router's
        # environment (a mocks3:// store's backing directory)
        delta_dir = fs.local(delta_dir)
        pids = deltas.partitions(delta_dir)
        if not pids:
            raise ValueError(f"no delta partitions under {delta_dir!r}")
        self.delta_dir = delta_dir
        self.num_partitions = deltas.num_partitions(delta_dir)
        self.actors = [PartitionReaderActor.remote(delta_dir, pid)
                       for pid in pids]
        self._actor_of = dict(zip(pids, self.actors))

    def extended(self, rows: pa.Table) -> "QueryService":
        """The router after a write of the delta ``rows``, as a new
        router over the same actors (:meth:`.front.AsOfReads._successor`
        keeps the cache entries before the write): each actor whose
        partition the rows touch takes in its share, and a partition
        that had no directory gets an actor. Untouched actors are not
        called. A read still running on ``self`` may see some
        partitions before the write and some after it."""
        if not rows.num_rows:
            return self
        new = self._successor(rows)
        new._actor_of = dict(self._actor_of)
        done = []
        for pid in pc.unique(rows["partition_id"]).to_pylist():
            if pid in new._actor_of:
                part = rows.filter(pc.equal(rows["partition_id"], pid))
                done.append(new._actor_of[pid].extend.remote(part))
            else:
                new._actor_of[pid] = PartitionReaderActor.remote(
                    self.delta_dir, pid)
        new.actors = [new._actor_of[pid] for pid in sorted(new._actor_of)]
        ray.get(done)
        return new

    def _owners(self, graph_ids: list) -> list:
        """The actors of the partitions that own ``graph_ids`` by the
        commit's rule, ``hash(graph_id) % P``, in pid order; a partition
        with no directory holds no graph and has no actor."""
        pids = sorted({int(p) for p in
                       partition_ids(graph_ids, self.num_partitions)})
        return [self._actor_of[p] for p in pids if p in self._actor_of]

    # defined on the class itself, not only inherited: the traced
    # benchmark patches QueryService.__dict__ (perfbench/tracing.py)
    def query_at(self, ts, query: str) -> pd.DataFrame:
        return AsOfReads.query_at(self, ts, query)

    def graphs_at(self, ts) -> str:
        return AsOfReads.graphs_at(self, ts)

    def _materialize(self, form: str, k: int) -> str:
        """The router materializes one form, the merged document: the
        line union of the partition actors' documents, by the same merge
        as one store's ``graphs_at``. Queries run in the actors."""
        assert form == "graphs", form
        texts = ray.get([a.graphs_at.remote(k) for a in self.actors])
        return reconstruct.union_document(texts)

    def _evaluate(self, g: dict, query: str, k: int,
                  endpoints: "dict | None", finalize: bool) -> pd.DataFrame:
        """Gather, then the one driver (:func:`..query.bgp.answer_group`):
        every pattern is scanned IN the partition actors, and the router
        unions the tagged binding sets. The router never holds live
        triples, only per-pattern binding sets."""
        from . import bgp

        gathered: dict = {}

        def gather(pats):
            # one actor call per partition for the whole round
            todo = [(ps, pat) for ps, pat in
                    dict(zip(map(bgp.format_pattern, pats), pats)).items()
                    if ps not in gathered]
            if todo:
                parts = ray.get([a.pattern_bindings.remote(k, todo)
                                 for a in self.actors])
                for i, (ps, _) in enumerate(todo):
                    gathered[ps] = _union([_land(p[i]) for p in parts])

        def nodes():
            # the zero-length step of */?: the partitions' distinct terms
            # (store-vocabulary-sized, the bound of a ?s ?p ?o gather)
            return [c for p in ray.get([a.node_terms.remote(k)
                                        for a in self.actors])
                    for c in _land(p)["__node"].chunks]

        def gathered_scan(pat):
            gather([pat])
            return gathered[bgp.format_pattern(pat)]

        def scan(pat):
            if pat[1][0] == "path":
                # a transitive chain may cross partitions: gather each
                # predicate's edges from all of them, close on the router
                return bgp.path_bindings(pat, gathered_scan, nodes)
            return gathered_scan(pat)

        def graph_scan(pat, gterm, graphs=None):
            # a graph lives wholly in one partition: named graphs are
            # pruned to their owners, a variable over all graphs fans
            # out; a path inside GRAPH never crosses graphs, so the
            # actors evaluate it
            names = [gterm[1]] if gterm[0] == "iri" else graphs
            actors = self.actors if names is None else self._owners(names)
            if not actors:
                return bgp.empty_bindings(pat, gterm)
            return _union([_land(p) for p in ray.get([
                a.graph_pattern_bindings.remote(k, pat, gterm, graphs)
                for a in actors])])

        if not (g.get("from_graphs") or g.get("from_named")):
            # the group's own default-graph patterns, in one round
            gather([p for p in g["patterns"] if p[1][0] != "path"])
        return bgp.answer_group(g, scan, graph_scan, endpoints, finalize)

    def graph_at(self, graph_id: str, ts):
        """Point lookup with PARTITION PRUNING: the build's
        ``hash(graph_id) % P`` ownership means exactly one actor can hold
        this graph — only that partition is touched (the per-graph
        point-read of ``store_graph``'s equality check,
        ``src/graphs.rs:52-58``, served without scanning the store)."""
        owners = self._owners([graph_id])
        return ray.get(owners[0].graph_at.remote(graph_id, ts)) \
            if owners else None

    def graphs_at_to(self, ts, out_path: str, work_dir: str | None = None
                     ) -> int:
        """Streamed form of :meth:`graphs_at` for stores whose merged
        document exceeds router memory: every partition actor writes its
        own (already sorted, deduped) canonical text to a spill file,
        and the router k-way-merges the files line-by-line (one line per
        partition in memory) into ``out_path``, deduplicating across
        partitions. Byte-identical to ``graphs_at`` (parity-tested).
        Returns the merged line count.

        Spill files live under ``work_dir`` (a temp dir next to
        ``out_path`` by default) — on a multi-node cluster this must be
        shared storage reachable by actors and router alike, the same
        assumption the delta log itself makes."""
        import heapq
        import shutil
        import tempfile

        work = work_dir or tempfile.mkdtemp(
            prefix=".graphs_at_", dir=os.path.dirname(out_path) or "."
        )
        os.makedirs(work, exist_ok=True)
        part_paths = [
            os.path.join(work, f"part-{i:05d}.nt")
            for i in range(len(self.actors))
        ]
        ray.get([
            a.graphs_at_to.remote(ts, p)
            for a, p in zip(self.actors, part_paths)
        ])
        n = 0
        tmp_out = out_path + ".tmp"
        # newline="\n": a line ends at "\n" only, as in graphs_at
        files = [open(p, "r", encoding="utf-8", newline="\n")
                 for p in part_paths]
        try:
            with open(tmp_out, "w", encoding="utf-8") as out:
                prev = None
                for line in heapq.merge(*files):
                    if line != prev:
                        out.write(line)
                        n += 1
                    prev = line
        finally:
            for f in files:
                f.close()
            if work_dir is None:
                shutil.rmtree(work, ignore_errors=True)
        os.replace(tmp_out, out_path)
        return n

    def blame_at(self, ts) -> pd.DataFrame:
        """Distributed per-line provenance (the git-blame analog): every
        partition actor computes blame over its own graphs in parallel,
        the router concatenates — no cross-partition state, the same
        ownership argument as :meth:`graph_at`. Sorted (graph_id, line)."""
        t = pa.concat_tables(
            ray.get([a.blame_at.remote(ts) for a in self.actors]))
        return t.take(pc.sort_indices(t, sort_keys=[
            ("graph_id", "ascending"), ("line", "ascending")])).to_pandas()

    def diff(self, ts1, ts2) -> pd.DataFrame:
        """Distributed :meth:`..query.bgp.DiffStoreReader.diff`: every
        partition actor diffs its own graphs, the router concatenates —
        the ownership argument of :meth:`blame_at`. Sorted
        (graph_id, change, line)."""
        k1, k2 = ts_key(ts1), ts_key(ts2)
        t = pa.concat_tables(
            ray.get([a.diff.remote(k1, k2) for a in self.actors]))
        return t.take(pc.sort_indices(t, sort_keys=[
            (c, "ascending") for c in ("graph_id", "change", "line")
        ])).to_pandas()

    def metadata(self):
        metas = [m for m in ray.get([a.metadata.remote() for a in self.actors])
                 if m[0] is not None]
        if not metas:
            return (None, None)
        return (min(m[0] for m in metas), max(m[1] for m in metas))

    def cache_levels(self) -> list:
        return ray.get([a.cache_level.remote() for a in self.actors])

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []
