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
- ``query_at``: a single-pattern query with row-local filters and no
  nested group is evaluated per partition against that partition's live
  triples and the bindings are concatenated, deduplicated and sorted
  (exact — a single pattern never joins across partitions). Any other
  query (joins, OPTIONAL, EXISTS, SERVICE, …) pushes EACH pattern
  down the same way and joins the unioned tagged binding sets on the
  router with the local evaluator's own algebra — router memory is
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
``concat_tables`` + the kernel's first-appearance distinct, and its
joins, GROUP BY and finalization are the local evaluator's Arrow
operators. A push-down call reports its cache level by
the front door's rule: ``Query`` on a pattern-cache hit, ``Store`` iff
the instant was materialized, else ``Nothing``.
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
from .bgp import (DiffStoreReader, _distinct_sorted, _first_rows, _frame,
                  _table, _unit)
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

    def query_at(self, ts, query: str) -> pd.DataFrame:
        return self.reader.query_at(ts, query)

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
        of the distributed multi-pattern path; one call carries every
        pattern of a gather round. The router ships each pattern parsed,
        with its ``format_pattern`` text as the cache key (a path AST
        holds lists, so the pattern itself is not hashable)."""
        from .bgp import eval_one_pattern

        def scan(pat):
            return lambda k: _ship(eval_one_pattern(
                self.reader._at(k, "store"), pat))

        return [self._cached(ts, (key, "tagged"), scan(pat))
                for key, pat in patterns]

    def graph_pattern_bindings(self, ts, pattern, gterm):
        """TAGGED bindings of one parsed GRAPH-scoped pattern against
        this partition's live QUADS. Per-partition-local for the same
        reason plain patterns are: a graph's whole history lives in
        exactly one partition, so graph-scoped matches never cross
        partitions."""
        from .bgp import eval_pattern_in_graph, format_pattern, format_term

        return self._cached(
            ts, (format_term(gterm), format_pattern(pattern), "graph"),
            lambda k: _ship(eval_pattern_in_graph(
                self.reader._at(k, "quads"), pattern, gterm)))

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


def _per_partition(g: dict) -> bool:
    """True when a query's answer is the sorted, deduplicated union of
    its per-partition answers: one non-path pattern whose FILTERs are
    row-local (no nested group anywhere — expression-level EXISTS
    included — since a nested group may join across partitions), and no
    solution modifier, which must apply once after the merge. Property
    paths never qualify: a transitive chain may cross partitions."""
    from .bgp import walk_groups

    pats = g["patterns"]
    return (len(pats) == 1 and pats[0][1][0] != "path"
            and not g.get("values") and not g.get("binds")
            and all(sub is g for sub in walk_groups(g))
            and g.get("select") is None and not g.get("distinct")
            and not g.get("order_by") and g.get("limit") is None
            and not g.get("offset") and not g.get("ask")
            and g.get("construct") is None and g.get("describe") is None)


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

    def _owners(self, graph_id: str) -> list:
        """The actor of the partition that owns ``graph_id`` by the
        commit's rule, ``hash(graph_id) % P``, as a list: empty when that
        partition has no directory, so holds no graph."""
        pid = int(partition_ids([graph_id], self.num_partitions)[0])
        return [self._actor_of[pid]] if pid in self._actor_of else []

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
        # a query the partitions can answer alone runs in the actors and
        # the answers are unioned; everything else pushes each pattern
        # down and joins BINDINGS on the router, which never holds live
        # triples, only per-pattern binding sets. SERVICE endpoints live
        # on the router, so SERVICE always takes the push-down path.
        if finalize and not endpoints and (len(self.actors) == 1
                                           or _per_partition(g)):
            parts = ray.get([a.query_at.remote(k, query)
                             for a in self.actors])
            if not len(parts[0].columns):
                return _frame(_unit(min(sum(map(len, parts)), 1)))
            parts = [p for p in parts if len(p)] or parts[:1]
            if len(parts) == 1:
                return parts[0]
            return _frame(_distinct_sorted(
                pa.concat_tables([_table(p) for p in parts])))
        return self._push_down(k, g, endpoints, finalize)

    def _push_down(self, ts, group: dict, endpoints: "dict | None",
                   finalize: bool) -> pd.DataFrame:
        """Multi-pattern / OPTIONAL evaluation with per-pattern push-down:
        every pattern is evaluated against each partition's live triples
        IN the partition actor; the router unions the tagged binding sets
        and runs the identical join/OPTIONAL/FILTER algebra
        (:func:`..query.bgp.eval_group`). Correct because a single
        pattern never joins across partitions, and all cross-pattern
        joining happens over the unioned bindings. Router memory is
        bounded by pattern selectivity, not live-state size — a
        ``?s ?p ?o`` pattern still transfers everything, exactly as the
        reference's full-store load does (``src/query.rs:117-145``)."""
        from .bgp import (
            _empty,
            _pairs,
            _tagged_result,
            bindings_from_pairs,
            eval_group,
            eval_path_pairs,
            finish_query,
            format_pattern,
            service_evaluator,
        )

        gathered: dict = {}

        def _none(pat):
            return _empty(sorted({v for k, v in pat if k == "var"}))

        def gather(pats):
            # one actor call per partition for the whole round
            todo = [(ps, pat) for ps, pat in
                    dict(zip(map(format_pattern, pats), pats)).items()
                    if ps not in gathered]
            if todo:
                parts = ray.get([a.pattern_bindings.remote(ts, todo)
                                 for a in self.actors])
                for i, (ps, _) in enumerate(todo):
                    gathered[ps] = _union([_land(p[i]) for p in parts])

        def gather_pattern(pat):
            gather([pat])
            return gathered[format_pattern(pat)]

        def pattern_bindings(pat):
            s, p, o = pat
            if p[0] != "path":
                return gather_pattern(pat)
            # property path: gather each atomic predicate's EDGES from
            # all partitions (a transitive chain may cross partitions),
            # close over the union on the router, then bind s/o —
            # router memory is bounded by the path predicates' edge
            # counts, the same bound a ?s <p> ?o pattern already has
            def edges_of(iri) -> pa.Table:
                if isinstance(iri, tuple) and iri[0] == "not":
                    # negated property set: gather ALL edges (the same
                    # store-bound transfer an unrestricted ?s ?p ?o
                    # already has) and drop the named predicates
                    e = gather_pattern(
                        (("var", "_ps"), ("var", "_pp"), ("var", "_po"))
                    )
                    e = e.filter(pc.invert(pc.is_in(
                        e["_pp"], pa.array(["I" + i for i in iri[1]],
                                           pa.string()))))
                    return _first_rows(_pairs(e["_ps"], e["_po"]))
                e = gather_pattern(
                    (("var", "_ps"), ("iri", iri), ("var", "_po"))
                )
                return _pairs(e["_ps"], e["_po"])

            def nodes_of() -> pa.Array:
                # zero-length component of */?: union the partitions'
                # distinct term vocabularies (store-vocabulary-sized —
                # the same transfer bound as a ?s ?p ?o gather's terms),
                # plus the pattern's constant endpoints per the spec
                parts = [_land(p)["__node"] for p in ray.get(
                    [a.node_terms.remote(ts) for a in self.actors])]
                extras = [
                    ("I" if kind == "iri" else "L") + val
                    for kind, val in (s, o)
                    if kind in ("iri", "lit")
                ]
                return pc.unique(pa.chunked_array(
                    [c for p in parts for c in p.chunks]
                    + [pa.array(extras, pa.string())], pa.string()))

            return bindings_from_pairs(
                eval_path_pairs(p[1], edges_of, nodes_of), s, o
            )

        def graph_pattern_in(pat, gterm):
            """GRAPH-scoped pattern fan-out (constant IRI = pruned to the
            owning partition, variable = all partitions). Property paths
            are per-partition evaluable HERE, unlike in the default
            graph: a path inside GRAPH never crosses graphs, and every
            graph lives wholly in one partition."""
            # partition pruning: hash ownership puts a named graph in
            # exactly one partition (same rule as graph_at)
            actors = self._owners(gterm[1]) if gterm[0] == "iri" \
                else self.actors
            if not actors:
                return _none(pat)
            return _union([_land(p) for p in ray.get([
                a.graph_pattern_bindings.remote(ts, pat, gterm)
                for a in actors
            ])])

        fg = group.get("from_graphs") or []
        fn = group.get("from_named") or []
        if fg or fn:
            # explicit dataset: default-graph patterns range over the
            # union of the FROM graphs (each fetched partition-pruned),
            # GRAPH clauses only over the FROM NAMED list — mirrors
            # eval_bgp's dataset rules on the distributed path
            def pattern_bindings(pat):  # noqa: F811
                if pat[1][0] == "path":
                    raise ValueError(
                        "property paths with FROM are not supported by "
                        "the distributed service (use DiffStoreReader)"
                    )
                if not fg:  # only FROM NAMED: the default graph is empty
                    return _none(pat)
                return _union([graph_pattern_in(pat, ("iri", g))
                               for g in fg])

            def graph_bindings(pat, gterm):
                if gterm[0] == "iri":
                    if gterm[1] not in fn:
                        return _none(pat)
                    return graph_pattern_in(pat, gterm)
                out = graph_pattern_in(pat, gterm)
                gvar = gterm[1]
                if gvar in out.column_names:
                    out = out.filter(pc.is_in(out[gvar], pa.array(
                        ["I" + g for g in fn], pa.string())))
                return out

        else:
            graph_bindings = graph_pattern_in
            # the group's own patterns are all scanned: gather them in
            # one round
            gather([p for p in group["patterns"] if p[1][0] != "path"])

        res = eval_group(group, pattern_bindings, graph_bindings,
                         service_evaluator(endpoints))
        if not finalize:
            return _tagged_result(res, group)
        return finish_query(res, group, pattern_bindings)

    def graph_at(self, graph_id: str, ts):
        """Point lookup with PARTITION PRUNING: the build's
        ``hash(graph_id) % P`` ownership means exactly one actor can hold
        this graph — only that partition is touched (the per-graph
        point-read of ``store_graph``'s equality check,
        ``src/graphs.rs:52-58``, served without scanning the store)."""
        owners = self._owners(graph_id)
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
