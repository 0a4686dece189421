"""Distributed query service (per-partition reader actors + router) must
agree with the single-reader path over the same delta log."""

import os

import pandas as pd
import pytest


@pytest.fixture(scope="module")
def service(ray_session, built):
    from rdf_diff_store_ray.query.service import QueryService

    svc = QueryService(built.delta_dir)
    yield svc
    svc.shutdown()


@pytest.fixture(scope="module")
def single_reader(built):
    from rdf_diff_store_ray.query.bgp import DiffStoreReader

    return DiffStoreReader(built.delta_table())


@pytest.fixture(scope="module")
def one_partition(ray_session, built, tmp_path_factory):
    """A router over the built store rewritten as a one-partition log
    (one actor), ``seq`` renumbered in the old partitions' replay order."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from rdf_diff_store_ray.query.service import QueryService
    from rdf_diff_store_ray.stages.deltas import write_partition
    from rdf_diff_store_ray.state.append import init_log

    store = init_log(str(tmp_path_factory.mktemp("one") / "deltas"),
                     num_partitions=1)
    t = built.delta_table()
    t = t.take(pc.sort_indices(t, sort_keys=[("partition_id", "ascending"),
                                             ("seq", "ascending")]))
    n = t.num_rows
    t = t.set_column(t.schema.get_field_index("partition_id"),
                     t.schema.field("partition_id"),
                     pa.array([0] * n, pa.int32()))
    t = t.set_column(t.schema.get_field_index("seq"), t.schema.field("seq"),
                     pa.array(range(n), pa.int64()))
    write_partition(store, 0, t, wall_s=0.0)
    svc = QueryService(store)
    assert len(svc.actors) == 1
    yield svc
    svc.shutdown()


@pytest.fixture(scope="module")
def backends(ray_session, built):
    """``server.StoreBackend`` over the built store, in-process and
    distributed."""
    from rdf_diff_store_ray.server import StoreBackend

    pair = [StoreBackend(built.delta_dir, distributed=d)
            for d in (False, True)]
    yield pair
    for b in pair:
        b.close()


def _end_ts(single_reader):
    _, hi = single_reader.metadata()
    return int(pd.Timestamp(hi).timestamp())


def test_metadata_matches(service, single_reader):
    assert service.metadata() == single_reader.metadata()


def test_graphs_at_matches(service, single_reader):
    ts = _end_ts(single_reader)
    assert service.graphs_at(ts) == single_reader.graphs_at(ts)
    lo, _ = single_reader.metadata()
    pre = int(pd.Timestamp(lo).timestamp()) - 10
    assert service.graphs_at(pre) == single_reader.graphs_at(pre) == ""


def test_query_at_matches(service, one_partition, single_reader):
    """The router over four partitions and over one answers as the
    single reader does: the benchmark's four query shapes, ``SELECT *``
    over one pattern, a bare pattern and a CONSTRUCT."""
    from perfbench.oracle_gate import QUERIES

    from rdf_diff_store_ray.corpus import P_ACQUIRED, PROP_NS

    ts = _end_ts(single_reader)
    q = f"?s <{P_ACQUIRED}> ?o"
    assert len(single_reader.query_at(ts, q)) > 0
    for router in (service, one_partition):
        for q in (
            q,
            f"SELECT * WHERE {{ ?s <{P_ACQUIRED}> ?o }}",
            f"CONSTRUCT {{ ?o <{PROP_NS}acquiredBy> ?s }} "
            f"WHERE {{ ?s <{P_ACQUIRED}> ?o }}",
            *QUERIES.values(),
        ):
            pd.testing.assert_frame_equal(router.query_at(ts, q),
                                          single_reader.query_at(ts, q))


def test_query_caches_warm(service, single_reader):
    """Layered caching: the ACTOR level warms on a repeat that reaches
    it (bypassing the router LRU, which would otherwise short-circuit)."""
    from rdf_diff_store_ray.query.bgp import parse_query

    ts = _end_ts(single_reader)
    q = "?s <https://kg.example/prop/partnersWith> ?o"
    service.query_at(ts, q)
    service._evaluate(parse_query(q), q, ts, None, True)
    assert all(lv == "Query" for lv in service.cache_levels())


def test_push_down_reports_cache_levels(service, single_reader):
    """The actors' push-down calls report the front door's cache level:
    the second pattern of a cold 2-pattern query finds its instant
    materialized (Store); a repeat that reaches the actors hits their
    pattern cache (Query)."""
    from rdf_diff_store_ray.corpus import P_ACQUIRED, P_HQ
    from rdf_diff_store_ray.query.bgp import parse_query

    ts = _end_ts(single_reader) + 4321  # an instant no other test reads
    q = f"?a <{P_ACQUIRED}> ?b . ?b <{P_HQ}> ?c"
    service.query_at(ts, q)
    assert service.cache_levels() == ["Store"] * len(service.actors)
    # the router LRU would answer a plain repeat without the actors
    service._evaluate(parse_query(q), q, ts, None, True)
    assert service.cache_levels() == ["Query"] * len(service.actors)


def test_float_unix_seconds_read_the_same_instant(service, single_reader):
    """A float timestamp is unix seconds (floored), like an int — not
    nanoseconds, which read the empty pre-history state."""
    from rdf_diff_store_ray.corpus import P_ACQUIRED

    ts = _end_ts(single_reader)
    q = f"?s <{P_ACQUIRED}> ?o"
    want = single_reader.query_at(ts, q)
    assert len(want)
    graph_id = single_reader.query_at(
        ts, "SELECT ?g WHERE { GRAPH ?g { ?s ?p ?o } } LIMIT 1")["g"][0]
    text = single_reader.graph_at(graph_id, ts)
    assert text
    for t in (float(ts), ts + 0.5):
        for backend in (single_reader, service):
            pd.testing.assert_frame_equal(backend.query_at(t, q), want)
            assert backend.graphs_at(t) == single_reader.graphs_at(ts)
            assert backend.graph_at(graph_id, t) == text


def test_diff_matches_single_reader(service, single_reader):
    """The router's diff (each actor diffs its own graphs) equals the
    single reader's, for forward, reversed, equal and pre-history
    instant pairs."""
    secs = sorted({int(pd.Timestamp(t).timestamp()) for t in
                   single_reader.deltas["warc_ts"].to_pylist()})
    lo, mid, hi = secs[0], secs[len(secs) // 2], secs[-1]
    pairs = [(lo, hi), (mid, hi + 5), (hi, lo), (mid, mid), (lo - 10, mid),
             (hi, lo - 10)]
    for ts1, ts2 in pairs:
        want = single_reader.diff(ts1, ts2)
        pd.testing.assert_frame_equal(service.diff(ts1, ts2), want)
    assert len(single_reader.diff(lo, hi)) and \
        not len(single_reader.diff(mid, mid))


def test_point_lookup_partition_pruned(service, single_reader, built):
    from rdf_diff_store_ray.state.reconstruct import state_at_table

    ts = _end_ts(single_reader)
    live = state_at_table(built.delta_table(), ts)
    gid = live["graph_id"][0].as_py()
    want = live["delta_text"][0].as_py()
    assert service.graph_at(gid, ts) == want
    assert service.graph_at("https://never.example/x", ts) is None
    lo, _ = single_reader.metadata()
    pre = int(pd.Timestamp(lo).timestamp()) - 10
    assert service.graph_at(gid, pre) is None  # pre-history


def test_multi_pattern_gathers_and_matches(service, single_reader):
    """Multi-pattern BGPs can join across partitions; the router gathers
    the live state and must agree with the single-reader evaluation."""
    from rdf_diff_store_ray.corpus import P_ACQUIRED, P_HQ

    ts = _end_ts(single_reader)
    for q in (
        f"?s <{P_ACQUIRED}> ?o . ?s <{P_ACQUIRED}> ?o",  # always non-empty
        f"?s <{P_ACQUIRED}> ?o . ?s <{P_HQ}> ?c",        # cross-pattern join
    ):
        got = service.query_at(ts, q)
        want = single_reader.query_at(ts, q)
        pd.testing.assert_frame_equal(got, want)
    assert len(service.query_at(ts, f"?s <{P_ACQUIRED}> ?o . ?s <{P_ACQUIRED}> ?o")) > 0


def test_distributed_filter_optional_match_single_reader(service, single_reader):
    """The push-down path (per-pattern bindings joined on the router)
    must agree with the single-reader evaluator for FILTER/OPTIONAL
    queries too — and the router never requests live triple tables."""
    from rdf_diff_store_ray.corpus import P_ACQUIRED, P_FOUNDED, P_PARTNERS

    ts = _end_ts(single_reader)
    for q in (
        f"?s <{P_FOUNDED}> ?y . FILTER(?y >= 1995)",
        f"?s <{P_ACQUIRED}> ?o . OPTIONAL {{ ?s <{P_PARTNERS}> ?p }}",
        f"?s <{P_ACQUIRED}> ?o . ?o <{P_FOUNDED}> ?y . FILTER(?y < 2005)",
    ):
        got = service.query_at(ts, q)
        want = single_reader.query_at(ts, q)
        pd.testing.assert_frame_equal(got, want)


def test_graphs_at_to_streams_identical_bytes(service, single_reader, tmp_path):
    """The streamed sink (per-partition spill + k-way merge) must produce
    byte-identical output to the in-memory merged string, at an in-history
    instant and at an empty pre-history instant."""
    ts = _end_ts(single_reader)
    out = tmp_path / "merged.nt"
    n = service.graphs_at_to(ts, str(out))
    text = out.read_text(encoding="utf-8")
    assert text == service.graphs_at(ts)
    assert n == text.count("\n") > 0
    n0 = service.graphs_at_to(0, str(out))
    assert n0 == 0 and out.read_text(encoding="utf-8") == ""


def test_select_modifiers_routed_through_distributed(service, single_reader):
    """SELECT modifiers must apply after the cross-partition merge."""
    from rdf_diff_store_ray.corpus import P_ACQUIRED

    ts = _end_ts(single_reader)
    q = f"SELECT DISTINCT ?s WHERE {{ ?s <{P_ACQUIRED}> ?o }} ORDER BY ?s LIMIT 4"
    got = service.query_at(ts, q)
    want = single_reader.query_at(ts, q)
    pd.testing.assert_frame_equal(got, want)
    assert list(got.columns) == ["s"] and len(got) <= 4


def test_ask_construct_paths_distributed_match(service, single_reader):
    """ASK/CONSTRUCT/path query forms route through the router and match
    the single-reader evaluator."""
    from rdf_diff_store_ray.corpus import P_ACQUIRED, PROP_NS

    ts = _end_ts(single_reader)
    for q in (
        f"ASK {{ ?s <{P_ACQUIRED}> ?o }}",
        "ASK { ?s <https://nope> ?o }",
        f"CONSTRUCT {{ ?o <{PROP_NS}acquiredBy> ?s }} "
        f"WHERE {{ ?s <{P_ACQUIRED}>+ ?o }}",
    ):
        got = service.query_at(ts, q)
        want = single_reader.query_at(ts, q)
        pd.testing.assert_frame_equal(got, want)


def test_minus_values_bind_exists_distributed_match(service, single_reader):
    """The r3 group algebra additions (MINUS / VALUES / BIND / EXISTS)
    evaluate once on the router and must match the single reader."""
    from rdf_diff_store_ray.corpus import P_ACQUIRED, P_HQ

    ts = _end_ts(single_reader)
    acq = single_reader.query_at(ts, f"?s <{P_ACQUIRED}> ?o")
    subjects = sorted(set(acq["s"]))[:2]
    vals = " ".join(f"<{s}>" for s in subjects)
    for q in (
        f"?s <{P_ACQUIRED}> ?o . MINUS {{ ?s <{P_HQ}> ?h }}",
        f"?s <{P_ACQUIRED}> ?o . VALUES ?s {{ {vals} }}",
        f"?s <{P_ACQUIRED}> ?o . BIND(str(?s) AS ?name)",
        f"?s <{P_ACQUIRED}> ?o . FILTER EXISTS {{ ?s <{P_HQ}> ?h }}",
        f"?s <{P_ACQUIRED}> ?o . FILTER NOT EXISTS {{ ?s <{P_HQ}> ?h }}",
        f"SELECT ?s WHERE {{ ?s <{P_ACQUIRED}> ?o . "
        f"MINUS {{ ?s <{P_HQ}> ?h }} }} ORDER BY ?s LIMIT 5",
    ):
        got = service.query_at(ts, q)
        want = single_reader.query_at(ts, q)
        pd.testing.assert_frame_equal(got, want)


def test_star_ques_describe_concat_distributed_match(service, single_reader):
    """r3 additions with router-specific machinery: zero-length paths
    gather the partitions' node universes; DESCRIBE pushes one pattern
    per resource; GROUP_CONCAT/SAMPLE aggregate once on the router."""
    from rdf_diff_store_ray.corpus import P_ACQUIRED

    ts = _end_ts(single_reader)
    acq = single_reader.query_at(ts, f"?s <{P_ACQUIRED}> ?o")
    subj = sorted(set(acq["s"]))[0]
    for q in (
        f"<{subj}> <{P_ACQUIRED}>* ?o",
        f"<{subj}> <{P_ACQUIRED}>? ?o",
        f"SELECT ?s (GROUP_CONCAT(?o) AS ?os) (SAMPLE(?o) AS ?one) "
        f"WHERE {{ ?s <{P_ACQUIRED}> ?o }} GROUP BY ?s",
        f"DESCRIBE <{subj}>",
        f"DESCRIBE ?s WHERE {{ ?s <{P_ACQUIRED}> ?o }}",
    ):
        got = service.query_at(ts, q)
        want = single_reader.query_at(ts, q)
        pd.testing.assert_frame_equal(got, want)


def test_graph_clause_distributed_matches_single_reader(service, single_reader, built):
    """GRAPH queries (constant = partition-pruned, variable = fan-out)
    must agree with the single-reader quad evaluation."""
    from rdf_diff_store_ray.corpus import P_ACQUIRED
    from rdf_diff_store_ray.state.reconstruct import state_at_table

    ts = _end_ts(single_reader)
    live = state_at_table(built.delta_table(), ts)
    gid = live["graph_id"][0].as_py()
    for q in (
        f"GRAPH <{gid}> {{ ?s ?p ?o }}",
        f"GRAPH ?g {{ ?s <{P_ACQUIRED}> ?o }}",
        f"SELECT ?g WHERE {{ GRAPH ?g {{ ?s <{P_ACQUIRED}> ?o }} }}",
        f"?s <{P_ACQUIRED}> ?o . GRAPH ?g {{ ?s <{P_ACQUIRED}> ?o }}",
    ):
        got = service.query_at(ts, q)
        want = single_reader.query_at(ts, q)
        pd.testing.assert_frame_equal(got, want)
    assert len(service.query_at(ts, f"GRAPH ?g {{ ?s <{P_ACQUIRED}> ?o }}")) > 0


def test_from_clauses_distributed_match_single_reader(service, single_reader,
                                                      built, backends):
    """FROM / FROM NAMED through the router (FROM graphs fetched
    partition-pruned, GRAPH restricted to FROM NAMED, property paths
    closed over the FROM graphs' edges) and both server backends must
    agree with the single-reader dataset evaluation: values, dtypes and
    column order."""
    from rdf_diff_store_ray.corpus import P_ACQUIRED, P_HQ
    from rdf_diff_store_ray.state.reconstruct import state_at_table

    ts = _end_ts(single_reader)
    live = state_at_table(built.delta_table(), ts)
    gids = sorted(set(live["graph_id"].to_pylist()))[:3]
    froms = " ".join(f"FROM <{g}>" for g in gids)
    named = " ".join(f"FROM NAMED <{g}>" for g in gids[:2])
    doors = [service] + [b.reader() for b in backends]
    for q in (
        f"SELECT ?s ?o {froms} WHERE {{ ?s ?p ?o }}",
        f"SELECT ?s {froms} WHERE {{ ?s <{P_ACQUIRED}> ?o }}",
        f"SELECT ?g ?s {named} WHERE {{ GRAPH ?g {{ ?s ?p ?o }} }}",
        f"SELECT ?s FROM NAMED <{gids[0]}> WHERE "
        f"{{ GRAPH <{gids[1]}> {{ ?s ?p ?o }} }}",
        # an empty default graph keeps its variables' first-occurrence
        # order
        f"SELECT * FROM NAMED <{gids[0]}> WHERE "
        f"{{ ?s ?p ?o . ?o <{P_HQ}> ?r }}",
        f"SELECT ?s ?o {froms} WHERE {{ ?s !<{P_ACQUIRED}> ?o }}",
        f"SELECT ?s ?o {froms} WHERE {{ ?s (<{P_ACQUIRED}>|<{P_HQ}>)+ ?o }}",
    ):
        want = single_reader.query_at(ts, q)
        for door in doors:
            pd.testing.assert_frame_equal(door.query_at(ts, q), want)
    # sanity: the FROM queries are non-empty
    for q in (f"SELECT ?s ?o {froms} WHERE {{ ?s ?p ?o }}",
              f"SELECT ?s ?o {froms} WHERE {{ ?s !<{P_ACQUIRED}> ?o }}",
              f"SELECT ?s ?o {froms} WHERE "
              f"{{ ?s (<{P_ACQUIRED}>|<{P_HQ}>)+ ?o }}"):
        assert len(service.query_at(ts, q)) > 0, q
    assert list(service.query_at(ts, f"SELECT * FROM NAMED <{gids[0]}> WHERE "
                                 f"{{ ?s ?p ?o . ?o <{P_HQ}> ?r }}").columns) \
        == ["s", "p", "o", "r"]


def test_subquery_distributed_matches_single_reader(service, single_reader):
    """Subqueries evaluate on the router over pushed-down pattern
    bindings; results must equal the single-reader evaluation."""
    from rdf_diff_store_ray.corpus import P_ACQUIRED

    ts = _end_ts(single_reader)
    for q in (
        f"SELECT ?s WHERE {{ ?s <{P_ACQUIRED}> ?o . "
        f"{{ SELECT ?s (COUNT(?x) AS ?c) WHERE {{ ?s <{P_ACQUIRED}> ?x }} "
        f"GROUP BY ?s ORDER BY DESC(?c) ?s LIMIT 5 }} }}",
        f"?s <{P_ACQUIRED}> ?o . {{ SELECT DISTINCT ?s WHERE "
        f"{{ ?s <{P_ACQUIRED}> ?x }} }}",
    ):
        got = service.query_at(ts, q)
        want = single_reader.query_at(ts, q)
        pd.testing.assert_frame_equal(got, want)


def test_negated_property_set_distributed_matches(service, single_reader):
    from rdf_diff_store_ray.corpus import P_ACQUIRED

    ts = _end_ts(single_reader)
    q = f"SELECT DISTINCT ?s ?o WHERE {{ ?s !<{P_ACQUIRED}> ?o }} LIMIT 50"
    got = service.query_at(ts, q)
    want = single_reader.query_at(ts, q)
    pd.testing.assert_frame_equal(got, want)
    assert len(got) > 0


def test_graph_path_distributed_matches_single_reader(service, single_reader, built):
    from rdf_diff_store_ray.corpus import P_ACQUIRED
    from rdf_diff_store_ray.state.reconstruct import state_at_table

    ts = _end_ts(single_reader)
    live = state_at_table(built.delta_table(), ts)
    gid = sorted(set(live["graph_id"].to_pylist()))[0]
    for q in (
        f"SELECT ?g ?s ?o WHERE {{ GRAPH ?g {{ ?s <{P_ACQUIRED}>+ ?o }} }}",
        f"GRAPH <{gid}> {{ ?s <{P_ACQUIRED}>* ?o }}",
    ):
        got = service.query_at(ts, q)
        want = single_reader.query_at(ts, q)
        pd.testing.assert_frame_equal(got, want)


def test_router_query_cache_returns_identical_frame(service, single_reader):
    """A repeated query is served from the router LRU — the identical
    object comes back, no re-evaluation."""
    from rdf_diff_store_ray.corpus import P_ACQUIRED

    ts = _end_ts(single_reader)
    q = f"SELECT ?s ?o WHERE {{ ?s <{P_ACQUIRED}> ?o }} LIMIT 7"
    first = service.query_at(ts, q)
    second = service.query_at(ts, q)
    assert first is second
    pd.testing.assert_frame_equal(first, single_reader.query_at(ts, q))


def test_prefix_now_builtins_distributed_match(service, single_reader):
    """Round-3 grammar additions through the router: PREFIX expansion,
    NOW() (= the as-of instant on BOTH paths), term-constructor and
    hash builtins, and the `a` keyword must agree with the single
    reader — on the pushed-down single-pattern path AND the router-side
    algebra path."""
    from rdf_diff_store_ray.corpus import P_FOUNDED

    ts = _end_ts(single_reader)
    pre = ("PREFIX kg: <https://kg.example/prop/> "
           "PREFIX ent: <https://kg.example/entity/> ")
    for q in (
        # single-pattern pushdown with a builtin FILTER
        pre + "SELECT ?s ?y WHERE { ?s kg:foundedIn ?y . "
              "FILTER(STRLEN(SHA256(STR(?s))) = 64) }",
        # router-side algebra: BIND of NOW + STRAFTER + hash, multi-var
        pre + "SELECT ?s ?t ?loc WHERE { ?s kg:foundedIn ?y . "
              "BIND(NOW() AS ?t) . BIND(STRAFTER(STR(?s), STR(ent:)) AS ?loc) }",
        # modify-free sanity for `a` (no rdf:type triples -> empty both)
        "SELECT ?s WHERE { ?s a <https://kg.example/Type> }",
        pre + "SELECT ?s (ENCODE_FOR_URI(STRBEFORE(STR(?y), \"9\")) AS ?e) "
              "WHERE { ?s kg:foundedIn ?y } ORDER BY ?s ?e LIMIT 20",
    ):
        got = service.query_at(ts, q)
        want = single_reader.query_at(ts, q)
        pd.testing.assert_frame_equal(got, want)
    q = pre + "SELECT DISTINCT ?t WHERE { ?s kg:foundedIn ?y . BIND(NOW() AS ?t) }"
    out = service.query_at(ts, q)
    assert len(out) == 1 and "XMLSchema#dateTime" in out["t"].iloc[0]


def test_service_serializations_match_reader(service, single_reader):
    from rdf_diff_store_ray.corpus import P_FOUNDED

    ts = _end_ts(single_reader)
    q = f"SELECT ?s ?y WHERE {{ ?s <{P_FOUNDED}> ?y }} ORDER BY ?s ?y LIMIT 5"
    assert service.query_at_json(ts, q) == single_reader.query_at_json(ts, q)
    assert service.query_at_csv(ts, q) == single_reader.query_at_csv(ts, q)
    assert service.query_at_tsv(ts, q) == single_reader.query_at_tsv(ts, q)


def _split_partition_store(tmp_path):
    """A 4-partition log where the ``?s <p> ?o`` match and the
    ``?o <q> ?x`` match sit in graphs owned by different partitions."""
    from rdf_diff_store_ray.shuffle_utils import partition_ids
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    store = init_log(str(tmp_path / "deltas"), num_partitions=4)
    ids = [f"https://x/g{i}" for i in range(32)]
    pids = partition_ids(ids, 4)
    other = next(g for g, p in zip(ids, pids) if p != pids[0])
    append_graphs(store, {
        ids[0]: "<https://x/s> <https://x/p> <https://x/o> .\n",
        other: '<https://x/o> <https://x/q> "v" .\n',
    }, 1_700_000_000)
    return store


def test_expression_exists_crosses_partitions(ray_session, tmp_path):
    """An EXISTS inside a FILTER, projection or ORDER BY expression may
    match in another partition than its outer pattern, and evaluates
    with the query's GRAPH and SERVICE sources: the reader, the router
    and both server backends give one answer."""
    from rdf_diff_store_ray.query.bgp import DiffStoreReader
    from rdf_diff_store_ray.query.service import QueryService
    from rdf_diff_store_ray.server import StoreBackend
    from rdf_diff_store_ray.stages.deltas import read_log

    store = _split_partition_store(tmp_path)
    services = {"https://svc/r": store}
    reader = DiffStoreReader(read_log(store), services=services)
    svc = QueryService(store, services=services)
    backends = [StoreBackend(store, services=services, distributed=d)
                for d in (False, True)]
    ts = 1_700_000_001
    has_q = "{ ?o <https://x/q> ?x }"
    one = '"1"^^<http://www.w3.org/2001/XMLSchema#integer>'
    try:
        for q, col, want in (
            ("?s <https://x/p> ?o . FILTER(EXISTS " + has_q + ")", "s",
             ["https://x/s"]),
            ("?s <https://x/p> ?o . "
             "FILTER(?o = <https://x/nope> || EXISTS " + has_q + ")", "s",
             ["https://x/s"]),
            ("SELECT ?s (IF(EXISTS { GRAPH ?g " + has_q + " }, 1, 0) AS ?e) "
             "WHERE { ?s <https://x/p> ?o }", "e", [one]),
            ("SELECT ?s (IF(EXISTS { SERVICE <https://svc/r> " + has_q +
             " }, 1, 0) AS ?e) WHERE { ?s <https://x/p> ?o }", "e", [one]),
            ("SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(IF(EXISTS "
             "{ GRAPH ?g " + has_q + " }, 1, 0)) ?s", "s",
             ["https://x/s", "https://x/o"]),
        ):
            got = reader.query_at(ts, q)
            assert list(got[col]) == want, q
            for door in [svc] + [b.reader() for b in backends]:
                pd.testing.assert_frame_equal(door.query_at(ts, q), got)
    finally:
        svc.shutdown()
        for b in backends:
            b.close()


def test_sparse_build_routes_by_pid(ray_session, tmp_path):
    """A build with more partitions than graphs writes a directory only
    for the partitions some graph hashes to. The router starts one actor
    per existing pid and finds a graph's owner by the commit's rule,
    ``hash(graph_id) % P``, so ``graph_at``, ``GRAPH <g>`` and
    ``FROM <g>`` answer as the reader does for every graph — and a graph
    whose partition has no directory is absent, not misrouted."""
    from rdf_diff_store_ray import corpus
    from rdf_diff_store_ray.pipelines.build import build
    from rdf_diff_store_ray.query.bgp import DiffStoreReader
    from rdf_diff_store_ray.query.service import QueryService
    from rdf_diff_store_ray.shuffle_utils import partition_ids

    c = corpus.generate(n_urls=4, n_snapshots=3, seed=42)
    c.write(str(tmp_path / "corpus"))
    res = build(str(tmp_path / "corpus" / "pages.parquet"),
                str(tmp_path / "kg"), gazetteer=c.gazetteer,
                num_partitions=16, resume=False)
    pids = sorted(int(d.split("=")[1]) for d in os.listdir(res.delta_dir)
                  if d.startswith("partition="))
    # sparse, and an actor's position differs from its pid
    assert len(pids) < 16 and pids != list(range(len(pids)))
    reader = DiffStoreReader(res.delta_table())
    gids = sorted(set(res.delta_table()["graph_id"].to_pylist()))
    absent = next(g for g in (f"https://x/absent{i}" for i in range(64))
                  if int(partition_ids([g], 16)[0]) not in pids)
    svc = QueryService(res.delta_dir)
    try:
        for ts in c.snapshot_times:
            for g in gids + [absent]:
                assert svc.graph_at(g, ts) == reader.graph_at(g, ts), g
                for q in (
                    f"SELECT ?s ?p ?o WHERE {{ GRAPH <{g}> {{ ?s ?p ?o }} }}",
                    f"SELECT ?s ?p ?o FROM <{g}> WHERE {{ ?s ?p ?o }}",
                ):
                    pd.testing.assert_frame_equal(svc.query_at(ts, q),
                                                  reader.query_at(ts, q))
        assert any(reader.graph_at(g, c.snapshot_times[-1]) for g in gids)
    finally:
        svc.shutdown()
