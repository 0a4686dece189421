"""HTTP wire surface (server.py) vs the reference's endpoint contract:
the timestamps/no-diff integration scenarios driven over HTTP, auth
gating, cache-level headers, error model, read-only role."""

import json
import urllib.error
import urllib.parse
import urllib.request

import pytest

G_A = '<https://x/a> <https://x/p> "1" .\n'
G_A2 = '<https://x/a> <https://x/p> "changed" .\n'
G_B = '<https://x/b> <https://x/p> "2" .\n'

T1, T2, T3 = 1_700_000_000, 1_700_000_100, 1_700_000_200


def _req(method, url, body=None, headers=None):
    data = json.dumps(body).encode() if body is not None else None
    r = urllib.request.Request(url, data=data, method=method,
                               headers=headers or {})
    with urllib.request.urlopen(r) as resp:
        return resp.status, dict(resp.headers), resp.read().decode()


def _err(method, url, body=None, headers=None):
    try:
        _req(method, url, body, headers)
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read().decode())
    raise AssertionError("expected an HTTP error")


@pytest.fixture()
def server(ray_session, tmp_path):
    from rdf_diff_store_ray.server import DiffStoreServer
    from rdf_diff_store_ray.state.append import init_log

    store = init_log(str(tmp_path / "deltas"), num_partitions=4)
    clock = [T3]
    srv = DiffStoreServer(store, api_key="sesame",
                          now_fn=lambda: clock[0]).start()
    yield f"http://127.0.0.1:{srv.port}", clock
    srv.shutdown()


def test_wire_scenario_roundtrip(server):
    """The reference's `timestamps` scenario (tests/integration_test.rs)
    over HTTP: store two graphs at distinct instants, read merged and
    single-graph documents at in-between timestamps, sparql, metadata."""
    base, _ = server
    key = {"X-API-KEY": "sesame"}

    st, _, _ = _req("POST", f"{base}/api/graphs",
                    {"id": "g-a", "graph": G_A, "timestamp": T1}, key)
    assert st == 200
    st, _, _ = _req("POST", f"{base}/api/graphs",
                    {"id": "g-b", "graph": G_B, "timestamp": T2}, key)
    assert st == 200

    # merged doc between the commits: only g-a
    st, hdr, body = _req("GET", f"{base}/api/graphs/{T1 + 1}")
    assert st == 200 and hdr["Content-Type"].startswith("text/turtle")
    assert body.strip() == G_A.strip()
    assert hdr["Cache-Level"] in ("Graph", "Prettified", "Nothing", "Store")
    # merged doc at the end: both
    _, _, body = _req("GET", f"{base}/api/graphs/{T3}")
    assert sorted(body.splitlines()) == sorted((G_A + G_B).splitlines())
    # single graph by id; unknown id is an empty 200 like an empty store
    _, _, body = _req("GET", f"{base}/api/graphs/{T3}?id=g-b")
    assert body == G_B
    _, _, body = _req("GET", f"{base}/api/graphs/{T3}?id=nope")
    assert body == ""
    # pre-history is the empty document
    _, _, body = _req("GET", f"{base}/api/graphs/{T1 - 1}")
    assert body == ""

    # sparql at end
    q = urllib.parse.quote("SELECT ?s ?o WHERE { ?s <https://x/p> ?o }")
    st, hdr, body = _req("GET", f"{base}/api/sparql/{T3}?query={q}")
    res = json.loads(body)
    vals = sorted(b["o"]["value"] for b in res["results"]["bindings"])
    assert vals == ["1", "2"] and "Cache-Level" in hdr

    # metadata
    _, _, body = _req("GET", f"{base}/api/metadata")
    assert json.loads(body) == {"start_time": T1, "end_time": T2}


def test_wire_no_diff_suppression_and_delete(server):
    """The reference's `test_no_diff` scenario: re-posting identical
    content writes nothing; delete tombstones the graph; the server
    clock drives timestamp-less writes."""
    base, clock = server
    key = {"X-API-KEY": "sesame"}

    clock[0] = T1
    _req("POST", f"{base}/api/graphs", {"id": "g", "graph": G_A}, key)
    clock[0] = T2
    # same content, reordered/uncanonical whitespace → suppressed no-op
    _req("POST", f"{base}/api/graphs",
         {"id": "g", "graph": '<https://x/a>  <https://x/p>  "1" .'}, key)
    _, _, body = _req("GET", f"{base}/api/metadata")
    assert json.loads(body)["end_time"] == T1  # nothing written at T2

    clock[0] = T2
    _req("POST", f"{base}/api/graphs", {"id": "g", "graph": G_A2}, key)
    _, _, body = _req("GET", f"{base}/api/graphs/{T2}")
    assert body == G_A2

    st, _, _ = _req("DELETE", f"{base}/api/graphs?id=g&timestamp={T3}",
                    headers=key)
    assert st == 200
    _, _, body = _req("GET", f"{base}/api/graphs/{T3}")
    assert body == ""
    _, _, body = _req("GET", f"{base}/api/graphs/{T2}")
    assert body == G_A2  # history preserved


def test_wire_auth_and_errors(server):
    base, _ = server
    code, err = _err("POST", f"{base}/api/graphs",
                     {"id": "g", "graph": G_A})
    assert code == 401 and "X-API-KEY" in err["message"]
    code, err = _err("POST", f"{base}/api/graphs",
                     {"id": "g", "graph": G_A}, {"X-API-KEY": "wrong"})
    assert code == 401 and err["message"] == "incorrect api key"
    # reads stay unauthenticated (reference parity)
    st, _, _ = _req("GET", f"{base}/api/graphs/{T1}")
    assert st == 200
    code, err = _err("POST", f"{base}/api/graphs", {"id": "g"},
                     {"X-API-KEY": "sesame"})
    assert code == 400
    code, err = _err("GET", f"{base}/api/sparql/{T1}")
    assert code == 400 and "query" in err["message"]
    code, err = _err("GET", f"{base}/api/nope")
    assert code == 404
    # health + metrics
    st, _, body = _req("GET", f"{base}/livez")
    assert (st, body) == (200, "ok")
    st, _, body = _req("GET", f"{base}/metrics")
    assert st == 200 and "http_requests" in body


def test_read_only_role(ray_session, tmp_path):
    """read_only=True reproduces the query-cache binary: write routes
    do not exist."""
    from rdf_diff_store_ray.server import DiffStoreServer
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    store = init_log(str(tmp_path / "deltas"), num_partitions=2)
    append_graphs(store, {"g": G_A}, T1)
    srv = DiffStoreServer(store, read_only=True).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        _, _, body = _req("GET", f"{base}/api/graphs/{T1}")
        assert body == G_A
        code, _ = _err("POST", f"{base}/api/graphs",
                       {"id": "h", "graph": G_B})
        assert code == 404
        code, _ = _err("DELETE", f"{base}/api/graphs?id=g")
        assert code == 404
    finally:
        srv.shutdown()


def test_distributed_backend_parity(ray_session, tmp_path):
    """distributed=True (QueryService actors behind the same handlers)
    answers every read route identically to the single-reader backend,
    and a write keeps the actor pool: the owning actor takes in the
    commit's rows, so every handle survives."""
    from rdf_diff_store_ray.server import DiffStoreServer
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    store = init_log(str(tmp_path / "deltas"), num_partitions=4)
    append_graphs(store, {"g-a": G_A, "g-b": G_B}, T1)
    append_graphs(store, {"g-a": G_A2}, T2)

    single = DiffStoreServer(store, api_key="k",
                             now_fn=lambda: T3).start()
    dist = DiffStoreServer(store, api_key="k", distributed=True,
                           now_fn=lambda: T3).start()
    b1 = f"http://127.0.0.1:{single.port}"
    b2 = f"http://127.0.0.1:{dist.port}"
    q = urllib.parse.quote("SELECT ?s ?o WHERE { ?s <https://x/p> ?o }")
    try:
        for path in [
            f"/api/graphs/{T1}", f"/api/graphs/{T3}",
            f"/api/graphs/{T3}?id=g-a", f"/api/graphs/{T3}?id=nope",
            f"/api/graphs/{T1 - 1}", f"/api/sparql/{T3}?query={q}",
            "/api/metadata", "/livez",
        ]:
            s1, h1, body1 = _req("GET", b1 + path)
            s2, h2, body2 = _req("GET", b2 + path)
            assert (s1, body1) == (s2, body2), path
            assert h1.get("Cache-Level") == h2.get("Cache-Level"), path

        # the router reports its own LRU hit on a repeated query
        for base in (b1, b2):
            levels = [_req("GET", f"{base}/api/sparql/{T2}?query={q}")[1]
                      ["Cache-Level"] for _ in range(3)]
            assert levels == ["Nothing", "Query", "Query"], base

        # a write through the distributed server keeps every actor
        # handle, and the next read sees it
        def handles():
            return {pid: a._actor_id
                    for pid, a in dist.backend.reader()._actor_of.items()}

        before = handles()
        _req("POST", f"{b2}/api/graphs",
             {"id": "g-new", "graph": G_B, "timestamp": T3},
             {"X-API-KEY": "k"})
        assert handles() == before
        _, _, body = _req("GET", f"{b2}/api/graphs/{T3}?id=g-new")
        assert body == G_B
    finally:
        single.shutdown()
        dist.shutdown()


def test_sparql_content_negotiation(server):
    """Accept: text/csv and text/tab-separated-values serve the W3C
    sibling result formats; default stays SPARQL JSON."""
    base, _ = server
    key = {"X-API-KEY": "sesame"}
    _req("POST", f"{base}/api/graphs",
         {"id": "g", "graph": G_A, "timestamp": T1}, key)
    q = urllib.parse.quote("SELECT ?s ?o WHERE { ?s <https://x/p> ?o }")
    url = f"{base}/api/sparql/{T1}?query={q}"

    st, hdr, body = _req("GET", url)
    assert hdr["Content-Type"].startswith("application/json")
    assert json.loads(body)["results"]["bindings"]

    st, hdr, body = _req("GET", url, headers={"Accept": "text/csv"})
    assert hdr["Content-Type"].startswith("text/csv")
    assert body.splitlines()[0] == "s,o"
    assert "https://x/a" in body

    st, hdr, body = _req("GET", url,
                         headers={"Accept": "text/tab-separated-values"})
    assert hdr["Content-Type"].startswith("text/tab-separated-values")
    assert body.splitlines()[0] == "?s\t?o"


def test_numeric_answers_render_in_every_format(ray_session, tmp_path):
    """Aggregate answers hold numbers, not strings: the single reader and
    the router render them in JSON, CSV and TSV (a count stays an
    integer beside a float average), and the server answers them with
    200 in each format."""
    from rdf_diff_store_ray.query.bgp import DiffStoreReader
    from rdf_diff_store_ray.query.service import QueryService
    from rdf_diff_store_ray.server import DiffStoreServer
    from rdf_diff_store_ray.stages.deltas import read_log
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    xsd = "http://www.w3.org/2001/XMLSchema#integer"
    store = init_log(str(tmp_path / "deltas"), num_partitions=2)
    append_graphs(store, {
        f"g{i}": f'<https://x/s{i}> <https://x/v> "{v}"^^<{xsd}> .\n'
        for i, v in enumerate((1, 2, 2))}, T1)
    count = "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"
    both = ("SELECT (COUNT(?o) AS ?n) (AVG(?o) AS ?a) "
            "WHERE { ?s <https://x/v> ?o }")
    want = {
        (count, "json"): '{"head": {"vars": ["n"]}, '
                         '"results": {"bindings": [{"n": {"value": 3}}]}}',
        (count, "csv"): "n\r\n3\r\n",
        (count, "tsv"): "?n\n3\n",
        (both, "json"): '{"head": {"vars": ["n", "a"]}, "results": '
                        '{"bindings": [{"a": {"value": 1.6666666666666667}, '
                        '"n": {"value": 3}}]}}',
        (both, "csv"): "n,a\r\n3,1.6666666666666667\r\n",
        (both, "tsv"): "?n\t?a\n3\t1.6666666666666667\n",
    }
    svc = QueryService(store)
    try:
        for door in (DiffStoreReader(read_log(store)), svc):
            for (q, fmt), body in want.items():
                assert door.answer(T2, q, fmt)[0] == body, (door, q, fmt)
    finally:
        svc.shutdown()

    srv = DiffStoreServer(store, now_fn=lambda: T3).start()
    url = (f"http://127.0.0.1:{srv.port}/api/sparql/{T2}?query="
           + urllib.parse.quote(count))
    try:
        for fmt, accept in (("json", "application/json"),
                            ("csv", "text/csv"),
                            ("tsv", "text/tab-separated-values")):
            st, _, body = _req("GET", url, headers={"Accept": accept})
            assert (st, body) == (200, want[count, fmt]), fmt
    finally:
        srv.shutdown()


def test_w3c_sparql_protocol_endpoint(server):
    """/sparql implements the W3C protocol shapes — GET ?query= and
    POST with an application/sparql-query (or form-encoded) body —
    against the store's LATEST state, readable by standard clients
    with no timestamp concept; batch POST commits a list atomically."""
    base, _ = server
    key = {"X-API-KEY": "sesame"}
    # batch ingestion: one commit, two graphs
    st, _, _ = _req("POST", f"{base}/api/graphs", [
        {"id": "g-a", "graph": G_A, "timestamp": T1},
        {"id": "g-b", "graph": G_B, "timestamp": T1},
    ], key)
    assert st == 200

    sparql = "SELECT ?s ?o WHERE { ?s <https://x/p> ?o }"
    st, hdr, body = _req(
        "GET", f"{base}/sparql?query={urllib.parse.quote(sparql)}")
    assert st == 200
    vals = sorted(b["o"]["value"]
                  for b in json.loads(body)["results"]["bindings"])
    assert vals == ["1", "2"]

    # POST application/sparql-query
    r = urllib.request.Request(
        f"{base}/sparql", data=sparql.encode(), method="POST",
        headers={"Content-Type": "application/sparql-query"})
    with urllib.request.urlopen(r) as resp:
        assert resp.status == 200
        got = json.loads(resp.read().decode())
    assert sorted(b["o"]["value"]
                  for b in got["results"]["bindings"]) == ["1", "2"]

    # POST form-encoded
    form = urllib.parse.urlencode({"query": sparql}).encode()
    r = urllib.request.Request(
        f"{base}/sparql", data=form, method="POST",
        headers={"Content-Type": "application/x-www-form-urlencoded"})
    with urllib.request.urlopen(r) as resp:
        assert json.loads(resp.read().decode())["results"]["bindings"]

    # CSV negotiation works on the protocol endpoint too
    st, hdr, body = _req(
        "GET", f"{base}/sparql?query={urllib.parse.quote(sparql)}",
        headers={"Accept": "text/csv"})
    assert hdr["Content-Type"].startswith("text/csv")
    assert body.splitlines()[0] == "s,o"

    code, err = _err("POST", f"{base}/api/graphs",
                     [{"id": "x"}], {"X-API-KEY": "sesame"})
    assert code == 400


def test_service_federation_over_http_both_backends(ray_session, tmp_path):
    """--service endpoints work over HTTP on both backends: the SPARQL
    endpoint joins the store against a registered vocabulary store."""
    from rdf_diff_store_ray.server import DiffStoreServer
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    store = init_log(str(tmp_path / "main"), num_partitions=2)
    append_graphs(store, {"g": '<https://x/a> <https://x/p> <https://x/b> .\n'}, T1)
    vocab = init_log(str(tmp_path / "vocab"), num_partitions=2)
    append_graphs(vocab, {"v": '<https://x/p> <https://x/label> "pee" .\n'}, T1)

    sparql = ("SELECT ?s ?l WHERE { ?s ?p ?o . "
              "SERVICE <https://svc/vocab> { ?p <https://x/label> ?l } }")
    for distributed in (False, True):
        srv = DiffStoreServer(store, distributed=distributed,
                              services={"https://svc/vocab": vocab},
                              now_fn=lambda: T2).start()
        try:
            url = (f"http://127.0.0.1:{srv.port}/sparql?query="
                   f"{urllib.parse.quote(sparql)}")
            st, _, body = _req("GET", url)
            assert st == 200, distributed
            rows = json.loads(body)["results"]["bindings"]
            assert [(r["s"]["value"], r["l"]["value"]) for r in rows] == [
                ("https://x/a", "pee")], f"distributed={distributed}"
        finally:
            srv.shutdown()


def test_service_federates_two_live_servers(ray_session, tmp_path):
    """SERVICE over the wire (VERDICT r4 #4): server A's SPARQL endpoint
    federates against server B — a second live `serve` process reached
    over HTTP (SPARQL protocol, TSV results), not an in-process reader.
    A bare registered server root federates at the SAME timestamp
    (shared version axis); an explicit /sparql endpoint IRI, never
    registered anywhere, dereferences itself at B's latest state."""
    from rdf_diff_store_ray.server import DiffStoreServer
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    store = init_log(str(tmp_path / "main"), num_partitions=2)
    append_graphs(
        store, {"g": '<https://x/a> <https://x/p> <https://x/b> .\n'}, T1)
    vocab = init_log(str(tmp_path / "vocab"), num_partitions=2)
    append_graphs(
        vocab, {"v": '<https://x/p> <https://x/label> "old" .\n'}, T1)
    append_graphs(
        vocab, {"v": '<https://x/p> <https://x/label> "new" .\n'}, T2)

    srv_b = DiffStoreServer(vocab, now_fn=lambda: T2).start()
    root_b = f"http://127.0.0.1:{srv_b.port}"
    try:
        for distributed in (False, True):
            srv_a = DiffStoreServer(
                store, distributed=distributed,
                services={"https://svc/vocab": root_b},
                now_fn=lambda: T2,
            ).start()
            try:
                base = f"http://127.0.0.1:{srv_a.port}"

                def rows_at(ts, sparql):
                    url = (f"{base}/api/sparql/{ts}?query="
                           f"{urllib.parse.quote(sparql)}")
                    st, _, body = _req("GET", url)
                    assert st == 200
                    return [
                        (r["s"]["value"], r["l"]["value"])
                        for r in json.loads(body)["results"]["bindings"]
                    ]

                reg = ("SELECT ?s ?l WHERE { ?s ?p ?o . "
                       "SERVICE <https://svc/vocab> "
                       "{ ?p <https://x/label> ?l } }")
                # registered root federates at the REQUEST timestamp
                assert rows_at(T2, reg) == [("https://x/a", "new")], \
                    f"distributed={distributed}"
                assert rows_at(T1, reg) == [("https://x/a", "old")], \
                    f"distributed={distributed}"

                # unregistered endpoint IRI: dereferences itself (B's
                # latest state), the oxigraph SERVICE behavior
                direct = ("SELECT ?s ?l WHERE { ?s ?p ?o . "
                          f"SERVICE <{root_b}/sparql> "
                          "{ ?p <https://x/label> ?l } }")
                assert rows_at(T1, direct) == [("https://x/a", "new")], \
                    f"distributed={distributed}"

                # SILENT swallows a dead endpoint; non-SILENT is a 500
                dead = ("SELECT ?s WHERE { ?s ?p ?o . "
                        "SERVICE SILENT <http://127.0.0.1:1/sparql> "
                        "{ ?s ?q ?v } }")
                url = (f"{base}/api/sparql/{T2}?query="
                       f"{urllib.parse.quote(dead)}")
                st, _, body = _req("GET", url)
                assert st == 200
                assert json.loads(body)["results"]["bindings"]
                loud = dead.replace("SERVICE SILENT", "SERVICE")
                code, err_body = _err(
                    "GET", f"{base}/api/sparql/{T2}?query="
                    f"{urllib.parse.quote(loud)}")
                # unreachable endpoint surfaces as a ValueError → 400
                # with the endpoint named (the server's error model)
                assert code == 400
                assert "unreachable" in err_body["message"]
            finally:
                srv_a.shutdown()
    finally:
        srv_b.shutdown()


def test_wire_federation_preserves_term_kind(ray_session, tmp_path):
    """The engine-to-engine hop uses the exact tagged wire format: a
    remote PLAIN LITERAL whose value is IRI-shaped must NOT join a
    local IRI over the wire — identical semantics to in-process
    federation (review r5 finding: the W3C TSV writer re-guesses kind
    from finalized values, so the wire used to flip such literals into
    IRIs and silently join)."""
    from rdf_diff_store_ray.server import DiffStoreServer
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    store = init_log(str(tmp_path / "main"), num_partitions=2)
    append_graphs(
        store, {"g": '<https://x/a> <https://x/p> <https://x/b> .\n'}, T1)
    vocab = init_log(str(tmp_path / "vocab"), num_partitions=2)
    # ?o of <https://x/p> in the vocab store is the PLAIN LITERAL
    # "https://x/b" — same lexical form as main's IRI object, different
    # term kind; plus a genuinely joinable IRI row as positive control
    append_graphs(vocab, {"v":
        '<https://x/p> <https://x/sameAs> "https://x/b" .\n'
        '<https://x/q> <https://x/sameAs> <https://x/b> .\n'}, T1)

    srv_b = DiffStoreServer(vocab, now_fn=lambda: T1).start()
    root_b = f"http://127.0.0.1:{srv_b.port}"
    try:
        srv_a = DiffStoreServer(
            store, services={"https://svc/vocab": root_b},
            now_fn=lambda: T1).start()
        try:
            base = f"http://127.0.0.1:{srv_a.port}"
            # join on ?o: local IRI <https://x/b> vs the remote terms
            q = ("SELECT ?s ?p2 WHERE { ?s ?p ?o . "
                 "SERVICE <https://svc/vocab> "
                 "{ ?p2 <https://x/sameAs> ?o } }")
            url = (f"{base}/api/sparql/{T1}?query="
                   f"{urllib.parse.quote(q)}")
            st, _, body = _req("GET", url)
            assert st == 200
            rows = [(r["s"]["value"], r["p2"]["value"])
                    for r in json.loads(body)["results"]["bindings"]]
            # ONLY the IRI row joins; the IRI-shaped literal must not
            assert rows == [("https://x/a", "https://x/q")]

            # the wire surface itself serves the tagged content type
            st2, hdr2, body2 = _req(
                "GET", f"{root_b}/api/sparql/{T1}?query="
                + urllib.parse.quote(
                    "SELECT ?v WHERE { ?x <https://x/sameAs> ?v }"),
                headers={"Accept": "application/x-kg-tagged-tsv"})
            assert hdr2["Content-Type"].startswith(
                "application/x-kg-tagged-tsv")
            cells = sorted(body2.strip().split("\n")[1:])
            assert cells == ["Ihttps://x/b", "Lhttps://x/b"]
        finally:
            srv_a.shutdown()
    finally:
        srv_b.shutdown()


def test_empty_store_metadata_and_sparql(ray_session, tmp_path):
    """A just-initialized store has no versions: /api/metadata must
    serve null bounds (the reference's Option fields serialize as JSON
    null) and the W3C /sparql endpoint must answer with an empty result
    set instead of a NaT 500."""
    from rdf_diff_store_ray.server import DiffStoreServer
    from rdf_diff_store_ray.state.append import init_log

    store = init_log(str(tmp_path / "empty"), num_partitions=2)
    srv = DiffStoreServer(store, now_fn=lambda: T1).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        st, _, body = _req("GET", f"{base}/api/metadata")
        assert st == 200
        assert json.loads(body) == {"start_time": None, "end_time": None}
        q = urllib.parse.quote("SELECT ?s WHERE { ?s ?p ?o }")
        st, _, body = _req("GET", f"{base}/sparql?query={q}")
        assert st == 200
        assert json.loads(body)["results"]["bindings"] == []
    finally:
        srv.shutdown()


def test_batch_post_rejects_mixed_timestamps(server):
    """A JSON-list POST is ONE atomic commit at ONE instant; members
    carrying differing explicit timestamps are rejected (400), not
    silently re-stamped to the first graph's instant."""
    base, _ = server
    key = {"X-API-KEY": "sesame"}
    code, body = _err("POST", f"{base}/api/graphs", [
        {"id": "g-a", "graph": G_A, "timestamp": T1},
        {"id": "g-b", "graph": G_B, "timestamp": T2},
    ], key)
    assert code == 400 and "timestamp" in body["message"]

    # equal explicit stamps (and members without a stamp) commit fine
    st, _, _ = _req("POST", f"{base}/api/graphs", [
        {"id": "g-a", "graph": G_A, "timestamp": T1},
        {"id": "g-b", "graph": G_B, "timestamp": T1},
        {"id": "g-c", "graph": G_B},
    ], key)
    assert st == 200
    st, _, text = _req("GET", f"{base}/api/graphs/{T1}")
    assert st == 200 and "https://x/a" in text and "https://x/b" in text


def test_replica_auto_sync_serves_primary_writes(ray_session, tmp_path):
    """The continuous-replication loop (reference: writer pushes every
    60s, query-cache fetches per read): a replica booted from an EMPTY
    directory clones the primary, and a write to the primary becomes
    visible on the replica within one poll with no operator action.
    Replica writes are rejected (read-only role is forced)."""
    import time as _time

    from rdf_diff_store_ray.server import DiffStoreServer
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    primary = init_log(str(tmp_path / "primary"), num_partitions=2)
    append_graphs(primary, {"g-a": G_A}, T1)

    replica_dir = str(tmp_path / "replica")  # does not exist yet
    srv = DiffStoreServer(replica_dir, replica_of=primary,
                          sync_every=0.2, now_fn=lambda: T3).start()
    base = f"http://127.0.0.1:{srv.port}"
    try:
        st, _, text = _req("GET", f"{base}/api/graphs/{T1}")
        assert st == 200 and "https://x/a" in text  # boot clone

        append_graphs(primary, {"g-b": G_B}, T2)
        deadline = _time.time() + 10
        while _time.time() < deadline:
            _, _, text = _req("GET", f"{base}/api/graphs/{T2}")
            if "https://x/b" in text:
                break
            _time.sleep(0.1)
        assert "https://x/b" in text, "replica never saw the new commit"

        code, _ = _err("POST", f"{base}/api/graphs",
                       {"id": "g-c", "graph": G_B})
        assert code == 404  # replicas are read-only
    finally:
        srv.shutdown()


def test_front_door_parity_across_doors(ray_session, tmp_path):
    """One call sequence through every read door — DiffStoreReader,
    QueryService, and the server on either backend — gives equal
    answers and equal cache levels on every call: a repeated query, an
    expression-level EXISTS whose match sits in another partition, and a
    latest-state SERVICE inside FILTER(EXISTS), which no door caches.
    A blank-node store in two partitions serves one merged document
    through every door (and the router's streamed ``graphs_at_to``),
    with the labels its SPARQL answers show."""
    from rdf_diff_store_ray.query.bgp import DiffStoreReader
    from rdf_diff_store_ray.stages.deltas import read_log
    from rdf_diff_store_ray.query.service import QueryService
    from rdf_diff_store_ray.server import DiffStoreServer
    from rdf_diff_store_ray.shuffle_utils import partition_ids
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    store = init_log(str(tmp_path / "main"), num_partitions=4)
    ids = [f"https://x/g{i}" for i in range(32)]
    pids = partition_ids(ids, 4)
    other = next(g for g, p in zip(ids, pids) if p != pids[0])
    append_graphs(store, {
        ids[0]: "<https://x/s> <https://x/p> <https://x/o> .\n",
        other: '<https://x/o> <https://x/q> "v" .\n',
    }, T1)
    # the SERVICE endpoint: another live server, dereferenced verbatim
    # (its latest state), whose label graph comes and goes
    srv_b = DiffStoreServer(init_log(str(tmp_path / "b"),
                                     num_partitions=2)).start()
    root_b = f"http://127.0.0.1:{srv_b.port}"
    label = {"id": "v", "graph": '<https://x/o> <https://x/label> "L" .\n'}

    q_rep = "SELECT ?s ?o WHERE { ?s <https://x/p> ?o }"
    q_exists = ("?s <https://x/p> ?o . "
                "FILTER(EXISTS { ?o <https://x/q> ?x })")
    q_svc = ("SELECT ?s WHERE { ?s <https://x/p> ?o . FILTER(EXISTS { "
             f"SERVICE <{root_b}/sparql> {{ ?o <https://x/label> ?l }} }}) }}")

    def sequence(ask, stamp):
        out = [ask(q_rep), ask(q_rep), ask(q_exists)]
        _req("POST", f"{root_b}/api/graphs", dict(label, timestamp=stamp))
        out.append(ask(q_svc))
        _req("DELETE", f"{root_b}/api/graphs?id=v&timestamp={stamp + 1}")
        out.append(ask(q_svc))
        return out

    def in_process(door):
        return lambda q: door.answer(T2, q, "json")

    def over_http(base):
        def ask(q):
            _, hdr, body = _req(
                "GET", f"{base}/api/sparql/{T2}?query="
                + urllib.parse.quote(q))
            return body, hdr["Cache-Level"]
        return ask

    runs = []
    svc = QueryService(store)
    try:
        runs.append(sequence(in_process(DiffStoreReader(read_log(store))),
                             T2))
        runs.append(sequence(in_process(svc), T2 + 10))
        for i, distributed in enumerate((False, True)):
            srv = DiffStoreServer(store, distributed=distributed).start()
            try:
                runs.append(sequence(
                    over_http(f"http://127.0.0.1:{srv.port}"), T2 + 20 + 10 * i))
            finally:
                srv.shutdown()
    finally:
        svc.shutdown()
        srv_b.shutdown()

    assert runs[1:] == runs[:1] * 3
    levels = [level for _, level in runs[0]]
    assert levels == ["Nothing", "Query", "Store", "Store", "Store"]
    rows = [len(json.loads(body)["results"]["bindings"])
            for body, _ in runs[0]]
    assert rows == [1, 1, 1, 1, 0]

    # blank nodes: graph A alone in one partition, the chain B in the
    # other; adding B must not relabel A's blank node in any door
    bn = init_log(str(tmp_path / "bnodes"), num_partitions=2)
    ids = [f"https://x/b{i}" for i in range(16)]
    pids = partition_ids(ids, 2)
    a_id = ids[0]
    b_id = next(g for g, p in zip(ids, pids) if p != pids[0])
    append_graphs(bn, {
        a_id: '_:a <http://p> "x" .\n',
        b_id: ('_:b <http://q> _:c .\n_:c <http://r> _:d .\n'
               '_:d <http://r> "y" .\n'),
    }, T1)
    reader = DiffStoreReader(read_log(bn))
    svc = QueryService(bn)
    try:
        docs = [reader.graphs_at(T2), svc.graphs_at(T2)]
        spill = tmp_path / "bnodes.nt"
        svc.graphs_at_to(T2, str(spill))
        docs.append(spill.read_bytes().decode("utf-8"))
        for distributed in (False, True):
            srv = DiffStoreServer(bn, distributed=distributed).start()
            try:
                docs.append(_req(
                    "GET", f"http://127.0.0.1:{srv.port}/api/graphs/{T2}")[2])
            finally:
                srv.shutdown()
    finally:
        svc.shutdown()
    assert docs[1:] == docs[:1] * 4
    assert reader.graph_at(a_id, T2) in docs[0]
    labels = {t for ln in docs[0].splitlines() for t in ln.split()
              if t.startswith("_:")}
    answer = reader.query_at(T2, "SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
    assert len(labels) == 4
    assert labels <= set(answer["s"]) | set(answer["o"])
