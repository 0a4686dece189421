"""SPARQL Update over the delta-log store: INSERT/DELETE DATA,
DELETE WHERE, CLEAR/DROP GRAPH — all routed through the append path
(canonicalization, no-op suppression, monotonicity, write lock)."""

import glob
import os

import pyarrow.dataset as pads
import pytest

T1, T2, T3, T4 = (1_700_000_000, 1_700_000_100,
                  1_700_000_200, 1_700_000_300)


def _delta_table(delta_dir):
    files = sorted(
        glob.glob(os.path.join(delta_dir, "partition=*", "*.parquet"))
    )
    return pads.dataset(files).to_table()


@pytest.fixture()
def store(ray_session, tmp_path):
    from rdf_diff_store_ray.state.append import init_log
    from rdf_diff_store_ray.state.update import sparql_update

    s = init_log(str(tmp_path / "deltas"), num_partitions=4)
    sparql_update(
        s,
        "PREFIX x: <https://x/> "
        "INSERT DATA { "
        'GRAPH <https://g/1> { x:a x:p "1" . x:a x:q x:b } '
        'GRAPH <https://g/2> { x:a x:p "1" . x:c x:p "3" } }',
        T1,
    )
    return s


def _reader(store):
    from rdf_diff_store_ray.query.bgp import DiffStoreReader

    return DiffStoreReader(_delta_table(store))


def test_insert_data_creates_versions(store):
    r = _reader(store)
    txt = r.graphs_at(T1)
    assert '<https://x/a> <https://x/p> "1" .' in txt
    assert "<https://x/a> <https://x/q> <https://x/b> ." in txt
    # GRAPH-scoped query sees per-graph placement
    out = r.query_at(
        T1, "SELECT ?s WHERE { GRAPH <https://g/2> { ?s <https://x/p> ?o } }"
    )
    assert sorted(out["s"]) == ["https://x/a", "https://x/c"]


def test_insert_data_is_idempotent_noop(store):
    from rdf_diff_store_ray.state.update import sparql_update

    res = sparql_update(
        store,
        'INSERT DATA { GRAPH <https://g/1> { <https://x/a> <https://x/p> "1" } }',
        T2,
    )
    assert res == {"form": "insert_data", "graphs": 0,
                   "added": 0, "removed": 0}
    # no new version was written (no-op suppression upstream of append)
    assert _reader(store).metadata()[1].timestamp() == T1


def test_delete_data_removes_only_named_graph(store):
    from rdf_diff_store_ray.state.update import sparql_update

    res = sparql_update(
        store,
        'DELETE DATA { GRAPH <https://g/2> { <https://x/a> <https://x/p> "1" } }',
        T2,
    )
    assert res["removed"] == 1 and res["graphs"] == 1
    r = _reader(store)
    out = r.query_at(
        T2, 'SELECT ?g WHERE { GRAPH ?g { <https://x/a> <https://x/p> "1" } }'
    )
    assert out["g"].tolist() == ["https://g/1"]
    # absent triples are a no-op per spec
    res = sparql_update(
        store,
        'DELETE DATA { GRAPH <https://g/2> { <https://x/nope> <https://x/p> "9" } }',
        T3,
    )
    assert res["removed"] == 0 and res["graphs"] == 0


def test_delete_where_default_graph_hits_every_owner(store):
    from rdf_diff_store_ray.state.update import sparql_update

    # "1"-valued x:p triples live in BOTH graphs; a bare pattern deletes
    # them from each owner
    res = sparql_update(
        store, 'DELETE WHERE { ?s <https://x/p> "1" }', T2
    )
    assert res["graphs"] == 2 and res["removed"] == 2
    r = _reader(store)
    assert len(r.query_at(T2, '?s <https://x/p> "1"')) == 0
    # untouched triples survive
    assert len(r.query_at(T2, '?s <https://x/p> "3"')) == 1
    # time travel still sees the pre-delete state
    assert len(r.query_at(T1, '?s <https://x/p> "1"')) == 1


def test_delete_where_graph_scoped(store):
    from rdf_diff_store_ray.state.update import sparql_update

    res = sparql_update(
        store,
        "DELETE WHERE { GRAPH <https://g/2> { ?s <https://x/p> ?o } }",
        T2,
    )
    assert res["graphs"] == 1 and res["removed"] == 2
    r = _reader(store)
    out = r.query_at(
        T2, "SELECT ?g WHERE { GRAPH ?g { ?s <https://x/p> ?o } }"
    )
    assert out["g"].tolist() == ["https://g/1"]


def test_delete_where_variable_graph(store):
    from rdf_diff_store_ray.state.update import sparql_update

    res = sparql_update(
        store,
        'DELETE WHERE { GRAPH ?g { ?s <https://x/p> "1" } }', T2
    )
    assert res["graphs"] == 2 and res["removed"] == 2


def test_clear_and_drop_graph(store):
    from rdf_diff_store_ray.state.update import sparql_update

    sparql_update(store, "CLEAR GRAPH <https://g/1>", T2)
    r = _reader(store)
    live = {
        g for g in r.query_at(
            T2, "SELECT ?g WHERE { GRAPH ?g { ?s ?p ?o } }"
        )["g"]
    }
    assert live == {"https://g/2"}  # cleared graph is empty but live
    from rdf_diff_store_ray.state.reconstruct import state_at_table

    st = state_at_table(_delta_table(store), T2)
    assert sorted(st["graph_id"].to_pylist()) == ["https://g/1", "https://g/2"]

    sparql_update(store, "DROP GRAPH <https://g/2>", T3)
    st = state_at_table(_delta_table(store), T3)
    assert st["graph_id"].to_pylist() == ["https://g/1"]


def test_update_grammar_errors(store):
    from rdf_diff_store_ray.state.update import parse_update, sparql_update

    with pytest.raises(ValueError, match="GRAPH blocks"):
        parse_update('INSERT DATA { <https://x/a> <https://x/p> "1" }')
    with pytest.raises(ValueError, match="ground terms"):
        parse_update("INSERT DATA { GRAPH <https://g/1> { ?s <https://x/p> ?o } }")
    with pytest.raises(ValueError, match="filters"):
        parse_update(
            "DELETE WHERE { ?s <https://x/p> ?o . FILTER(?o > 1) }"
        )
    with pytest.raises(ValueError, match="INTO GRAPH"):
        parse_update("LOAD <https://remote/data.ttl>")
    with pytest.raises(ValueError, match="unsupported update form"):
        parse_update("ASK { ?s ?p ?o }")
    with pytest.raises(ValueError, match="undefined prefix"):
        parse_update('PREFIX x: <https://x/> '
                     'INSERT DATA { GRAPH <g> { nope:a x:p "1" } }')
    # monotonicity is enforced by the append layer
    with pytest.raises(Exception):
        sparql_update(
            store,
            'INSERT DATA { GRAPH <https://g/1> { <https://x/z> <https://x/p> "9" } }',
            T1 - 500,
        )


def test_update_cli(store):
    import json
    import subprocess

    out = subprocess.run(
        ["python", "-m", "rdf_diff_store_ray", "update",
         "--store", store, "--ts", str(T2),
         'INSERT DATA { GRAPH <https://g/3> { <https://x/n> <https://x/p> "7" } }'],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["form"] == "insert_data" and res["added"] == 1


def test_modify_insert_where(store):
    """INSERT { } WHERE { }: derive new triples from matched bindings."""
    from rdf_diff_store_ray.state.update import sparql_update

    res = sparql_update(
        store,
        "PREFIX x: <https://x/> "
        "INSERT { GRAPH <https://g/derived> { ?s x:hasValue ?o } } "
        'WHERE { GRAPH <https://g/2> { ?s x:p ?o } }',
        T2,
    )
    assert res["form"] == "modify"
    assert res["graphs"] == 1 and res["added"] == 2 and res["removed"] == 0
    r = _reader(store)
    out = r.query_at(
        T2,
        "SELECT ?s ?o WHERE { GRAPH <https://g/derived> "
        "{ ?s <https://x/hasValue> ?o } }",
    )
    assert len(out) == 2


def test_modify_delete_insert_where(store):
    """Rename a predicate in place: DELETE old INSERT new WHERE match."""
    from rdf_diff_store_ray.state.update import sparql_update

    res = sparql_update(
        store,
        "PREFIX x: <https://x/> "
        "DELETE { GRAPH ?g { ?s x:p ?o } } "
        "INSERT { GRAPH ?g { ?s x:p2 ?o } } "
        "WHERE { GRAPH ?g { ?s x:p ?o } }",
        T2,
    )
    assert res["removed"] == 3 and res["added"] == 3  # 3 x:p quads total
    r = _reader(store)
    assert len(r.query_at(T2, "?s <https://x/p> ?o")) == 0
    out = r.query_at(
        T2, "SELECT ?g ?s WHERE { GRAPH ?g { ?s <https://x/p2> ?o } }"
    )
    assert len(out) == 3
    # history is intact
    assert len(r.query_at(T1, "?s <https://x/p> ?o")) == 2  # distinct s,o


def test_modify_bare_delete_hits_every_owner(store):
    from rdf_diff_store_ray.state.update import sparql_update

    res = sparql_update(
        store,
        'DELETE { ?s <https://x/p> "1" } '
        'WHERE { ?s <https://x/p> "1" }',
        T2,
    )
    assert res["graphs"] == 2 and res["removed"] == 2


def test_modify_grammar_errors(store):
    from rdf_diff_store_ray.state.update import parse_update

    with pytest.raises(ValueError, match="INSERT templates need GRAPH"):
        parse_update(
            "INSERT { ?s <https://x/p3> ?o } WHERE { ?s <https://x/p> ?o }"
        )
    with pytest.raises(ValueError, match="WHERE"):
        parse_update("INSERT { GRAPH <g> { <a> <p> <b> } }")
    with pytest.raises(ValueError, match="duplicate DELETE"):
        parse_update(
            "DELETE { GRAPH <g> { <a> <p> <b> } } "
            "DELETE { GRAPH <g> { <a> <p> <c> } } WHERE { ?s ?p ?o }"
        )


def test_update_roundtrip_property(ray_session, tmp_path):
    """Inserted ground quads are exactly the live state; deleting them
    all returns every graph to empty — for random quad sets."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from rdf_diff_store_ray.state.append import init_log
    from rdf_diff_store_ray.state.reconstruct import quads_at_table
    from rdf_diff_store_ray.state.update import sparql_update

    graphs = st.sampled_from(["https://g/1", "https://g/2"])
    subjects = st.sampled_from(["https://x/a", "https://x/b"])
    preds = st.sampled_from(["https://x/p", "https://x/q"])
    objs = st.one_of(
        st.sampled_from(["https://x/o1", "https://x/o2"]).map(
            lambda v: (v, False)
        ),
        st.sampled_from(["v1", "v 2"]).map(lambda v: (v, True)),
    )
    quad = st.tuples(graphs, subjects, preds, objs)

    def fmt(o, lit):
        return f'"{o}"' if lit else f"<{o}>"

    counter = [0]

    @given(st.lists(quad, min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def check(qs):
        counter[0] += 1
        store = init_log(str(tmp_path / f"d{counter[0]}"), num_partitions=2)
        quads = sorted({(g, s, p, o, lit) for (g, s, p, (o, lit)) in qs})
        by_g: dict = {}
        for g, s, p, o, lit in quads:
            by_g.setdefault(g, []).append(f"{fmt(s,0)} {fmt(p,0)} {fmt(o,lit)}")
        blocks = " ".join(
            f"GRAPH <{g}> {{ {' . '.join(ts)} }}" for g, ts in by_g.items()
        )
        sparql_update(store, f"INSERT DATA {{ {blocks} }}", T1)
        live = quads_at_table(_delta_table(store), T1)
        got = sorted(zip(live["graph_id"].to_pylist(),
                         live["subj"].to_pylist(),
                         live["pred"].to_pylist(),
                         live["obj"].to_pylist(),
                         live["obj_is_literal"].to_pylist()))
        assert got == quads
        sparql_update(store, f"DELETE DATA {{ {blocks} }}", T2)
        assert quads_at_table(_delta_table(store), T2).num_rows == 0

    check()


def test_create_graph(store):
    from rdf_diff_store_ray.state.reconstruct import state_at_table
    from rdf_diff_store_ray.state.update import sparql_update

    res = sparql_update(store, "CREATE GRAPH <https://g/3>", T2)
    assert res == {"form": "create_graph", "graphs": 1,
                   "added": 0, "removed": 0}
    st = state_at_table(_delta_table(store), T2)
    texts = dict(zip(st["graph_id"].to_pylist(),
                     st["delta_text"].to_pylist()))
    assert texts["https://g/3"] == ""  # live and empty
    # CREATE on a live graph errors unless SILENT
    with pytest.raises(ValueError, match="already exists"):
        sparql_update(store, "CREATE GRAPH <https://g/3>", T3)
    res = sparql_update(store, "CREATE SILENT GRAPH <https://g/3>", T3)
    assert res["graphs"] == 0


def test_copy_move_add_graphs(store):
    from rdf_diff_store_ray.state.reconstruct import state_at_table
    from rdf_diff_store_ray.state.update import sparql_update

    def texts(ts):
        st = state_at_table(_delta_table(store), ts)
        return dict(zip(st["graph_id"].to_pylist(),
                        st["delta_text"].to_pylist()))

    t0 = texts(T1)
    res = sparql_update(
        store, "COPY GRAPH <https://g/1> TO GRAPH <https://g/3>", T2)
    assert res["form"] == "copy_graph" and res["added"] == 2
    assert texts(T2)["https://g/3"] == t0["https://g/1"]

    # ADD unions source into destination (GRAPH keyword optional)
    res = sparql_update(store, "ADD <https://g/2> TO <https://g/3>", T3)
    t3 = texts(T3)
    assert res["form"] == "add_graph"
    lines = set(t3["https://g/3"].split("\n")) - {""}
    want = (set(t0["https://g/1"].split("\n")) |
            set(t0["https://g/2"].split("\n"))) - {""}
    assert lines == want
    # re-ADD is a suppressed no-op
    res = sparql_update(store, "ADD <https://g/2> TO <https://g/3>", T3)
    assert res["graphs"] == 0

    # MOVE replaces the destination and drops the source
    res = sparql_update(
        store, "MOVE SILENT <https://g/1> TO <https://g/2>", T4)
    t4 = texts(T4)
    assert "https://g/1" not in t4
    assert t4["https://g/2"] == t0["https://g/1"]
    assert res["form"] == "move_graph" and res["graphs"] == 2


def test_move_is_one_commit(store):
    """MOVE's destination upsert and source tombstone are one commit: when
    the source has a version after the MOVE's instant, the MOVE raises
    and writes nothing, so the destination does not appear either."""
    from rdf_diff_store_ray.state.append import append_graphs
    from rdf_diff_store_ray.state.reconstruct import state_at_table
    from rdf_diff_store_ray.state.update import sparql_update

    src, dst = "https://g/src", "https://g/dst"
    append_graphs(store, {src: '<https://x/a> <https://x/p> "0" .\n'}, T1)
    append_graphs(store, {src: '<https://x/a> <https://x/p> "2" .\n'}, T3)
    before = _delta_table(store)
    with pytest.raises(ValueError, match="predates existing history"):
        sparql_update(store, f"MOVE <{src}> TO <{dst}>", T2)
    after = _delta_table(store)
    assert after.equals(before)
    live = state_at_table(after, T2)["graph_id"].to_pylist()
    assert src in live and dst not in live


def test_graph_management_errors(store):
    from rdf_diff_store_ray.state.update import parse_update, sparql_update

    with pytest.raises(ValueError, match="source graph does not exist"):
        sparql_update(
            store, "COPY GRAPH <https://nope/> TO GRAPH <https://g/9>", T2)
    res = sparql_update(
        store, "COPY SILENT GRAPH <https://nope/> TO GRAPH <https://g/9>",
        T2)
    assert res["graphs"] == 0
    # same-graph transfer is a no-op
    res = sparql_update(
        store, "MOVE GRAPH <https://g/1> TO GRAPH <https://g/1>", T2)
    assert res["graphs"] == 0
    with pytest.raises(ValueError, match="DEFAULT is not supported"):
        parse_update("COPY DEFAULT TO GRAPH <https://g/9>")
    with pytest.raises(ValueError, match="DEFAULT is not supported"):
        parse_update("ADD GRAPH <https://g/1> TO DEFAULT")


def test_load_into_graph(store, tmp_path):
    from rdf_diff_store_ray.state.reconstruct import state_at_table
    from rdf_diff_store_ray.state.update import sparql_update

    doc = tmp_path / "doc.nt"
    doc.write_text('<https://x/l1> <https://x/p> "v" .\n'
                   "<https://x/l2> <https://x/p> <https://x/o> .\n")
    res = sparql_update(
        store, f"LOAD <file://{doc}> INTO GRAPH <https://g/7>", T2)
    assert res["form"] == "load" and res["added"] == 2
    st = state_at_table(_delta_table(store), T2)
    texts = dict(zip(st["graph_id"].to_pylist(),
                     st["delta_text"].to_pylist()))
    assert '<https://x/l1> <https://x/p> "v" .' in texts["https://g/7"]
    # re-LOAD of the same document is a no-op (LOAD inserts, set union)
    res = sparql_update(
        store, f"LOAD <{doc}> INTO GRAPH <https://g/7>", T3)
    assert res["graphs"] == 0

    # Turtle documents parse by extension
    ttl = tmp_path / "doc.ttl"
    ttl.write_text("@prefix x: <https://x/> . x:t1 x:p x:t2 , x:t3 .\n")
    res = sparql_update(
        store, f"LOAD <file://{ttl}> INTO GRAPH <https://g/7>", T4)
    assert res["added"] == 2

    with pytest.raises(OSError):
        sparql_update(
            store, f"LOAD <file://{tmp_path}/missing.nt> "
                   "INTO GRAPH <https://g/7>", T4)
    res = sparql_update(
        store, f"LOAD SILENT <file://{tmp_path}/missing.nt> "
               "INTO GRAPH <https://g/7>", T4)
    assert res["graphs"] == 0
    with pytest.raises(ValueError, match="local documents"):
        sparql_update(
            store, "LOAD <https://remote/d.nt> INTO GRAPH <https://g/7>",
            T4)
