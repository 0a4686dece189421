"""The Arrow pattern kernel (``bgp.eval_one_pattern``) against a naive
row-by-row oracle on hostile terms, and router/reader parity on a
NUL-twin store."""

import pandas as pd
import pyarrow as pa
import pytest

from rdf_diff_store_ray.query.bgp import (_frame, eval_one_pattern,
                                          eval_pattern_in_graph, parse_query)

P, Q = "https://x/p", "https://x/q"
# (graph_id, subj, pred, obj, obj_is_literal); the table order is the
# kernel's row order, so it is deliberately unsorted
QUADS = [
    ("https://x/g", "https://x/g", P, "a\x00b", True),
    ("https://x/g", "https://x/a\x00c", P, "a\x00c", True),
    ("https://x/h", "https://x/a\x00b", P, "https://x/a\x00b", False),
    ("https://x/h", "https://x/a\x00b", Q, "https://x/a\x00c", False),
    ("https://x/g", "https://x/same", P, "https://x/same", False),
    ("https://x/h", "https://x/same", P, "https://x/same", True),
    ("https://x/h", "https://x/other", P, "https://x/same", True),
    ("https://x/h", "https://x/lit", Q, "x", True),
    ("https://x/h", "https://x/iri", Q, "x", False),
    ("https://x/g", "https://x/lit", Q, "https://x/x", False),
    ("https://x/g\x00", "https://x/a\x00b", P, "a\x00b", True),
    ("https://x/h", "https://x/g", Q, "https://x/g", False),
    ("https://x/g", "https://x/a\x00c", P, "a\x00c", True),  # repeat
]
COLS = ["graph_id", "subj", "pred", "obj", "obj_is_literal"]


def _quads() -> pa.Table:
    return pa.table({c: [r[i] for r in QUADS] for i, c in enumerate(COLS)})


def _triples() -> pa.Table:
    return _quads().drop_columns(["graph_id"])


def _term(row: dict, pos: str) -> str:
    lit = pos == "obj" and row["obj_is_literal"]
    return ("L" if lit else "I") + row[pos]


def naive(table: pa.Table, pattern, graph_var=None) -> pd.DataFrame:
    """Row-by-row pattern match, first-appearance distinct."""
    slots = list(zip(("subj", "pred", "obj"), pattern))
    if graph_var is not None:
        slots.append(("graph_id", ("var", graph_var)))
    names = list(dict.fromkeys(v for _, (k, v) in slots if k == "var"))
    out = []
    for row in table.to_pylist():
        b: dict = {}
        ok = True
        for pos, (kind, val) in slots:
            if kind == "var":
                t = _term(row, pos)
                ok = b.setdefault(val, t) == t
            elif kind == "iri":
                ok = row[pos] == val and not (
                    pos == "obj" and row["obj_is_literal"])
            else:
                ok = row[pos] == val and row["obj_is_literal"]
            if not ok:
                break
        if ok and tuple(b.values()) not in out:
            out.append(tuple(b.values()))
    if not names:
        return pd.DataFrame(index=pd.RangeIndex(min(len(out), 1)))
    return pd.DataFrame(out, columns=names, dtype=object)


def _pat(text: str):
    return parse_query(text)["patterns"][0]


@pytest.mark.parametrize("text", [
    "?s ?p ?o",
    f"?s <{P}> ?o",
    f'?s <{P}> "a\x00b"',          # NUL-twin literal constant
    f'?s <{P}> "a\x00c"',
    "?s ?p <https://x/a\x00b>",    # NUL-twin IRI constant
    f'?s <{P}> "https://x/same"',  # literal with an IRI's lexical form
    f"?s <{P}> <https://x/same>",
    f'?s <{Q}> "x"',               # constant literal object
    "?s ?p ?s",                    # repeated variable
    "?s ?p ?p",
    f"<https://x/lit> <{Q}> \"x\"",  # boolean pattern that matches
    f"<https://x/lit> <{Q}> \"y\"",  # and one that does not
])
def test_kernel_matches_naive_oracle(text):
    pat = _pat(text)
    got = eval_one_pattern(_triples(), pat)
    assert isinstance(got, pa.Table)
    pd.testing.assert_frame_equal(_frame(got), naive(_triples(), pat))


def test_kernel_keeps_nul_twins_and_term_kinds_apart():
    got = _frame(eval_one_pattern(_triples(), _pat("?s ?p ?o")))
    assert len(got) == 12  # 13 rows, one exact repeat
    assert {"La\x00b", "La\x00c"} <= set(got["o"])
    same = got[got["s"] == "Ihttps://x/same"]["o"].tolist()
    assert same == ["Ihttps://x/same", "Lhttps://x/same"]


def test_graph_var_shared_with_subject():
    """``GRAPH ?g { ?g ?p ?o }``: the graph id binds as an IRI and must
    equal the subject term."""
    pat = _pat("?g ?p ?o")
    got = _frame(eval_pattern_in_graph(_quads(), pat, ("var", "g")))
    want = naive(_quads(), pat, graph_var="g")
    pd.testing.assert_frame_equal(got, want)
    assert got["g"].tolist() == ["Ihttps://x/g"]
    named = _frame(eval_pattern_in_graph(_quads(), _pat("?s ?p ?o"),
                                         ("iri", "https://x/g\x00")))
    assert named["s"].tolist() == ["Ihttps://x/a\x00b"]


def test_negated_property_set_path():
    pat = _pat(f"?s !<{P}> ?o")
    got = eval_one_pattern(_triples(), pat)
    assert isinstance(got, pa.Table)
    # the path's edges are the Q edges, tagged, first-appearance distinct
    want = naive(_triples(), (("var", "s"), ("iri", Q), ("var", "o")))
    pd.testing.assert_frame_equal(_frame(got), want)


TW = "https://x/tw"


def _twin_store(tmp_path):
    """A 2-partition log whose perfbench-shape matches carry NUL-twin
    IRIs and literals, in graphs spread over both partitions. The
    ``TW`` triples put NUL-twin subjects and objects in both partitions,
    so the router's gather order is not their byte order."""
    from perfbench.oracle_gate import ACQ, FOUNDED, HQ

    from rdf_diff_store_ray.shuffle_utils import partition_ids
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    store = init_log(str(tmp_path / "deltas"), num_partitions=2)
    ids = [f"https://x/g{i}" for i in range(32)]
    pids = partition_ids(ids, 2)
    left = [g for g, p in zip(ids, pids) if p == 0]
    right = [g for g, p in zip(ids, pids) if p == 1]
    docs = {}
    for i, twin in enumerate(("a\x00b", "a\x00c")):
        co, city = f"https://x/co{twin}", f"https://x/city{twin}"
        docs[left[i]] = (
            f"<{co}> <{HQ}> <{city}> .\n"
            f'<{co}> <{FOUNDED}> "19{twin}" .\n')
        docs[right[i]] = (
            f"<https://x/buyer{i}> <{ACQ}> <{co}> .\n"
            f'<https://x/buyer{i}> <{HQ}> "{twin}" .\n')
    both = '<https://x/both> <https://x/one> "x" .\n'  # both partitions
    docs[left[2]] = (f'<https://x/t> <{TW}> "v\x00z" .\n'
                     f'<https://x/t\x00b> <{TW}> "v\x00y" .\n' + both)
    docs[right[2]] = (f'<https://x/t> <{TW}> "v\x00a" .\n'
                      f'<https://x/t\x00a> <{TW}> "v\x00y" .\n' + both)
    append_graphs(store, docs, 1_700_000_000)
    return store


@pytest.fixture(scope="module")
def twin(ray_session, tmp_path_factory):
    """(reader, router) over one :func:`_twin_store`."""
    from rdf_diff_store_ray.query.bgp import DiffStoreReader
    from rdf_diff_store_ray.stages.deltas import read_log
    from rdf_diff_store_ray.query.service import QueryService

    store = _twin_store(tmp_path_factory.mktemp("twin"))
    svc = QueryService(store)
    yield DiffStoreReader(read_log(store)), svc
    svc.shutdown()


def test_router_matches_reader_on_nul_twin_store(twin):
    from perfbench.oracle_gate import QUERIES

    reader, svc = twin
    ts = 1_700_000_001
    assert len(svc.actors) == 2
    for name, q in QUERIES.items():
        want = reader.query_at(ts, q)
        assert len(want), name
        pd.testing.assert_frame_equal(svc.query_at(ts, q), want)
    path = reader.query_at(ts, QUERIES["q_path"])
    assert sorted(path["c"]) == ["https://x/citya\x00b",
                                 "https://x/citya\x00c"]
    # a variable-free match in both partitions is one empty solution
    q = 'SELECT * WHERE { <https://x/both> <https://x/one> "x" }'
    want = reader.query_at(ts, q)
    assert want.shape == (1, 0)
    pd.testing.assert_frame_equal(svc.query_at(ts, q), want)


def test_nul_twin_answers_are_byte_sorted(twin):
    """Rows whose terms differ only past a NUL sort by their full bytes
    in a multi-column answer, under ORDER BY's tie-break and in a
    CONSTRUCT, on the reader and the router alike (the router gathers
    partition 0's rows before partition 1's)."""
    reader, svc = twin
    ts = 1_700_000_001
    rows = sorted([("https://x/t", "v\x00z"), ("https://x/t\x00b", "v\x00y"),
                   ("https://x/t", "v\x00a"), ("https://x/t\x00a", "v\x00y")])
    want = pd.DataFrame(rows, columns=["s", "o"])
    for q in (f"SELECT ?s ?o WHERE {{ ?s <{TW}> ?o }}",
              f"SELECT ?s ?o WHERE {{ ?s <{TW}> ?o }} ORDER BY ?s"):
        got = reader.query_at(ts, q)
        pd.testing.assert_frame_equal(got, want)
        pd.testing.assert_frame_equal(svc.query_at(ts, q), got)
    q = f"CONSTRUCT {{ ?s <https://x/r> ?o }} WHERE {{ ?s <{TW}> ?o }}"
    got = reader.query_at(ts, q)
    assert list(zip(got["subj"], got["obj"])) == rows
    pd.testing.assert_frame_equal(svc.query_at(ts, q), got)
