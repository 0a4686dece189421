"""Arrow binding sets after the scan: the conjunction against a naive
nested-loop join, GROUP BY against a naive per-group oracle, the
router's union of variable-free matches, the byte order of finalized
answers, and ``graph_at`` against the whole-log as-of read. In-memory
tables only."""

import math
import pickle
import random

import pandas as pd
import pyarrow as pa
import pytest

from rdf_diff_store_ray.query import bgp
from rdf_diff_store_ray.query.service import _land, _ship, _union

# NUL twins and IRI/literal kind twins
POOL = ["Ia\x00b", "Ia\x00c", "Ia", "Ix", "Lx", "La\x00b", "Ly"]


def _bindings(rng, cols, n):
    rows = {tuple(rng.choice(POOL) for _ in cols) for _ in range(n)}
    rows = sorted(rows, key=lambda r: rng.random())  # distinct, unsorted
    return pa.table({c: pa.array([r[i] for r in rows], pa.string())
                     for i, c in enumerate(cols)})


def _nested_loop(left: pa.Table, right: pa.Table) -> pd.DataFrame:
    shared = [c for c in left.column_names if c in right.column_names]
    new = [c for c in right.column_names if c not in shared]
    out = []
    for lrow in left.to_pylist():
        for rrow in right.to_pylist():
            if all(lrow[c] == rrow[c] for c in shared):
                out.append([*lrow.values(), *(rrow[c] for c in new)])
    return pd.DataFrame(out, columns=left.column_names + new, dtype=object)


def _greedy_oracle(tables):
    """The conjunction's contract: greedy selectivity order, then
    nested-loop joins."""
    live = [t for t in tables if t.num_columns]
    rest = sorted(range(len(live)), key=lambda i: (live[i].num_rows, i))
    order = [rest.pop(0)]
    seen = set(live[order[0]].column_names)
    while rest:
        share = [i for i in rest if seen & set(live[i].column_names)]
        pick = min(share or rest, key=lambda i: (live[i].num_rows, i))
        rest.remove(pick)
        order.append(pick)
        seen |= set(live[pick].column_names)
    acc = live[order[0]]
    for i in order[1:]:
        acc = pa.Table.from_pandas(_nested_loop(acc, live[i]),
                                   preserve_index=False)
    return acc


@pytest.mark.parametrize("seed", range(6))
def test_join_matches_nested_loop(seed):
    rng = random.Random(seed)
    shared = _bindings(rng, ["a", "b"], 12)
    other = _bindings(rng, ["b", "c"], 12)
    cross = _bindings(rng, ["d"], 3)
    for left, right in ((shared, other), (other, shared), (shared, cross),
                        (shared, other.slice(0, 0))):
        got = bgp._frame(bgp._join(left, right))
        want = _nested_loop(left, right)
        if not len(want):  # empty: compare the schema, not the dtype
            assert list(got.columns) == list(want.columns) and not len(got)
            continue
        pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("seed", range(6))
def test_conjoin_matches_greedy_nested_loop(seed):
    rng = random.Random(seed)
    tables = [_bindings(rng, ["a", "b"], 10), _bindings(rng, ["b", "c"], 6),
              bgp._unit(1), _bindings(rng, ["c", "a"], 15),
              _bindings(rng, ["e"], 2)]
    got = bgp._conjoin(range(len(tables)), lambda i: tables[i])
    want = _greedy_oracle(tables)
    assert got.column_names == want.column_names
    assert got.to_pylist() == want.to_pylist()
    # a pattern that matched nothing empties the conjunction, with every
    # pattern variable in the schema
    empty = bgp._conjoin(range(3), lambda i: [tables[0], bgp._unit(0),
                                              tables[1]][i])
    assert empty.num_rows == 0 and empty.column_names == ["a", "b", "c"]


def test_variable_free_match_in_one_partition():
    """A boolean pattern that matches in only one of two partitions is
    matched on the router; the zero-column table itself would lose its
    row count crossing the actor boundary (pyarrow 16)."""
    one, none = bgp._unit(1), bgp._unit(0)
    assert pa.concat_tables([one, none]).num_rows == 0  # the pitfall
    shipped = [pickle.loads(pickle.dumps(_ship(t))) for t in (none, one)]
    got = _union([_land(p) for p in shipped])
    assert got.num_columns == 0 and got.num_rows == 1
    assert _union([_land(_ship(none))] * 2).num_rows == 0
    # a binding set survives the trip with its NUL twins
    t = pa.table({"s": ["Ia\x00b", "Ia\x00c"]})
    assert _land(pickle.loads(pickle.dumps(_ship(t)))).equals(t)
    pattern = (("iri", "https://x/s"), ("iri", "https://x/p"),
               ("lit", "a\x00b"))
    parts = [pa.table({"subj": ["https://x/s"], "pred": ["https://x/p"],
                       "obj": [o], "obj_is_literal": [True]})
             for o in ("a\x00c", "a\x00b")]
    got = _union([_land(_ship(bgp.eval_one_pattern(p, pattern)))
                  for p in parts])
    assert bgp._frame(got).shape == (1, 0)


XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
# tagged term -> (lexical form, SPARQL-numeric value)
TERMS = {"L1": ("1", 1.0), f'L"2"^^<{XSD_INT}>': ("2", 2.0),
         "L2.5": ("2.5", 2.5), "Lx": ("x", None), "Ix": ("x", None),
         "Ia\x00b": ("a\x00b", None), "La\x00c": ("a\x00c", None),
         "L-4": ("-4", -4.0)}
KEYS = ["Ia\x00b", "Ia\x00c", "Lk", "Ik", None]


def _naive_aggregate(rows, aggs):
    groups: dict = {}
    for k, v in rows:
        groups.setdefault(k, []).append(v)
    out = []
    for k, vals in groups.items():
        bound = [v for v in vals if v is not None]
        row = {"k": k}
        for func, distinct, alias in aggs:
            vs = list(dict.fromkeys(bound)) if distinct else bound
            nums = [TERMS[v][1] for v in vs if TERMS[v][1] is not None]
            if distinct:
                nums = list(dict.fromkeys(nums))
            row[alias] = {
                "COUNT": len(vs), "STAR": len(vals),
                "SAMPLE": min(bound) if bound else None,
                "GROUP_CONCAT": "L" + ",".join(sorted(TERMS[v][0]
                                                      for v in vs)),
                "SUM": float(sum(nums)) if nums else None,
                "AVG": sum(nums) / len(nums) if nums else None,
                "MIN": min(nums) if nums else None,
                "MAX": max(nums) if nums else None,
            }[func]
        out.append(row)
    return out


@pytest.mark.parametrize("seed", range(5))
def test_group_by_matches_naive_oracle(seed):
    rng = random.Random(seed)
    rows = [(rng.choice(KEYS), rng.choice([*TERMS, None]))
            for _ in range(rng.randint(1, 40))]
    table = pa.table({"k": pa.array([r[0] for r in rows], pa.string()),
                      "v": pa.array([r[1] for r in rows], pa.string())})
    aggs = [("COUNT", False, "c"), ("COUNT", True, "cd"),
            ("STAR", False, "n"), ("SUM", False, "sum"),
            ("AVG", False, "avg"), ("MIN", False, "mn"),
            ("MAX", False, "mx"), ("SUM", True, "sumd"),
            ("SAMPLE", False, "smp"), ("GROUP_CONCAT", False, "gc"),
            ("GROUP_CONCAT", True, "gcd")]
    group = bgp.parse_query(
        "SELECT ?k (COUNT(?v) AS ?c) (COUNT(DISTINCT ?v) AS ?cd) "
        "(COUNT(*) AS ?n) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) "
        "(MIN(?v) AS ?mn) (MAX(?v) AS ?mx) (SUM(DISTINCT ?v) AS ?sumd) "
        "(SAMPLE(?v) AS ?smp) (GROUP_CONCAT(?v; separator=\",\") AS ?gc) "
        "(GROUP_CONCAT(DISTINCT ?v; separator=\",\") AS ?gcd) "
        "WHERE { ?k ?p ?v } GROUP BY ?k")
    got = bgp.aggregate_bindings(table, group).to_pylist()
    want = _naive_aggregate(rows, aggs)
    assert [r["k"] for r in got] == [r["k"] for r in want]
    for g, w in zip(got, want):
        for name in w:
            if isinstance(w[name], float):
                assert math.isclose(g[name], w[name]), (name, g, w)
            else:
                assert g[name] == w[name], (name, g, w)


def test_empty_group_by_answer_is_object_typed():
    t = pa.table({"subj": pa.array([], pa.string()),
                  "pred": pa.array([], pa.string()),
                  "obj": pa.array([], pa.string()),
                  "obj_is_literal": pa.array([], pa.bool_())})
    got = bgp.eval_bgp(t, "SELECT ?c (COUNT(?s) AS ?n) WHERE "
                          "{ ?s <https://x/p> ?c } GROUP BY ?c")
    assert list(got.columns) == ["c", "n"] and not len(got)
    assert list(got.dtypes) == [object, object]


def test_multi_column_answer_sorts_nul_twins_by_bytes():
    t = pa.table({"subj": ["x/a\x00c", "x/a\x00b", "x/a\x00c"],
                  "pred": ["p"] * 3, "obj": ["v\x00z", "v\x00y", "v\x00a"],
                  "obj_is_literal": [True] * 3})
    got = bgp.eval_bgp(t, "SELECT ?s ?o WHERE { ?s <p> ?o }")
    assert list(zip(got["s"], got["o"])) == [
        ("x/a\x00b", "v\x00y"), ("x/a\x00c", "v\x00a"),
        ("x/a\x00c", "v\x00z")]
    tagged = bgp.eval_bgp(t, "SELECT ?s ?o WHERE { ?s <p> ?o }",
                          finalize=False)
    assert tagged["o"].tolist() == ["Lv\x00y", "Lv\x00a", "Lv\x00z"]


def _delta_rows(rows):
    """A delta log table from (graph_id, second, op, text) rows in
    write order."""
    from rdf_diff_store_ray.schemas import DELTAS

    return pa.table({
        "graph_id": [r[0] for r in rows],
        "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("s")),
        "op": [r[2] for r in rows],
        "delta_text": [r[3] for r in rows],
        "digest": [r[3].encode()[:32] for r in rows],
        "partition_id": [0] * len(rows),
        "seq": list(range(len(rows))),
    }, schema=DELTAS)


def test_graph_at_matches_whole_log_read():
    """``graph_at`` reads only the graph's own rows and answers as the
    whole-log as-of read does: NUL-twin ids, a tombstone and a
    same-second replay."""
    from rdf_diff_store_ray.state import reconstruct

    t0 = 1_700_000_000
    a, b = "g\x00a", "g\x00b"
    deltas = _delta_rows([
        (a, t0, "update", "<x> <p> \"a1\" .\n"),
        (b, t0, "update", "<x> <p> \"b1\" .\n"),
        ("gone", t0, "update", "<x> <p> \"g\" .\n"),
        (a, t0 + 60, "update", "<x> <p> \"a2\" .\n"),
        ("gone", t0 + 60, "delete", ""),
        (b, t0 + 120, "update", "<x> <p> \"b2\" .\n"),
        (b, t0 + 120, "update", "<x> <p> \"b3\" .\n"),  # the replay wins
    ])
    reader = bgp.DiffStoreReader(deltas)
    calls = []
    orig = reconstruct.state_at_table

    def spy(table, ts):
        calls.append(table.num_rows)
        return orig(table, ts)

    reconstruct.state_at_table = spy
    try:
        for ts in (t0 - 1, t0, t0 + 59, t0 + 60, t0 + 120, t0 + 200):
            live = {r["graph_id"]: r["delta_text"]
                    for r in orig(deltas, ts).to_pylist()}
            for gid in (a, b, "gone", "g", "missing"):
                assert reader.graph_at(gid, ts) == live.get(gid), (gid, ts)
    finally:
        reconstruct.state_at_table = orig
    assert calls and max(calls) <= 3  # never the whole log
    assert reader.graph_at(b, t0 + 120) == "<x> <p> \"b3\" .\n"
    assert reader.graph_at("gone", t0 + 60) is None
