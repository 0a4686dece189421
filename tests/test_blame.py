"""Per-line provenance (git-blame analog) — vectorized path vs a naive
per-graph replay oracle, plus distributed-path parity. The semantics
mirror ``git blame`` over the reference's one-file-per-graph commits
(/root/reference/src/git.rs:151-190): each live line blames the version
that started its current uninterrupted run."""

import glob
import os

import pandas as pd
import pyarrow.dataset as pads
import pytest

T0 = 1_700_000_000


def _delta_table(delta_dir):
    files = sorted(glob.glob(os.path.join(delta_dir, "partition=*", "*.parquet")))
    return pads.dataset(files).to_table()


@pytest.fixture()
def store(ray_session, tmp_path):
    from rdf_diff_store_ray.state.append import init_log

    return init_log(str(tmp_path / "deltas"), num_partitions=4)


def _line(n: int) -> str:
    return f'<https://x/s{n}> <https://x/p> "{n}" .'


def _doc(*ns) -> str:
    return "".join(_line(n) + "\n" for n in sorted(ns))


def _naive_blame(history, ts):
    """Reference semantics, one graph at a time, pure Python: walk back
    from the live version while the line stays present."""
    by_graph = {}
    for gid, t, op, text in history:
        if t <= ts:
            by_graph.setdefault(gid, []).append((op, text, t))
    out = {}
    for gid, vs in by_graph.items():
        if vs[-1][0] == "delete":
            continue
        lines = [
            set() if op == "delete" else {l for l in text.split("\n") if l}
            for op, text, _ in vs
        ]
        for line in lines[-1]:
            i = len(lines) - 1
            while i > 0 and line in lines[i - 1]:
                i -= 1
            out[(gid, line)] = vs[i][2]
    return out


def _blame_dict(table):
    df = table if isinstance(table, pd.DataFrame) else table.to_pandas()
    return {
        (g, l): int(pd.Timestamp(t).timestamp())
        for g, l, t in zip(df["graph_id"], df["line"], df["since_ts"])
    }


def _apply(store, history):
    from rdf_diff_store_ray.state.append import append_graphs, delete_graphs

    for gid, t, op, text in history:
        if op == "delete":
            assert delete_graphs(store, [gid], t) == 1
        else:
            assert append_graphs(store, {gid: text}, t) == 1


def test_blame_basic_change(store, ray_session):
    """v1 {1,2}, v2 {1,3}: line 1 blames v1, line 3 blames v2."""
    from rdf_diff_store_ray.state.blame import blame_table

    hist = [("g", T0, "update", _doc(1, 2)), ("g", T0 + 60, "update", _doc(1, 3))]
    _apply(store, hist)
    got = _blame_dict(blame_table(_delta_table(store), T0 + 120))
    assert got == {
        ("g", _line(1)): T0,
        ("g", _line(3)): T0 + 60,
    }


def test_blame_readd_blames_the_readd(store, ray_session):
    """A line removed in v2 and restored in v3 blames v3, not v1."""
    from rdf_diff_store_ray.state.blame import blame_table

    hist = [
        ("g", T0, "update", _doc(1)),
        ("g", T0 + 60, "update", _doc(2)),
        ("g", T0 + 120, "update", _doc(1, 2)),
    ]
    _apply(store, hist)
    got = _blame_dict(blame_table(_delta_table(store), T0 + 180))
    assert got[("g", _line(1))] == T0 + 120
    assert got[("g", _line(2))] == T0 + 60


def test_blame_delete_breaks_runs(store, ray_session):
    """delete + re-add with identical content re-blames every line; a
    graph whose latest op is delete is absent entirely."""
    from rdf_diff_store_ray.state.blame import blame_table

    hist = [
        ("g", T0, "update", _doc(1)),
        ("g", T0 + 60, "delete", ""),
        ("g", T0 + 120, "update", _doc(1)),
        ("h", T0, "update", _doc(9)),
        ("h", T0 + 60, "delete", ""),
    ]
    _apply(store, hist)
    dt = _delta_table(store)
    got = _blame_dict(blame_table(dt, T0 + 180))
    assert got == {("g", _line(1)): T0 + 120}
    # as-of before the delete: the original blame
    got_mid = _blame_dict(blame_table(dt, T0 + 30))
    assert got_mid == {("g", _line(1)): T0, ("h", _line(9)): T0}


def test_blame_same_second_uses_replay_order(store, ray_session):
    """Two appends in one second: the seq column decides the live
    version; blame reports the second write's lines at that second."""
    from rdf_diff_store_ray.state.append import append_graphs
    from rdf_diff_store_ray.state.blame import blame_table

    assert append_graphs(store, {"g": _doc(1)}, T0) == 1
    assert append_graphs(store, {"g": _doc(2)}, T0) == 1
    got = _blame_dict(blame_table(_delta_table(store), T0 + 1))
    assert got == {("g", _line(2)): T0}


def test_cli_blame(ray_session, tmp_path, capsys):
    import json

    from rdf_diff_store_ray.__main__ import main

    store = str(tmp_path / "deltas")
    assert main(["init", "--store", store, "--partitions", "2"]) == 0
    assert main(["append", "--store", store, "--graph", "g",
                 "--text", _doc(1, 2), "--ts", str(T0)]) == 0
    assert main(["append", "--store", store, "--graph", "g",
                 "--text", _doc(1, 3), "--ts", str(T0 + 60)]) == 0
    capsys.readouterr()
    assert main(["blame", "--store", store, "--ts", str(T0 + 120)]) == 0
    rows = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert {(r["line"], r["since"]) for r in rows} == {
        (_line(1), T0),
        (_line(3), T0 + 60),
    }


def test_blame_service_matches_table(store, ray_session):
    """Distributed QueryService.blame_at == the single-table path."""
    from rdf_diff_store_ray.query.service import QueryService
    from rdf_diff_store_ray.state.blame import blame_table

    hist = [
        ("g", T0, "update", _doc(1)),
        ("g", T0 + 60, "update", _doc(1, 2)),
        ("h", T0 + 30, "update", _doc(3)),
        ("h", T0 + 90, "delete", ""),
    ]
    _apply(store, hist)
    svc = QueryService(store)
    try:
        got = svc.blame_at(T0 + 120)
    finally:
        svc.shutdown()
    expect = blame_table(_delta_table(store), T0 + 120).to_pandas()
    assert _blame_dict(got) == _blame_dict(expect)
    assert _blame_dict(got) == {
        ("g", _line(1)): T0,
        ("g", _line(2)): T0 + 60,
    }


def test_blame_matches_naive_oracle_randomized(store, ray_session):
    """Seeded random histories over several graphs: vectorized table path
    == naive replay, and the distributed Dataset path == the table path."""
    import random

    import ray.data as rd

    from rdf_diff_store_ray.state.blame import blame, blame_table

    rng = random.Random(42)
    hist = []
    alive = {}
    t = T0
    for _ in range(40):
        gid = f"g{rng.randrange(4)}"
        t += rng.randrange(1, 90)
        if alive.get(gid) and rng.random() < 0.2:
            _apply(store, [(gid, t, "delete", "")])
            hist.append((gid, t, "delete", ""))
            alive[gid] = False
        else:
            doc = _doc(*rng.sample(range(8), rng.randrange(1, 5)))
            try:
                _apply(store, [(gid, t, "update", doc)])
            except AssertionError:
                continue  # no-op suppression rejected identical content
            alive[gid] = True
            hist.append((gid, t, "update", doc))
    dt = _delta_table(store)
    for ts in (T0 + 200, T0 + 900, t + 1):
        expect = _naive_blame(hist, ts)
        got = _blame_dict(blame_table(dt, ts))
        assert got == expect, f"table path diverged at ts={ts}"
    ds = rd.read_parquet(
        sorted(glob.glob(os.path.join(store, "partition=*", "*.parquet")))
    )
    got_ds = _blame_dict(blame(ds, t + 1).to_pandas())
    # to_pandas of the distributed path loses no rows; compare as dicts
    assert got_ds == _naive_blame(hist, t + 1)


def test_blame_nul_distinct_graph_ids(store, ray_session):
    """NUL-distinct graph ids keep separate blame streams: pandas'
    object-key groupby/multi-key sort factorize through the truncating
    C-string table, so "g\\x00a" and "g\\x00b" would otherwise share one
    vrank stream and corrupt runs (see shuffle_utils)."""
    from rdf_diff_store_ray.state.blame import blame_table

    ga, gb = "g\x00a", "g\x00b"
    history = [
        (ga, T0, "update", _doc(1, 2)),
        (gb, T0, "update", _doc(1, 3)),
        (ga, T0 + 60, "update", _doc(1, 2, 4)),  # line 1 run started T0
        (gb, T0 + 120, "update", _doc(3)),       # line 1 dropped
    ]
    _apply(store, history)
    got = _blame_dict(blame_table(_delta_table(store), T0 + 200))
    want = _naive_blame(history, T0 + 200)
    assert got == want
    # both graphs present, line 1 blames T0 on ga only
    assert (ga, _line(1)) in got and got[(ga, _line(1))] == T0
    assert (gb, _line(1)) not in got
    assert got[(gb, _line(3))] == T0
