"""Regression tests for the pandas nunique/pd.unique NUL-truncation
family: Series.nunique() and pd.unique() collapse strings that differ
only past a NUL byte (measured at EVERY size on pandas 2.2.2, unlike
the size-dependent categorize-hash pitfall), while
Series.drop_duplicates() is safe. Each test drives a public surface
that used one of the unsafe calls."""

import numpy as np
import pyarrow as pa
import pytest

A, B, C = "g\x00one", "g\x00two", "g\x00three"
TRIPLE = '<https://x/s> <https://x/p> "v" .\n'


def test_pandas_nunique_still_broken_upstream():
    """If this starts failing, pandas fixed the hashtable and the
    workarounds can be revisited."""
    import pandas as pd

    s = pd.Series([A, B, C], dtype=object)
    assert s.nunique() == 1          # the bug
    assert len(s.drop_duplicates()) == 3  # the safe path


def test_count_distinct_nul_twin_terms(ray_session, tmp_path):
    import glob

    import pyarrow.dataset as pads

    from rdf_diff_store_ray.query.bgp import DiffStoreReader
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    store = str(tmp_path / "s")
    init_log(store, num_partitions=2)
    text = (
        '<https://x/s> <https://x/p> "m\\u0000k" .\n'
        '<https://x/s> <https://x/p> "m\\u0000n" .\n'
        '<https://x/s> <https://x/p> "m\\u0000o" .\n'
    )
    append_graphs(store, {"g": text}, 1_700_000_000)
    files = sorted(glob.glob(f"{store}/partition=*/deltas*.parquet"))
    reader = DiffStoreReader(pads.dataset(files).to_table())
    res = reader.query_at(
        1_700_000_100,
        "SELECT (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s <https://x/p> ?o }")
    assert res["n"].tolist() == [3]


def test_fsck_counts_nul_twin_graphs(ray_session, tmp_path):
    from rdf_diff_store_ray.state.append import append_graphs, init_log
    from rdf_diff_store_ray.state.fsck import fsck_store

    store = str(tmp_path / "s")
    init_log(store, num_partitions=1)  # one partition: twins co-locate
    append_graphs(store, {A: TRIPLE, B: TRIPLE, C: TRIPLE}, 1_700_000_000)
    rep = fsck_store(store).to_pandas()
    assert int(rep["n_graphs"].sum()) == 3


def test_sparql_delete_hits_all_nul_twin_graphs(ray_session, tmp_path):
    from rdf_diff_store_ray.state.append import append_graphs, init_log
    from rdf_diff_store_ray.state.reconstruct import state_at_table
    from rdf_diff_store_ray.state.update import sparql_update

    store = str(tmp_path / "s")
    init_log(store, num_partitions=1)
    append_graphs(store, {A: TRIPLE, B: TRIPLE, C: TRIPLE}, 1_700_000_000)
    sparql_update(store, "DELETE { ?s ?p ?o } WHERE { ?s ?p ?o }",
                  ts=1_700_000_100)
    import glob

    import pyarrow.dataset as pads

    files = sorted(glob.glob(f"{store}/partition=*/deltas*.parquet"))
    live = state_at_table(pads.dataset(files).to_table(), 1_700_000_200)
    texts = [t for t in live["delta_text"].to_pylist() if t]
    assert texts == []  # every NUL-twin graph's triple deleted


def test_repetition_stats_nul_twin_tokens():
    from rdf_diff_store_ray.functions.text import repetition_stats_batch

    out = repetition_stats_batch(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array([f"{A} {B} {C} {A}"]),
    })).to_pandas()
    assert out.loc[0, "n_tokens"] == 4
    assert out.loc[0, "n_distinct_tokens"] == 3
    assert out.loc[0, "top_token"] == A  # 2 occurrences


def test_bpe_tokens_per_doc_nul_twin_words(ray_session):
    import ray.data as rd

    from rdf_diff_store_ray.functions.bpe import (
        bpe_tokens_per_doc,
        bpe_train,
    )

    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array([f"{A} {B}", f"{C} {A} plain text here"]),
    }))
    merges = bpe_train(docs, n_merges=8)
    out = bpe_tokens_per_doc(docs, merges).to_pandas().set_index("doc_id")
    # before the fix a NUL-twin word missed its memo entry and the
    # int64 cast raised; counts must be finite and positive
    assert (out["n_tokens"] > 0).all()


def test_repetition_top_token_keeps_nul_twins_distinct():
    """The per-doc top-token counter groups on integer token codes, not
    object keys: NUL-twin tokens must not merge into one count."""
    import pyarrow as pa

    from rdf_diff_store_ray.functions.text import repetition_stats_batch

    t = pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array(["a\x00x a\x00x a\x00x a\x00y a\x00y b"]),
    })
    out = repetition_stats_batch(t).to_pandas().iloc[0]
    assert out["n_tokens"] == 6
    assert out["n_distinct_tokens"] == 3
    assert out["top_token"] == "a\x00x" and out["top_token_count"] == 3


def test_upstream_outer_merge_nul_twin_behavior():
    """Pin the pandas 2.2 behavior behind shuffle_utils.
    merge_outer_nul_safe: OUTER column merges on NUL-twin keys RAISE
    (multi-key at any size; single-key above the factorize-size
    threshold), while inner/left/right merges and INDEX outer joins are
    exact. If an upgrade changes this, the guarded call sites can be
    revisited."""
    import numpy as np
    import pandas as pd
    import pytest

    a = pd.DataFrame({"k": np.array(["b\x00x", "b\x00y"], object),
                      "j": ["z", "z"], "v": [1, 2]})
    b = pd.DataFrame({"k": np.array(["b\x00x", "c"], object),
                      "j": ["z", "z"], "w": [10, 20]})
    with pytest.raises(ValueError, match="unique"):
        a.merge(b, on=["k", "j"], how="outer")
    n = 5000
    big1 = pd.DataFrame({"k": np.array([f"b\x00{i}" for i in range(n)],
                                       object), "v": range(n)})
    big2 = pd.DataFrame({"k": np.array([f"b\x00{i}"
                                        for i in range(0, n, 2)], object),
                         "w": range(n // 2)})
    with pytest.raises(ValueError, match="unique"):
        big1.merge(big2, on="k", how="outer")
    # inner/left stay exact (the pitfall census's measured-safe set)
    m = a.merge(b, on=["k", "j"], how="inner")
    assert m["k"].tolist() == ["b\x00x"]
    m = a.merge(b, on=["k", "j"], how="left")
    assert len(m) == 2 and m["w"].iloc[0] == 10.0 and pd.isna(m["w"].iloc[1])
    # index outer joins are exact at both sizes
    w = big1.set_index("k")["v"].to_frame("v")
    g = big2.set_index("k")["w"].to_frame("w")
    assert len(w.join(g, how="outer")) == n


def test_merge_outer_nul_safe_matches_pandas_semantics():
    """The nul-safe outer merge == pandas' outer merge on NUL-free
    frames, and on NUL-twin keys produces exactly the set-union rows
    pandas would if it could."""
    import numpy as np
    import pandas as pd

    from rdf_diff_store_ray.shuffle_utils import merge_outer_nul_safe

    clean_a = pd.DataFrame({"k": ["p", "q"], "v": [1, 2]})
    clean_b = pd.DataFrame({"k": ["q", "r"], "w": [3, 4]})
    want = clean_a.merge(clean_b, on="k", how="outer", indicator=True)
    got = merge_outer_nul_safe(clean_a, clean_b, on="k", indicator=True)
    pd.testing.assert_frame_equal(
        got.sort_values("k", ignore_index=True)[want.columns],
        want.sort_values("k", ignore_index=True))

    a = pd.DataFrame({"k": np.array(["b\x00x", "b\x00y"], object),
                      "j": ["z", "z"], "v": [1, 2]})
    b = pd.DataFrame({"k": np.array(["b\x00x", "c"], object),
                      "j": ["z", "z"], "w": [10, 20]})
    m = merge_outer_nul_safe(a, b, on=["k", "j"], indicator=True)
    rows = set(zip(m["k"], m["j"], m["_merge"].astype(str)))
    assert rows == {("b\x00x", "z", "both"), ("b\x00y", "z", "left_only"),
                    ("c", "z", "right_only")}
    assert m.loc[m["k"] == "b\x00x", "v"].iloc[0] == 1
    assert m.loc[m["k"] == "b\x00x", "w"].iloc[0] == 10
    # suffixes apply to non-key overlaps
    a2 = a.rename(columns={"v": "x"})
    b2 = b.rename(columns={"w": "x"})
    m2 = merge_outer_nul_safe(a2, b2, on=["k", "j"],
                              suffixes=("_1", "_2"))
    assert {"x_1", "x_2"} <= set(m2.columns)


def test_diff_table_with_nul_twin_graph_ids_and_lines(ray_session):
    """state diff over a store whose graph ids AND canonical lines are
    NUL-twins — the reconstruct outer merges must not crash and must
    diff the twins independently (regression for the pandas outer-merge
    NUL crash)."""
    import pandas as pd
    import pyarrow as pa

    from rdf_diff_store_ray.ntriples import sha256_text
    from rdf_diff_store_ray.schemas import DELTAS
    from rdf_diff_store_ray.state.reconstruct import diff_table

    g1, g2 = "https://x/a\x00p", "https://x/a\x00q"
    l1 = '<https://x/s> <https://x/p> "v\x00a" .'
    l2 = '<https://x/s> <https://x/p> "v\x00b" .'
    rows = []
    for seq, (g, ts, text) in enumerate((
        (g1, 100, l1 + "\n"),
        (g2, 100, l1 + "\n"),
        (g1, 200, l2 + "\n"),       # twin 1 changes its line
    )):
        rows.append({"graph_id": g, "warc_ts": ts, "op": "update",
                     "delta_text": text, "digest": sha256_text(text),
                     "partition_id": 0, "seq": seq})
    t = pa.Table.from_pylist(rows).select(DELTAS.names).cast(DELTAS)
    d = diff_table(t, 100, 200).to_pandas()
    assert set(zip(d["graph_id"], d["change"], d["line"])) == {
        (g1, "removed", l1), (g1, "added", l2)}


def test_merge_outer_nul_safe_property_vs_slow_oracle():
    """Randomized frames (NUL-twin and NUL-free keys, single and multi
    key, overlapping non-key columns): merge_outer_nul_safe == a slow
    exact set-union oracle built with Python dicts."""
    import numpy as np
    import pandas as pd

    from rdf_diff_store_ray.shuffle_utils import merge_outer_nul_safe

    rng = np.random.default_rng(41)
    keys_pool = ["a", "a\x00x", "a\x00y", "b", "b\x00", "c"]
    for trial in range(20):
        n1, n2 = rng.integers(0, 12, size=2)
        multi = trial % 2 == 0
        cols = ["k", "j"] if multi else ["k"]

        def frame(n, val):
            d = {"k": [keys_pool[i] for i in rng.integers(
                0, len(keys_pool), size=n)]}
            if multi:
                d["j"] = [keys_pool[i] for i in rng.integers(
                    0, 2, size=n)]
            d[val] = list(range(n))
            df = pd.DataFrame(d, dtype=object)
            # unique keys per side (merge fan-out aside, the oracle
            # below assumes key uniqueness per frame)
            return df.drop_duplicates(subset=cols, ignore_index=True) \
                if n else pd.DataFrame({c: [] for c in cols + [val]},
                                       dtype=object)

        a, b = frame(int(n1), "v"), frame(int(n2), "w")
        got = merge_outer_nul_safe(a, b, on=cols, indicator=True)
        la = {tuple(r[c] for c in cols): r["v"]
              for _, r in a.iterrows()}
        lb = {tuple(r[c] for c in cols): r["w"]
              for _, r in b.iterrows()}
        want = {}
        for key in set(la) | set(lb):
            want[key] = (la.get(key), lb.get(key),
                         "both" if key in la and key in lb
                         else ("left_only" if key in la
                               else "right_only"))
        got_map = {}
        for _, r in got.iterrows():
            key = tuple(r[c] for c in cols)
            v = r["v"] if pd.notna(r["v"]) else None
            w = r["w"] if pd.notna(r["w"]) else None
            got_map[key] = (v, w, str(r["_merge"]))
        assert got_map == want, (trial, cols)


def test_dataset_path_matches_table_path_on_hostile_log(ray_session,
                                                        tmp_path):
    """The Dataset drivers (state_at, diff_between, blame) give the
    table kernels' answers (state_at_table, diff_table, blame_table) on
    one hostile log: NUL-twin graph ids, NUL bytes inside literals, a
    blank-node graph, a delete tombstone and a same-second replay."""
    import glob

    import pyarrow.dataset as pads
    import ray.data as rd

    from rdf_diff_store_ray.state.append import (append_graphs,
                                                 delete_graphs, init_log)
    from rdf_diff_store_ray.state.blame import blame, blame_table
    from rdf_diff_store_ray.state.reconstruct import (diff_between,
                                                      diff_table, state_at,
                                                      state_at_table)

    t0 = 1_700_000_000
    twin_a, twin_b = "g\x00a", "g\x00b"
    nul = '<https://x/s> <https://x/p> "m\x00k" .\n'
    nul2 = '<https://x/s> <https://x/q> "m\x00n" .\n'
    store = str(tmp_path / "s")
    init_log(store, num_partitions=2)
    append_graphs(store, {
        twin_a: TRIPLE, twin_b: nul, "gone": TRIPLE,
        "bn": '_:x <https://x/p> _:y .\n_:y <https://x/q> "z" .\n',
    }, t0)
    append_graphs(store, {twin_a: TRIPLE + nul2}, t0 + 60)
    delete_graphs(store, ["gone"], t0 + 60)
    append_graphs(store, {twin_b: TRIPLE}, t0 + 120)
    append_graphs(store, {twin_b: nul + nul2}, t0 + 120)  # replay wins
    files = sorted(glob.glob(f"{store}/partition=*/deltas*.parquet"))
    table, ds = pads.dataset(files).to_table(), rd.read_parquet(files)

    def rows(out, cols):
        got = out.take_all() if hasattr(out, "take_all") else out.to_pylist()
        return sorted(tuple(r[c] for c in cols) for r in got)

    state_cols = ["graph_id", "warc_ts", "op", "delta_text", "digest", "seq"]
    blame_cols = ["graph_id", "line", "since_ts"]
    diff_cols = ["graph_id", "change", "line"]
    times = (t0 - 1, t0, t0 + 60, t0 + 120, t0 + 200)
    for ts in times:
        assert rows(state_at(ds, ts), state_cols) == \
            rows(state_at_table(table, ts), state_cols), ts
        assert rows(blame(ds, ts), blame_cols) == \
            rows(blame_table(table, ts), blame_cols), ts
    for ts1, ts2 in ((t0, t0 + 60), (t0, t0 + 200), (t0 + 60, t0 + 120),
                     (t0 - 1, t0 + 200), (t0 + 200, t0)):
        assert rows(diff_between(ds, ts1, ts2), diff_cols) == \
            rows(diff_table(table, ts1, ts2), diff_cols), (ts1, ts2)

    # the log exercises every hostile shape it claims to
    live = {r["graph_id"]: r["delta_text"]
            for r in state_at_table(table, t0 + 200).to_pylist()}
    assert set(live) == {twin_a, twin_b, "bn"}
    assert "\x00" in live[twin_b] and "\x00" in live[twin_a]
    assert live[twin_b].count("\n") == 2  # the second same-second write
    assert live["bn"].startswith("_:")
    assert {r[0] for r in rows(blame_table(table, t0 + 200),
                               blame_cols)} == set(live)
