"""End-to-end build: delta-log parity with the reference oracle, triple
P/R, state-at-ts time travel, manifests, and kill-and-resume."""

import os

import pandas as pd
import pyarrow.dataset as pads
import pytest

from rdf_diff_store_ray import ntriples
from rdf_diff_store_ray.corpus import EPOCH, SNAPSHOT_STEP
from rdf_diff_store_ray.state import reconstruct


def _engine_deltas(built):
    dt = built.delta_table()
    return sorted(
        zip(
            dt["graph_id"].to_pylist(),
            [int(pd.Timestamp(t).timestamp()) for t in dt["warc_ts"].to_pylist()],
            dt["op"].to_pylist(),
            dt["delta_text"].to_pylist(),
        )
    )


def _oracle_deltas(oracle_store):
    return sorted((g, ts, op, txt) for g, ts, op, txt, _ in oracle_store.deltas())


def test_delta_log_matches_oracle_byte_identical(built, oracle_store):
    """Update/delete rows, timestamps AND canonical texts must all match —
    this covers no-op suppression, delete inference and canonical
    serialization in one equality."""
    assert _engine_deltas(built) == _oracle_deltas(oracle_store)


def test_no_op_suppression_happened(built, small_corpus, oracle_store):
    """There must be strictly fewer deltas than page rows (the corpus
    plants byte-identical re-crawls) — the engine analog of test_no_diff."""
    dt = built.delta_table()
    n_updates = dt["op"].to_pylist().count("update")
    assert n_updates < small_corpus.pages.num_rows


def test_deletes_are_emitted(built):
    assert "delete" in set(built.delta_table()["op"].to_pylist())


def test_triple_precision_recall(built, small_corpus):
    tt = pads.dataset(built.triples_dir).to_table()
    got = set(zip(tt["subj"].to_pylist(), tt["pred"].to_pylist(), tt["obj"].to_pylist()))
    exp = small_corpus.expected_triples
    want = set(zip(exp["subj"].to_pylist(), exp["pred"].to_pylist(), exp["obj"].to_pylist()))
    tp = len(got & want)
    precision = tp / max(1, len(got))
    recall = tp / max(1, len(want))
    assert precision >= 0.95, f"P={precision}"
    assert recall >= 0.95, f"R={recall}"


def test_state_at_time_travel_matches_oracle(built, oracle_store):
    """graph-at-timestamp at post → pre → mid (deliberately out of order,
    like integration_test.rs:71-90) on the pyarrow table path."""
    dt = built.delta_table()
    times = oracle_store.version_times()
    pre = times[0] - 10
    post = times[-1] + 10
    mid = times[len(times) // 2]
    for ts in (post, pre, mid):
        engine_state = {
            r["graph_id"]: r["delta_text"]
            for r in reconstruct.state_at_table(dt, ts).to_pylist()
        }
        assert engine_state == oracle_store.checkout(ts), f"state mismatch at {ts}"


def test_graphs_at_merged_document(built, oracle_store):
    dt = built.delta_table()
    ts = oracle_store.version_times()[-1]
    assert reconstruct.graphs_at_table(dt, ts) == oracle_store.combined_graph(ts)


def test_metadata(built, oracle_store):
    dt = built.delta_table()
    lo, hi = reconstruct.metadata_table(dt)
    olo, ohi = oracle_store.metadata()
    assert int(pd.Timestamp(lo).timestamp()) == olo
    assert int(pd.Timestamp(hi).timestamp()) == ohi


def test_state_at_dataset_path_agrees_with_table_path(ray_session, built):
    ts = EPOCH + 2 * SNAPSHOT_STEP + 1
    dt = built.delta_table()
    table_state = {
        r["graph_id"]: r["digest"]
        for r in reconstruct.state_at_table(dt, ts).to_pylist()
    }
    ds_state = {
        r["graph_id"]: r["digest"]
        for r in reconstruct.state_at(built.delta_dataset(), ts).take_all()
    }
    assert ds_state == table_state


def test_diff_between_matches_naive_state_difference(ray_session, built):
    """diff(ts1, ts2) == set(state(ts2)) - set(state(ts1)) per graph, on
    both the table path and the distributed path — including graphs that
    appear, change, and (via the corpus's churned urls) disappear."""
    from rdf_diff_store_ray import ntriples

    dt = built.delta_table()
    times = sorted(
        int(pd.Timestamp(t).timestamp())
        for t in dt["warc_ts"].cast("timestamp[s]").to_pylist()
    )
    ts1, ts2 = times[len(times) // 3], times[-1]

    def naive_state(ts):
        out = {}
        for r in reconstruct.state_at_table(dt, ts).to_pylist():
            out[r["graph_id"]] = set(
                line for line in r["delta_text"].split("\n") if line
            )
        return out

    s1, s2 = naive_state(ts1), naive_state(ts2)
    expected = set()
    for gid in set(s1) | set(s2):
        for line in s2.get(gid, set()) - s1.get(gid, set()):
            expected.add((gid, "added", line))
        for line in s1.get(gid, set()) - s2.get(gid, set()):
            expected.add((gid, "removed", line))

    table_diff = {
        (r["graph_id"], r["change"], r["line"])
        for r in reconstruct.diff_table(dt, ts1, ts2).to_pylist()
    }
    assert table_diff == expected
    assert expected, "fixture must exercise a non-empty diff"

    ds_diff = {
        (r["graph_id"], r["change"], r["line"])
        for r in reconstruct.diff_between(
            built.delta_dataset(), ts1, ts2
        ).take_all()
    }
    assert ds_diff == expected

    # identical endpoints diff to nothing
    assert reconstruct.diff_table(dt, ts2, ts2).num_rows == 0


def test_manifests_have_lineage(built):
    assert len(built.manifests) == built.num_partitions
    for m in built.manifests:
        assert m["rows"] >= 0
        assert "content_sha256" in m and "wall_s" in m
        if m["rows"]:
            assert m["graph_id_min"] <= m["graph_id_max"]


def test_resume_recomputes_only_missing_partition(
    ray_session, small_corpus, corpus_dir, built
):
    """Fixture F6: delete one partition's manifest → re-run → only that
    partition is recomputed and the final log is byte-identical."""
    import shutil

    from rdf_diff_store_ray.pipelines.build import build

    before = _key_rows(built)
    victim = os.path.join(built.delta_dir, "partition=00001")
    other = os.path.join(built.delta_dir, "partition=00002", "deltas.parquet")
    mtime_other = os.path.getmtime(other)
    shutil.rmtree(victim)

    res2 = build(
        f"{corpus_dir}/pages.parquet",
        built.out_dir,
        gazetteer=small_corpus.gazetteer,
        num_partitions=built.num_partitions,
        resume=True,
        write_triples=False,
    )
    assert res2.resumed_partitions == built.num_partitions - 1
    assert os.path.getmtime(other) == mtime_other  # untouched partition not rewritten
    assert _key_rows(res2) == before  # byte-identical final output


def _key_rows(build_result):
    dt = build_result.delta_table()
    return sorted(
        zip(
            dt["graph_id"].to_pylist(),
            dt["warc_ts"].to_pylist(),
            dt["op"].to_pylist(),
            dt["delta_text"].to_pylist(),
            dt["digest"].to_pylist(),
        )
    )
