"""Distributed incremental build — the continuous-writer analog
(/root/reference/src/bin/rdf-diff-writer.rs:45-91 ingests updates
forever). The strongest oracle: bootstrapping on a corpus prefix and
appending the remaining snapshots incrementally must reproduce the
one-shot full build's store exactly, at every instant."""

import glob
import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from rdf_diff_store_ray.corpus import EPOCH, SNAPSHOT_STEP


@pytest.fixture(scope="module")
def split_corpus(ray_session, tmp_path_factory):
    """Seed-31 corpus written whole, plus early (first 3 instants) and
    late (remaining 3) page parquets."""
    from rdf_diff_store_ray import corpus

    root = tmp_path_factory.mktemp("inc")
    c = corpus.generate(n_urls=40, n_snapshots=6, seed=31)
    c.write(str(root / "full"))
    files = sorted(glob.glob(str(root / "full" / "pages.parquet*")))
    if not files:
        files = sorted(glob.glob(str(root / "full" / "pages.parquet" / "*")))
    t = pa.concat_tables([pq.read_table(f) for f in files])
    cut = pd.Timestamp(EPOCH + 3 * SNAPSHOT_STEP, unit="s")
    ts = t["warc_ts"].to_pandas()
    early = t.filter(pa.array(ts < cut))
    late = t.filter(pa.array(ts >= cut))
    assert early.num_rows and late.num_rows
    pq.write_table(early, str(root / "early.parquet"))
    pq.write_table(late, str(root / "late.parquet"))
    return {
        "root": str(root),
        "full": str(root / "full" / "pages.parquet"),
        "early": str(root / "early.parquet"),
        "late": str(root / "late.parquet"),
        "gazetteer": c.gazetteer,
    }


def _delta_rows(delta_dir):
    files = sorted(glob.glob(os.path.join(delta_dir, "partition=*", "*.parquet")))
    t = pads.dataset(files).to_table()
    rows = sorted(
        zip(
            t["graph_id"].to_pylist(),
            [int(pd.Timestamp(x).timestamp()) for x in t["warc_ts"].to_pylist()],
            t["op"].to_pylist(),
            [d.hex() if d else "" for d in t["digest"].to_pylist()],
            t["delta_text"].to_pylist(),
        )
    )
    return rows


def test_incremental_equals_full_build(split_corpus, ray_session, tmp_path):
    """build(early) + build_incremental(late) == build(full), delta row
    for delta row (graph, ts, op, digest, text) — the diff-store's whole
    contract in one assertion."""
    from rdf_diff_store_ray.pipelines.build import build, build_incremental

    gaz = split_corpus["gazetteer"]
    full = build(
        split_corpus["full"], str(tmp_path / "kg_full"),
        gazetteer=gaz, num_partitions=4, resume=False, write_triples=False,
    )
    boot = build(
        split_corpus["early"], str(tmp_path / "kg_inc"),
        gazetteer=gaz, num_partitions=4, resume=False, write_triples=False,
    )
    inc = build_incremental(
        split_corpus["late"], str(tmp_path / "kg_inc"),
        gazetteer=gaz, write_triples=False,
    )
    assert inc.applied_deltas > 0
    a = _delta_rows(full.delta_dir)
    b = _delta_rows(inc.delta_dir)
    assert a == b
    # every store invariant fsck checks must hold for incremental segments
    from rdf_diff_store_ray.state.fsck import fsck_ok, fsck_store

    report = fsck_store(inc.delta_dir)
    assert fsck_ok(report), report.to_pandas().to_string()
    # _SUCCESS snapshot grids agree too
    with open(os.path.join(full.delta_dir, "_SUCCESS")) as f:
        grid_full = json.load(f)["snapshot_times"]
    with open(os.path.join(inc.delta_dir, "_SUCCESS")) as f:
        grid_inc = json.load(f)["snapshot_times"]
    assert grid_full == grid_inc


def test_incremental_rerun_is_noop(split_corpus, ray_session, tmp_path):
    """Re-running the same batch applies zero deltas (suppression sees
    the already-appended digests) — the resume-after-partial-failure
    story."""
    from rdf_diff_store_ray.pipelines.build import build, build_incremental

    gaz = split_corpus["gazetteer"]
    build(
        split_corpus["early"], str(tmp_path / "kg"),
        gazetteer=gaz, num_partitions=4, resume=False, write_triples=False,
    )
    first = build_incremental(
        split_corpus["late"], str(tmp_path / "kg"),
        gazetteer=gaz, write_triples=False,
    )
    assert first.applied_deltas > 0
    before = _delta_rows(os.path.join(str(tmp_path / "kg"), "deltas"))
    again = build_incremental(
        split_corpus["late"], str(tmp_path / "kg"),
        gazetteer=gaz, write_triples=False,
    )
    assert again.applied_deltas == 0
    assert _delta_rows(os.path.join(str(tmp_path / "kg"), "deltas")) == before


def test_incremental_partial_failure_resume(split_corpus, ray_session, tmp_path):
    """Simulated mid-run crash: one partition's appended segment is
    deleted (as if that partition never wrote); re-running the batch
    restores exactly the missing rows and leaves the rest untouched."""
    from rdf_diff_store_ray.pipelines.build import build, build_incremental

    gaz = split_corpus["gazetteer"]
    build(
        split_corpus["early"], str(tmp_path / "kg"),
        gazetteer=gaz, num_partitions=4, resume=False, write_triples=False,
    )
    delta_dir = os.path.join(str(tmp_path / "kg"), "deltas")
    build_incremental(
        split_corpus["late"], str(tmp_path / "kg"),
        gazetteer=gaz, write_triples=False,
    )
    complete = _delta_rows(delta_dir)
    # drop one partition's append segments — the simulated crash
    victims = sorted(glob.glob(
        os.path.join(delta_dir, "partition=*", "deltas.seg-*.parquet")
    ))
    assert victims, "incremental run must have written segments"
    victim_dir = os.path.dirname(victims[0])
    n_lost = 0
    for f in victims:
        if os.path.dirname(f) == victim_dir:
            os.remove(f)
            n_lost += 1
    assert _delta_rows(delta_dir) != complete
    again = build_incremental(
        split_corpus["late"], str(tmp_path / "kg"),
        gazetteer=gaz, write_triples=False,
    )
    assert again.applied_deltas > 0
    assert _delta_rows(delta_dir) == complete


def test_incremental_monotonicity_raises(split_corpus, ray_session, tmp_path):
    """A graph appended (via the API) AFTER the incremental batch's
    instants makes the batch predate history — the partition raises
    before writing."""
    from rdf_diff_store_ray.pipelines.build import build, build_incremental
    from rdf_diff_store_ray.state.append import append_graphs

    gaz = split_corpus["gazetteer"]
    boot = build(
        split_corpus["early"], str(tmp_path / "kg"),
        gazetteer=gaz, num_partitions=4, resume=False, write_triples=False,
    )
    # pick a graph that exists in the late batch and bump it far ahead
    late_urls = pq.read_table(split_corpus["late"], columns=["url"])
    gid = sorted(late_urls["url"].to_pylist())[0]
    future = EPOCH + 100 * SNAPSHOT_STEP
    append_graphs(
        boot.delta_dir, {gid: '<https://x/s> <https://x/p> "v" .\n'}, future
    )
    with pytest.raises(Exception, match="predates existing history"):
        build_incremental(
            split_corpus["late"], str(tmp_path / "kg"),
            gazetteer=gaz, write_triples=False,
        )


def test_incremental_requires_existing_store(split_corpus, ray_session, tmp_path):
    from rdf_diff_store_ray.pipelines.build import build_incremental

    with pytest.raises(ValueError, match="no existing store"):
        build_incremental(
            split_corpus["late"], str(tmp_path / "nope"),
            gazetteer=split_corpus["gazetteer"],
        )


def test_incremental_build_on_truncated_store(split_corpus, ray_session,
                                              tmp_path):
    """Retention then growth: truncating the bootstrap store's history
    (squash to per-graph baselines) must not disturb a later
    build_incremental — the squashed store's post-cut reads stay
    byte-identical to the untruncated store's after BOTH ingest the same
    late batch, and fsck stays clean. (Baselines keep each live graph's
    original latest pre-cut ts/digest, so suppression and monotonicity
    seed identically.)"""
    from rdf_diff_store_ray.pipelines.build import build, build_incremental
    from rdf_diff_store_ray.state.append import truncate_log
    from rdf_diff_store_ray.state.fsck import fsck_ok, fsck_store
    from rdf_diff_store_ray.state.reconstruct import state_at_table

    gaz = split_corpus["gazetteer"]
    plain = build(
        split_corpus["early"], str(tmp_path / "kg_plain"),
        gazetteer=gaz, num_partitions=4, resume=False, write_triples=False,
    )
    squashed = build(
        split_corpus["early"], str(tmp_path / "kg_squash"),
        gazetteer=gaz, num_partitions=4, resume=False, write_triples=False,
    )
    cut = EPOCH + 2 * SNAPSHOT_STEP + 50  # inside the early window
    assert truncate_log(squashed.delta_dir, cut) >= 0

    inc_plain = build_incremental(
        split_corpus["late"], str(tmp_path / "kg_plain"),
        gazetteer=gaz, write_triples=False,
    )
    inc_squash = build_incremental(
        split_corpus["late"], str(tmp_path / "kg_squash"),
        gazetteer=gaz, write_triples=False,
    )
    assert inc_plain.applied_deltas == inc_squash.applied_deltas > 0

    def _state(delta_dir, ts):
        files = sorted(
            glob.glob(os.path.join(delta_dir, "partition=*", "*.parquet"))
        )
        t = pads.dataset(files).to_table()
        st = state_at_table(t, ts)
        return sorted(
            zip(st["graph_id"].to_pylist(), st["delta_text"].to_pylist())
        )

    probes = [
        cut,
        EPOCH + 3 * SNAPSHOT_STEP,
        EPOCH + 4 * SNAPSHOT_STEP,
        EPOCH + 6 * SNAPSHOT_STEP,
    ]
    for ts in probes:
        assert _state(inc_plain.delta_dir, ts) == _state(
            inc_squash.delta_dir, ts
        ), f"state diverged at t={ts}"
    assert fsck_ok(fsck_store(inc_squash.delta_dir)), (
        fsck_store(inc_squash.delta_dir).to_pandas()
    )


def _triple_rows(path, since=None):
    """Sorted triples-table rows under ``path`` (every parquet file below
    it), optionally only those at or after ``since`` (unix seconds)."""
    t = pads.dataset(path).to_table()
    rows = zip(
        t["subj"].to_pylist(), t["pred"].to_pylist(), t["obj"].to_pylist(),
        t["obj_is_literal"].to_pylist(), t["graph_id"].to_pylist(),
        [int(pd.Timestamp(x).timestamp()) for x in t["warc_ts"].to_pylist()],
    )
    return sorted(r for r in rows if since is None or r[5] >= since)


@pytest.fixture(scope="module")
def full_triples(split_corpus, ray_session, tmp_path_factory):
    """The one-shot full build's triples table rows."""
    from rdf_diff_store_ray.pipelines.build import build

    res = build(
        split_corpus["full"], str(tmp_path_factory.mktemp("full_triples")),
        gazetteer=split_corpus["gazetteer"], num_partitions=4, resume=False,
    )
    return _triple_rows(res.triples_dir)


def test_dataset_batches_keep_each_others_triples(split_corpus, full_triples,
                                                  ray_session, tmp_path):
    """Two Dataset batches appended one after the other each keep their
    own triples: the second must not overwrite the first's directory,
    and a re-run of a batch replaces only its own rows."""
    import ray.data as rd

    from rdf_diff_store_ray.pipelines.build import (
        PAGE_COLUMNS, build, build_incremental,
    )

    gaz = split_corpus["gazetteer"]
    out = str(tmp_path / "kg")
    build(split_corpus["early"], out, gazetteer=gaz, num_partitions=4,
          resume=False)
    late = pq.read_table(split_corpus["late"], columns=PAGE_COLUMNS)
    cut = pd.Timestamp(EPOCH + 5 * SNAPSHOT_STEP, unit="s")
    ts = late["warc_ts"].to_pandas()
    batches = [late.filter(pa.array(ts < cut)),
               late.filter(pa.array(ts >= cut))]
    assert all(b.num_rows for b in batches)
    for b in batches:
        build_incremental(rd.from_arrow(b), out, gazetteer=gaz)
    assert _triple_rows(os.path.join(out, "triples")) == full_triples
    build_incremental(rd.from_arrow(batches[1]), out, gazetteer=gaz)
    assert _triple_rows(os.path.join(out, "triples")) == full_triples


def test_incremental_triples_sink_on_both_layouts(split_corpus, full_triples,
                                                  ray_session, tmp_path):
    """The incremental triples sink writes the same rows on a driver-map
    store and on a distributed-map store, and they equal the full build's
    triples for the appended instants."""
    from rdf_diff_store_ray.pipelines.build import build, build_incremental

    gaz = split_corpus["gazetteer"]
    got = {}
    for layout in ("driver", "distributed"):
        out = str(tmp_path / layout)
        build(split_corpus["early"], out, gazetteer=gaz, num_partitions=4,
              resume=False, write_triples=False, canonical_map=layout)
        inc = build_incremental(split_corpus["late"], out, gazetteer=gaz)
        assert inc.applied_deltas > 0
        got[layout] = _triple_rows(inc.triples_dir)
    assert got["driver"] == got["distributed"]
    assert got["driver"] == [r for r in full_triples
                             if r[5] >= EPOCH + 3 * SNAPSHOT_STEP]
