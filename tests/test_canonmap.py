"""Distributed canonical map (stages/canonmap.py) — the 100× path for
entity canonicalization: persisted hash-partitioned surface→IRI side
table, co-partition-join resolution, O(batch) incremental extension.
The contract is byte-equality with the driver/broadcast path on the
same inputs (VERDICT r3 item #2)."""

import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from rdf_diff_store_ray.corpus import EPOCH, SNAPSHOT_STEP


@pytest.fixture(scope="module")
def corpus_split(ray_session, tmp_path_factory):
    from rdf_diff_store_ray import corpus

    root = tmp_path_factory.mktemp("canonmap")
    c = corpus.generate(n_urls=40, n_snapshots=4, seed=23)
    c.write(str(root / "full"))
    files = sorted(glob.glob(str(root / "full" / "pages.parquet*"))) or \
        sorted(glob.glob(str(root / "full" / "pages.parquet" / "*")))
    t = pa.concat_tables([pq.read_table(f) for f in files])
    cut = pd.Timestamp(EPOCH + 2 * SNAPSHOT_STEP, unit="s")
    ts = t["warc_ts"].to_pandas()
    pq.write_table(t.filter(pa.array(ts < cut)), str(root / "early.parquet"))
    pq.write_table(t.filter(pa.array(ts >= cut)), str(root / "late.parquet"))
    return {
        "root": str(root),
        "full": str(root / "full" / "pages.parquet"),
        "early": str(root / "early.parquet"),
        "late": str(root / "late.parquet"),
        "gazetteer": c.gazetteer,
    }


def _delta_rows(delta_dir):
    files = sorted(glob.glob(os.path.join(delta_dir, "partition=*",
                                          "*.parquet")))
    t = pads.dataset(files).to_table()
    return sorted(zip(
        t["graph_id"].to_pylist(),
        [int(pd.Timestamp(x).timestamp()) for x in t["warc_ts"].to_pylist()],
        t["op"].to_pylist(),
        [d.hex() if d else "" for d in t["digest"].to_pylist()],
        t["delta_text"].to_pylist(),
    ))


def _raw(pages, out):
    import ray.data as rd

    from rdf_diff_store_ray.stages import ner as ner_mod
    from rdf_diff_store_ray.stages.extract import extract_batch

    ds = rd.read_parquet(pages, columns=["url", "warc_ts", "html", "text",
                                         "lang"])
    raw = ds.map_batches(extract_batch, fn_kwargs={"enforce": "raise"},
                         batch_format="pyarrow").map_batches(
        ner_mod.page_relations_batch, batch_format="pyarrow")
    raw.write_parquet(out)
    import ray.data as rd2

    return rd2.read_parquet(out)


def test_distributed_build_is_byte_identical_to_driver(
        corpus_split, ray_session, tmp_path):
    """build(canonical_map='distributed') emits the exact delta log and
    triples table the broadcast-dict build emits — the map was built by
    distributed label propagation and resolved by co-partition join, with
    no driver-side vocabulary reduce anywhere on the path."""
    from rdf_diff_store_ray.pipelines.build import build

    gaz = corpus_split["gazetteer"]
    a = build(corpus_split["full"], str(tmp_path / "drv"), gazetteer=gaz,
              num_partitions=4, resume=False)
    b = build(corpus_split["full"], str(tmp_path / "dst"), gazetteer=gaz,
              num_partitions=4, resume=False, canonical_map="distributed")
    assert _delta_rows(a.delta_dir) == _delta_rows(b.delta_dir)
    assert b.canonical_map_size == a.canonical_map_size

    ta = pads.dataset(glob.glob(str(tmp_path / "drv" / "triples" /
                                    "*.parquet"))).to_table().to_pandas()
    tb = pads.dataset(glob.glob(str(tmp_path / "dst" / "triples" /
                                    "*.parquet"))).to_table().to_pandas()
    cols = list(ta.columns)
    pd.testing.assert_frame_equal(
        ta.sort_values(cols, ignore_index=True),
        tb[cols].sort_values(cols, ignore_index=True),
    )


def test_map_store_matches_resolver_semantics(corpus_split, ray_session,
                                              tmp_path):
    """Every persisted (surface → iri) row equals what the driver path's
    SurfaceResolver answers: alias surfaces get their OWN entity IRI,
    everything else its cluster canonical."""
    from rdf_diff_store_ray.stages import canonmap
    from rdf_diff_store_ray.stages.canonicalize import build_canonical_map
    from rdf_diff_store_ray.stages.link import SurfaceResolver

    gaz = corpus_split["gazetteer"]
    raw_ds = _raw(corpus_split["full"], str(tmp_path / "raw"))
    driver_map = build_canonical_map(raw_ds, gaz)
    canonmap.build_canonical_store(raw_ds, gaz, str(tmp_path / "canon"))
    dist = canonmap.map_as_dict(str(tmp_path / "canon"))
    res = SurfaceResolver(gaz, driver_map)
    assert set(dist) == set(driver_map)
    for s, iri in dist.items():
        assert iri == res.resolve(s), s


def test_distributed_incremental_split_equals_full(corpus_split,
                                                   ray_session, tmp_path):
    """Distributed bootstrap + O(batch) extension reproduces the one-shot
    distributed build exactly, and matches the driver-path incremental
    store row for row."""
    from rdf_diff_store_ray.pipelines.build import build, build_incremental

    gaz = corpus_split["gazetteer"]
    full = build(corpus_split["full"], str(tmp_path / "full"),
                 gazetteer=gaz, num_partitions=4, resume=False,
                 write_triples=False, canonical_map="distributed")
    build(corpus_split["early"], str(tmp_path / "inc"), gazetteer=gaz,
          num_partitions=4, resume=False, write_triples=False,
          canonical_map="distributed")
    inc = build_incremental(corpus_split["late"], str(tmp_path / "inc"),
                            gazetteer=gaz, write_triples=False)
    assert inc.applied_deltas > 0
    assert _delta_rows(full.delta_dir) == _delta_rows(
        os.path.join(str(tmp_path / "inc"), "deltas"))

    build(corpus_split["early"], str(tmp_path / "drv"), gazetteer=gaz,
          num_partitions=4, resume=False, write_triples=False)
    build_incremental(corpus_split["late"], str(tmp_path / "drv"),
                      gazetteer=gaz, write_triples=False)
    assert _delta_rows(os.path.join(str(tmp_path / "drv"), "deltas")) == \
        _delta_rows(os.path.join(str(tmp_path / "inc"), "deltas"))


def test_auto_gate_small_vocab_picks_driver(corpus_split, ray_session,
                                            tmp_path):
    """canonical_map='auto' (the default) runs ONE shared vocabulary pass,
    counts it, and picks the broadcast-dict path below the threshold —
    producing the driver layout (canonical_map.json, no canonical/ store)
    and the byte-identical log."""
    from rdf_diff_store_ray.pipelines.build import build

    gaz = corpus_split["gazetteer"]
    a = build(corpus_split["full"], str(tmp_path / "auto"), gazetteer=gaz,
              num_partitions=4, resume=False, write_triples=False)
    assert os.path.exists(str(tmp_path / "auto" / "canonical_map.json"))
    assert not os.path.exists(str(tmp_path / "auto" / "canonical" /
                                  "meta.json"))
    b = build(corpus_split["full"], str(tmp_path / "drv"), gazetteer=gaz,
              num_partitions=4, resume=False, write_triples=False,
              canonical_map="driver")
    assert _delta_rows(a.delta_dir) == _delta_rows(b.delta_dir)
    assert a.canonical_map_size == b.canonical_map_size


def test_auto_gate_large_vocab_picks_distributed(corpus_split, ray_session,
                                                 tmp_path, monkeypatch):
    """Above the threshold the auto gate takes the persisted-store path —
    same shared vocabulary pass, no driver dict, identical log — and a
    RESUMED auto build follows the existing layout instead of recounting
    (sticky: appends never flip a store's layout)."""
    from rdf_diff_store_ray.pipelines import build as build_mod
    from rdf_diff_store_ray.pipelines.build import build

    gaz = corpus_split["gazetteer"]
    with monkeypatch.context() as m:
        m.setattr(build_mod, "AUTO_VOCAB_THRESHOLD", 1)
        a = build(corpus_split["full"], str(tmp_path / "auto"),
                  gazetteer=gaz, num_partitions=4, resume=False,
                  write_triples=False)
    assert os.path.exists(str(tmp_path / "auto" / "canonical" /
                              "meta.json"))
    assert not os.path.exists(str(tmp_path / "auto" / "canonical_map.json"))
    b = build(corpus_split["full"], str(tmp_path / "dst"), gazetteer=gaz,
              num_partitions=4, resume=False, write_triples=False,
              canonical_map="distributed")
    assert _delta_rows(a.delta_dir) == _delta_rows(b.delta_dir)

    # sticky resume: default threshold would pick driver, but the store
    # already has the distributed layout — resume must keep it
    r = build(corpus_split["full"], str(tmp_path / "auto"), gazetteer=gaz,
              num_partitions=4, resume=True, write_triples=False)
    assert not os.path.exists(str(tmp_path / "auto" / "canonical_map.json"))
    assert _delta_rows(r.delta_dir) == _delta_rows(b.delta_dir)


def test_auto_incremental_follows_store_layout(corpus_split, ray_session,
                                               tmp_path, monkeypatch):
    """build_incremental's default follows the store it appends to: a
    distributed-bootstrap store gets the O(batch) persisted-index
    extension (no canonical_map.json ever appears), a driver store the
    driver extension — both reproduce the one-shot full build."""
    from rdf_diff_store_ray.pipelines import build as build_mod
    from rdf_diff_store_ray.pipelines.build import build, build_incremental

    gaz = corpus_split["gazetteer"]
    full = build(corpus_split["full"], str(tmp_path / "full"),
                 gazetteer=gaz, num_partitions=4, resume=False,
                 write_triples=False, canonical_map="distributed")
    with monkeypatch.context() as m:
        m.setattr(build_mod, "AUTO_VOCAB_THRESHOLD", 1)
        build(corpus_split["early"], str(tmp_path / "inc"), gazetteer=gaz,
              num_partitions=4, resume=False,
              write_triples=False)  # auto → distributed bootstrap
    inc = build_incremental(corpus_split["late"], str(tmp_path / "inc"),
                            gazetteer=gaz, write_triples=False)  # auto
    assert inc.applied_deltas > 0
    assert not os.path.exists(str(tmp_path / "inc" / "canonical_map.json"))
    assert _delta_rows(full.delta_dir) == _delta_rows(
        os.path.join(str(tmp_path / "inc"), "deltas"))

    build(corpus_split["early"], str(tmp_path / "drv"), gazetteer=gaz,
          num_partitions=4, resume=False, write_triples=False)  # driver
    build_incremental(corpus_split["late"], str(tmp_path / "drv"),
                      gazetteer=gaz, write_triples=False)  # auto → driver
    assert os.path.exists(str(tmp_path / "drv" / "canonical_map.json"))
    assert _delta_rows(os.path.join(str(tmp_path / "drv"), "deltas")) == \
        _delta_rows(full.delta_dir)


def test_extension_is_o_batch_and_anchors_variants(ray_session, tmp_path):
    """Planted-truth extension: a typo variant of an indexed surface
    adopts that surface's cluster IRI through the persisted band/norm
    probes; an unrelated new surface mints a fresh slug cluster. The
    extension appends segments — base files stay untouched."""
    import ray.data as rd

    from rdf_diff_store_ray.stages import canonmap

    def raw_of(rows):
        t = pa.table({
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array([pd.Timestamp(EPOCH, unit="s")] * len(rows),
                                pa.timestamp("s")),
            "triples": pa.array(
                [[{"subj_surface": r[1], "pred": "https://x/p",
                   "obj_surface": r[2], "obj_is_literal": True}]
                 for r in rows],
                pa.list_(pa.struct([
                    ("subj_surface", pa.string()),
                    ("pred", pa.string()),
                    ("obj_surface", pa.string()),
                    ("obj_is_literal", pa.bool_()),
                ])),
            ),
        })
        return rd.from_arrow(t)

    gaz = {"entities": {}, "alias_to_eid": {}}
    canon = str(tmp_path / "canon")
    base = raw_of([("u1", "Quantum Widgets Corp", "x"),
                   ("u2", "Flamingo Labs", "y")])
    canonmap.build_canonical_store(base, gaz, canon)
    before = sorted(os.path.basename(f)
                    for f in canonmap.map_files(canon))
    m0 = canonmap.map_as_dict(canon)

    inc = raw_of([("u3", "Quantum  Widgets  Corp.", "z"),   # norm variant
                  ("u4", "Quantum Widgets Crop", "z"),      # typo (LSH)
                  ("u5", "Zebra Instruments", "z")])        # brand new
    out = canonmap.extend_canonical_store(inc, gaz, canon)
    assert out["new_surfaces"] == 3
    m1 = canonmap.map_as_dict(canon)
    for s, iri in m0.items():  # old assignments immutable
        assert m1[s] == iri
    assert m1["Quantum  Widgets  Corp."] == m0["Quantum Widgets Corp"]
    assert m1["Quantum Widgets Crop"] == m0["Quantum Widgets Corp"]
    assert m1["Zebra Instruments"] not in set(m0.values())
    # log-structured: base part files untouched, new -seg- files appended
    after = sorted(os.path.basename(f) for f in canonmap.map_files(canon))
    assert set(before) <= set(after)
    assert any("-seg-" in f for f in after)
    # idempotent re-run: nothing new
    out2 = canonmap.extend_canonical_store(inc, gaz, canon)
    assert out2["new_surfaces"] == 0


def test_canonmap_with_hostile_nul_surfaces(ray_session, tmp_path):
    """Surfaces carrying NUL bytes survive the whole distributed path
    (hashing, sorts, folds, joins) — the pandas C-string-table pitfalls
    documented in CLAUDE.md must not reach the map."""
    import ray.data as rd

    from rdf_diff_store_ray.stages import canonmap

    hostile = ["a\x00x", "a\x00y", "plain", "plain two"]
    rows = [(f"u{i}", s, "v") for i, s in enumerate(hostile)]
    t = pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([pd.Timestamp(EPOCH, unit="s")] * len(rows),
                            pa.timestamp("s")),
        "triples": pa.array(
            [[{"subj_surface": r[1], "pred": "https://x/p",
               "obj_surface": r[2], "obj_is_literal": True}]
             for r in rows],
            pa.list_(pa.struct([
                ("subj_surface", pa.string()),
                ("pred", pa.string()),
                ("obj_surface", pa.string()),
                ("obj_is_literal", pa.bool_()),
            ])),
        ),
    })
    gaz = {"entities": {}, "alias_to_eid": {}}
    canon = str(tmp_path / "canon")
    canonmap.build_canonical_store(rd.from_arrow(t), gaz, canon)
    m = canonmap.map_as_dict(canon)
    assert set(m) == set(hostile)
    # the two NUL-distinct surfaces normalize identically ("ax" vs "ay"
    # differ) — they must NOT collapse into one entry
    assert m["a\x00x"] != "" and m["a\x00y"] != ""
    assert len({m[s] for s in hostile}) >= 2
