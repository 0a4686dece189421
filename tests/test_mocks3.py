"""Second storage scheme (VERDICT r4 #3): the dir-backed object-store
emulation ``mocks3://bucket/key``, whose durable writes all route
through the fsspec client adapter (fs._FsspecClient — the exact shape a
real s3fs adapter keeps). The full append/compact/sync/fsck/index
matrix runs against it."""

import os

import numpy as np
import pyarrow as pa
import pytest

from rdf_diff_store_ray import fs

G1 = '<https://x/a> <https://x/p> "1" .\n'
G2 = '<https://x/a> <https://x/p> "2" .\n'
G3 = '<https://x/b> <https://x/p> "3" .\n'
T1, T2, T3 = 1_700_000_000, 1_700_000_100, 1_700_000_200


@pytest.fixture()
def mocks3_root(tmp_path, monkeypatch):
    root = str(tmp_path / "mocks3")
    monkeypatch.setenv("KG_MOCKS3_ROOT", root)
    return root


@pytest.fixture()
def put_spy(monkeypatch):
    """Counts whole-object PUTs and conditional PUTs that went through
    the fsspec client — proof the adapter is on the write path."""
    calls = {"put": 0, "cond": 0}
    orig_put = fs._FsspecClient.put
    orig_cond = fs._FsspecClient.put_if_absent

    def put(self, key, data):
        calls["put"] += 1
        return orig_put(self, key, data)

    def cond(self, key, data):
        calls["cond"] += 1
        return orig_cond(self, key, data)

    monkeypatch.setattr(fs._FsspecClient, "put", put)
    monkeypatch.setattr(fs._FsspecClient, "put_if_absent", cond)
    return calls


def _no_visible_garbage(root):
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            assert not f.endswith(".tmp"), os.path.join(dirpath, f)
            assert not f.startswith(".put-"), os.path.join(dirpath, f)


def test_verbs_route_through_fsspec_client(mocks3_root, put_spy):
    fs.put_bytes("mocks3://bucket/a/b.bin", b"payload")
    assert put_spy["put"] == 1
    with open(os.path.join(mocks3_root, "bucket/a/b.bin"), "rb") as f:
        assert f.read() == b"payload"
    t = pa.table({"x": pa.array([1, 2], pa.int64())})
    fs.put_table(t, "mocks3://bucket/a/t.parquet")
    assert put_spy["put"] == 2
    import pyarrow.parquet as pq

    assert pq.read_table(
        os.path.join(mocks3_root, "bucket/a/t.parquet")).equals(t)
    # conditional create: second attempt loses
    assert fs.put_if_absent("mocks3://bucket/a/.lock", b"me") is True
    assert fs.put_if_absent("mocks3://bucket/a/.lock", b"you") is False
    assert put_spy["cond"] == 2
    # LIST filters hidden keys
    assert fs.visible_listdir("mocks3://bucket/a") == ["b.bin", "t.parquet"]
    _no_visible_garbage(mocks3_root)


def test_store_lifecycle_on_mocks3(ray_session, mocks3_root, put_spy,
                                   read_doors):
    """init → append (segments) → every read door → SPARQL Update →
    compact → fsck → sync, all addressed by mocks3:// URIs, every
    durable write a client PUT."""
    from rdf_diff_store_ray.stages.deltas import segment_files
    from rdf_diff_store_ray.state.append import (
        append_graphs,
        compact_log,
        init_log,
    )
    from rdf_diff_store_ray.state.fsck import fsck_ok, fsck_store
    from rdf_diff_store_ray.state.sync import sync_store
    from rdf_diff_store_ray.state.update import sparql_update

    uri = "mocks3://bucket/store/deltas"
    init_log(uri, num_partitions=4)
    assert append_graphs(uri, {"g-a": G1}, T1) == 1
    assert append_graphs(uri, {"g-a": G2, "g-b": G3}, T2) == 2
    assert append_graphs(uri, {"g-a": G2}, T3) == 0  # no-op suppression
    assert put_spy["put"] > 0 and put_spy["cond"] > 0
    _no_visible_garbage(mocks3_root)
    assert any(len(segment_files(uri, pid)) > 1 for pid in range(4))

    doc_t2 = read_doors(uri, T2)
    assert '"2"' in doc_t2 and '"3"' in doc_t2
    assert '"1"' in read_doors(uri, T1)

    # SPARQL Update reads the URI store before it commits
    out = sparql_update(
        uri, 'INSERT DATA { GRAPH <g-c> { <https://x/c> <https://x/p> "4" '
        '. } }', T3)
    assert out["graphs"] == 1 and out["added"] == 1
    assert '"4"' in read_doors(uri, T3)

    compact_log(uri)
    assert all(len(segment_files(uri, pid)) <= 1 for pid in range(4))
    assert '"2"' in read_doors(uri, T2)
    assert fsck_ok(fsck_store(uri))

    dst = "mocks3://bucket/replica/deltas"
    r1 = sync_store(uri, dst)
    assert r1["copied"] > 0
    r2 = sync_store(uri, dst)  # quick-check: unchanged objects not copied
    assert r2["copied"] == 0 and r2["removed"] == 0
    assert read_doors(dst, T3) == read_doors(uri, T3)
    _no_visible_garbage(mocks3_root)


def test_cross_scheme_sync_file_to_mocks3(ray_session, tmp_path,
                                          mocks3_root):
    """Replication across SCHEMES: a file:// primary syncs into a
    mocks3:// replica (the migrate-to-object-store path), quick-check
    included, and the replica serves identical state."""
    from rdf_diff_store_ray.query.bgp import DiffStoreReader
    from rdf_diff_store_ray.stages.deltas import read_log
    from rdf_diff_store_ray.state.append import append_graphs, init_log
    from rdf_diff_store_ray.state.sync import sync_store

    src = f"file://{tmp_path}/primary/deltas"
    init_log(src, num_partitions=2)
    append_graphs(src, {"g-a": G1, "g-b": G3}, T1)
    dst = "mocks3://bucket/xscheme/deltas"
    r1 = sync_store(src, dst)
    assert r1["copied"] > 0
    assert sync_store(src, dst)["copied"] == 0  # signature quick-check
    doc = DiffStoreReader(read_log(dst)).graphs_at(T1)
    assert '"1"' in doc and '"3"' in doc
    # primary advances; re-sync carries only the change
    append_graphs(src, {"g-a": G2}, T2)
    r3 = sync_store(src, dst)
    assert r3["copied"] > 0
    assert '"2"' in DiffStoreReader(read_log(dst)).graphs_at(T2)
    _no_visible_garbage(mocks3_root)


def test_text_index_on_mocks3(ray_session, mocks3_root):
    # NOTE: partition writes run inside Ray workers, which keep the
    # default bucket root — the driver-side spy can't observe them; the
    # adapter routing itself is pinned by the verbs + lifecycle tests
    import ray.data as rd

    from rdf_diff_store_ray.functions.textindex import (
        build_text_index,
        query_text_index,
    )

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["alpha beta", "beta gamma", "gamma delta"]),
    })
    idx = "mocks3://bucket/tidx"
    build_text_index(rd.from_arrow(docs), idx, num_partitions=8)
    hits = query_text_index(idx, ["beta"]).to_pydict()
    assert hits["doc_id"] == [1, 2]
    _no_visible_garbage(mocks3_root)


def test_minhash_index_on_mocks3(ray_session, mocks3_root):
    import ray.data as rd

    from rdf_diff_store_ray.functions.incdedup import (
        dedup_against_index,
        extend_minhash_index,
    )

    base = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["the quick brown fox jumps over the lazy dog",
                          "an entirely different document about storage"]),
    })
    idx = "mocks3://bucket/dedup"
    extend_minhash_index(rd.from_arrow(base), idx, num_partitions=8)
    probe = pa.table({
        "doc_id": pa.array([10, 11], pa.int64()),
        "text": pa.array(["the quick brown fox jumps over the lazy dog",
                          "completely novel text with no twin at all"]),
    })
    out = dedup_against_index(rd.from_arrow(probe), idx).to_pandas() \
        .set_index("doc_id")
    assert bool(out.loc[10, "is_dup"]) is True
    assert bool(out.loc[11, "is_dup"]) is False


def test_ivf_index_on_mocks3(ray_session, mocks3_root):
    import ray.data as rd

    from rdf_diff_store_ray.functions.annindex import (
        build_ivf_index,
        ivf_index_topk,
    )

    rng = np.random.default_rng(3)
    V = rng.normal(size=(200, 8))
    tbl = pa.table({
        "vec_id": pa.array(np.arange(200, dtype=np.int64)),
        "embedding": pa.array([v.tolist() for v in V],
                              pa.list_(pa.float64())),
    })
    idx = "mocks3://bucket/ivf"
    stats = build_ivf_index(rd.from_arrow(tbl), idx, n_clusters=4,
                            train_size=200)
    assert int(stats["rows"].sum()) == 200
    out = ivf_index_topk(idx, V[:3], k=3, nprobe=4).to_pandas()
    # the query vector itself must come back rank 1
    first = out[out["rank"] == 1].sort_values("query_id")
    assert first["vec_id"].tolist() == [0, 1, 2]
