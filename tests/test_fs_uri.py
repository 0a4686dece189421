"""Object-store protocol (fs.py): the full store lifecycle over
``file://`` URIs with rename-free atomic publish — every data object
lands under its final key in one atomic PUT (hidden staging, no sibling
``.tmp``), manifests commit last, locks are conditional creates, and
the sync quick-check keys off listing signatures (VERDICT r3 item #3).
"""

import os

import pytest


def _no_visible_garbage(root):
    """No .tmp siblings or stray visible staging files anywhere — the
    rename-free-publish invariant a reader can rely on."""
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            assert not f.endswith(".tmp"), os.path.join(dirpath, f)
            assert not f.endswith(".sync-tmp"), os.path.join(dirpath, f)


G1 = '<https://x/a> <https://x/p> "1" .\n'
G2 = '<https://x/a> <https://x/p> "2" .\n'
G3 = '<https://x/b> <https://x/p> "3" .\n'
T1, T2, T3 = 1_700_000_000, 1_700_000_100, 1_700_000_200


def test_store_lifecycle_over_file_uri(ray_session, tmp_path, read_doors):
    """init → append (segments) → every read door → SPARQL Update →
    compact → truncate → fsck → sync, all addressed by file:// URIs."""
    from rdf_diff_store_ray.state.append import (
        append_graphs,
        compact_log,
        delete_graphs,
        init_log,
        truncate_log,
    )
    from rdf_diff_store_ray.state.fsck import fsck_ok, fsck_store
    from rdf_diff_store_ray.state.sync import sync_store
    from rdf_diff_store_ray.state.update import sparql_update
    from rdf_diff_store_ray.stages.deltas import segment_files

    root = tmp_path / "uri_store"
    uri = f"file://{root}/deltas"
    init_log(uri, num_partitions=4)
    assert append_graphs(uri, {"g-a": G1}, T1) == 1
    assert append_graphs(uri, {"g-a": G2, "g-b": G3}, T2) == 2
    assert append_graphs(uri, {"g-a": G2}, T3) == 0  # no-op suppression
    _no_visible_garbage(str(root))

    # appends are log-structured segments under the URI store too
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

    # fsck on the URI store
    assert fsck_ok(fsck_store(uri))

    # sync to a URI replica; second pass copies nothing (quick-check)
    dst = f"file://{root}/replica"
    r1 = sync_store(uri, dst)
    assert r1["copied"] > 0
    r2 = sync_store(uri, dst)
    assert r2["copied"] == 0 and r2["removed"] == 0
    assert read_doors(dst, T3) == read_doors(uri, T3)

    # compact merges segments; truncate squashes history — still via URI
    assert compact_log(uri) > 0
    assert all(len(segment_files(uri, pid)) <= 1 for pid in range(4))
    assert '"2"' in read_doors(uri, T2)
    delete_graphs(uri, ["g-b"], T3 + 50)
    truncate_log(uri, T2)
    doc = read_doors(uri, T3 + 100)
    assert '"2"' in doc and '"3"' not in doc
    assert fsck_ok(fsck_store(uri))
    _no_visible_garbage(str(root))


def test_uri_lock_is_conditional_create(ray_session, tmp_path):
    """The writer lock over a URI store is the conditional-PUT
    primitive: a held lock fails a second writer fast."""
    from rdf_diff_store_ray.state.append import (
        LogLockedError,
        StoreWriteLock,
        append_graphs,
        init_log,
    )

    uri = f"file://{tmp_path}/locked/deltas"
    init_log(uri, num_partitions=2)
    with StoreWriteLock(uri):
        with pytest.raises(LogLockedError):
            append_graphs(uri, {"g": G1}, T1)
    assert append_graphs(uri, {"g": G1}, T1) == 1


def test_indexes_over_file_uri(ray_session, tmp_path):
    """The persisted index family publishes the same way: dedup band
    index extension and ANN IVF index build/query on file:// URIs."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from rdf_diff_store_ray.functions.annindex import (
        build_ivf_index,
        ivf_index_topk,
    )
    from rdf_diff_store_ray.functions.incdedup import (
        dedup_against_index,
        extend_minhash_index,
    )

    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(40, dtype=np.int64),
        "text": [f"alpha beta gamma delta {i} " * 4 for i in range(40)],
    }))
    idx_uri = f"file://{tmp_path}/dedup_idx"
    extend_minhash_index(docs, idx_uri, num_perm=32, bands=8,
                         num_partitions=4)
    flags = dedup_against_index(docs, idx_uri).to_pandas()
    assert flags["is_dup"].all()  # every doc hits its own signature
    _no_visible_garbage(str(tmp_path / "dedup_idx"))

    rng = np.random.default_rng(3)
    emb = rd.from_pandas(pd.DataFrame({
        "vec_id": np.arange(64, dtype=np.int64),
        "embedding": list(rng.normal(size=(64, 8))),
    }))
    ann_uri = f"file://{tmp_path}/ann_idx"
    build_ivf_index(emb, ann_uri, n_clusters=4)
    q = rng.normal(size=(2, 8))
    hits = ivf_index_topk(ann_uri, q, k=3)
    assert len(hits.to_pandas()) == 6
    _no_visible_garbage(str(tmp_path / "ann_idx"))
