"""Operational metrics surface (GET /metrics analog,
reference src/metrics/mod.rs:8-99 + middleware cache-level labels)."""

from rdf_diff_store_ray.metrics import (
    BUCKETS_FAST,
    MetricsRegistry,
)


def test_histogram_buckets_and_render():
    r = MetricsRegistry()
    r.observe("query_processing_time", 0.0003, "q", BUCKETS_FAST)
    r.observe("query_processing_time", 0.02, "q", BUCKETS_FAST)
    r.observe("query_processing_time", 5.0, "q", BUCKETS_FAST)  # +Inf
    text = r.render_prometheus()
    assert 'query_processing_time_bucket{le="0.0005"} 1' in text
    assert 'query_processing_time_bucket{le="0.05"} 2' in text
    assert 'query_processing_time_bucket{le="+Inf"} 3' in text
    assert "query_processing_time_count{} 3" in text


def test_counters_with_labels():
    r = MetricsRegistry()
    r.counter_inc("cache_requests_total", 'cache_level="Query"')
    r.counter_inc("cache_requests_total", 'cache_level="Query"')
    r.counter_inc("cache_requests_total", 'cache_level="Nothing"')
    text = r.render_prometheus()
    assert 'cache_requests_total{cache_level="Query"} 2' in text
    assert 'cache_requests_total{cache_level="Nothing"} 1' in text
    t = r.samples_table()
    assert t.num_rows == 2 and set(t.column_names) == {
        "name", "kind", "labels", "value"
    }


def test_reader_records_cache_levels(ray_session, tmp_path):
    """Both read backends record cache levels and query times through
    the shared front door."""
    import pyarrow as pa

    from rdf_diff_store_ray.query.bgp import DiffStoreReader

    deltas = pa.table(
        {
            "graph_id": pa.array(["g"], pa.string()),
            "warc_ts": pa.array([1_700_000_000 * 10**6], pa.timestamp("us")).cast(
                pa.timestamp("s")
            ),
            "op": pa.array(["update"], pa.string()),
            "delta_text": pa.array(
                ['<https://s> <https://p> "1" .\n'], pa.large_string()
            ),
            "digest": pa.array([b"\x00" * 32], pa.binary()),
            "partition_id": pa.array([0], pa.int32()),
        }
    )
    from rdf_diff_store_ray.query.service import QueryService
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    store = init_log(str(tmp_path / "deltas"), num_partitions=2)
    append_graphs(store, {"g": '<https://s> <https://p> "1" .\n'},
                  1_700_000_000)
    svc = QueryService(store)
    try:
        for backend in (DiffStoreReader(deltas), svc):
            reg = MetricsRegistry()
            backend.registry = reg
            q = "?s <https://p> ?o"
            backend.query_at(1_700_000_001, q)  # Nothing
            backend.query_at(1_700_000_001, q)  # Query hit
            backend.graphs_at(1_700_000_001)    # store warm -> Graph
            text = reg.render_prometheus()
            assert 'endpoint="sparql",cache_level="Nothing"' in text
            assert 'endpoint="sparql",cache_level="Query"' in text
            assert 'endpoint="graphs",cache_level="Graph"' in text
            assert "query_processing_time_count{} 3" in text
    finally:
        svc.shutdown()


def test_build_writes_metrics_artifact(ray_session, tmp_path):
    from rdf_diff_store_ray import corpus
    from rdf_diff_store_ray.pipelines.build import build

    c = corpus.generate(n_urls=12, n_snapshots=2, seed=9)
    c.write(str(tmp_path / "corpus"))
    res = build(
        str(tmp_path / "corpus" / "pages.parquet"),
        str(tmp_path / "kg"),
        gazetteer=c.gazetteer,
        num_partitions=4,
        resume=False,
    )
    mpath = tmp_path / "kg" / "metrics.txt"
    text = mpath.read_text()
    assert "# TYPE build_stage_seconds histogram" in text
    assert "repo_commit_time_bucket" in text
    assert "delta_partitions_total{}" in text  # one count per manifest
