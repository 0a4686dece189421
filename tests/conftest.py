"""Session-scoped Ray + shared corpus fixtures.

Ray is initialised ONCE per pytest session (the driver owns sessions
elsewhere; tests own theirs here), shut down at teardown.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = str(Path(__file__).resolve().parent.parent)
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus():
    from rdf_diff_store_ray import corpus

    return corpus.generate(n_urls=40, n_snapshots=5, seed=42)


@pytest.fixture(scope="session")
def corpus_dir(small_corpus, tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    small_corpus.write(str(d))
    return str(d)


@pytest.fixture(scope="session")
def built(ray_session, small_corpus, corpus_dir, tmp_path_factory):
    """One full build shared by the e2e assertions."""
    from rdf_diff_store_ray.pipelines.build import build

    out = str(tmp_path_factory.mktemp("kgbuild"))
    res = build(
        f"{corpus_dir}/pages.parquet",
        out,
        gazetteer=small_corpus.gazetteer,
        num_partitions=4,
        resume=False,
    )
    return res


@pytest.fixture(scope="session")
def oracle_store(small_corpus):
    """Reference-oracle diff store replaying the ground-truth page versions."""
    from collections import defaultdict

    import pandas as pd

    from rdf_diff_store_ray import ntriples, oracle

    by_pv = defaultdict(set)
    for r in small_corpus.expected_triples.to_pylist():
        ts = int(pd.Timestamp(r["warc_ts"]).timestamp())
        by_pv[(r["graph_id"], ts)].add(
            (r["subj"], r["pred"], r["obj"], r["obj_is_literal"])
        )
    pv = [(u, ts, ntriples.serialize(tr)) for (u, ts), tr in by_pv.items()]
    return oracle.replay_pages(pv, small_corpus.snapshot_times)


@pytest.fixture()
def read_doors(ray_session, capsys):
    """``read(store, ts)`` → the merged document at ``ts``, read through
    every read door of ``store`` (a path or a URI): ``StoreBackend`` over
    the in-process reader and over the router, ``QueryService``, and the
    CLI's ``query`` and ``metadata``. Asserts that the doors agree on the
    document, on a query's answer and on the store's bounds."""
    import json

    from rdf_diff_store_ray.__main__ import main
    from rdf_diff_store_ray.query.service import QueryService
    from rdf_diff_store_ray.server import StoreBackend

    q = "SELECT ?s ?o WHERE { ?s <https://x/p> ?o }"

    def read(store, ts):
        docs, answers, bounds = [], [], []
        for distributed in (False, True):
            backend = StoreBackend(store, distributed=distributed)
            try:
                docs.append(backend.graphs_at(ts, None)[0])
                answers.append(backend.sparql_at(ts, q)[0])
                bounds.append(backend.metadata())
            finally:
                backend.close()
        svc = QueryService(store)
        try:
            docs.append(svc.graphs_at(ts))
            answers.append(svc.answer(ts, q, "json")[0])
        finally:
            svc.shutdown()
        capsys.readouterr()
        assert main(["query", "--store", store, "--ts", str(ts),
                     "--bgp", q]) == 0
        answers.append(capsys.readouterr().out.rstrip("\n"))
        assert main(["metadata", "--store", store]) == 0
        bounds.append(json.loads(capsys.readouterr().out))
        assert docs[1:] == docs[:-1]
        assert answers[1:] == answers[:-1]
        assert bounds[1:] == bounds[:-1]
        return docs[0]

    return read
