"""The workloads: the write path and two ways to serve as-of reads.

Every workload takes its inputs from
``corpus.generate(n_urls, 6 snapshots, seed, filler_sentences=40)`` and
uses the library only through its public functions. Load comes from one
client in a closed loop: the next op is sent when the previous one has
returned. Only the library call is timed; input generation, set-up
bookkeeping and the correctness gate run outside the timed region.

- ``build_append``: ``build()`` over the first five crawl instants, then
  ``build_incremental()`` of the sixth (one op = one such cycle into a
  fresh store). The only workload where the build stages run.
- ``router_cold``: ``QueryService`` (one partition-reader actor per
  partition); ops are ``query_at`` (four query shapes), ``graphs_at`` and
  ``metadata`` at timestamps spread per second across the history. The
  readers' LRUs are keyed by the requested second, so almost every op
  misses them.
- ``http_serve``: ``DiffStoreServer`` over the single reader on
  loopback. Requests come in blocks of one write at an explicit,
  increasing timestamp and seven reads at the store's version instants or
  the latest write instant; each write drops the reader, so the next
  read reloads the log.

The op mixes are not taken from any traffic trace (none is published for
this system): every mix gives each op kind the same weight.
"""

from __future__ import annotations

import gc
import glob
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from rdf_diff_store_ray import corpus as corpus_mod
from rdf_diff_store_ray import ntriples

from . import tracing
from .oracle_gate import (QUERIES, Expect, GateFailure, check, delta_rows,
                          epoch_s, frame_rows, json_rows, oracle_delta_rows,
                          precision_recall, replay, triple_rows)

N_SNAPSHOTS = 6
FILLER_SENTENCES = 40
DAY = 86_400
SERVE_WARMUP_S = 3.0  # untimed ops before a serving workload measures
MIN_PR = 0.95  # triple precision and recall floor of the build gate


@dataclass(frozen=True)
class Size:
    n_urls: int
    num_partitions: int
    warmup_urls: int  # build_append set-up: a crawl of this many urls
    setup_reps: int  # set-ups per run; setup_s is their median


SIZES = {
    "bench": Size(n_urls=1000, num_partitions=2, warmup_urls=30,
                  setup_reps=3),
    "tiny": Size(n_urls=40, num_partitions=2, warmup_urls=10, setup_reps=3),
}

# The op mixes weigh every op kind the same; no traffic trace of the
# system exists to take weights from.
# router_cold: the four query shapes, graphs_at and metadata
READ_KINDS = ("q_one", "q_path", "q_star", "q_group", "graphs_at",
              "metadata")
# http_serve: every block of eight requests is one write (its kind drawn
# from HTTP_WRITE_KINDS) and then one read of each HTTP_READ_KINDS kind
# in a seeded order, so the write cadence and the reload pattern are the
# same in every run; a sparql read is one of the four query shapes
HTTP_READ_KINDS = ("sparql:q_one", "sparql:q_path", "sparql:q_star",
                   "sparql:q_group", "graphs", "graph", "metadata")
HTTP_WRITE_KINDS = ("new", "change", "same", "delete")
GOLDEN = 0.6180339887498949


@dataclass
class Run:
    """One benchmark run: its arguments, inputs, op log and results."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    size: Size
    work: str
    ops: list = field(default_factory=list)  # (kind, latency_s, ok, traced)
    windows: list = field(default_factory=list)  # traced (op, start, end)
    metrics: dict = field(default_factory=dict)  # end-to-end
    record: dict = field(default_factory=dict)  # everything else reported
    counts: dict = field(default_factory=dict)  # driver-side layer counts
    seen: dict = field(default_factory=dict)  # measured ops per kind
    busy: float = 0.0  # seconds spent inside timed ops
    # op time spent before measuring: the first seconds of a serving
    # loop run measurably slower (first calls, growing heaps)
    warmup_left: float = 0.0

    def __post_init__(self):
        os.makedirs(self.work, exist_ok=True)
        self.rec = tracing.recorder() if self.trace else None

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def op(self, kind: str, fn):
        """Time one op. Returns ``(ok, result)``; an exception is a
        failed op. While ``warmup_left`` lasts, ops run untimed (and an
        exception ends the run). In a traced run every second measured op
        of each kind is traced: traced and untraced ops then have the same
        mix of kinds, whatever the order the workload sends them in."""
        if self.warmup_left > 0:
            t0 = time.perf_counter()
            try:
                return True, fn()
            finally:
                self.warmup_left -= time.perf_counter() - t0
        i = len(self.ops)
        n_kind = self.seen.get(kind, 0)
        self.seen[kind] = n_kind + 1
        traced = self.trace and n_kind % 2 == 1
        if traced:
            tracing.set_enabled(True)
            self.rec.op = i
        sp = None
        t0 = time.perf_counter()
        if traced:
            sp = self.rec.begin("op." + kind)
            self.rec.op_span = sp["id"]
        ok, out = True, None
        try:
            out = fn()
        except GateFailure:
            raise
        except Exception as e:  # an op error is counted, the loop goes on
            ok = False
            print(f"op {i} {kind} failed: {type(e).__name__}: {e}",
                  file=sys.stderr)
        if traced:
            self.rec.end(sp)
            self.rec.op_span = None
        dt = time.perf_counter() - t0
        if traced:
            tracing.set_enabled(False)
            self.windows.append((i, t0, t0 + dt))
        self.ops.append((kind, dt, ok, traced))
        self.busy += dt
        return ok, out

    def last_traced(self) -> bool:
        """Whether the op that just returned was measured and traced."""
        return bool(self.ops) and self.ops[-1][3]

    def latencies(self, kinds=None, traced=None) -> list:
        return [dt for k, dt, ok, tr in self.ops
                if ok and (kinds is None or k in kinds)
                and (traced is None or tr == traced)]


# ------------------------------------------------------------------ stats
def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``; with fewer than eleven samples, the max."""
    s = sorted(values)
    if len(s) < 11:
        return s[-1], "max"
    k = len(s) - 11
    return s[k], round(100.0 * (k + 1) / len(s), 2)


def latency_block(run: Run, name: str, values: list) -> None:
    """Median and tail of ``values`` (seconds) into the record, in ms."""
    if not values:
        return
    t, pct = tail(values)
    run.record[f"{name}_p50_ms"] = statistics.median(values) * 1e3
    run.record[f"{name}_tail_ms"] = t * 1e3
    run.record[f"{name}_tail_percentile"] = pct
    run.record[f"{name}_samples"] = len(values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(*dirs) -> int:
    return sum(os.path.getsize(f) for d in dirs
               for f in glob.glob(os.path.join(d, "**", "*"), recursive=True)
               if os.path.isfile(f))


def finish(run: Run, setup: list, ops_done: float, rss_mb: float,
           store_bytes: int, kinds=None) -> None:
    """The end-to-end metrics every workload reports, over the ops of
    ``kinds`` (all ops when None)."""
    lat = run.latencies(kinds)
    t, pct = tail(lat)
    run.metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_done / (run.busy if kinds is None else sum(lat)),
                      "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (t * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "store_bytes": (float(store_bytes), "bytes"),
    }
    slowest = sorted(range(len(run.ops)), key=lambda i: -run.ops[i][1])[:11]
    run.record.update({
        "slowest_ops": [(i, run.ops[i][0], run.ops[i][1] * 1e3)
                        for i in slowest],
        "setup_reps_s": setup,
        "op_samples": len(lat),
        "op_tail_percentile": pct,
        "measured_s": run.busy,
        "error_rate": sum(not ok for _, _, ok, _ in run.ops) / len(run.ops),
    })


# ----------------------------------------------------------------- inputs
@dataclass
class Inputs:
    corpus: object
    all_pages: str
    first_pages: str  # the first five instants
    last_pages: str  # the sixth instant
    warm_first: str
    warm_last: str
    pages: list  # (url, warc_ts) of every page row


def make_inputs(run: Run) -> Inputs:
    """Generate the corpus from the seed and write the crawl batches."""
    c = corpus_mod.generate(n_urls=run.size.n_urls, n_snapshots=N_SNAPSHOTS,
                            seed=run.seed, filler_sentences=FILLER_SENTENCES)
    d = run.path("inputs")
    os.makedirs(d, exist_ok=True)
    last = pa.scalar(c.snapshot_times[-1] * 10**6, pa.timestamp("us"))
    ts = c.pages["warc_ts"].cast(pa.timestamp("us"))
    early = pc.less(ts, last)
    urls = pc.unique(c.pages["url"]).sort()
    warm = pc.is_in(c.pages["url"], urls.slice(0, run.size.warmup_urls))
    out = {}
    for name, mask in (
            ("all_pages", None), ("first_pages", early),
            ("last_pages", pc.invert(early)),
            ("warm_first", pc.and_(warm, early)),
            ("warm_last", pc.and_(warm, pc.invert(early)))):
        out[name] = os.path.join(d, name + ".parquet")
        pq.write_table(c.pages if mask is None else c.pages.filter(mask),
                       out[name])
    pages = list(zip(c.pages["url"].to_pylist(),
                     c.pages["warc_ts"].to_pylist()))
    return Inputs(corpus=c, pages=pages, **out)


def rows_of(path: str) -> int:
    return pq.ParquetFile(path).metadata.num_rows


# ------------------------------------------------------- build and append
def build_store(run: Run, inp: Inputs, out: str, pages: str):
    from rdf_diff_store_ray.pipelines.build import build

    shutil.rmtree(out, ignore_errors=True)
    return build(pages, out, gazetteer=inp.corpus.gazetteer,
                 num_partitions=run.size.num_partitions, resume=False)


def engine_expect(inp: Inputs, res) -> Expect:
    """Oracle over the triples the build itself emitted (the reader
    workloads check the read path, not extraction quality)."""
    triples = pads.dataset(res.triples_dir).to_table()
    return Expect(replay(triple_rows(triples), inp.pages,
                         inp.corpus.snapshot_times))


def _cycle(run: Run, inp: Inputs, first: str, last: str, out: str) -> dict:
    from rdf_diff_store_ray.pipelines.build import build_incremental

    t0 = time.perf_counter()
    res = build_store(run, inp, out, first)
    t1 = time.perf_counter()
    inc = build_incremental(last, out, gazetteer=inp.corpus.gazetteer)
    t2 = time.perf_counter()
    return {"build": res, "inc": inc, "build_s": t1 - t0, "append_s": t2 - t1}


def run_build_append(run: Run, inp: Inputs) -> None:
    c = inp.corpus
    setup = []
    for r in range(run.size.setup_reps):
        t0 = time.perf_counter()
        _cycle(run, inp, inp.warm_first, inp.warm_last, run.path(f"warm{r}"))
        setup.append(time.perf_counter() - t0)
        shutil.rmtree(run.path(f"warm{r}"))
    truth = oracle_delta_rows(replay(triple_rows(c.expected_triples),
                                     inp.pages, c.snapshot_times))
    want_triples = triple_rows(c.expected_triples)
    n_first, n_last = rows_of(inp.first_pages), rows_of(inp.last_pages)
    cycles, store_bytes = [], 0
    quiesce()
    while run.busy < run.seconds:
        out = run.path(f"cycle{len(cycles)}")
        ok, cy = run.op("cycle", lambda: _cycle(run, inp, inp.first_pages,
                                                inp.last_pages, out))
        if ok:
            # gate: the log replays the emitted triples exactly, and the
            # emitted triples match the corpus truth within P/R 0.95
            got = triple_rows(pads.dataset(cy["build"].triples_dir).to_table())
            log = delta_rows(cy["build"].delta_table())
            check("build_append delta log", log, oracle_delta_rows(
                replay(got, inp.pages, c.snapshot_times)))
            p, r = precision_recall(got, want_triples)
            if min(p, r) < MIN_PR:
                raise GateFailure(f"triple P/R {p:.3f}/{r:.3f} < {MIN_PR}")
            cy.update(precision=p, recall=r,
                      truth_mismatch_rows=len(set(log) ^ set(truth)))
            store_bytes = dir_bytes(cy["build"].delta_dir,
                                    cy["build"].triples_dir)
            cycles.append(cy)
            if run.last_traced():
                _record_build_layers(run, cy)
        shutil.rmtree(out, ignore_errors=True)
    if not cycles:
        raise RuntimeError("no build_append cycle completed")
    finish(run, setup, (n_first + n_last) * len(cycles), peak_rss_mb(),
           store_bytes)
    run.record.update({
        "build_pages_per_s": statistics.median(
            n_first / cy["build_s"] for cy in cycles),
        "append_s": statistics.median(cy["append_s"] for cy in cycles),
        "build_pages": n_first,
        "append_pages": n_last,
        "applied_deltas": cycles[-1]["inc"].applied_deltas,
        "cycles": len(cycles),
        "triple_precision": cycles[-1]["precision"],
        "triple_recall": cycles[-1]["recall"],
        # rows of the delta log that differ from a replay of the corpus
        # truth: the canonicalizer merges near-duplicate organisation
        # names, which the P/R floor bounds
        "delta_rows_differing_from_truth": cycles[-1]["truth_mismatch_rows"],
        "stage_wall_s": [{"build": cy["build"].stage_wall_s,
                          "build_incremental": cy["inc"].stage_wall_s}
                         for cy in cycles],
    })


def _record_build_layers(run: Run, cy: dict) -> None:
    for call, prefix in (("build", "pipelines.build.stage_wall_s."),
                         ("inc", "pipelines.build.inc_stage_wall_s.")):
        for stage, s in cy[call].stage_wall_s.items():
            run.count(prefix + stage, s)
    run.counts["stages.canonmap.surfaces"] = cy["inc"].canonical_map_size


# ------------------------------------------------------------- cold reads
def blocks(kinds, rng: random.Random):
    """Endless ``kinds``, in shuffled blocks that each hold every kind
    once: every run sees the same proportions and the seed only changes
    the order."""
    block = list(kinds)
    while True:
        rng.shuffle(block)
        yield from block


def read_ops(seed: int, lo: int, hi: int):
    """Endless seeded read ops ``(kind, ts)``. The timestamps are a
    seeded low-discrepancy sequence over the seconds of ``[lo, hi]``:
    spread evenly over the history in every run, and distinct per op so
    that the per-second caches miss."""
    rng = random.Random(seed * 7919 + 1)
    kinds = blocks(READ_KINDS, rng)
    span = hi - lo + 1
    u = rng.random()
    for i in itertools.count():
        yield next(kinds), lo + int((u + i * GOLDEN) % 1.0 * span)


def _bounds(m) -> tuple:
    return tuple(None if x is None else epoch_s(x) for x in m)


def expected_read(exp: Expect, kind: str, ts: int):
    if kind in QUERIES:
        return exp.query(kind, ts)
    if kind == "graphs_at":
        return exp.graphs_at(ts)
    return exp.metadata()


def _normalize(kind: str, out):
    if kind in QUERIES:
        return frame_rows(out)
    if kind == "metadata":
        return _bounds(out)
    return out


def quiesce() -> None:
    """Move everything allocated so far (inputs, oracle answers) out of
    the collector's reach: the cyclic GC's full passes would otherwise
    scan the benchmark's own objects inside timed ops."""
    gc.collect()
    gc.freeze()


def _setup_stores(run: Run, inp: Inputs, open_backend, close_backend):
    """Set-up of the read workloads: ``build()`` of the whole crawl, then
    ``setup_reps`` openings of the backend over that store, the last of
    which serves. A set-up is the build plus one opening; the build runs
    once because it costs seconds, the cheap opening is repeated. Returns
    ``(set-up times, build result, backend)``."""
    t0 = time.perf_counter()
    res = build_store(run, inp, run.path("store"), inp.all_pages)
    build_s = time.perf_counter() - t0
    opens, backend = [], None
    for _ in range(run.size.setup_reps):
        if backend is not None:
            close_backend(backend)
        t0 = time.perf_counter()
        backend = open_backend(res)
        opens.append(time.perf_counter() - t0)
    run.record.update(setup_build_s=build_s, setup_open_s=opens)
    return [build_s + t for t in opens], res, backend


def _actor_hwm_mb(svc) -> float:
    """Sum of the partition actors' peak resident set (VmHWM)."""
    total = 0.0
    for a in svc.actors:
        import ray

        pid = ray.get(a.__ray_call__.remote(lambda self: os.getpid()))
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
    return total


def run_router_cold(run: Run, inp: Inputs) -> None:
    from rdf_diff_store_ray.query.service import QueryService

    def open_svc(res):
        svc = QueryService(res.delta_dir)
        svc.metadata()  # returns once every actor has loaded its partition
        return svc

    setup, res, svc = _setup_stores(run, inp, open_svc,
                                    lambda s: s.shutdown())
    exp = engine_expect(inp, res)

    def call(kind, ts):
        if kind in QUERIES:
            return svc.query_at(ts, QUERIES[kind])
        if kind == "graphs_at":
            return svc.graphs_at(ts)
        return svc.metadata()

    c = inp.corpus
    ops = read_ops(run.seed, c.snapshot_times[0] - DAY,
                   c.snapshot_times[-1] + DAY)
    try:
        exp.warm()
        quiesce()
        run.warmup_left = SERVE_WARMUP_S
        while run.busy < run.seconds:
            kind, ts = next(ops)
            ok, out = run.op(kind, lambda: call(kind, ts))
            if not ok:
                continue
            check(f"router_cold {kind}@{ts}", _normalize(kind, out),
                  expected_read(exp, kind, ts))
            if run.last_traced():
                for lv in svc.cache_levels():
                    run.count("query.service.cache_levels." + lv)
        rss = peak_rss_mb() + _actor_hwm_mb(svc)
    finally:
        svc.shutdown()
    for kind in READ_KINDS:
        latency_block(run, kind, run.latencies({kind}))
    latency_block(run, "read", run.latencies())
    run.record["driver_rss_mb"] = peak_rss_mb()
    finish(run, setup, len(run.latencies()), rss,
           dir_bytes(res.delta_dir, res.triples_dir))


# ------------------------------------------------------------------- HTTP
class Client:
    """One client of the server on loopback. The server speaks HTTP/1.0,
    so each request opens its own connection."""

    def __init__(self, port: int):
        self.port = port

    def request(self, method: str, path: str, body: "bytes | None" = None):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        try:
            conn.request(method, path, body=body, headers=(
                {"Content-Type": "application/json"} if body else {}))
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        if resp.status != 200:
            raise RuntimeError(f"{method} {path}: HTTP {resp.status} "
                               f"{data[:200]!r}")
        return data, resp.getheader("Cache-Level")


def run_http_serve(run: Run, inp: Inputs) -> None:
    from urllib.parse import quote

    from rdf_diff_store_ray.server import DiffStoreServer

    def open_server(res):
        srv = DiffStoreServer(res.delta_dir).start()
        Client(srv.port).request("GET", "/api/metadata")  # loads the log
        return srv

    setup, res, srv = _setup_stores(run, inp, open_server,
                                    lambda s: s.shutdown())
    exp = engine_expect(inp, res)
    ref = exp.ref
    client = Client(srv.port)
    # the built store, before the run's writes grow it by a number of
    # segments that depends on how fast the run goes
    store_bytes = dir_bytes(res.delta_dir, res.triples_dir)
    exp.warm()
    quiesce()
    run.warmup_left = SERVE_WARMUP_S
    rng = random.Random(run.seed * 7919 + 2)
    reads_per_write = len(HTTP_READ_KINDS)
    kinds = blocks(HTTP_READ_KINDS, rng)
    write_kinds = blocks(HTTP_WRITE_KINDS, rng)
    graph_ids = sorted(ref.log)
    read_instants = sorted(set(ref.version_times()))  # the built store's
    next_ts = read_instants[-1] + 3600
    after_write = False
    n_new = n_req = 0

    def live_ids(ts):
        return sorted(exp._live(exp.version(ts)))

    def do_read(kind, ts, gid, qkind):
        if kind == "sparql":
            path = f"/api/sparql/{ts}?query={quote(QUERIES[qkind])}"
        elif kind == "graphs":
            path = f"/api/graphs/{ts}"
        elif kind == "graph":
            path = f"/api/graphs/{ts}?id={quote(gid)}"
        else:
            path = "/api/metadata"
        return client.request("GET", path)

    try:
        while run.busy < run.seconds:
            latest = ref.version_times()[-1]
            n_req += 1
            if n_req % (reads_per_write + 1) == 1:
                ts, next_ts = next_ts, next_ts + 60
                wkind = next(write_kinds)
                live = live_ids(latest)
                if wkind == "new":
                    gid = f"https://bench.example/graph/{n_new}"
                    n_new += 1
                    text = ntriples.serialize({
                        (corpus_mod.entity_iri(f"B{n_new:06d}"),
                         "https://kg.example/prop/foundedIn",
                         str(1900 + rng.randrange(120)), True)})
                else:
                    gid = rng.choice(live)
                    text = exp.graph(gid, latest)
                if wkind == "change":
                    triples = set(ntriples.parse(text))
                    triples.add((gid, "https://kg.example/prop/foundedIn",
                                 str(ts), True))
                    text = ntriples.serialize(triples)
                if wkind == "delete":
                    path = f"/api/graphs?id={quote(gid)}&timestamp={ts}"
                    ok, _ = run.op("write_delete",
                                   lambda: client.request("DELETE", path))
                    if ok:
                        ref.delete(gid, ts)
                else:
                    body = json.dumps({"id": gid, "graph": text,
                                       "timestamp": ts}).encode()
                    ok, _ = run.op("write_" + wkind, lambda: client.request(
                        "POST", "/api/graphs", body))
                    if ok:
                        ref.store(gid, ts, text)
                if ok and gid not in graph_ids:
                    graph_ids.append(gid)
                after_write = after_write or ok
                continue
            kind, _, qkind = next(kinds).partition(":")
            ts = rng.choice(read_instants + [latest])
            gid = rng.choice(graph_ids) if kind == "graph" else None
            label = "read_after_write" if after_write else "read_" + kind
            ok, out = run.op(label, lambda: do_read(kind, ts, gid, qkind))
            after_write = False
            if not ok:
                continue
            body, level = out
            if kind == "sparql":
                got, want = (json_rows(json.loads(body)),
                             exp.query(qkind, ts))
            elif kind == "graphs":
                got, want = body.decode(), exp.graphs_at(ts)
            elif kind == "graph":
                got, want = body.decode(), exp.graph(gid, ts)
            else:
                got = json.loads(body)
                got = (got["start_time"], got["end_time"])
                want = exp.metadata()
            check(f"http_serve {kind}@{ts}", got, want)
            if run.last_traced():
                run.count("server.response_bytes", len(body))
                if level is not None:
                    run.count("query.bgp.cache." + level)
        run.record["store_bytes_after_writes"] = dir_bytes(
            res.delta_dir, res.triples_dir)
    finally:
        srv.shutdown()
    reads = {k for k, *_ in run.ops if k.startswith("read")}
    writes = {k for k, *_ in run.ops if k.startswith("write")}
    latency_block(run, "read", run.latencies(reads))
    latency_block(run, "write", run.latencies(writes))
    latency_block(run, "read_after_write", run.latencies({"read_after_write"}))
    run.record["writes"] = len(run.latencies(writes))
    # the end-to-end metrics are over the reads: a write's latency is two
    # Ray Data jobs whose run-to-run spread on one CPU is wider than any
    # bound; writes are reported in the record, and their cost still shows
    # in the reads through the reload that follows each one
    finish(run, setup, len(run.latencies(reads)), peak_rss_mb(), store_bytes,
           kinds=reads)


WORKLOADS = {
    "build_append": run_build_append,
    "router_cold": run_router_cold,
    "http_serve": run_http_serve,
}
