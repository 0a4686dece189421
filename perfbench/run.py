"""Benchmark of the versioned-RDF store: build, append and as-of reads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload router_cold --seed 1 --seconds 15 \\
        --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` at the root;
``perfbench/workloads.py`` says what each workload does and why. The run
generates its inputs from ``--seed``, starts a local Ray with one CPU per
``nproc``, sets up, measures for ``--seconds`` seconds of timed ops,
checks every answer against the reference oracle, and prints two JSON
lines on standard output: the full record of the run (every metric the
workload has, with units, sample counts and the environment), then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}`` with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). A traced run alternates traced and untraced ops and
reports the difference as ``trace.overhead``; its spans are written to
``.perfbench/traces/``.

``--size tiny`` shrinks the corpus for the smoke test
(``perfbench/smoke.py``).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

# AF_UNIX socket paths are limited to 107 bytes; Ray appends ~62 to its
# temp dir. A checkout too deep for that keeps Ray's default temp dir.
_RAY_SOCKET_BUDGET = 107 - 64
CACHE_LEVELS = ("Nothing", "Store", "Graph", "Query", "Prettified")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("bench", "tiny"), default="bench")
    return p.parse_args(argv)


def nproc() -> int:
    """What ``nproc`` prints: it honours ``OMP_NUM_THREADS``."""
    out = subprocess.run(["nproc"], capture_output=True, text=True,
                         check=False)
    return int(out.stdout) if out.returncode == 0 else len(
        os.sched_getaffinity(0))


def source_sha256() -> str:
    """Content hash of the library sources (the checkout the benchmark
    runs in is not a git repository)."""
    h = hashlib.sha256()
    for f in sorted(glob.glob(os.path.join(ROOT, "rdf_diff_store_ray", "**",
                                           "*.py"), recursive=True)):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def cpu_ticks() -> tuple:
    """``(steal, total)`` jiffies of the host's CPUs from ``/proc/stat``:
    the share stolen by the hypervisor explains runs that are slow
    throughout."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def git_sha() -> "str | None":
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or None


def start_ray(trace_dir: "str | None") -> dict:
    import ray
    from ray.data import DataContext

    kw = {}
    temp = os.path.join(ROOT, ".perfbench", "ray")
    if len(temp) <= _RAY_SOCKET_BUDGET:
        kw["_temp_dir"] = temp
    if trace_dir is not None:
        kw["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.tracing.worker_setup"}
    # Ray starts its workers at nice 15. Sharing nproc CPUs with the
    # driver and Ray's daemons at nice 0, they then ran only when nothing
    # else was runnable, and router_cold throughput of one seed ranged
    # 28.6-42.4 ops/s over four runs; at nice 0, 25.7-28.6 over three.
    os.environ["RAY_worker_niceness"] = "0"
    # workers import the library and perfbench from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p and p != ROOT])
    before = set(glob.glob(os.path.join(temp, "session_2*")))
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=256 * 1024 * 1024, **kw)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    return {"ray_init_s": time.perf_counter() - t0,
            "ray_temp_dir": kw.get("_temp_dir", "default"),
            "ray_sessions": sorted(set(glob.glob(os.path.join(
                temp, "session_2*"))) - before)}


def _proc_table() -> dict:
    """``pid -> (parent pid, state)`` of every process."""
    table = {}
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        table[int(stat.split("/")[2])] = (int(fields[1]), fields[0])
    return table


def _descendants(root: int) -> set:
    children: dict = {}
    for pid, (ppid, _) in _proc_table().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = set(), [root]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.add(c)
            todo.append(c)
    return out


def stop_ray(sessions: list) -> None:
    """Shut Ray down, wait until every process this run started (Ray's
    workers are grandchildren) has ended, then delete this run's Ray
    session directory."""
    import ray

    started = _descendants(os.getpid())
    ray.shutdown()
    deadline = time.monotonic() + 30
    while True:
        table = _proc_table()
        alive = [p for p in started if p in table and table[p][1] != "Z"]
        if not alive:
            break
        if time.monotonic() > deadline:
            for p in alive:
                os.kill(p, signal.SIGKILL)
            deadline = time.monotonic() + 30
        time.sleep(0.1)
    for d in sessions:
        shutil.rmtree(d, ignore_errors=True)


# ------------------------------------------------------------ per layer
def _sum_self(selfs, names) -> float:
    return sum(s for sp, s in selfs if sp["name"] in names)


def _sum_n(spans, names, key) -> float:
    return sum(sp["n"].get(key, 0) for sp in spans if sp["name"] in names)


def _leaf(spans, name, calls=False) -> float:
    field = "leaf_calls" if calls else "leaf_s"
    return sum(sp[field].get(name, 0) for sp in spans)


def per_layer(run, spans: list) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` from the traced ops'
    spans (self times) and the driver's own counts."""
    from perfbench import tracing

    selfs = tracing.self_times(spans)
    c = run.counts
    versions = _sum_n(spans, {"stages.deltas"}, "versions")
    updates = _sum_n(spans, {"stages.deltas"}, "updates")
    levels = {lv: c.get("query.bgp.cache." + lv, 0) for lv in CACHE_LEVELS}
    n_levels = sum(levels.values())
    backend_incl: dict = {}
    for sp in spans:
        if sp["name"] == "server.backend" and sp["op"] is not None:
            backend_incl[sp["op"]] = (backend_incl.get(sp["op"], 0.0)
                                      + sp["end"] - sp["start"])
    transport = sum(dt - backend_incl.get(i, 0.0)
                    for i, (kind, dt, ok, tr) in enumerate(run.ops)
                    if tr and ok and run.workload == "http_serve")
    traced = run.latencies(traced=True)
    untraced = run.latencies(traced=False)
    m = {
        "stages.extract.busy_s": (_sum_self(selfs, {"stages.extract"}), "s"),
        "stages.ner.busy_s": (_sum_self(selfs, {"stages.ner"}), "s"),
        "stages.canonmap.busy_s": (_sum_self(selfs, {
            "stages.canonmap.driver", "stages.canonmap.distributed"}), "s"),
        "stages.canonmap.driver_calls": (sum(
            sp["name"] == "stages.canonmap.driver" for sp in spans), "count"),
        "stages.canonmap.distributed_calls": (sum(
            sp["name"] == "stages.canonmap.distributed" for sp in spans),
            "count"),
        "stages.canonmap.surfaces": (c.get("stages.canonmap.surfaces", 0),
                                     "count"),
        "stages.link.busy_s": (_sum_self(selfs, {"stages.link"}), "s"),
        "stages.deltas.busy_s": (_sum_self(selfs, {"stages.deltas"}), "s"),
        "stages.deltas.rows": (_sum_n(spans, {"stages.deltas"}, "rows"),
                               "count"),
        "stages.deltas.suppressed_ratio": (
            (1 - updates / versions) if versions else 0.0, "ratio"),
    }
    for call in ("stage_wall_s", "inc_stage_wall_s"):
        for stage in ("extract_ner_raw", "canonical_map_and_snapshots",
                      "delta_log_and_triples"):
            name = f"pipelines.build.{call}.{stage}"
            m[name] = (c.get(name, 0.0), "s")
    m.update({
        "state.append.busy_s": (_sum_self(selfs, {"state.append"}), "s"),
        "state.append.calls": (_sum_n(spans, {"state.append"}, "calls"),
                               "count"),
        "state.append.rows": (_sum_n(spans, {"state.append"}, "rows"),
                              "count"),
        "state.reconstruct.asof_s": (_sum_self(
            selfs, {"state.reconstruct.asof"}), "s"),
        "state.reconstruct.materialize_s": (_sum_self(
            selfs, {"state.reconstruct.materialize"}), "s"),
        "state.reconstruct.live_triples": (_sum_n(
            spans, {"state.reconstruct.materialize"}, "live_triples"),
            "count"),
        "ntriples.parse_s": (_leaf(spans, "ntriples.parse"), "s"),
        "ntriples.parse_calls": (_leaf(spans, "ntriples.parse", True),
                                 "count"),
        "ntriples.serialize_s": (_leaf(spans, "ntriples.serialize"), "s"),
        "query.bgp.parse_s": (_sum_self(selfs, {"query.bgp.parse"}), "s"),
        "query.bgp.eval_s": (_sum_self(selfs, {"query.bgp.eval"}), "s"),
        "query.bgp.rows_out": (_sum_n(spans, {"query.bgp.eval"}, "rows"),
                               "count"),
        "query.bgp.json_s": (_sum_self(selfs, {"query.bgp.json"}), "s"),
    })
    for lv in CACHE_LEVELS:
        m["query.bgp.cache." + lv] = (levels[lv], "count")
    m["query.bgp.cache.hit_ratio"] = (
        (1 - levels["Nothing"] / n_levels) if n_levels else 0.0, "ratio")
    m["query.service.route_s"] = (_sum_self(selfs, {"query.service"}), "s")
    m["query.service.gather_s"] = (_sum_self(
        selfs, {"query.service.gather"}), "s")
    for lv in CACHE_LEVELS:
        name = "query.service.cache_levels." + lv
        m[name] = (c.get(name, 0), "count")
    m.update({
        "server.backend_s": (_sum_self(selfs, {"server.backend"}), "s"),
        "server.transport_s": (transport, "s"),
        "server.reloads": (sum(sp["name"] == "server.reload"
                               for sp in spans), "count"),
        "server.reload_s": (_sum_self(selfs, {"server.reload"}), "s"),
        "server.response_bytes": (c.get("server.response_bytes", 0),
                                  "bytes"),
        "trace.ops": (len(traced), "count"),
        "trace.overhead": (
            statistics.median(traced) / statistics.median(untraced) - 1
            if traced and untraced else 0.0, "ratio"),
    })
    return m


def _steal_share(before: tuple, after: tuple) -> "float | None":
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else None


# ------------------------------------------------------------------ main
def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    # Run on nproc CPUs, not just tell Ray so. Ray's processes inherit
    # the affinity. The last CPUs are taken: the VM's interrupts land on
    # CPU 0. Unpinned on a 4-vCPU VM, router_cold throughput halved when
    # the host stole 16% of the CPU time.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[len(cpus) - nproc():])
    load_before = os.getloadavg()
    ticks_before = cpu_ticks()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # importing the library first: a directory without it fails here,
    # before any result is printed
    import pandas
    import pyarrow
    import ray

    from perfbench import tracing, workloads
    from perfbench.oracle_gate import GateFailure

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of "
                         f"{sorted(workloads.WORKLOADS)}")
    base = os.path.join(ROOT, ".perfbench")
    work = os.path.join(base, "runs",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(work, "spans")
        tracing.start_driver(trace_dir)
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        bool(args.trace), workloads.SIZES[args.size], work)
    t_import = time.perf_counter()
    inp = workloads.make_inputs(run)
    t_inputs = time.perf_counter()
    env = start_ray(trace_dir)
    correct, spans = True, []
    try:
        if args.trace:
            tracing.install()
        try:
            workloads.WORKLOADS[args.workload](run, inp)
        except GateFailure as e:
            correct = False
            print(f"correctness gate failed: {e}", file=sys.stderr)
        if args.trace:
            spans = tracing.collect(tracing.recorder(), run.windows)
            tracing.uninstall()
        t_workload = time.perf_counter()
    finally:
        stop_ray(env.pop("ray_sessions"))
    t_stop = time.perf_counter()
    env["wall_s"] = {"imports": t_import - t_start,
                     "inputs": t_inputs - t_import,
                     "ray_start": env["ray_init_s"],
                     "workload": t_workload - t_inputs - env["ray_init_s"],
                     "ray_stop": t_stop - t_workload}
    names = ("end_to_end", "per_layer")[args.trace]
    metrics = {}
    if correct:
        got = per_layer(run, spans) if args.trace else run.metrics
        metrics = {m["name"]: {"value": got[m["name"]][0],
                               "unit": got[m["name"]][1]}
                   for m in spec[names]}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "nproc": nproc(), "cpus": sorted(os.sched_getaffinity(0)),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "cpu_steal_share": _steal_share(ticks_before, cpu_ticks()),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "versions": {"python": sys.version.split()[0],
                     "ray": ray.__version__, "pyarrow": pyarrow.__version__,
                     "pandas": pandas.__version__},
        "corpus": {"n_urls": run.size.n_urls,
                   "snapshots": workloads.N_SNAPSHOTS,
                   "pages": inp.corpus.pages.num_rows,
                   "filler_sentences": workloads.FILLER_SENTENCES,
                   "num_partitions": run.size.num_partitions},
        **env,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in run.metrics.items()},
        **run.record,
    }
    if args.trace:
        record["layers"] = metrics
        os.makedirs(os.path.join(base, "traces"), exist_ok=True)
        out = os.path.join(base, "traces",
                           f"{args.workload}-seed{args.seed}.jsonl")
        with open(out, "w") as f:
            for sp in spans:
                f.write(json.dumps(sp) + "\n")
        record["spans_file"] = os.path.relpath(out, ROOT)
    shutil.rmtree(work, ignore_errors=True)
    failed = sum(not ok for _, _, ok, _ in run.ops)
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({"correct": correct, "attempted": len(run.ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
