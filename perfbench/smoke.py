"""Smoke test of the benchmark at tiny size.

    python3 perfbench/smoke.py

Runs every workload for four seconds on a 40-url corpus, untraced and
traced, and checks the contract of each result line: ``correct`` is true,
no op failed, and the metrics are exactly those ``BENCHMARK.json`` lists.
A traced run must also report a non-zero value for every layer that runs
on its workload (``LAYERS``). Then it runs each workload with one answer
deliberately corrupted (a dropped row of the delta log, a dropped line
of a ``graphs_at`` document) and checks that the correctness gate fails
the run. Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

ARGS = ["--seed", "1", "--seconds", "4", "--size", "tiny"]

_READ = ["state.reconstruct.asof_s", "state.reconstruct.materialize_s",
         "state.reconstruct.live_triples", "ntriples.parse_s",
         "ntriples.parse_calls", "query.bgp.parse_s", "query.bgp.eval_s",
         "query.bgp.rows_out", "trace.ops"]
# per workload: the per-layer metrics that must be non-zero in a traced
# run, and groups of which at least one must be (a mode, cache levels)
LAYERS = {
    "build_append": (
        ["stages.extract.busy_s", "stages.ner.busy_s",
         "stages.canonmap.busy_s", "stages.canonmap.surfaces",
         "stages.link.busy_s", "stages.deltas.busy_s", "stages.deltas.rows",
         "stages.deltas.suppressed_ratio", "state.append.busy_s",
         "state.append.calls", "state.append.rows", "trace.ops"]
        + [f"pipelines.build.{call}.{stage}"
           for call in ("stage_wall_s", "inc_stage_wall_s")
           for stage in ("extract_ner_raw", "canonical_map_and_snapshots",
                         "delta_log_and_triples")],
        [["stages.canonmap.driver_calls",
          "stages.canonmap.distributed_calls"]]),
    "router_cold": (
        _READ + ["query.service.route_s", "query.service.gather_s"],
        [["query.service.cache_levels." + lv for lv in
          ("Nothing", "Store", "Graph", "Query", "Prettified")]]),
    "http_serve": (
        _READ + ["query.bgp.json_s", "state.append.busy_s",
                 "state.append.calls", "state.append.rows",
                 "server.backend_s", "server.transport_s", "server.reloads",
                 "server.reload_s", "server.response_bytes"],
        [["query.bgp.cache." + lv for lv in
          ("Nothing", "Store", "Graph", "Query", "Prettified")]]),
}


def _run(args: list) -> tuple:
    p = subprocess.run([sys.executable, *args], cwd=ROOT,
                       capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p.stderr


def _drop_first_line(text: str) -> str:
    return text.split("\n", 1)[1] if "\n" in text else text


def _corrupt(workload: str) -> None:
    """Run ``workload`` in this process with one answer corrupted."""
    from perfbench import run

    if workload == "build_append":
        from rdf_diff_store_ray.pipelines.build import BuildResult

        delta_table = BuildResult.delta_table
        BuildResult.delta_table = lambda self: delta_table(self).slice(1)
    elif workload == "router_cold":
        from rdf_diff_store_ray.query.service import QueryService

        graphs_at = QueryService.graphs_at
        QueryService.graphs_at = lambda self, ts: _drop_first_line(
            graphs_at(self, ts))
    else:
        from rdf_diff_store_ray.server import StoreBackend

        graphs_at = StoreBackend.graphs_at

        def dropped_line(self, ts, graph_id):
            text, level = graphs_at(self, ts, graph_id)
            return _drop_first_line(text), level

        StoreBackend.graphs_at = dropped_line
    sys.exit(run.main(["--workload", workload, "--trace", "0", *ARGS]))


def _zero_layers(workload: str, metrics: dict) -> list:
    def value(name):
        return metrics[name]["value"]

    each, groups = LAYERS[workload]
    return ([n for n in each if not value(n)]
            + [g for g in groups if not any(value(n) for n in g)])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace, names in ((0, "end_to_end"), (1, "per_layer")):
            code, res, err = _run(["perfbench/run.py", "--workload", workload,
                                   "--trace", str(trace), *ARGS])
            want = {m["name"] for m in spec[names]}
            ok = (code == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] >= 1
                  and set(res["metrics"]) == want)
            zero = _zero_layers(workload, res["metrics"]) if ok and trace \
                else []
            print(f"{workload} trace={trace}: "
                  f"{'ok' if ok and not zero else 'FAILED'}"
                  + (f" (zero: {zero})" if zero else ""))
            if not ok or zero:
                print(err[-3000:], file=sys.stderr)
                return 1
    for workload in workloads:
        code, res, err = _run(["perfbench/smoke.py", "--corrupt", workload])
        ok = code != 0 and res is not None and res["correct"] is False
        print(f"{workload} corrupted: "
              f"{'gate failed as it must' if ok else 'NOT CAUGHT'}")
        if not ok:
            print(err[-3000:], file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--corrupt":
        _corrupt(sys.argv[2])
    sys.exit(main())
