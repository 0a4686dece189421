"""Alternating parent/change pairs of ``perfbench/run.py`` for one workload.

Runs N pairs, each pair one run in each of two checkouts on the same
seed, alternating which side goes first, and prints per side the median
and quartiles of every end-to-end metric of ``BENCHMARK.json``, how many
pairs the change won, the per-kind p50s of the record line, the
writes per run and the store's final size where the workload writes,
and the load and CPU steal each run saw. Nothing under ``perfbench/`` is changed.

    python3 scripts/perf_pairs.py --parent ../parent --change . \\
        --workload router_cold --seeds 1,2,3,8,9,10,11,12,13 \\
        --out pairs.jsonl
    python3 scripts/perf_pairs.py --report pairs.jsonl   # summarize again

Run it with nothing else busy on the machine: each run pins itself to
the last ``nproc`` CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run → {"record", "result"} from its last two lines."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = [ln for ln in out.stdout.splitlines() if ln.startswith("{")]
    if out.returncode or len(lines) < 2:
        raise RuntimeError(f"{checkout} seed {seed} failed:\n"
                           f"{out.stderr[-2000:]}")
    return {"record": json.loads(lines[-2])["record"],
            "result": json.loads(lines[-1])}


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(rows: list) -> None:
    """Print the per-side summary of ``rows`` (one dict per run with
    ``side``, ``pair``, ``record``, ``result``)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sides = ("parent", "change")
    by = {s: sorted((r for r in rows if r["side"] == s),
                    key=lambda r: r["pair"]) for s in sides}
    pairs = sorted({r["pair"] for r in by["parent"]}
                   & {r["pair"] for r in by["change"]})
    rec0 = by["change"][0]["record"] if by["change"] else {}
    print(f"workload {rec0.get('workload')}, {len(pairs)} pairs, "
          f"nproc {rec0.get('nproc')}")
    for s in sides:
        runs = by[s]
        loads = [r["record"]["load_before"][0] for r in runs]
        steal = [r["record"]["cpu_steal_share"] for r in runs]
        failed = sum(r["result"]["failed"] for r in runs)
        tried = sum(r["result"]["attempted"] for r in runs)
        print(f"{s}: load {min(loads):.2f}-{max(loads):.2f}, "
              f"steal {min(steal):.4f}-{max(steal):.4f}, "
              f"failed {failed}/{tried}")
    print(f"{'metric':<14}{'parent q1/med/q3':>32}{'change q1/med/q3':>32}"
          f"{'med change':>12}{'wins':>7}")
    for m in spec["end_to_end"]:
        name = m["name"]
        val = {s: {r["pair"]: r["result"]["metrics"][name]["value"]
                   for r in by[s] if r["result"]["metrics"]} for s in sides}
        a = [val["parent"][p] for p in pairs if p in val["parent"]]
        b = [val["change"][p] for p in pairs if p in val["change"]]
        if not a or not b:
            continue
        qa, qb = quartiles(a), quartiles(b)
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (val["change"][p] - val["parent"][p]) > 0
                   for p in pairs
                   if p in val["parent"] and p in val["change"])
        rel = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        print(f"{name:<14}"
              f"{'/'.join(f'{x:.4g}' for x in qa):>32}"
              f"{'/'.join(f'{x:.4g}' for x in qb):>32}"
              f"{rel:>+11.1%}{wins:>5}/{len(pairs)}")
    # a run that goes faster writes more: its commits meet more
    # segments and its store ends larger (http_serve)
    counts = [k for k in ("writes", "store_bytes_after_writes") if k in rec0]
    for k in counts:
        med = [statistics.median(r["record"][k] for r in by[s]
                                 if k in r["record"]) for s in sides]
        print(f"{k} (median over runs): {med[0]:.6g} -> {med[1]:.6g}")
    kinds = sorted(k for k in rec0 if k.endswith("_p50_ms"))
    if kinds:
        print("per-kind p50 ms (median over runs), parent -> change:")
        for k in kinds:
            med = [statistics.median(r["record"][k] for r in by[s]
                                     if k in r["record"]) for s in sides]
            print(f"  {k[:-len('_p50_ms')]:<28}{med[0]:9.2f} -> {med[1]:.2f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workload", default="router_cold")
    ap.add_argument("--seeds", default="1,2,3",
                    help="comma-separated seeds, one pair each")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--out", help="append each run as a JSON line here")
    ap.add_argument("--report", help="summarize a saved --out file only")
    args = ap.parse_args(argv)
    if args.report:
        with open(args.report) as f:
            report([json.loads(ln) for ln in f if ln.strip()])
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required without --report")
    rows = []
    for pair, seed in enumerate(int(s) for s in args.seeds.split(",")):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                            "parent")
        for side in order:
            checkout = getattr(args, side)
            row = {"side": side, "pair": pair, "seed": seed,
                   **run_once(checkout, args.workload, seed, args.seconds)}
            rows.append(row)
            print(f"pair {pair} seed {seed} {side}: "
                  f"{json.dumps(row['result']['metrics'])}", flush=True)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(row, default=str) + "\n")
    report(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
