"""Single-graph commit latency as a partition's segment count grows.

Initializes a store of ``--partitions`` partitions, writes ``--graphs``
graphs in one commit, then makes ``--commits`` single-graph commits in
this process (each a changed graph, one second after the previous one)
and prints, per block of 100 commits, the median commit latency and the
largest segment count of any partition at the block's end. No Ray
session is started. ``--checkout`` picks the library to time, so two
checkouts can be compared with the same script:

    python3 scripts/commit_cost.py --out /tmp/cc                 # this one
    python3 scripts/commit_cost.py --out /tmp/cc --checkout ../parent
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
T0 = 1_700_000_000


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--out", required=True, help="scratch directory")
    p.add_argument("--checkout", default=ROOT)
    p.add_argument("--partitions", type=int, default=2)
    p.add_argument("--graphs", type=int, default=1000)
    p.add_argument("--commits", type=int, default=400)
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.checkout))
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    def doc(i: int, v: int) -> str:
        return f'<https://x/g{i}> <https://x/p> "v{v}" .\n'

    shutil.rmtree(args.out, ignore_errors=True)
    store = init_log(os.path.join(args.out, "deltas"), args.partitions)
    append_graphs(store, {f"g{i}": doc(i, 0) for i in range(args.graphs)},
                  T0)
    walls = []
    for n in range(1, args.commits + 1):
        gid = n % args.graphs
        t = time.perf_counter()
        assert append_graphs(store, {f"g{gid}": doc(gid, n)}, T0 + n) == 1
        walls.append(time.perf_counter() - t)
        if n % 100 == 0:
            segs = max(len(glob.glob(os.path.join(d, "deltas.seg-*")))
                       for d in glob.glob(os.path.join(store, "partition=*")))
            print(json.dumps({
                "commits": f"{n - 99}-{n}",
                "p50_ms": round(statistics.median(walls[-100:]) * 1e3, 1),
                "max_segments": segs,
            }), flush=True)
    shutil.rmtree(args.out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
