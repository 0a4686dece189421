"""Operational metrics: counters + histograms rendered in Prometheus
text exposition format.

The reference exports per-stage Prometheus histograms and cache-level
counters (``/root/reference/src/metrics/mod.rs:8-99``, HTTP middleware
labels ``src/metrics/middleware.rs:50-89``). This is the batch-engine
analog: a process-local registry the build / query layers record into,
renderable as a ``metrics.txt`` artifact a user can scrape with any
Prometheus tooling or diff across runs. Histogram bucket envelopes
mirror the reference's where an operation has a direct counterpart
(commit/query/read/parse); timestamps never enter metric VALUES, so the
artifact is deterministic for a deterministic run modulo wall times.

Distribution note: stages run on Ray workers, so worker-side timings are
carried back on the data path (partition manifests, stage summaries) and
recorded into the driver-side registry when results land — there is no
cross-process global registry to contend on (the reference's lazy_static
globals are per-process too).
"""

from __future__ import annotations

import bisect
import threading
from collections import defaultdict

# reference envelopes (src/metrics/mod.rs), seconds
BUCKETS_FAST = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1)   # query/commit
BUCKETS_MED = (0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0)              # push/fetch/checkout
BUCKETS_READ = (0.1, 0.5, 1.0, 2.5, 5.0, 7.5, 10.0)              # file read
BUCKETS_PARSE = (0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0)            # bulk parse


class Histogram:
    def __init__(self, name: str, help_: str, buckets):
        self.name = name
        self.help = help_
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # +Inf
        self.sum = 0.0
        self.n = 0

    def observe(self, value: float) -> None:
        i = bisect.bisect_left(self.buckets, value)
        self.counts[i] += 1
        self.sum += value
        self.n += 1

    def render(self, labels: str = "") -> list:
        lab = labels and ("," + labels)
        out = [f"# HELP {self.name} {self.help}",
               f"# TYPE {self.name} histogram"]
        cum = 0
        for b, c in zip(self.buckets, self.counts):
            cum += c
            out.append(f'{self.name}_bucket{{le="{b}"{lab}}} {cum}')
        cum += self.counts[-1]
        out.append(f'{self.name}_bucket{{le="+Inf"{lab}}} {cum}')
        out.append(f"{self.name}_sum{{{labels}}} {self.sum:.6f}")
        out.append(f"{self.name}_count{{{labels}}} {cum}")
        return out


class MetricsRegistry:
    """Thread-safe counters + histograms, Prometheus-text renderable."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict = defaultdict(int)  # (name, labels) -> n
        self._histograms: dict = {}

    def counter_inc(self, name: str, labels: str = "", by: int = 1) -> None:
        with self._lock:
            self._counters[(name, labels)] += by

    def histogram(self, name: str, help_: str, buckets) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = Histogram(name, help_, buckets)
                self._histograms[name] = h
            return h

    def observe(self, name: str, value: float, help_: str = "",
                buckets=BUCKETS_MED) -> None:
        self.histogram(name, help_ or name, buckets).observe(value)

    def render_prometheus(self) -> str:
        """The ``GET /metrics`` artifact (``src/api.rs:15-23`` analog)."""
        with self._lock:
            lines: list = []
            seen_counter_names = set()
            for (name, labels), n in sorted(self._counters.items()):
                if name not in seen_counter_names:
                    lines.append(f"# TYPE {name} counter")
                    seen_counter_names.add(name)
                lines.append(f"{name}{{{labels}}} {n}")
            for name in sorted(self._histograms):
                lines.extend(self._histograms[name].render())
            return "\n".join(lines) + "\n"

    def samples_table(self):
        """The same content as an Arrow table (for the driver's
        row/schema checks): one row per counter/histogram aggregate."""
        import pyarrow as pa

        names, kinds, labels, values = [], [], [], []
        with self._lock:
            for (name, lab), n in sorted(self._counters.items()):
                names.append(name)
                kinds.append("counter")
                labels.append(lab)
                values.append(float(n))
            for name in sorted(self._histograms):
                h = self._histograms[name]
                names.append(name)
                kinds.append("histogram_count")
                labels.append("")
                values.append(float(h.n))
        return pa.table(
            {
                "name": pa.array(names, pa.string()),
                "kind": pa.array(kinds, pa.string()),
                "labels": pa.array(labels, pa.string()),
                "value": pa.array(values, pa.float64()),
            }
        )


# process-local default registry (the reference's lazy_static REGISTRY)
REGISTRY = MetricsRegistry()


def record_build_manifests(registry: MetricsRegistry, delta_dir: str) -> None:
    """Fold every partition manifest's lineage into the registry:
    per-partition write walls → repo_commit_time envelope, row/graph
    counts → counters. Worker-side timings travel via the manifests (the
    data path), not a shared registry."""
    from .stages import deltas

    for pid in deltas.partitions(delta_dir):
        m = deltas.read_manifest(delta_dir, pid)
        if m is None:
            continue
        registry.observe("repo_commit_time", float(m.get("wall_s", 0.0)),
                         "Delta partition write times", BUCKETS_FAST)
        registry.counter_inc("delta_rows_total", by=int(m.get("rows", 0)))
        registry.counter_inc("delta_graphs_total", by=int(m.get("graphs", 0)))
        registry.counter_inc("delta_partitions_total")
