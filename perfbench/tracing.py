"""Span recorder and timing shims for the traced run.

The traced run measures layers from outside the library: :func:`install`
replaces public functions on their module or class attributes with
timing shims, and :func:`uninstall` puts the originals back. The library
is never edited.

A span is ``(id, name, start, end, parent, op, pid)`` plus counts. Spans
of the driver process stay in memory until :func:`collect`. Ray worker
processes (Ray Data tasks of the build, partition-reader actors of the
router) have no end-of-run hook, so each of their spans is appended to
``spans-<pid>.jsonl`` in the trace directory as it closes; the driver
attributes them to the op whose time window holds them (the monotonic
clock is shared by all processes on one host).

Two kinds of shim exist. A *span* shim records one span per call and
nests: a layer's self time is its span minus the union of its child
spans. A *leaf* shim is for functions called once per graph or per line
(``ntriples.parse``): it only adds its time and a call count to the
enclosing span, so the hot loop does not allocate a span per call.

Tracing is switched on and off per op (the driver alternates) so that
one run yields both traced and untraced latencies; the difference is the
tracing overhead. Worker processes see the switch as the presence of the
file ``on`` in the trace directory.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
_FLAG = "on"

_rec = None  # this process's Recorder


class Recorder:
    """Spans of one process."""

    def __init__(self, trace_dir: str, sink: bool):
        self.trace_dir = trace_dir
        self.flag = os.path.join(trace_dir, _FLAG)
        # workers write each span as it closes; the driver keeps them
        self.sink = (os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")
                     if sink else None)
        self.spans: list = []
        self.enabled = False
        self.op = None  # id of the op the driver is running
        self.op_span = None  # root span of that op (cross-thread parent)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._checked = float("-inf")

    def on(self) -> bool:
        if self.sink is None:
            return self.enabled
        # the switch only flips between ops: look at the flag file at
        # most every half millisecond, not on every per-graph leaf call
        now = time.perf_counter()
        if now - self._checked > 5e-4:
            self.enabled = os.path.exists(self.flag)
            self._checked = now
        return self.enabled

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def begin(self, name: str) -> dict:
        st = self._stack()
        parent = st[-1]["id"] if st else self.op_span
        sp = {"id": f"{os.getpid()}.{next(self._ids)}", "name": name,
              "parent": parent, "op": self.op, "pid": os.getpid(),
              "start": time.perf_counter(), "end": None,
              "leaf_s": {}, "leaf_calls": {}, "n": {}}
        st.append(sp)
        return sp

    def end(self, sp: dict, t_end: "float | None" = None) -> None:
        sp["end"] = time.perf_counter() if t_end is None else t_end
        st = self._stack()
        if st and st[-1] is sp:
            st.pop()
        if self.sink is None:
            self.spans.append(sp)
        else:
            with open(self.sink, "a") as f:
                f.write(json.dumps(sp) + "\n")

    def leaf(self, name: str, dt: float) -> None:
        st = self._stack()
        if not st:
            return
        top = st[-1]
        top["leaf_s"][name] = top["leaf_s"].get(name, 0.0) + dt
        top["leaf_calls"][name] = top["leaf_calls"].get(name, 0) + 1


def recorder() -> "Recorder | None":
    """This process's recorder; in a worker it is created on first use
    from the trace directory the driver exported."""
    global _rec
    if _rec is None:
        d = os.environ.get(TRACE_DIR_ENV)
        if d:
            _rec = Recorder(d, sink=True)
    return _rec


def start_driver(trace_dir: str) -> Recorder:
    global _rec
    os.makedirs(trace_dir, exist_ok=True)
    os.environ[TRACE_DIR_ENV] = trace_dir
    _rec = Recorder(trace_dir, sink=False)
    return _rec


def set_enabled(on: bool) -> None:
    rec = recorder()
    rec.enabled = on
    if on:
        open(rec.flag, "w").close()
    elif os.path.exists(rec.flag):
        os.remove(rec.flag)


# ------------------------------------------------------------------ shims
def span_shim(fn, name: str, count=None):
    """Wrap ``fn`` in a span named ``name``; ``count(result, args)``
    returns ``{count_name: number}`` recorded on the span."""

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        rec = recorder()
        if rec is None or not rec.on():
            return fn(*args, **kwargs)
        sp = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.end(sp)
            raise
        t_end = time.perf_counter()
        if count is not None:  # counted outside the span's time
            sp["n"].update(count(out, args))
        rec.end(sp, t_end)
        return out

    return shim


def leaf_shim(fn, name: str):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        rec = recorder()
        if rec is None or not rec.on():
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leaf(name, time.perf_counter() - t0)

    return shim


def factory_shim(factory, name: str, count=None):
    """Wrap a factory whose *returned* callable is the unit of work (the
    ``map_groups`` writers of the build)."""

    @functools.wraps(factory)
    def shim(*args, **kwargs):
        return span_shim(factory(*args, **kwargs), name,
                         None if count is None else count(args))

    return shim


class _TracedRay:
    """Stand-in for the ``ray`` module inside ``query.service``: ``get``
    (the router waiting on its partition actors) becomes a span."""

    def __init__(self, ray_mod):
        self._ray = ray_mod
        self.get = span_shim(ray_mod.get, "query.service.gather")

    def __getattr__(self, attr):
        return getattr(self._ray, attr)


_patches: list = []


def _patch(owner, attr: str, new) -> None:
    _patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, new)


def _rows(out, _args) -> dict:
    return {"rows": len(out)}


def _build_writer_count(factory_args):
    out_dir = factory_args[0]

    def count(out, args):
        # versions in vs update rows written: the no-op suppression ratio
        import glob

        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        from rdf_diff_store_ray.stages import deltas as deltas_mod

        group = args[0]
        pid = int(group["partition_id"].iloc[0])
        files = glob.glob(os.path.join(
            deltas_mod.partition_dir(out_dir, pid), "*.parquet"))
        ops = pads.dataset(files).to_table(columns=["op"])["op"]
        updates = pc.sum(pc.equal(ops, "update")).as_py() or 0
        return {"versions": len(group), "rows": len(ops),
                "updates": updates}

    return count


def _appender_count(_factory_args):
    def count(out, args):
        return {"calls": 1, "rows": int(out["applied"].sum())}

    return count


def install(driver: bool = True) -> None:
    """Install every shim. ``driver=False`` (worker processes) skips the
    shims that reach workers by value inside the driver's plan, and
    those of code that only the driver runs."""
    from rdf_diff_store_ray import ntriples
    from rdf_diff_store_ray import server as server_mod
    from rdf_diff_store_ray.pipelines import build as build_mod
    from rdf_diff_store_ray.query import bgp
    from rdf_diff_store_ray.query import service as service_mod
    from rdf_diff_store_ray.stages import canonicalize, canonmap
    from rdf_diff_store_ray.stages import deltas as deltas_mod
    from rdf_diff_store_ray.stages import link as link_mod
    from rdf_diff_store_ray.stages import ner as ner_mod
    from rdf_diff_store_ray.state import append as append_mod
    from rdf_diff_store_ray.state import reconstruct

    if _patches:
        return
    # Ray Data tasks run these. build() registers the library's modules
    # for pickle-by-value, so the plan carries the shim installed here;
    # were they pickled by reference (the shim sits on the attribute it
    # wraps), the tasks would run the worker's own. One shim runs
    # either way.
    _patch(ner_mod, "page_relations_batch",
           span_shim(ner_mod.page_relations_batch, "stages.ner"))
    for attr in ("serialize_versions_batch", "emit_triples_batch"):
        _patch(link_mod, attr, span_shim(getattr(link_mod, attr),
                                         "stages.link"))
    if driver:
        # pickled by value (the attribute is not the function's home):
        # the shim travels inside the plan
        _patch(build_mod, "extract_batch",
               span_shim(build_mod.extract_batch, "stages.extract"))
        for owner, attr in ((build_mod, "build_canonical_map"),
                            (canonicalize, "extend_canonical_map")):
            _patch(owner, attr, span_shim(getattr(owner, attr),
                                          "stages.canonmap.driver"))
        for attr in ("build_canonical_store", "extend_canonical_store"):
            _patch(canonmap, attr, span_shim(getattr(canonmap, attr),
                                             "stages.canonmap.distributed"))
        _patch(deltas_mod, "make_partition_writer",
               factory_shim(deltas_mod.make_partition_writer,
                            "stages.deltas", _build_writer_count))
        _patch(append_mod, "make_incremental_appender",
               factory_shim(append_mod.make_incremental_appender,
                            "state.append", _appender_count))
        for attr in ("append_graphs", "delete_graphs"):
            _patch(append_mod, attr, span_shim(
                getattr(append_mod, attr), "state.append",
                lambda out, _a: {"calls": 1, "rows": int(out)}))
        for attr in ("sparql_at", "graphs_at", "metadata", "store_graphs",
                     "delete_graph"):
            _patch(server_mod.StoreBackend, attr, span_shim(
                getattr(server_mod.StoreBackend, attr), "server.backend"))
        _patch(server_mod.StoreBackend, "_load", span_shim(
            server_mod.StoreBackend._load, "server.reload"))
        for attr in ("query_at", "graphs_at", "metadata"):
            _patch(service_mod.QueryService, attr, span_shim(
                getattr(service_mod.QueryService, attr), "query.service"))
        _patch(service_mod, "ray", _TracedRay(service_mod.ray))
    _patch(reconstruct, "state_at_table",
           span_shim(reconstruct.state_at_table, "state.reconstruct.asof"))
    _patch(reconstruct, "triples_at_table", span_shim(
        reconstruct.triples_at_table, "state.reconstruct.materialize",
        lambda out, _a: {"live_triples": out.num_rows}))
    for attr in ("quads_at_table", "graphs_at_table"):
        _patch(reconstruct, attr, span_shim(getattr(reconstruct, attr),
                                            "state.reconstruct.materialize"))
    _patch(ntriples, "parse", leaf_shim(ntriples.parse, "ntriples.parse"))
    _patch(ntriples, "serialize",
           leaf_shim(ntriples.serialize, "ntriples.serialize"))
    _patch(bgp, "parse_query", span_shim(bgp.parse_query, "query.bgp.parse"))
    _patch(bgp, "eval_bgp", span_shim(bgp.eval_bgp, "query.bgp.eval", _rows))
    # the router's push-down unit, evaluated inside the partition actors
    _patch(bgp, "eval_one_pattern",
           span_shim(bgp.eval_one_pattern, "query.bgp.eval", _rows))
    _patch(bgp, "bindings_json",
           span_shim(bgp.bindings_json, "query.bgp.json"))


def uninstall() -> None:
    while _patches:
        owner, attr, orig = _patches.pop()
        setattr(owner, attr, orig)


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace the library calls made
    inside worker processes (Ray Data tasks of the build, the router's
    partition-reader actors)."""
    if recorder() is not None:
        install(driver=False)


# ------------------------------------------------------------- analysis
def collect(rec: Recorder, op_windows: list) -> list:
    """Driver spans plus every worker span, the latter attributed to the
    op whose ``(op, start, end)`` window contains the span's start."""
    import bisect
    import glob

    spans = list(rec.spans)
    starts = [w[1] for w in op_windows]
    for path in glob.glob(os.path.join(rec.trace_dir, "spans-*.jsonl")):
        with open(path) as f:
            for line in f:
                sp = json.loads(line)
                i = bisect.bisect_right(starts, sp["start"]) - 1
                if i >= 0 and sp["start"] <= op_windows[i][2]:
                    sp["op"] = op_windows[i][0]
                    spans.append(sp)
    return spans


def self_times(spans: list) -> list:
    """``(span, self_s)``: duration minus the union of child intervals
    and of the leaf time accumulated directly on the span."""
    children: dict = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(
                (sp["start"], sp["end"]))
    out = []
    for sp in spans:
        covered, hi = 0.0, sp["start"]
        for s, e in sorted(children.get(sp["id"], ())):
            s, e = max(s, hi), min(e, sp["end"])
            if e > s:
                covered += e - s
                hi = e
        dur = sp["end"] - sp["start"]
        out.append((sp, dur - covered - sum(sp["leaf_s"].values())))
    return out
