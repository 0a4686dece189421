"""The write path: pages → versioned KG delta log (SURVEY §3.4).

:func:`build` (the bootstrap) and :func:`build_incremental` (every run
after it, the reference's forever-running writer) run ONE stage graph
(streaming execution, backpressured; ONE corpus-scale shuffle)::

    read_parquet(pages, columns=[url, warc_ts, html, text, lang])
      └─ map_batches(extract_batch)            # stateless, zero-copy Arrow; digest invariant
      └─ map_batches(page_relations_batch)     # NER + relation extraction → nested triples
      └─ write_parquet(raw)                    # stage checkpoint (reused on resume)
    raw ─ canonical map, built or extended (vocabulary-scale)  ‖  snapshot grid
    raw ─ versions, by the store's canonical-map layout:
            driver       map_batches(serialize_versions_batch)  # broadcast dict, NO shuffle
            distributed  resolve_triples                        # co-partition joins
        ─ add partition_id = stable_hash(graph_id) % P
        ─ groupby(partition_id).map_groups(delta sink)          # THE shuffle + sink
          (the distributed layout serializes each partition inside the sink)
    raw ─ triples sink → write_parquet(triples/ or triples/inc_<batch>/)

The two delta sinks are where the entry points differ, together with
the map (built vs extended) and the resume prune:

- ``build()`` prunes partitions a killed run already finished and writes
  each partition whole (:func:`..stages.deltas.make_partition_writer`);
- ``build_incremental()`` appends one segment per partition
  (:func:`..state.append.make_incremental_appender`) under the store's
  write lock, with every partition visited so live graphs absent from
  the batch are still tombstoned.

Scale notes: the nested-per-page layout keeps version serialization
shuffle-free; the canonicalization shuffle runs over the surface
*vocabulary*; the single corpus-scale exchange is the delta groupby, keyed
by the same ``partition_id`` the output is laid out by (one partitioning
key reused end-to-end). Per-partition manifests + atomic renames give
kill-and-resume that recomputes only unfinished partitions, and the
persisted canonical map makes the resumed output byte-identical to an
uninterrupted build (fixture F6).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass

import pyarrow as pa
import ray
import ray.data as rd

from ..shuffle_utils import add_partition_id
from ..stages import deltas as deltas_mod
from ..stages.canonicalize import build_canonical_map
from ..stages import link as link_mod
from ..stages import ner as ner_mod
from ..stages.extract import extract_batch

PAGE_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]
# distinct surfaces above which the canonical map goes distributed: the
# driver dict grows ~0.55 KB/surface and the two incremental costs cross
# between 70k and 264k surfaces (BASELINE.md, round 5)
AUTO_VOCAB_THRESHOLD = 250_000


@dataclass
class BuildResult:
    out_dir: str
    num_partitions: int
    manifests: list
    canonical_map_size: int
    wall_s: float
    resumed_partitions: int
    stage_wall_s: dict = None
    applied_deltas: int = -1  # incremental builds only; -1 = full build

    @property
    def delta_dir(self) -> str:
        return os.path.join(self.out_dir, "deltas")

    @property
    def triples_dir(self) -> str:
        return os.path.join(self.out_dir, "triples")

    def delta_table(self) -> pa.Table:
        return deltas_mod.read_log(self.delta_dir)

    def delta_dataset(self, upto_ts=None):
        return deltas_mod.read_log_dataset(self.delta_dir, upto_ts)


def _snapshot_times(raw_ds) -> list:
    """Distinct crawl snapshot instants (small; per-batch partial distinct
    then grouped distinct — never a full collect of the corpus)."""

    def distinct(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"warc_ts": batch["warc_ts"].cast(pa.timestamp("s")).unique()}
        )

    rows = (
        raw_ds.select_columns(["warc_ts"])
        .map_batches(distinct, batch_format="pyarrow")
        .groupby("warc_ts")
        .count()
        .take_all()
    )
    import pandas as pd

    return sorted(int(pd.Timestamp(r["warc_ts"]).timestamp()) for r in rows)


def build(
    pages,
    out_dir: str,
    *,
    gazetteer: dict,
    num_partitions: int = 16,
    resume: bool = True,
    batch_size: int = 1024,
    enforce_digest: str = "raise",
    write_triples: bool = True,
    canonical_map: str = "auto",
) -> BuildResult:
    """Run the full build. ``pages`` is a Parquet path/dir or a Dataset.

    Ray must already be initialised by the caller (driver-owned session).

    The NER / linker / serializer stages run as task-mode functions whose
    state is memoized once per shared-pool worker: their per-worker setup
    is cheap (compiled regexes + two small broadcast dicts fetched once
    via ``ray.get``), so a dedicated actor pool per stage would pay a
    fresh process spawn per run for nothing.

    ``canonical_map``: ``"driver"`` reduces the surface vocabulary to a
    dict on the driver and broadcasts it — right while the vocabulary is
    bounded (gazetteer-anchored domains). ``"distributed"`` is the 100×
    path (:mod:`..stages.canonmap`): the map is built by distributed
    min-label propagation, persisted as a hash-partitioned parquet side
    table under ``out_dir/canonical/``, and resolution happens by
    co-partition join — the vocabulary is never collected or broadcast.
    Both paths emit byte-identical delta logs (``test_canonmap.py``
    asserts it). ``"auto"`` (default) runs the shared vocabulary pass
    once (:func:`..stages.canonmap.distinct_surfaces` — both paths need
    exactly this set), counts it, and picks ``driver`` at or below
    :data:`AUTO_VOCAB_THRESHOLD` distinct surfaces, ``distributed`` above —
    measured at sf0.1/32cpus the driver path builds 2.7× faster on a
    7.8k-surface vocabulary (BASELINE.md, round 5), while the driver
    dict's RSS grows linearly with vocabulary and the distributed path
    stays flat. A resumed build is sticky: an existing
    ``canonical/meta.json`` (or ``canonical_map.json``) decides the mode
    before any counting, so resume never flips layout mid-store.
    """
    if canonical_map not in ("auto", "driver", "distributed"):
        raise ValueError(f"canonical_map must be 'auto', 'driver' or "
                         f"'distributed', got {canonical_map!r}")
    os.makedirs(out_dir, exist_ok=True)
    if not resume:
        for sub in ("deltas", "raw", "triples", "canonical"):
            shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
        canon_path = os.path.join(out_dir, "canonical_map.json")
        if os.path.exists(canon_path):
            os.remove(canon_path)
    if canonical_map == "auto":
        canonical_map = _store_layout(out_dir)  # None: gate on the vocabulary
    return _run(pages, out_dir, gazetteer, layout=canonical_map,
                append=False, num_partitions=num_partitions,
                batch_size=batch_size, enforce_digest=enforce_digest,
                write_triples=write_triples)


def build_incremental(
    pages,
    out_dir: str,
    *,
    gazetteer: dict,
    batch_size: int = 1024,
    enforce_digest: str = "raise",
    write_triples: bool = True,
) -> BuildResult:
    """Append a NEW crawl snapshot batch to an EXISTING store — the
    distributed form of the reference's continuously-running writer
    (``src/bin/rdf-diff-writer.rs:45-91`` ingests updates forever; the
    full :func:`build` is the bootstrap, this is every run after).

    ``pages`` must be a complete crawl batch (one or more NEW snapshot
    instants over the whole corpus): like the full build's grid
    semantics, a live graph absent from a new instant is tombstoned.
    The pipeline is the same stage graph as :func:`build` over only the
    new pages; differences:

    - the canonical map is EXTENDED, never rewritten, in the layout the
      store already has — an incremental writer never flips it. A
      ``canonical_map.json`` store gets
      :func:`..stages.canonicalize.extend_canonical_map` (old surfaces
      keep their IRIs so unchanged pages stay byte-identical and
      suppressed); a persisted ``canonical/meta.json`` store gets the
      O(batch) probe of its band/norm indexes
      (:func:`..stages.canonmap.extend_canonical_store`) — no per-batch
      re-cluster of the vocabulary, no driver dict, resolution by
      co-partition join;
    - each partition derives its delta rows against its existing log
      state (stored digests seed suppression; per-graph monotonicity is
      validated before any byte is written) and appends ONE new log
      segment — O(changes) I/O, existing files untouched;
    - the whole append phase runs under :class:`..state.append.StoreWriteLock`
      (single-writer per store, like every other write path);
    - the batch's triples land in their own ``triples/inc_<batch>``
      directory, named by the input path or, for a Dataset, by the
      batch's snapshot instants.

    Partitions are individually all-or-nothing; re-running the same
    batch after a partial failure is safe — already-appended versions
    are suppressed as no-ops — and is also how "nothing changed" runs
    behave (``applied_deltas == 0``).
    """
    success_path = os.path.join(out_dir, "deltas", deltas_mod.SUCCESS_NAME)
    if not os.path.exists(success_path):
        raise ValueError(
            f"no existing store at {os.path.dirname(success_path)!r} — run "
            "build() (or init_log) first; build_incremental only appends"
        )
    delta_dir = os.path.dirname(success_path)
    return _run(pages, out_dir, gazetteer,
                layout=_store_layout(out_dir) or "driver", append=True,
                num_partitions=deltas_mod.num_partitions(delta_dir),
                batch_size=batch_size, enforce_digest=enforce_digest,
                write_triples=write_triples,
                prior_snap=deltas_mod.snapshot_times(delta_dir))


def _store_layout(out_dir: str) -> str | None:
    """The canonical-map layout a store already has (None: no map yet)."""
    from ..stages.canonmap import META_NAME

    if os.path.exists(os.path.join(out_dir, "canonical", META_NAME)):
        return "distributed"
    if os.path.exists(os.path.join(out_dir, "canonical_map.json")):
        return "driver"
    return None


def _run(pages, out_dir: str, gazetteer: dict, *, layout, append: bool,
         num_partitions: int, batch_size: int, enforce_digest: str,
         write_triples: bool, prior_snap=()) -> BuildResult:
    """The one stage graph behind :func:`build` (``append=False``) and
    :func:`build_incremental` (``append=True``). ``layout`` is the
    canonical map's; None lets one vocabulary pass pick it."""
    from concurrent.futures import ThreadPoolExecutor

    from .. import fs as _fs
    from .._bootstrap import ensure_importable
    from ..stages import canonicalize as canon_mod
    from ..stages import canonmap as canonmap_mod
    from ..state import append as append_mod

    ensure_importable()
    t0 = time.monotonic()
    stage_wall: dict = {}
    _last = [t0]

    def _mark(name: str) -> None:
        now = time.monotonic()
        stage_wall[name] = round(now - _last[0], 3)
        _last[0] = now

    delta_dir = os.path.join(out_dir, "deltas")
    canon_path = os.path.join(out_dir, "canonical_map.json")
    canon_dir = os.path.join(out_dir, "canonical")

    # -- stage 1: extract + relations → raw checkpoint ----------------------
    # an append checkpoints per input batch, keyed by its path, so a killed
    # run resumes without re-extracting; a Dataset batch has no stable
    # name, so its checkpoint is always rebuilt
    batch_key = None
    if not append:
        raw_dir = os.path.join(out_dir, "raw")
    elif isinstance(pages, str):
        batch_key = hashlib.sha1(pages.encode()).hexdigest()[:12]
        raw_dir = os.path.join(out_dir, f"raw_inc_{batch_key}")
    else:
        raw_dir = os.path.join(out_dir, "raw_inc_dataset")
    raw_success = os.path.join(raw_dir, "_SUCCESS")
    if not os.path.exists(raw_success) or (append and batch_key is None):
        if isinstance(pages, str):
            # parallelism comes from file/row-group granularity; never
            # oversplit (splitting inside a row group re-decodes it whole)
            ds = rd.read_parquet(pages, columns=PAGE_COLUMNS)
        else:
            ds = pages
        raw = ds.map_batches(
            extract_batch,
            fn_kwargs={"enforce": enforce_digest},
            batch_format="pyarrow",
            batch_size=batch_size,
        ).map_batches(
            ner_mod.page_relations_batch,
            batch_format="pyarrow",
            batch_size=batch_size,
        )
        shutil.rmtree(raw_dir, ignore_errors=True)
        raw.write_parquet(raw_dir)
        with open(raw_success, "w") as f:
            f.write("{}")
    _mark("extract_ner_raw")
    raw_ds = rd.read_parquet(raw_dir)

    # -- stage 2: canonical map (persisted; an append extends it) -----------
    def _canon():
        nonlocal layout
        surf = None
        if layout is None:
            # a store without a map: one shared vocabulary pass picks
            surf = canonmap_mod.distinct_surfaces(raw_ds,
                                                  gazetteer).materialize()
            layout = ("distributed" if surf.count() > AUTO_VOCAB_THRESHOLD
                      else "driver")
        if layout == "distributed":
            # never collected — resolution joins the persisted store
            # (resume-safe: meta.json is written last)
            if append:
                canonmap_mod.extend_canonical_store(raw_ds, gazetteer,
                                                    canon_dir)
            elif not os.path.exists(os.path.join(canon_dir,
                                                 canonmap_mod.META_NAME)):
                canonmap_mod.build_canonical_store(raw_ds, gazetteer,
                                                   canon_dir, surf_ds=surf)
            return None
        old = None
        if os.path.exists(canon_path):
            with open(canon_path) as f:
                old = json.load(f)
        if append:  # old assignments are immutable
            cm = canon_mod.extend_canonical_map(old or {}, raw_ds, gazetteer)
        elif old is not None:
            return old
        else:
            cm = build_canonical_map(raw_ds, gazetteer, surf_ds=surf)
        _fs.put_text(canon_path, json.dumps(cm, sort_keys=True))
        return cm

    with ThreadPoolExecutor(max_workers=1) as tpe:
        # the snapshot grid runs concurrently with the gate pass and the
        # map — all are independent consumers of raw_ds
        fut_snap = tpe.submit(_snapshot_times, raw_ds)
        canon_dict = _canon()
        snap = fut_snap.result()
    if canon_dict is None:
        canon_map_size = canonmap_mod.map_size(canon_dir)
    else:
        canon_map_size = len(canon_dict)
        refs = {"gazetteer_ref": ray.put(gazetteer),
                "canonical_map_ref": ray.put(canon_dict)}
    _mark("canonical_map_and_snapshots")

    # -- stage 3: versions → delta sink (THE shuffle) ‖ triples sink --------
    done = (frozenset() if append
            else frozenset(deltas_mod.completed_partitions(delta_dir)))

    def _todo(ds, key: str):
        # resume prune at the read; the triples sink sees every row
        if not done:
            return ds
        return ds.map_batches(
            deltas_mod.filter_completed,
            fn_kwargs={"key": key, "num_partitions": num_partitions,
                       "done": done},
            batch_format="pyarrow",
        )

    if layout == "distributed":
        resolved = canonmap_mod.resolve_triples(raw_ds, canon_dir)
        if write_triples:
            # two consumers (delta log + triples sink) — materialize the
            # resolved rows ONCE instead of executing the explode + two
            # co-partition joins twice (measured: the resolve pipeline
            # is 5.1 s at sf0.1; the object store holds/spills the
            # bounded resolved rows, and at 100 TB this is the stage
            # you'd checkpoint to parquet anyway)
            resolved = resolved.materialize()
        triples = canonmap_mod.triples_dataset(resolved)
        versions = _todo(resolved, "graph_id")
        # serialization folds into the delta partition groupby (same
        # graph-hash key end-to-end)
        serialize = canonmap_mod.serialize_partition_frame
    else:
        triples = raw_ds.map_batches(
            link_mod.emit_triples_batch, fn_kwargs=refs,
            batch_format="pyarrow", batch_size=batch_size,
        )
        versions = _todo(raw_ds, "url").map_batches(
            link_mod.serialize_versions_batch, fn_kwargs=refs,
            batch_format="pyarrow", batch_size=batch_size,
        )
        serialize = None
    versions = versions.map_batches(
        add_partition_id,
        fn_kwargs={"key": "graph_id", "num_partitions": num_partitions},
        batch_format="pyarrow",
    )
    if append:
        # one marker row per partition: partitions with no new pages are
        # visited too, since their live graphs still need tombstones
        seed = append_mod.incremental_seed_rows(num_partitions)
        if layout == "distributed":
            seed = canonmap_mod.marker_rows(seed)
        versions = versions.union(rd.from_arrow(seed))
        sink = append_mod.make_incremental_appender(delta_dir, snap)
        lock = append_mod.StoreWriteLock(delta_dir)
        # a Dataset batch is named by its instants, so a re-run of the
        # same batch overwrites only its own triples
        batch_key = batch_key or "ts" + hashlib.sha1(
            ",".join(map(str, snap)).encode()).hexdigest()[:12]
        triples_dir = os.path.join(out_dir, "triples", f"inc_{batch_key}")
    else:
        sink = deltas_mod.make_partition_writer(delta_dir, snap)
        lock = contextlib.nullcontext()
        triples_dir = os.path.join(out_dir, "triples")

    def write_group(group):
        return sink(group if serialize is None else serialize(group))

    def run_delta_log():
        return (
            versions.groupby("partition_id")
            .map_groups(write_group, batch_format="pandas")
            .take_all()
        )

    def run_triples():
        if write_triples:
            shutil.rmtree(triples_dir, ignore_errors=True)
            triples.write_parquet(triples_dir)

    # the delta shuffle and the triples map are independent consumers of
    # raw — run their two Dataset executions concurrently so the cluster
    # is never idle between the shuffle's barrier and the triples map
    with lock, ThreadPoolExecutor(max_workers=2) as pool_exec:
        fut_deltas = pool_exec.submit(run_delta_log)
        fut_triples = pool_exec.submit(run_triples)
        rows = fut_deltas.result()
        fut_triples.result()
        _mark("delta_log_and_triples")
        deltas_mod.mark_success(
            delta_dir,
            {
                "num_partitions": num_partitions,
                "partitions_written": len(rows),
                "partitions_resumed": len(done),
                "snapshot_times": sorted(set(prior_snap) | set(snap)),
            },
        )

    # operational metrics artifact (the reference's GET /metrics analog,
    # src/metrics/mod.rs): stage walls + per-partition manifest lineage
    # rendered as Prometheus text next to the log
    from ..metrics import BUCKETS_PARSE, MetricsRegistry, record_build_manifests

    registry = MetricsRegistry()
    for stage, wall in stage_wall.items():
        registry.observe("build_stage_seconds", float(wall),
                         "Build stage wall times", BUCKETS_PARSE)
        registry.counter_inc("build_stages_total", f'stage="{stage}"')
    record_build_manifests(registry, delta_dir)
    with open(os.path.join(out_dir, "metrics.txt"), "w") as f:
        f.write(registry.render_prometheus())
    return BuildResult(
        out_dir=out_dir,
        num_partitions=num_partitions,
        manifests=[
            deltas_mod.read_manifest(delta_dir, pid)
            for pid in sorted(deltas_mod.completed_partitions(delta_dir))
        ],
        canonical_map_size=canon_map_size,
        wall_s=time.monotonic() - t0,
        resumed_partitions=len(done),
        stage_wall_s=stage_wall,
        applied_deltas=(int(sum(r["applied"] for r in rows)) if append
                        else -1),
    )


_INGEST_LANG_ID = None


def _ingest_shape_batch(batch):
    """WARC record batch → build-shaped pages rows (module-level so the
    task-mode LangId memoizes once per worker, the lang_id_batch
    pattern)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.charset import decode_html, sniff_charsets
    from ..functions.text import LangId

    global _INGEST_LANG_ID
    if _INGEST_LANG_ID is None:
        _INGEST_LANG_ID = LangId()
    ct = (batch["content_type"]
          if "content_type" in batch.column_names else None)
    cs = sniff_charsets(batch["html"], ct)
    decoded = decode_html(batch["html"], cs)
    html8 = pc.cast(pc.fill_null(decoded, ""), pa.binary())
    langs = [_INGEST_LANG_ID.classify(t or "")
             for t in decoded.to_pylist()]
    return pa.table({
        "url": batch["url"],
        "warc_ts": batch["warc_ts"],
        "html": html8,
        "lang": pa.array(langs, pa.string()),
        "charset": cs,
    })


def pages_from_warc(warc, *, min_status: int = 200,
                    max_status: int = 299):
    """WARC archive(s) → a build-ready pages Dataset — the raw-crawl
    front door: ``read_warc`` streams records, charset sniff + decode
    transcodes every page to utf-8 bytes (so the extractor's utf-8
    decode is exact for shift_jis/windows-125x/utf-16 pages, not
    replace-mangled), and the n-gram LangId fills ``lang``. Output
    columns ``(url, warc_ts, html, lang, charset)`` feed
    :func:`build`/:func:`build_incremental` directly (no ``text``
    column — real crawls have no extraction ground truth, so digest
    enforcement is naturally off). Non-2xx responses are dropped (the
    crawler stored them; the KG should not ingest error pages).

    Everything streams: per-record gzip members never materialize an
    archive, the charset pass is vectorized per batch, and LangId state
    memoizes once per worker.
    """
    import pyarrow.compute as pc

    from ..sources.warc import read_warc

    ds = warc if hasattr(warc, "map_batches") else read_warc(warc)

    def keep(batch):
        st = pc.fill_null(batch["http_status"], -1)
        return batch.filter(pc.and_(
            pc.greater_equal(st, min_status),
            pc.less_equal(st, max_status)))

    return (ds.map_batches(keep, batch_format="pyarrow")
            .map_batches(_ingest_shape_batch, batch_format="pyarrow"))
