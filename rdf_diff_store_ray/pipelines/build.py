"""The flagship build: pages → versioned KG delta log (SURVEY §3.4).

Stage graph (streaming execution, backpressured; ONE corpus-scale shuffle)::

    read_parquet(pages, columns=[url, warc_ts, html, text, lang])
      └─ map_batches(extract_batch)            # stateless, zero-copy Arrow; digest invariant
      └─ map_batches(page_relations_batch)     # NER + relation extraction → nested triples
      └─ write_parquet(run_dir/raw)            # stage checkpoint (reused on resume)
    raw ─ canonicalize (vocabulary-scale shuffle) → surface→IRI map
        → persisted to canonical_map.json, ray.put once (broadcast)
    raw ─ filter completed partitions (resume prune at the read)
        ─ map_batches(serialize_versions_batch)  # per-(url, ts) snapshot, NO shuffle
        ─ add partition_id = stable_hash(url) % P
        ─ groupby(partition_id).map_groups(DeltaPartitionWriter)   # THE shuffle + sink
    raw ─ map_batches(emit_triples_batch) → write_parquet(run_dir/triples)

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

    def delta_files(self, upto_ts=None) -> list:
        """All log files, or — with ``upto_ts`` — only those that can
        contribute to the state at that instant (footer-stat pruning;
        see :func:`state.reconstruct.prune_log_files`). At least one
        file is always returned so downstream readers keep the delta
        schema even when ``upto_ts`` predates the whole history (the
        in-stream ``warc_ts <= ts`` filter then yields zero rows)."""
        import glob

        files = sorted(
            glob.glob(os.path.join(self.delta_dir, "partition=*", "*.parquet"))
        )
        if upto_ts is None or not files:
            return files
        from ..state.reconstruct import prune_log_files

        return prune_log_files(files, upto_ts) or files[:1]

    def delta_table(self) -> pa.Table:
        import pyarrow.dataset as pads

        return pads.dataset(self.delta_files()).to_table()

    def delta_dataset(self, upto_ts=None):
        return rd.read_parquet(self.delta_files(upto_ts))


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
    auto_vocab_threshold: int | None = None,
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
    ``auto_vocab_threshold`` distinct surfaces, ``distributed`` above —
    measured at sf0.1/32cpus the driver path builds 2.7× faster on a
    7.8k-surface vocabulary (BASELINE.md, round 5), while the driver
    dict's RSS grows linearly with vocabulary and the distributed path
    stays flat. A resumed build is sticky: an existing
    ``canonical/meta.json`` (or ``canonical_map.json``) decides the mode
    before any counting, so resume never flips layout mid-store.
    ``auto_vocab_threshold``: explicit argument wins; when None (the
    default) the ``KG_AUTO_VOCAB_THRESHOLD`` environment variable
    supplies the threshold, falling back to 250,000.
    """
    from .._bootstrap import ensure_importable

    ensure_importable()
    t0 = time.monotonic()
    stage_wall: dict = {}
    _last = [t0]

    def _mark(name: str) -> None:
        now = time.monotonic()
        stage_wall[name] = round(now - _last[0], 3)
        _last[0] = now

    if canonical_map not in ("auto", "driver", "distributed"):
        raise ValueError(f"canonical_map must be 'auto', 'driver' or "
                         f"'distributed', got {canonical_map!r}")
    os.makedirs(out_dir, exist_ok=True)
    delta_dir = os.path.join(out_dir, "deltas")
    raw_dir = os.path.join(out_dir, "raw")
    canon_path = os.path.join(out_dir, "canonical_map.json")
    canon_dir = os.path.join(out_dir, "canonical")
    if not resume:
        for sub in ("deltas", "raw", "triples", "canonical"):
            shutil.rmtree(os.path.join(out_dir, sub), ignore_errors=True)
        if os.path.exists(canon_path):
            os.remove(canon_path)
    done = deltas_mod.completed_partitions(delta_dir)

    # -- stage 1: extract + relations → raw checkpoint (always full input) ---
    raw_success = os.path.join(raw_dir, "_SUCCESS")
    if not os.path.exists(raw_success):
        if isinstance(pages, str):
            # parallelism comes from file/row-group granularity; never
            # oversplit (splitting inside a row group re-decodes it whole)
            ds = rd.read_parquet(pages, columns=PAGE_COLUMNS)
        else:
            ds = pages
        extracted = ds.map_batches(
            extract_batch,
            fn_kwargs={"enforce": enforce_digest},
            batch_format="pyarrow",
            batch_size=batch_size,
        )
        raw = extracted.map_batches(
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

    # -- stage 2: canonicalization (vocabulary-scale; persisted for resume) --
    # the snapshot grid is an independent small aggregation over raw —
    # computed concurrently with canonicalization so neither waits
    from concurrent.futures import ThreadPoolExecutor as _TPE

    from ..stages import canonmap as canonmap_mod

    shared_surf = None
    if canonical_map == "auto":
        # sticky resume: an existing layout decides before any counting
        if os.path.exists(os.path.join(canon_dir, canonmap_mod.META_NAME)):
            canonical_map = "distributed"
        elif os.path.exists(canon_path):
            canonical_map = "driver"

    def _gate() -> str:
        nonlocal shared_surf
        # precedence: explicit argument > env override > built-in 250k
        thresh = (auto_vocab_threshold
                  if auto_vocab_threshold is not None
                  else int(os.environ.get("KG_AUTO_VOCAB_THRESHOLD",
                                          250_000)))
        shared_surf = canonmap_mod.distinct_surfaces(
            raw_ds, gazetteer).materialize()
        n_vocab = shared_surf.count()
        return "distributed" if n_vocab > thresh else "driver"

    def _canon():
        if canonical_map == "distributed":
            # persisted store (resume-safe: meta.json is written last)
            if not os.path.exists(os.path.join(canon_dir,
                                               canonmap_mod.META_NAME)):
                canonmap_mod.build_canonical_store(raw_ds, gazetteer,
                                                   canon_dir,
                                                   surf_ds=shared_surf)
            return None  # never collected — resolution joins the store
        if os.path.exists(canon_path):
            with open(canon_path) as f:
                return json.load(f)
        cm = build_canonical_map(raw_ds, gazetteer, surf_ds=shared_surf)
        from .. import fs as _fs

        _fs.put_text(canon_path, json.dumps(cm, sort_keys=True))
        return cm

    with _TPE(max_workers=1) as tpe:
        # the snapshot grid runs concurrently with the gate pass and the
        # map build — all are independent consumers of raw_ds
        fut_snap = tpe.submit(_snapshot_times, raw_ds)
        if canonical_map == "auto":
            canonical_map = _gate()
        canon_dict = _canon()
        snapshot_times = fut_snap.result()
    if canon_dict is None:
        canon_map_size = canonmap_mod.map_size(canon_dir)
        gaz_ref = canon_ref = None
    else:
        canon_map_size = len(canon_dict)
        gaz_ref = ray.put(gazetteer)
        canon_ref = ray.put(canon_dict)
    _mark("canonical_map_and_snapshots")

    # -- stage 3: versions → delta log (THE shuffle) -------------------------
    if canonical_map == "distributed":
        # resolve by co-partition join; serialization folds into the
        # delta partition groupby (same graph-hash key end-to-end)
        resolved_all = canonmap_mod.resolve_triples(raw_ds, canon_dir)
        if write_triples:
            # two consumers (delta log + triples sink) — materialize the
            # resolved rows ONCE instead of executing the explode + two
            # co-partition joins twice (measured: the resolve pipeline
            # is 5.1 s at sf0.1; the object store holds/spills the
            # bounded resolved rows, and at 100 TB this is the stage
            # you'd checkpoint to parquet anyway)
            resolved_all = resolved_all.materialize()
        resolved = resolved_all  # triples sink sees the UNfiltered rows
        if done:
            resolved = resolved.map_batches(
                deltas_mod.filter_completed,
                fn_kwargs={
                    "key": "graph_id",
                    "num_partitions": num_partitions,
                    "done": frozenset(done),
                },
                batch_format="pyarrow",
            )
        versions = resolved.map_batches(
            add_partition_id,
            fn_kwargs={"key": "graph_id", "num_partitions": num_partitions},
            batch_format="pyarrow",
        )
        base_writer = deltas_mod.make_partition_writer(
            delta_dir, snapshot_times, num_partitions
        )

        def write_resolved_partition(group):
            return base_writer(
                canonmap_mod.serialize_partition_frame(group)
            )

        def run_delta_log():
            return (
                versions.groupby("partition_id")
                .map_groups(write_resolved_partition, batch_format="pandas")
                .take_all()
            )

        def run_triples():
            if not write_triples:
                return None
            triples_dir = os.path.join(out_dir, "triples")
            shutil.rmtree(triples_dir, ignore_errors=True)
            canonmap_mod.triples_dataset(resolved_all).write_parquet(
                triples_dir)
            return None

        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=2) as pool_exec:
            fut_deltas = pool_exec.submit(run_delta_log)
            fut_triples = pool_exec.submit(run_triples)
            manifests = fut_deltas.result()
            fut_triples.result()
        _mark("delta_log_and_triples")
        return _finish_build(out_dir, delta_dir, num_partitions, manifests,
                             done, snapshot_times, canon_map_size,
                             stage_wall, t0)

    todo_ds = raw_ds
    if done:
        todo_ds = raw_ds.map_batches(
            deltas_mod.filter_completed,
            fn_kwargs={
                "key": "url",
                "num_partitions": num_partitions,
                "done": frozenset(done),
            },
            batch_format="pyarrow",
        )
    serialized = todo_ds.map_batches(
        link_mod.serialize_versions_batch,
        fn_kwargs={
            "gazetteer_ref": gaz_ref,
            "canonical_map_ref": canon_ref,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    versions = serialized.map_batches(
        add_partition_id,
        fn_kwargs={"key": "graph_id", "num_partitions": num_partitions},
        batch_format="pyarrow",
    )
    def run_delta_log():
        return (
            versions.groupby("partition_id")
            .map_groups(
                deltas_mod.make_partition_writer(
                    delta_dir, snapshot_times, num_partitions
                ),
                batch_format="pandas",
            )
            .take_all()
        )

    def run_triples():
        if not write_triples:
            return None
        triples_dir = os.path.join(out_dir, "triples")
        shutil.rmtree(triples_dir, ignore_errors=True)
        raw_ds.map_batches(
            link_mod.emit_triples_batch,
            fn_kwargs={
                "gazetteer_ref": gaz_ref,
                "canonical_map_ref": canon_ref,
            },
            batch_format="pyarrow",
            batch_size=batch_size,
        ).write_parquet(triples_dir)
        return None

    # stages 3b and 4 are independent consumers of raw_ds — run their two
    # Dataset executions concurrently so the cluster is never idle between
    # the delta shuffle's barrier and the triples map
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=2) as pool_exec:
        fut_deltas = pool_exec.submit(run_delta_log)
        fut_triples = pool_exec.submit(run_triples)
        manifests = fut_deltas.result()
        fut_triples.result()
    _mark("delta_log_and_triples")
    return _finish_build(out_dir, delta_dir, num_partitions, manifests,
                         done, snapshot_times, canon_map_size,
                         stage_wall, t0)


def _finish_build(out_dir, delta_dir, num_partitions, manifests, done,
                  snapshot_times, canon_map_size, stage_wall,
                  t0) -> BuildResult:
    all_manifests = [
        deltas_mod.read_manifest(delta_dir, pid)
        for pid in sorted(deltas_mod.completed_partitions(delta_dir))
    ]
    deltas_mod.mark_success(
        delta_dir,
        {
            "num_partitions": num_partitions,
            "partitions_written": len(manifests),
            "partitions_resumed": len(done),
            "snapshot_times": snapshot_times,
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
        manifests=all_manifests,
        canonical_map_size=canon_map_size,
        wall_s=time.monotonic() - t0,
        resumed_partitions=len(done),
        stage_wall_s=stage_wall,
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


def build_incremental(
    pages,
    out_dir: str,
    *,
    gazetteer: dict,
    batch_size: int = 1024,
    enforce_digest: str = "raise",
    write_triples: bool = True,
    canonical_map: str = "auto",
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

    - the canonical map is EXTENDED, never rewritten
      (:func:`..stages.canonicalize.extend_canonical_map` — old surfaces
      keep their IRIs so unchanged pages stay byte-identical and
      suppressed). With ``canonical_map="distributed"`` (requires a store
      built the same way) the extension is the O(batch) probe of the
      persisted band/norm indexes (:func:`..stages.canonmap.
      extend_canonical_store`) — no per-batch re-cluster of the
      vocabulary, no driver dict, resolution by co-partition join.
      ``"auto"`` (default) follows the store's own layout: a persisted
      ``canonical/meta.json`` selects the distributed O(batch)
      extension, a ``canonical_map.json`` the driver extension — an
      incremental writer never flips the layout it appends to;
    - each partition derives its delta rows against its existing log
      state (stored digests seed suppression; per-graph monotonicity is
      validated before any byte is written) and appends ONE new log
      segment — O(changes) I/O, existing files untouched;
    - the whole append phase runs under :class:`..state.append.StoreWriteLock`
      (single-writer per store, like every other write path).

    Partitions are individually all-or-nothing; re-running the same
    batch after a partial failure is safe — already-appended versions
    are suppressed as no-ops — and is also how "nothing changed" runs
    behave (``applied_deltas == 0``).
    """
    import hashlib

    from .._bootstrap import ensure_importable
    from ..state.append import (
        StoreWriteLock,
        incremental_seed_rows,
        make_incremental_appender,
    )
    from ..stages.canonicalize import extend_canonical_map

    ensure_importable()
    t0 = time.monotonic()
    stage_wall: dict = {}
    _last = [t0]

    def _mark(name: str) -> None:
        now = time.monotonic()
        stage_wall[name] = round(now - _last[0], 3)
        _last[0] = now

    delta_dir = os.path.join(out_dir, "deltas")
    success_path = os.path.join(delta_dir, deltas_mod.SUCCESS_NAME)
    if not os.path.exists(success_path):
        raise ValueError(
            f"no existing store at {delta_dir!r} — run build() (or "
            "init_log) first; build_incremental only appends"
        )
    with open(success_path) as f:
        meta = json.load(f)
    num_partitions = int(meta["num_partitions"])
    old_snap = [int(t) for t in meta.get("snapshot_times", [])]
    canon_path = os.path.join(out_dir, "canonical_map.json")
    old_map = {}
    if os.path.exists(canon_path):
        with open(canon_path) as f:
            old_map = json.load(f)

    # -- stage 1: extract + relations over the NEW pages only ---------------
    # checkpointed per input batch (keyed by the input path) so a killed
    # incremental run resumes without re-extracting
    if isinstance(pages, str):
        key = hashlib.sha1(pages.encode()).hexdigest()[:12]
        ds = rd.read_parquet(pages, columns=PAGE_COLUMNS)
    else:
        key = "dataset"
        ds = pages
    raw_dir = os.path.join(out_dir, f"raw_inc_{key}")
    raw_success = os.path.join(raw_dir, "_SUCCESS")
    if key == "dataset" or not os.path.exists(raw_success):
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

    # -- stage 2: extend the canonical map (old assignments immutable) ------
    from ..stages import canonmap as canonmap_mod

    canon_dir = os.path.join(out_dir, "canonical")
    new_snap = _snapshot_times(raw_ds)
    if canonical_map == "auto":
        # follow the store's own layout — appends never flip it
        canonical_map = (
            "distributed"
            if os.path.exists(os.path.join(canon_dir,
                                           canonmap_mod.META_NAME))
            else "driver"
        )
    if canonical_map == "distributed":
        if not os.path.exists(os.path.join(canon_dir,
                                           canonmap_mod.META_NAME)):
            raise ValueError(
                f"no persisted canonical store under {canon_dir!r} — "
                "bootstrap with build(..., canonical_map='distributed')"
            )
        canonmap_mod.extend_canonical_store(raw_ds, gazetteer, canon_dir)
        canon_map_size = canonmap_mod.map_size(canon_dir)
    else:
        canon_dict = extend_canonical_map(old_map, raw_ds, gazetteer)
        from .. import fs as _fs

        _fs.put_text(canon_path, json.dumps(canon_dict, sort_keys=True))
        gaz_ref = ray.put(gazetteer)
        canon_ref = ray.put(canon_dict)
        canon_map_size = len(canon_dict)
    _mark("canonical_map_and_snapshots")

    # -- stage 3: versions → per-partition segment appends (locked) ---------
    if canonical_map == "distributed":
        resolved = canonmap_mod.resolve_triples(raw_ds, canon_dir)
        if write_triples:
            # the triples sink consumes the same resolved rows below —
            # one materialize instead of a second explode + two-join run
            resolved = resolved.materialize()
        _s_versions_pid = pa.schema(
            [("graph_id", pa.string()), ("warc_ts", pa.timestamp("s")),
             ("delta_text", pa.large_string()), ("digest", pa.binary()),
             ("partition_id", pa.int32())]
        )
        serialized = (
            resolved.map_batches(
                add_partition_id,
                fn_kwargs={"key": "graph_id",
                           "num_partitions": num_partitions},
                batch_format="pyarrow",
            )
            .groupby("partition_id")
            .map_groups(canonmap_mod.serialize_partition_frame,
                        batch_format="pandas")
            .map_batches(
                lambda b: b.select(_s_versions_pid.names).cast(
                    _s_versions_pid),
                batch_format="pyarrow",
            )
        )
        versions = serialized.union(
            rd.from_arrow(incremental_seed_rows(num_partitions))
        )
    else:
        serialized = raw_ds.map_batches(
            link_mod.serialize_versions_batch,
            fn_kwargs={
                "gazetteer_ref": gaz_ref,
                "canonical_map_ref": canon_ref,
            },
            batch_format="pyarrow",
            batch_size=batch_size,
        ).map_batches(
            add_partition_id,
            fn_kwargs={"key": "graph_id", "num_partitions": num_partitions},
            batch_format="pyarrow",
        )
        versions = serialized.union(
            rd.from_arrow(incremental_seed_rows(num_partitions))
        )

    with StoreWriteLock(delta_dir):
        rows = (
            versions.groupby("partition_id")
            .map_groups(
                make_incremental_appender(delta_dir, new_snap),
                batch_format="pandas",
            )
            .take_all()
        )
        deltas_mod.mark_success(
            delta_dir,
            {
                "num_partitions": num_partitions,
                "partitions_written": num_partitions,
                "partitions_resumed": 0,
                "snapshot_times": sorted(set(old_snap) | set(new_snap)),
            },
        )
    applied = int(sum(r["applied"] for r in rows))
    if write_triples:
        triples_dir = os.path.join(out_dir, "triples", f"inc_{key}")
        shutil.rmtree(triples_dir, ignore_errors=True)
        if canonical_map == "distributed":
            canonmap_mod.triples_dataset(resolved).write_parquet(
                triples_dir)
        else:
            raw_ds.map_batches(
                link_mod.emit_triples_batch,
                fn_kwargs={
                    "gazetteer_ref": gaz_ref,
                    "canonical_map_ref": canon_ref,
                },
                batch_format="pyarrow",
                batch_size=batch_size,
            ).write_parquet(triples_dir)
    _mark("delta_log_and_triples")

    all_manifests = [
        deltas_mod.read_manifest(delta_dir, pid)
        for pid in sorted(deltas_mod.completed_partitions(delta_dir))
    ]
    return BuildResult(
        out_dir=out_dir,
        num_partitions=num_partitions,
        manifests=all_manifests,
        canonical_map_size=canon_map_size,
        wall_s=time.monotonic() - t0,
        resumed_partitions=0,
        stage_wall_s=stage_wall,
        applied_deltas=applied,
    )
