"""Command-line surface: everything a user of the reference's two HTTP
services does, as subcommands over the Parquet delta log.

    python -m rdf_diff_store_ray build --pages pages.parquet --out /kg \
        --gazetteer gazetteer.json --partitions 32
    python -m rdf_diff_store_ray init --store /kg/deltas --partitions 8
    python -m rdf_diff_store_ray append --store /kg/deltas --graph URL \
        --file graph.nt --ts 1700000000        # POST /api/graphs
    python -m rdf_diff_store_ray delete --store /kg/deltas --graph URL \
        --ts 1700000100                        # DELETE /api/graphs?id=
    python -m rdf_diff_store_ray graphs-at --store /kg/deltas --ts TS
    python -m rdf_diff_store_ray query --store /kg/deltas --ts TS \
        --bgp '?s <https://kg.example/prop/acquired> ?o'
    python -m rdf_diff_store_ray metadata --store /kg/deltas

This module owns a Ray session (guarded — a driver that pre-initialised
Ray keeps its session); the commit subcommands (append, delete, update)
run in this process and start none. Read paths print to stdout; logs go
to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray() -> None:
    import os

    import ray

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS points at the cluster; the
        # default stays a local session for standalone CLI use
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_build(args) -> int:
    _ensure_ray()
    from .pipelines.build import build

    with open(args.gazetteer) as f:
        gaz = json.load(f)
    pages = args.pages
    if args.from_warc:
        from .pipelines.build import pages_from_warc

        pages = pages_from_warc(args.pages)
    res = build(
        pages,
        args.out,
        gazetteer=gaz,
        num_partitions=args.partitions,
        resume=not args.no_resume,
        canonical_map=args.canonical_map,
    )
    print(json.dumps({
        "out_dir": res.out_dir,
        "partitions": res.num_partitions,
        "resumed_partitions": res.resumed_partitions,
        "canonical_map_size": res.canonical_map_size,
        "wall_s": round(res.wall_s, 3),
        "stage_wall_s": res.stage_wall_s,
    }))
    return 0


def cmd_build_inc(args) -> int:
    _ensure_ray()
    from .pipelines.build import build_incremental

    with open(args.gazetteer) as f:
        gaz = json.load(f)
    res = build_incremental(args.pages, args.out, gazetteer=gaz)
    print(json.dumps({
        "out_dir": res.out_dir,
        "partitions": res.num_partitions,
        "applied_deltas": res.applied_deltas,
        "canonical_map_size": res.canonical_map_size,
        "wall_s": round(res.wall_s, 3),
        "stage_wall_s": res.stage_wall_s,
    }))
    return 0


def cmd_init(args) -> int:
    from .state.append import init_log

    init_log(args.store, num_partitions=args.partitions)
    print(json.dumps({"store": args.store, "partitions": args.partitions}))
    return 0


def cmd_append(args) -> int:
    from .state.append import append_graphs

    from .state.append import Graph

    text = open(args.file).read() if args.file else (args.text or "")
    g = Graph(id=args.graph, graph=text, format=args.format)
    n = append_graphs(args.store, {args.graph: g}, args.ts)
    print(json.dumps({"applied": n, "suppressed": n == 0}))
    return 0


def cmd_delete(args) -> int:
    from .state.append import delete_graphs

    n = delete_graphs(args.store, [args.graph], args.ts)
    print(json.dumps({"applied": n}))
    return 0


def cmd_update(args) -> int:
    from .state.update import sparql_update

    text = open(args.file).read() if args.file else (args.update or "")
    if not text.strip():
        raise SystemExit("empty update: pass the update string or --file")
    print(json.dumps(sparql_update(args.store, text, args.ts)))
    return 0


def cmd_compact(args) -> int:
    _ensure_ray()
    from .state.append import compact_log

    n = compact_log(args.store, min_segments=args.min_segments)
    print(json.dumps({"compacted_partitions": n}))
    return 0


def cmd_fsck(args) -> int:
    _ensure_ray()
    from .state.fsck import fsck_ok, fsck_store

    report = fsck_store(args.store,
                        check_canonical=not args.no_canonical)
    ok = fsck_ok(report)
    print(json.dumps({
        "ok": ok,
        "partitions": report.num_rows,
        "rows": int(sum(report["n_rows"].to_pylist())),
        "violations": {
            c: int(sum(report[c].to_pylist()))
            for c in report.column_names if c.startswith("bad_")
        },
    }))
    return 0 if ok else 1


def cmd_dedup_index_extend(args) -> int:
    _ensure_ray()
    import ray.data as rd

    from .functions.incdedup import extend_minhash_index

    docs = rd.read_parquet(args.docs, columns=["doc_id", "text"])
    stats = extend_minhash_index(
        docs, args.index, num_perm=args.num_perm, bands=args.bands,
        num_partitions=args.partitions, mode=args.mode,
    )
    print(json.dumps({
        "index": args.index,
        "partitions_touched": int(len(stats)),
        "rows_appended": int(stats["rows"].sum()),
    }))
    return 0


def cmd_dedup_index_check(args) -> int:
    _ensure_ray()
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from .functions.incdedup import dedup_against_index

    docs = rd.read_parquet(args.docs, columns=["doc_id", "text"])
    out = dedup_against_index(docs, args.index, min_bands=args.min_bands)
    if args.out:
        out.write_parquet(args.out)
        import pyarrow.dataset as pads

        t = pads.dataset(args.out).to_table(columns=["is_dup"])
        n, d = t.num_rows, int(pc.sum(pc.cast(t["is_dup"], pa.int64())).as_py() or 0)
    else:
        # summary folds per-batch partials; per-doc rows never gather
        def partial(b: "pa.Table") -> "pa.Table":
            return pa.table({
                "n": pa.array([b.num_rows], pa.int64()),
                "d": pa.array(
                    [pc.sum(pc.cast(b["is_dup"], pa.int64())).as_py() or 0],
                    pa.int64(),
                ),
            })

        parts = out.map_batches(partial, batch_format="pyarrow").to_pandas()
        n, d = int(parts["n"].sum()), int(parts["d"].sum())
    print(json.dumps({"n_docs": n, "n_dup": d, "n_kept": n - d}))
    return 0


def cmd_dedup_index_compact(args) -> int:
    from .functions.incdedup import compact_index

    stats = compact_index(args.index)
    print(json.dumps({
        "partitions_compacted": int(len(stats)),
        "segments_merged": int(stats["segments_merged"].sum()) if len(stats) else 0,
    }))
    return 0


def cmd_ann_index_compact(args) -> int:
    from .functions.annindex import compact_ivf_index

    stats = compact_ivf_index(args.index)
    print(json.dumps({
        "lists_compacted": int(len(stats)),
        "segments_merged": int(stats["segments_merged"].sum()) if len(stats) else 0,
    }))
    return 0


def cmd_ann_index_build(args) -> int:
    _ensure_ray()
    import ray.data as rd

    from .functions.annindex import build_ivf_index, extend_ivf_index

    emb = rd.read_parquet(args.embeddings, columns=["vec_id", "embedding"])
    if args.extend:
        stats = extend_ivf_index(emb, args.index)
    else:
        stats = build_ivf_index(
            emb, args.index, n_clusters=args.clusters,
            train_size=args.train_size,
        )
    print(json.dumps({
        "index": args.index,
        "lists_touched": int(len(stats)),
        "rows": int(stats["rows"].sum()),
    }))
    return 0


def cmd_ann_index_query(args) -> int:
    _ensure_ray()
    import pyarrow.parquet as _pq

    from .functions.annindex import ivf_index_topk

    q = _pq.read_table(args.queries, columns=["embedding"])
    out = ivf_index_topk(
        args.index, q["embedding"].to_pylist(), k=args.k, nprobe=args.nprobe
    )
    if args.out:
        _pq.write_table(out, args.out)
        print(json.dumps({"rows": out.num_rows, "out": args.out}))
    else:
        print(json.dumps({
            "rows": out.num_rows,
            "results": out.to_pylist(),
        }))
    return 0


def cmd_text_index_build(args) -> int:
    _ensure_ray()
    import ray.data as rd

    from .functions.textindex import build_text_index, extend_text_index

    docs = rd.read_parquet(args.docs, columns=["doc_id", "text"])
    if args.extend:
        if args.partitions is not None:
            raise SystemExit(
                "--partitions is fixed at build time (pinned in "
                "index.json); it cannot be changed by --extend"
            )
        stats = extend_text_index(docs, args.index)
    else:
        stats = build_text_index(
            docs, args.index,
            num_partitions=(64 if args.partitions is None
                            else args.partitions),
        )
    print(json.dumps({
        "index": args.index,
        "partitions_touched": int(len(stats)),
        "rows": int(stats["rows"].sum()) if len(stats) else 0,
    }))
    return 0


def cmd_text_index_query(args) -> int:
    _ensure_ray()
    import pyarrow.parquet as _pq

    from .functions.textindex import query_text_index

    out = query_text_index(args.index, args.terms, mode=args.mode,
                           score=args.score, limit=args.limit)
    if args.out:
        _pq.write_table(out, args.out)
        print(json.dumps({"rows": out.num_rows, "out": args.out}))
    else:
        print(json.dumps({
            "rows": out.num_rows,
            "results": out.to_pylist(),
        }))
    return 0


def cmd_text_index_compact(args) -> int:
    from .functions.textindex import compact_text_index

    stats = compact_text_index(args.index)
    print(json.dumps({
        "partitions_compacted": int(len(stats)),
        "segments_merged": int(stats["segments_merged"].sum())
        if len(stats) else 0,
    }))
    return 0


def cmd_tokenizer_train(args) -> int:
    _ensure_ray()
    import ray.data as rd

    from .functions.bpe import bpe_train, save_tokenizer
    from .functions.shards import build_vocab

    def docs():
        return rd.read_parquet(args.docs, columns=["doc_id", "text"])

    merges = bpe_train(docs(), n_merges=args.merges,
                       max_words=args.max_words)
    vocab = build_vocab(docs(), merges)
    save_tokenizer(args.out, merges, vocab)
    print(json.dumps({
        "out": args.out,
        "n_merges": len(merges),
        "vocab_size": int(len(vocab)),
    }))
    return 0


def cmd_write_shards(args) -> int:
    _ensure_ray()
    import ray.data as rd

    from .functions.bpe import load_tokenizer
    from .functions.shards import write_training_shards

    merges, vocab = load_tokenizer(args.tokenizer)
    if vocab is None:
        raise SystemExit("tokenizer file has no vocab; re-train with one")

    def docs():
        return rd.read_parquet(args.docs, columns=["doc_id", "text"])

    stats = write_training_shards(
        docs, args.out, merges=merges, vocab=vocab,
        capacity=args.capacity, num_shards=args.shards,
        resume=args.resume,
    )
    print(json.dumps({
        "out": args.out,
        "shards": int(len(stats)),
        "total_seqs": int(stats.attrs["total_seqs"]),
        "total_tokens": int(stats.attrs["total_tokens"]),
    }))
    return 0


def cmd_graphs_at(args) -> int:
    if args.out and (args.turtle or args.prefix):
        raise SystemExit(
            "--out streams canonical N-Triples; it cannot be combined "
            "with --turtle/--prefix (run the Turtle conversion on the "
            "written file instead)"
        )
    if args.out:
        # streamed sink: per-partition spill + k-way merge, never holds
        # the merged document in memory (GET /api/graphs/{ts} at scale)
        _ensure_ray()
        from .query.service import QueryService

        svc = QueryService(args.store)
        try:
            n = svc.graphs_at_to(args.ts, args.out)
        finally:
            svc.shutdown()
        print(json.dumps({"out": args.out, "lines": n}))
        return 0
    from .query.bgp import DiffStoreReader
    from .stages.deltas import read_log

    reader = DiffStoreReader(read_log(args.store, upto_ts=args.ts))
    text = reader.graphs_at(args.ts)
    if args.turtle:
        from .ntriples import parse
        from .turtle import serialize_turtle

        prefixes = dict(kv.split("=", 1) for kv in (args.prefix or []))
        text = serialize_turtle(parse(text), prefixes)
    sys.stdout.write(text)
    return 0


def _parse_services(pairs) -> dict:
    """``--service iri=path`` flags → {iri: DiffStoreReader} map; an
    ``iri=http(s)://...`` value registers a live server instead (wire
    federation via the SPARQL protocol)."""
    from .query.bgp import DiffStoreReader
    from .stages.deltas import read_log

    out = {}
    for kv in pairs or []:
        if "=" not in kv:
            raise SystemExit(f"--service needs iri=path, got {kv!r}")
        iri, path = kv.split("=", 1)
        out[iri] = (path if path.startswith(("http://", "https://"))
                    else DiffStoreReader(read_log(path)))
    return out


def cmd_query(args) -> int:
    from .query.bgp import DiffStoreReader
    from .stages.deltas import read_log

    reader = DiffStoreReader(read_log(args.store, upto_ts=args.ts),
                             services=_parse_services(args.service))
    body, _ = reader.answer(args.ts, args.bgp, args.format)
    print(body, end="" if args.format != "json" else "\n")
    return 0


def cmd_stats(args) -> int:
    """Cheap store summary (no Ray, no row reads)."""
    from .state.stats import store_stats

    print(json.dumps(store_stats(args.store), sort_keys=True))
    return 0


def cmd_sync(args) -> int:
    """Replicate a store's delta log (git-fetch analog)."""
    from .state.sync import sync_store

    out = sync_store(args.src, args.dst, delete=not args.no_delete,
                     lock_src=args.lock_src)
    print(json.dumps(out))
    return 0


def cmd_serve(args) -> int:
    """Run the reference-wire HTTP server over one store (blocks)."""
    _ensure_ray()
    from .server import DiffStoreServer

    services = dict(kv.split("=", 1) for kv in (args.service or []))
    srv = DiffStoreServer(
        args.store, host=args.host, port=args.port,
        api_key=args.api_key, read_only=args.read_only,
        distributed=args.distributed, services=services,
        replica_of=args.replica_of, sync_every=args.sync_every,
    )
    print(json.dumps({"host": args.host, "port": srv.port}), flush=True)
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        srv.shutdown()
    return 0


def cmd_diff(args) -> int:
    """Added/removed triples between two store versions (the diff-store's
    namesake op) as JSON lines: {"graph_id", "change", "line"}."""
    from .stages.deltas import read_log
    from .state.reconstruct import diff_table

    out = diff_table(
        read_log(args.store, upto_ts=max(args.ts1, args.ts2)),
        args.ts1, args.ts2,
    )
    for r in out.to_pylist():
        print(json.dumps(r))
    return 0


def cmd_truncate(args) -> int:
    _ensure_ray()
    from .state.append import truncate_log

    removed = truncate_log(args.store, args.before_ts)
    print(json.dumps({"store": args.store, "removed_rows": removed}))
    return 0


def cmd_blame(args) -> int:
    """Per-line provenance at ts (git-blame analog) as JSON lines:
    {"graph_id", "line", "since": unix seconds}."""
    import pandas as pd

    from .stages.deltas import read_log
    from .state.blame import blame_table

    out = blame_table(read_log(args.store, upto_ts=args.ts), args.ts)
    for r in out.to_pylist():
        print(json.dumps({
            "graph_id": r["graph_id"], "line": r["line"],
            "since": int(pd.Timestamp(r["since_ts"]).timestamp()),
        }))
    return 0


def cmd_metadata(args) -> int:
    import pandas as pd

    from .stages.deltas import read_log
    from .state.reconstruct import metadata_table

    lo, hi = metadata_table(read_log(args.store))
    out = {
        "start_time": None if lo is None else int(pd.Timestamp(lo).timestamp()),
        "end_time": None if hi is None else int(pd.Timestamp(hi).timestamp()),
    }
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="rdf_diff_store_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="full KG build: pages parquet → delta log")
    b.add_argument("--pages", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--gazetteer", required=True)
    b.add_argument("--partitions", type=int, default=16)
    b.add_argument("--no-resume", action="store_true")
    b.add_argument("--from-warc", action="store_true",
                   help="--pages is WARC archive(s): stream-parse "
                        "records, charset-transcode to utf-8, lang-ID "
                        "(pages_from_warc)")
    b.add_argument("--canonical-map",
                   choices=["auto", "driver", "distributed"],
                   default="auto",
                   help="'auto' (default) counts the surface vocabulary "
                        "once and picks driver at or below the "
                        "threshold (250k surfaces), "
                        "distributed above; 'distributed' = persisted "
                        "parquet map + co-partition-join resolution "
                        "(unbounded-vocabulary scale path)")
    b.set_defaults(fn=cmd_build)

    bi = sub.add_parser(
        "build-incremental",
        help="append a new crawl batch to an existing store "
             "(continuous-writer analog; the canonical map is extended "
             "in the store's own layout)",
    )
    bi.add_argument("--pages", required=True)
    bi.add_argument("--out", required=True)
    bi.add_argument("--gazetteer", required=True)
    bi.set_defaults(fn=cmd_build_inc)

    i = sub.add_parser("init", help="create an empty delta log")
    i.add_argument("--store", required=True)
    i.add_argument("--partitions", type=int, default=8)
    i.set_defaults(fn=cmd_init)

    a = sub.add_parser("append", help="upsert one graph (POST analog)")
    a.add_argument("--store", required=True)
    a.add_argument("--graph", required=True)
    a.add_argument("--ts", type=int, required=True)
    a.add_argument("--file")
    a.add_argument("--text")
    a.add_argument("--format", default=None,
                   help="text/turtle | application/n-triples (default)")
    a.set_defaults(fn=cmd_append)

    d = sub.add_parser("delete", help="tombstone one graph (DELETE analog)")
    d.add_argument("--store", required=True)
    d.add_argument("--graph", required=True)
    d.add_argument("--ts", type=int, required=True)
    d.set_defaults(fn=cmd_delete)

    u = sub.add_parser(
        "update",
        help="SPARQL Update: INSERT/DELETE DATA, DELETE WHERE, "
             "CLEAR/DROP GRAPH",
    )
    u.add_argument("--store", required=True)
    u.add_argument("--ts", type=int, required=True)
    u.add_argument("--file", help="read the update from a file")
    u.add_argument("update", nargs="?", help="the update string")
    u.set_defaults(fn=cmd_update)

    cp = sub.add_parser("compact", help="merge append segments into base files (git-gc analog)")
    cp.add_argument("--store", required=True)
    cp.add_argument("--min-segments", type=int, default=1, dest="min_segments")
    cp.set_defaults(fn=cmd_compact)

    fs = sub.add_parser(
        "fsck", help="verify store invariants (digest/canonical/"
        "ownership/replay); exit 1 on violations"
    )
    fs.add_argument("--store", required=True)
    fs.add_argument("--no-canonical", action="store_true",
                    help="skip the serializer-fixpoint check")
    fs.set_defaults(fn=cmd_fsck)

    g = sub.add_parser("graphs-at", help="merged canonical N-Triples at ts")
    g.add_argument("--store", required=True)
    g.add_argument("--ts", type=int, required=True)
    g.add_argument("--out", help="stream the merged doc to this path "
                                 "(k-way merge; never held in memory)")
    g.add_argument("--turtle", action="store_true",
                   help="emit prettified Turtle instead of N-Triples")
    g.add_argument("--prefix", action="append", metavar="LABEL=NS",
                   help="prefix mapping for --turtle (repeatable)")
    g.set_defaults(fn=cmd_graphs_at)

    q = sub.add_parser("query", help="BGP query at ts")
    q.add_argument("--store", required=True)
    q.add_argument("--ts", type=int, required=True)
    q.add_argument("--service", action="append", metavar="IRI=PATH|URL",
                   help="register a federated SERVICE endpoint: a "
                        "store dir (in-process) or a live server URL "
                        "(SPARQL protocol over HTTP)")
    q.add_argument("--bgp", required=True)
    q.add_argument("--format", choices=["json", "csv", "tsv"],
                   default="json",
                   help="W3C results serialization (default json)")
    q.set_defaults(fn=cmd_query)

    tr = sub.add_parser(
        "truncate",
        help="squash history before ts into per-graph baselines (retention)",
    )
    tr.add_argument("--store", required=True)
    tr.add_argument("--before-ts", type=int, required=True)
    tr.set_defaults(fn=cmd_truncate)

    bl = sub.add_parser("blame", help="per-line provenance at ts (git-blame analog)")
    bl.add_argument("--store", required=True)
    bl.add_argument("--ts", type=int, required=True)
    bl.set_defaults(fn=cmd_blame)

    df = sub.add_parser("diff", help="added/removed triples between two versions")
    df.add_argument("--store", required=True)
    df.add_argument("--ts1", required=True, type=int)
    df.add_argument("--ts2", required=True, type=int)
    df.set_defaults(fn=cmd_diff)

    m = sub.add_parser("metadata", help="(start_time, end_time) of the store")
    m.add_argument("--store", required=True)
    m.set_defaults(fn=cmd_metadata)

    stp = sub.add_parser(
        "stats",
        help="store summary from manifests + parquet footers only "
             "(rows, graphs, segments, bytes, ts range; no row data read)",
    )
    stp.add_argument("--store", required=True)
    stp.set_defaults(fn=cmd_stats)

    sv = sub.add_parser(
        "serve",
        help="HTTP server mirroring the reference's wire API "
             "(GET /api/graphs/{ts}, /api/sparql/{ts}, /api/metadata, "
             "/metrics, /livez, /readyz; POST/DELETE /api/graphs)",
    )
    sv.add_argument("--store", required=True)
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8080)
    sv.add_argument("--api-key", dest="api_key",
                    help="require X-API-KEY on writes")
    sv.add_argument("--read-only", action="store_true", dest="read_only",
                    help="serve only the query-cache routes (writes 404)")
    sv.add_argument("--service", action="append", metavar="IRI=PATH|URL",
                    help="register a federated SERVICE endpoint: a "
                         "store dir (in-process) or a live server URL "
                         "(SPARQL protocol over HTTP)")
    sv.add_argument("--distributed", action="store_true",
                    help="serve reads from one partition-reader actor "
                         "per delta partition (store never loads into "
                         "the HTTP process)")
    sv.add_argument("--replica-of", dest="replica_of", metavar="PRIMARY",
                    help="serve as a read replica of PRIMARY's delta "
                         "log: clone at boot, poll for updates, force "
                         "read-only (the reference's 60s push / "
                         "fetch-per-read loop)")
    sv.add_argument("--sync-every", dest="sync_every", type=float,
                    default=60.0,
                    help="replica poll period in seconds (default 60, "
                         "the reference writer's push interval)")
    sv.set_defaults(fn=cmd_serve)

    sy = sub.add_parser(
        "sync",
        help="replicate a store's delta log into a read replica "
             "(git-fetch analog; rsync quick-check, deletes compacted "
             "files)",
    )
    sy.add_argument("--src", required=True)
    sy.add_argument("--dst", required=True)
    sy.add_argument("--no-delete", action="store_true", dest="no_delete",
                    help="keep replica files the source no longer has")
    sy.add_argument("--lock-src", action="store_true", dest="lock_src",
                    help="hold the source writer lock for a quiescent copy")
    sy.set_defaults(fn=cmd_sync)

    de = sub.add_parser(
        "dedup-index-extend",
        help="append a docs parquet's signatures to a persisted dedup index",
    )
    de.add_argument("--docs", required=True)
    de.add_argument("--index", required=True)
    de.add_argument("--num-perm", type=int, default=128, dest="num_perm")
    de.add_argument("--bands", type=int, default=32)
    de.add_argument("--partitions", type=int, default=64)
    de.add_argument("--mode", choices=["minhash", "exact"], default="minhash")
    de.set_defaults(fn=cmd_dedup_index_extend)

    dc = sub.add_parser(
        "dedup-index-check",
        help="flag a docs parquet's duplicates against a persisted index",
    )
    dc.add_argument("--docs", required=True)
    dc.add_argument("--index", required=True)
    dc.add_argument("--min-bands", type=int, default=1, dest="min_bands")
    dc.add_argument("--out", help="write per-doc verdicts as parquet here")
    dc.set_defaults(fn=cmd_dedup_index_check)

    ab = sub.add_parser(
        "ann-index-build",
        help="build (or --extend) a persisted IVF index from an embeddings parquet",
    )
    ab.add_argument("--embeddings", required=True)
    ab.add_argument("--index", required=True)
    ab.add_argument("--clusters", type=int, default=16)
    ab.add_argument("--train-size", type=int, default=2048, dest="train_size")
    ab.add_argument("--extend", action="store_true",
                    help="append to an existing index (frozen quantizer)")
    ab.set_defaults(fn=cmd_ann_index_build)

    aq = sub.add_parser(
        "ann-index-query",
        help="top-k cosine search over a persisted IVF index (probed lists only)",
    )
    aq.add_argument("--index", required=True)
    aq.add_argument("--queries", required=True,
                    help="parquet with an `embedding` list<float> column")
    aq.add_argument("--k", type=int, default=10)
    aq.add_argument("--nprobe", type=int, default=4)
    aq.add_argument("--out", help="write results parquet here")
    aq.set_defaults(fn=cmd_ann_index_query)

    dcc = sub.add_parser(
        "dedup-index-compact",
        help="merge a dedup index's append segments (git-gc analog)",
    )
    dcc.add_argument("--index", required=True)
    dcc.set_defaults(fn=cmd_dedup_index_compact)

    acc = sub.add_parser(
        "ann-index-compact",
        help="merge an IVF index's list segments (git-gc analog)",
    )
    acc.add_argument("--index", required=True)
    acc.set_defaults(fn=cmd_ann_index_compact)

    tb = sub.add_parser(
        "text-index-build",
        help="build (or --extend) a persisted inverted text index from a docs parquet",
    )
    tb.add_argument("--docs", required=True)
    tb.add_argument("--index", required=True)
    tb.add_argument("--partitions", type=int, default=None,
                    help="partition count (build only; default 64)")
    tb.add_argument("--extend", action="store_true",
                    help="append postings to an existing index")
    tb.set_defaults(fn=cmd_text_index_build)

    tq = sub.add_parser(
        "text-index-query",
        help="keyword search over a persisted text index (matching partitions only)",
    )
    tq.add_argument("--index", required=True)
    tq.add_argument("terms", nargs="+")
    tq.add_argument("--mode", choices=("and", "or"), default="and")
    tq.add_argument("--score", choices=("bm25",), default=None,
                    help="rank results (score_micro = bm25 x 1e6)")
    tq.add_argument("--limit", type=int, default=None)
    tq.add_argument("--out", help="write results parquet here")
    tq.set_defaults(fn=cmd_text_index_query)

    tcc = sub.add_parser(
        "text-index-compact",
        help="merge a text index's posting segments (git-gc analog)",
    )
    tcc.add_argument("--index", required=True)
    tcc.set_defaults(fn=cmd_text_index_compact)

    tt = sub.add_parser(
        "tokenizer-train",
        help="train a BPE tokenizer on a docs parquet and persist it",
    )
    tt.add_argument("--docs", required=True)
    tt.add_argument("--out", required=True)
    tt.add_argument("--merges", type=int, default=200)
    tt.add_argument("--max-words", type=int, default=50_000,
                    dest="max_words")
    tt.set_defaults(fn=cmd_tokenizer_train)

    ws = sub.add_parser(
        "write-shards",
        help="pack a docs parquet into fixed-capacity token-id shards",
    )
    ws.add_argument("--docs", required=True)
    ws.add_argument("--tokenizer", required=True)
    ws.add_argument("--out", required=True)
    ws.add_argument("--capacity", type=int, default=1024)
    ws.add_argument("--shards", type=int, default=8)
    ws.add_argument("--resume", action="store_true")
    ws.set_defaults(fn=cmd_write_shards)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
