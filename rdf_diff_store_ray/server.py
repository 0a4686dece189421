"""HTTP wire surface mirroring the reference's two actix binaries.

The reference ships as HTTP services: a read server (``rdf-query-cache``
— GET ``/api/graphs/{timestamp}``, ``/api/sparql/{timestamp}``,
``/api/metadata``, ``/metrics``, ``/livez``, ``/readyz``;
``src/bin/rdf-query-cache.rs:48-124``) and a write server
(``rdf-diff-writer`` — ``POST /api/graphs`` with the JSON Graph model,
``DELETE /api/graphs?id=``, API-key-gated; ``src/bin/rdf-diff-writer.rs:
45-96``, ``src/models/graph.rs:14-22``, ``openapi.yaml``). This module
serves both route sets over one delta-log store so a reference client
can switch endpoints without changing its requests; ``read_only=True``
reproduces the query-cache role exactly (writes 404).

Semantics mirrored from the reference, not its code:

- reads are unauthenticated (the reference's ``validate_api_key`` calls
  on GET handlers are commented out, ``rdf-query-cache.rs:56,88``);
  writes require ``X-API-KEY`` when the server holds a key
  (``rdf-diff-writer.rs:52,84``; 401 on mismatch, ``api.rs:25-39``).
- ``GET /api/graphs/{ts}`` returns the merged store as ``text/turtle``
  with a ``Cache-Level`` response header
  (``metrics/middleware.rs:12``); ``?id=`` narrows to one graph.
  Canonical N-Triples is valid Turtle; configure ``prefixes`` to get
  prefix-compacted output like the reference's prettifier.
- ``GET /api/sparql/{ts}?query=`` returns SPARQL-results JSON +
  ``Cache-Level``.
- errors use the reference's JSON error model ``{"message", "error"}``
  (``openapi.yaml`` Error schema).
- writes serialize through the store's single-writer lock
  (:class:`..state.append.StoreWriteLock` inside ``append.commit``),
  the pool-of-one the reference uses for atomicity
  (``rdf-diff-writer.rs:25-31``). POST bodies may carry an optional
  ``"timestamp"`` (unix seconds) — an extension for deterministic
  clients; absent, the server clock is used (the reference commits at
  wall-clock time too, ``src/git.rs:151-161``).

The store may be a path or a ``file://``/``mocks3://`` URI: every load
opens the log through :func:`.stages.deltas.read_log` (or, with
``distributed=True``, the router's per-pid actors), the same door the
writes go through. A write refreshes the state the server holds instead
of dropping it (the reference keeps its query caches across the fetches
that bring in new commits, ``src/query.rs:28-99``): the commit's own
rows extend the held reader, and every cached instant before the write
stays warm. Only when the log's files are no longer the held ones plus
that commit's segments (another writer, compaction, truncation, a
replica sync) is the reader dropped and reloaded on the next read.
``/metrics`` counts the two outcomes (``store_refresh_total``) and
times the refresh (``store_refresh_seconds``).

This is an application entry point like the CLI: it owns no Ray session
(writes commit in this process and need none) and the injectable
``now_fn`` keeps wall-clock out of everything testable.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse


def _bounds_json(lo, hi) -> dict:
    """Serialize store time bounds the way the reference's Option fields
    do: an empty just-initialized store has no versions, so both bounds
    are JSON null (pd.Timestamp(None) is NaT and would raise on
    ``.timestamp()``)."""
    import pandas as pd

    def to_s(v):
        if v is None or pd.isna(v):
            return None
        return int(pd.Timestamp(v).timestamp())

    return {"start_time": to_s(lo), "end_time": to_s(hi)}


class StoreBackend:
    """Shared state behind the handlers: a lazily opened reader over the
    delta log, refreshed by every successful write. The reader is the
    in-process :class:`..query.bgp.DiffStoreReader`, or with
    ``distributed=True`` a :class:`..query.service.QueryService` — one
    partition-reader actor per partition pid, so the HTTP process never
    holds the store (the 100× role split: this process is the
    reference's thin actix layer, the actors its repo pool of 32
    readers, ``src/bin/rdf-query-cache.rs:137,170``). Both answer
    through the same front door (:mod:`.query.front`), so routes, cache
    levels and formats are identical.

    The backend remembers the log's listing (:func:`.stages.deltas.listing`)
    as of its load. After a write it swaps in the reader's ``extended``
    successor — the router's keeps its actors — when the log now lists
    exactly those files plus one new segment per partition the commit
    wrote; otherwise it drops the reader (:meth:`invalidate`; the router
    and its actors shut down) and the next read reloads the log."""

    def __init__(self, delta_dir: str, *, prefixes: dict | None = None,
                 services: dict | None = None, distributed: bool = False):
        self.delta_dir = delta_dir
        self.prefixes = prefixes
        # iri → store dir path (loaded on first use) or http(s) URL of
        # another live server (wire federation)
        self.services = dict(services or {})
        self.distributed = distributed
        self._lock = threading.Lock()
        self._reader = None
        self._files = None  # the log's listing as of the reader's load

    def invalidate(self) -> None:
        with self._lock:
            old, self._reader = self._reader, None
        if old is not None and self.distributed:
            old.shutdown()

    def close(self) -> None:
        self.invalidate()

    def reader(self):
        from .stages.deltas import listing

        with self._lock:
            if self._reader is None:
                files = listing(self.delta_dir)
                if self.distributed:
                    from .query.service import QueryService

                    reader = QueryService(self.delta_dir,
                                          services=self.services)
                    reader.metadata()  # every actor has read its partition
                else:
                    from .query.bgp import DiffStoreReader

                    reader = DiffStoreReader(self._load(),
                                             services=self.services)
                # the held files are known only when none changed while
                # they were read (a commit may land mid-load); unknown,
                # the next refresh reloads
                self._files = files if listing(self.delta_dir) == files \
                    else None
                self._reader = reader
            return self._reader

    def _load(self):
        from .stages.deltas import read_log

        return read_log(self.delta_dir)

    # ------------------------------------------------------------- reads
    def graphs_at(self, ts: int, graph_id: str | None) -> tuple[str, str]:
        """(document, cache_level). Merged store, or one graph when
        ``graph_id`` is given (absent graph → empty document, matching
        the reference's empty-result behavior for unknown ids; the
        router prunes the point read to the owning partition)."""
        reader = self.reader()
        if graph_id is None:
            text, level = reader.graphs(ts)
        else:
            text = reader.graph_at(graph_id, ts)
            level = "Nothing" if text is None else "Graph"
            text = text or ""
        if self.prefixes is not None and text:
            from .ntriples import parse
            from .turtle import serialize_turtle

            text = serialize_turtle(parse(text), self.prefixes)
        return text, level

    def sparql_at(self, ts: int, query: str,
                  fmt: str = "json") -> tuple[str, str]:
        return self.reader().answer(ts, query, fmt)

    def metadata(self) -> dict:
        return _bounds_json(*self.reader().metadata())

    # ------------------------------------------------------------ writes
    def store_graph(self, graph: dict, ts: int) -> int:
        return self.store_graphs([graph], ts)

    def store_graphs(self, graphs: list, ts: int) -> int:
        """One atomic multi-graph commit (validated all-or-nothing under
        the writer lock). Returns the number of deltas written."""
        from .state import append

        batch = {
            g["id"]: append.Graph(id=g["id"], graph=g["graph"],
                                  format=g.get("format"))
            for g in graphs
        }
        return self._refresh(append.commit(self.delta_dir, batch, (), ts))

    def delete_graph(self, graph_id: str, ts: int) -> int:
        from .state import append

        return self._refresh(append.commit(self.delta_dir, {}, [graph_id],
                                           ts))

    def _refresh(self, rows) -> int:
        """Bring the held reader up to date with a commit that wrote
        ``rows``: extend it when the log's files are exactly the held
        ones plus one new segment per partition in ``rows``, else (or
        when the extension fails) drop it. Returns the number of rows."""
        import pyarrow.compute as pc

        from .metrics import BUCKETS_FAST, REGISTRY
        from .stages.deltas import appended, listing

        t0 = time.monotonic()
        outcome = "reload"
        try:
            with self._lock:
                if self._reader is None:
                    outcome = None  # nothing held: the next read loads
                    return rows.num_rows
                now = listing(self.delta_dir)
                if self._files is not None and appended(
                        self._files, now) == sorted(
                            pc.unique(rows["partition_id"]).to_pylist()):
                    self._reader = self._reader.extended(rows)
                    self._files, outcome = now, "extend"
        finally:
            if outcome == "reload":
                self.invalidate()
        REGISTRY.counter_inc("store_refresh_total", f'outcome="{outcome}"')
        REGISTRY.observe("store_refresh_seconds", time.monotonic() - t0,
                         "Held-reader refresh after a write", BUCKETS_FAST)
        return rows.num_rows


_RESULT_TYPES = (  # Accept substring → (format, content type)
    ("application/x-kg-tagged-tsv", "tagged"),
    ("text/csv", "csv"),
    ("text/tab-separated-values", "tsv"),
)


def _negotiate(accept: str) -> tuple[str, str]:
    """Content negotiation over the W3C result formats (the reference
    serves JSON only; CSV/TSV are the SPARQL 1.1 standard siblings) and
    the engine-to-engine federation wire (exact term tags)."""
    for ctype, fmt in _RESULT_TYPES:
        if ctype in accept:
            return fmt, ctype
    return "json", "application/json"


def _make_handler(backend: StoreBackend, api_key: str | None,
                  read_only: bool, now_fn):
    class Handler(BaseHTTPRequestHandler):
        server_version = "rdf-diff-store-ray"

        def log_message(self, fmt, *args):  # quiet by default
            pass

        # ------------------------------------------------------ plumbing
        def _send(self, code: int, body: str, ctype: str,
                  headers: dict | None = None) -> None:
            raw = body.encode()
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(raw)))
            for k, v in (headers or {}).items():
                self.send_header(k, v)
            self.end_headers()
            self.wfile.write(raw)

        def _error(self, code: int, message: str, error: str = "") -> None:
            self._send(code, json.dumps(
                {"message": message, "error": error}), "application/json")

        def _check_key(self) -> bool:
            if api_key is None:
                return True
            token = self.headers.get("X-API-KEY")
            if token is None:
                self._error(401, "X-API-KEY header missing")
                return False
            if token != api_key:
                self._error(401, "incorrect api key")
                return False
            return True

        def _metrics_record(self, endpoint: str, level: str) -> None:
            from .metrics import REGISTRY

            REGISTRY.counter_inc(
                "http_requests",
                f'endpoint="{endpoint}",cache_level="{level}"',
            )

        def _sparql(self, ts: int, query: str) -> None:
            fmt, ctype = _negotiate(self.headers.get("Accept", ""))
            body, level = backend.sparql_at(ts, query, fmt=fmt)
            self._metrics_record("sparql", level)
            self._send(200, body, ctype, {"Cache-Level": level})

        def _sparql_now(self, query: str) -> None:
            # empty store → no latest version; query at t=0 so standard
            # clients get an empty result set instead of a 500
            self._sparql(backend.metadata()["end_time"] or 0, query)

        # ------------------------------------------------------- routes
        def do_GET(self):  # noqa: N802 (stdlib casing)
            url = urlparse(self.path)
            parts = [p for p in url.path.split("/") if p]
            q = parse_qs(url.query)
            try:
                if url.path in ("/livez", "/readyz"):
                    self._send(200, "ok", "text/plain")
                elif url.path == "/metrics":
                    from .metrics import REGISTRY

                    self._send(200, REGISTRY.render_prometheus(),
                               "text/plain; version=0.0.4")
                elif len(parts) == 3 and parts[:2] == ["api", "graphs"]:
                    ts = int(parts[2])
                    gid = q.get("id", [None])[0]
                    text, level = backend.graphs_at(ts, gid)
                    self._metrics_record("graphs", level)
                    self._send(200, text, "text/turtle",
                               {"Cache-Level": level})
                elif len(parts) == 3 and parts[:2] == ["api", "sparql"]:
                    if "query" not in q:
                        return self._error(400, "missing query parameter")
                    self._sparql(int(parts[2]), q["query"][0])
                elif url.path == "/api/metadata":
                    self._send(200, json.dumps(backend.metadata()),
                               "application/json")
                elif url.path == "/sparql":
                    # W3C SPARQL-protocol endpoint: GET ?query= against
                    # the store's LATEST state (the time-travel form
                    # stays at /api/sparql/{ts}); standard clients need
                    # no timestamp concept
                    if "query" not in q:
                        return self._error(400, "missing query parameter")
                    self._sparql_now(q["query"][0])
                else:
                    self._error(404, f"no such endpoint: {url.path}")
            except ValueError as e:
                self._error(400, str(e))
            except Exception as e:  # reference maps internal errors to 500
                self._error(500, str(e), type(e).__name__)

        def do_POST(self):  # noqa: N802
            path = self.path.split("?")[0]
            if path == "/sparql":
                # W3C SPARQL protocol: POST with an
                # application/sparql-query body (or form-encoded query=)
                try:
                    n = int(self.headers.get("Content-Length", 0))
                    raw = self.rfile.read(n).decode()
                    ctype = self.headers.get("Content-Type", "")
                    if "application/x-www-form-urlencoded" in ctype:
                        form = parse_qs(raw)
                        if "query" not in form:
                            return self._error(400, "missing query field")
                        raw = form["query"][0]
                    if not raw.strip():
                        return self._error(400, "empty query body")
                    return self._sparql_now(raw)
                except ValueError as e:
                    return self._error(400, str(e))
                except Exception as e:
                    return self._error(500, str(e), type(e).__name__)
            if path != "/api/graphs" or read_only:
                return self._error(404, "no such endpoint")
            if not self._check_key():
                return
            try:
                n = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(n).decode())
                # a JSON list batches several Graph models in one commit
                graphs = payload if isinstance(payload, list) else [payload]
                if not graphs or not all(
                    isinstance(g, dict) and not ({"id", "graph"} - set(g))
                    for g in graphs
                ):
                    return self._error(400, "Graph model needs id + graph")
                # a batch is ONE atomic commit at ONE instant — members
                # carrying differing explicit timestamps would be
                # silently re-stamped, so reject instead
                stamps = {
                    int(g["timestamp"]) for g in graphs
                    if g.get("timestamp") is not None
                }
                if len(stamps) > 1:
                    return self._error(
                        400,
                        "batch graphs carry differing timestamps; a "
                        "batch commits atomically at one instant",
                    )
                ts = stamps.pop() if stamps else int(now_fn())
                backend.store_graphs(graphs, ts)
                self._send(200, "", "text/plain")
            except (json.JSONDecodeError, UnicodeDecodeError) as e:
                self._error(400, f"bad request body: {e}")
            except ValueError as e:
                self._error(400, str(e))
            except Exception as e:
                self._error(500, str(e), type(e).__name__)

        def do_DELETE(self):  # noqa: N802
            url = urlparse(self.path)
            if url.path != "/api/graphs" or read_only:
                return self._error(404, "no such endpoint")
            if not self._check_key():
                return
            q = parse_qs(url.query)
            if "id" not in q:
                return self._error(400, "missing id parameter")
            try:
                ts = int(q.get("timestamp", [0])[0] or now_fn())
                backend.delete_graph(q["id"][0], ts)
                self._send(200, "", "text/plain")
            except ValueError as e:
                self._error(400, str(e))
            except Exception as e:
                self._error(500, str(e), type(e).__name__)

    return Handler


class _ReplicaSyncer(threading.Thread):
    """Background fetch loop for a read replica — the reference's
    continuous replication: its writer pushes every 60 s and the
    query-cache fetches updates per read
    (``src/bin/rdf-diff-writer.rs:109-123``, ``src/git.rs:88-132``).
    Here the replica polls the primary's delta log every ``every_s``
    seconds (file-level rsync, immutable segments) and invalidates the
    serving backend whenever anything changed, so reads see new commits
    within one poll with no operator action."""

    def __init__(self, src: str, dst: str, backend, every_s: float):
        super().__init__(daemon=True)
        self.src, self.dst = src, dst
        self.backend = backend
        self.every_s = every_s
        self._halt = threading.Event()
        self.rounds = 0
        self.last_error: str | None = None

    def sync_once(self) -> bool:
        from .metrics import REGISTRY
        from .state.append import LogLockedError
        from .state.sync import sync_store

        try:
            res = sync_store(self.src, self.dst)
        except LogLockedError:
            return False  # a concurrent sync/writer owns dst; next poll
        self.rounds += 1
        changed = bool(res.get("copied") or res.get("removed"))
        if changed:
            self.backend.invalidate()
            REGISTRY.counter_inc("replica_sync_changes")
        REGISTRY.counter_inc("replica_sync_rounds")
        return changed

    def run(self) -> None:
        while not self._halt.wait(self.every_s):
            try:
                self.sync_once()
            except Exception as e:  # keep polling; surface via /metrics
                self.last_error = f"{type(e).__name__}: {e}"

    def stop(self) -> None:
        self._halt.set()


class DiffStoreServer:
    """Threaded HTTP server over one delta-log store.

    ``api_key=None`` disables write auth (the reference exits at boot
    without ``API_KEY``, ``src/api.rs:9-13``; a library default of
    "unauthenticated local dev server" is friendlier and explicit).
    ``port=0`` binds an ephemeral port (see ``.port`` after start).

    ``replica_of=<primary delta dir>`` turns the server into a read
    replica: the local store is fetched from the primary at boot (an
    empty/missing local dir bootstraps like the reference's
    clone-if-absent) and re-fetched every ``sync_every`` seconds in the
    background; writes are disabled (read_only is forced).
    """

    def __init__(self, delta_dir: str, *, host: str = "127.0.0.1",
                 port: int = 0, api_key: str | None = None,
                 read_only: bool = False, prefixes: dict | None = None,
                 distributed: bool = False, services: dict | None = None,
                 replica_of: str | None = None, sync_every: float = 60.0,
                 now_fn=time.time):
        self.backend = StoreBackend(delta_dir, prefixes=prefixes,
                                    services=services,
                                    distributed=distributed)
        self._syncer = None
        if replica_of is not None:
            read_only = True
            self._syncer = _ReplicaSyncer(replica_of, delta_dir,
                                          self.backend, sync_every)
            self._syncer.sync_once()  # boot: clone-if-absent
        handler = _make_handler(self.backend, api_key, read_only, now_fn)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._thread = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "DiffStoreServer":
        if self._syncer is not None:
            self._syncer.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        if self._syncer is not None and not self._syncer.is_alive():
            self._syncer.start()
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        if self._syncer is not None:
            self._syncer.stop()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        if self._syncer is not None and self._syncer.is_alive():
            self._syncer.join(timeout=10)
        self.backend.close()
