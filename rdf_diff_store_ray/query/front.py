"""The as-of read front door, shared by both read backends.

The paper's reads are observable through three doors — in-process
(:class:`.bgp.DiffStoreReader`), the partition-actor router
(:class:`.service.QueryService`) and HTTP (``server.StoreBackend``, which
wraps either). Everything a read does before and after evaluation lives
here, once, so the doors cannot drift apart:

- the timestamp key (:func:`ts_key`, second resolution);
- the ``(ts, query)`` LRU and its one cacheability rule: an answer that
  read a LATEST-STATE wire endpoint is time-varying and never cached;
- the NOW slot (``NOW()`` = the as-of instant, not the wall clock);
- cache-level reporting and metrics (``cache_requests_total`` +
  ``query_processing_time``, the reference's ``src/metrics``);
- SERVICE endpoint resolution (a registered store directory or URI is
  opened by :func:`..stages.deltas.read_log`, the one reader of the
  log's files);
- the result formats (SPARQL JSON / CSV / TSV and the engine-to-engine
  tagged wire).

One per-instant cache serves both backends: ``instants`` maps an
instant ``k`` to the forms materialized at ``k`` (``"store"``, the
triple table; ``"quads"``, the quad table; ``"graphs"``, the merged
document). It holds the one cache-level rule:

- a query reports ``Store`` iff ``k`` has an entry, else ``Nothing``;
- a graphs read reports ``Prettified`` iff the document is cached,
  ``Graph`` iff ``k`` has an entry, else ``Nothing``.

A backend supplies only the state-specific steps: evaluate a parsed
query at instant ``k`` (:meth:`AsOfReads._evaluate` — local table scan,
or per-pattern push-down to partition actors) and materialize one form
at ``k`` (:meth:`AsOfReads._materialize` — from the delta table, or on
the router the line union of the partition actors' documents). The
partition actor is thereby a stateful entity behind the same interface
as the in-process reader ("Stateful Entities", CIDR 2023).

The evaluator entry points (``bgp.parse_query``, ``bgp.bindings_json``,
…) are looked up on the module at call time, so timing shims installed
on those attributes see every call.
"""

from __future__ import annotations

import copy
import time
from urllib.parse import urlparse

import pandas as pd

def ts_key(ts) -> int:
    """The cache key of a requested instant: unix seconds. Any real
    number (``bool`` excepted) is unix seconds, floored to the second
    grain; anything else goes through ``pd.Timestamp``."""
    from ..state.reconstruct import unix_seconds

    secs = unix_seconds(ts)
    return int(pd.Timestamp(ts).timestamp()) if secs is None else secs


def _is_url(v) -> bool:
    return isinstance(v, str) and v.startswith(("http://", "https://"))


def _bare_root(url: str) -> bool:
    return urlparse(url).path in ("", "/")


class AsOfReads:
    """Front door mixin. Cache levels mirror the reference's
    ``CacheLevel`` (``src/query.rs:14-26``): ``Query`` (the answer was
    cached) or ``Prettified`` (the merged document was) > ``Store`` /
    ``Graph`` (the state at ts was materialized) > ``Nothing``."""

    def __init__(self, services: "dict | None" = None, registry=None,
                 cache_capacity: int = 1000):
        from ..metrics import REGISTRY
        from .bgp import LRU

        # federation endpoints, iri → a DiffStoreReader over ANOTHER
        # store, a store directory (loaded on first use), or the http(s)
        # URL of a live server; see _endpoint
        self.services = dict(services or {})
        self.query_cache = LRU(cache_capacity)  # (ts, q) -> bindings df
        self.instants = LRU(cache_capacity)  # k -> {form: value}
        self.registry = REGISTRY if registry is None else registry
        self.last_cache_level: str = "Nothing"

    # ---------------------------------------------------- backend hooks
    def _evaluate(self, group: dict, query: str, k: int,
                  endpoints: "dict | None", finalize: bool) -> pd.DataFrame:
        """The answer of the parsed ``group`` (text ``query``) at ``k``:
        finalized, or tagged when ``finalize`` is False."""
        raise NotImplementedError

    def _materialize(self, form: str, k: int):
        """The form ``form`` of the state at ``k`` (see the module doc)."""
        raise NotImplementedError

    def _successor(self, rows):
        """A shallow copy of this door for the store after a write of
        the (non-empty) delta ``rows``, holding only the cache entries
        at instants before the write's first second ``ts_w``: a version
        at ``ts_w`` changes no state at ``k < ts_w``, so those entries
        stay exact (and may be shared; an entry at ``k`` is only ever
        filled with the forms of ``k``). Fresh LRU objects keep a read
        still running on ``self`` from caching a pre-write answer into
        the successor."""
        import pyarrow.compute as pc

        ts_w = ts_key(pc.min(rows["warc_ts"]).as_py())
        new = copy.copy(self)
        new.instants = self.instants.filtered(lambda k: k < ts_w)
        new.query_cache = self.query_cache.filtered(lambda key: key[0] < ts_w)
        return new

    # -------------------------------------------------- instant cache
    def _entry(self, k: int) -> "tuple[dict, bool]":
        """(the forms cached at ``k``, whether ``k`` had an entry)."""
        entry = self.instants.get(k)
        if entry is not None:
            return entry, True
        entry = {}
        self.instants.put(k, entry)
        return entry, False

    def _at(self, k: int, form: str):
        """The form ``form`` at ``k``, materialized once per instant."""
        entry, _ = self._entry(k)
        if form not in entry:
            entry[form] = self._materialize(form, k)
        return entry[form]

    # ------------------------------------------------------- endpoints
    def _endpoint(self, iri: str, k: int):
        """One SERVICE endpoint at instant ``k``: a registered store
        resolves to its triple table at ``k`` (shared version axis); a
        registered bare server root federates at the same instant via
        ``/api/sparql/{k}``; a registered explicit path, or an
        unregistered http(s) IRI, is queried verbatim — that endpoint's
        latest state. None when the IRI is unknown."""
        from ..stages.deltas import read_log
        from .bgp import DiffStoreReader

        ep = self.services.get(iri)
        if ep is None:
            return iri if _is_url(iri) else None
        if _is_url(ep):
            return f"{ep.rstrip('/')}/api/sparql/{k}" if _bare_root(ep) \
                else ep
        if isinstance(ep, str):
            ep = self.services[iri] = DiffStoreReader(read_log(ep))
        return ep._at(k, "store")

    def _wire_latest(self, iris) -> bool:
        """True when an endpoint answers with its LATEST state (see
        :meth:`_endpoint`): such answers vary with time, not with ts."""
        for iri in iris:
            ep = self.services.get(iri)
            if ep is None and _is_url(iri):
                return True
            if _is_url(ep) and not _bare_root(ep):
                return True
        return False

    # ----------------------------------------------------------- reads
    def _record(self, endpoint: str, level: str, t0: float) -> None:
        from ..metrics import BUCKETS_FAST

        self.last_cache_level = level
        self.registry.counter_inc(
            "cache_requests_total",
            f'endpoint="{endpoint}",cache_level="{level}"',
        )
        self.registry.observe("query_processing_time",
                              time.monotonic() - t0,
                              "Query Processing Times", BUCKETS_FAST)

    def answer(self, ts, query: str, fmt: "str | None" = None):
        """``(result, cache level)``: the bindings frame, or with ``fmt``
        one of json / csv / tsv / tagged, its serialized form. "tagged"
        is the engine-to-engine federation wire
        (``application/x-kg-tagged-tsv``): it evaluates without
        finalizing, so term kind survives the hop and a remote
        IRI-shaped plain literal never joins a local IRI; plain SELECT
        queries only, never cached."""
        from . import bgp

        t0 = time.monotonic()
        k = ts_key(ts)
        finalize = fmt != "tagged"
        # the substring guard keeps the hot non-federated path parse-free
        g = bgp.parse_query(query) if "SERVICE" in query.upper() else None
        iris = () if g is None else {
            iri for grp in bgp.walk_groups(g)
            for _, iri, _ in grp.get("services") or []}
        cacheable = finalize and not self._wire_latest(iris)
        res = self.query_cache.get((k, query)) if cacheable else None
        if res is not None:
            level = "Query"
        else:
            level = "Store" if self._entry(k)[1] else "Nothing"
            if g is None:
                g = bgp.parse_query(query)
            endpoints = {iri: ep for iri in iris
                         if (ep := self._endpoint(iri, k)) is not None}
            now = bgp._now_slot()
            now[0] = pd.Timestamp(k, unit="s")
            try:
                res = self._evaluate(g, query, k, endpoints or None,
                                     finalize)
            finally:
                now[0] = None
            if cacheable:
                self.query_cache.put((k, query), res)
        self._record("sparql", level, t0)
        if fmt is None:
            return res, level
        render = {"json": bgp.bindings_json, "csv": bgp.bindings_csv,
                  "tsv": bgp.bindings_tsv, "tagged": bgp.tagged_wire}[fmt]
        return render(res), level

    def query_at(self, ts, query: str) -> pd.DataFrame:
        return self.answer(ts, query)[0]

    def query_at_json(self, ts, query: str) -> str:
        return self.answer(ts, query, "json")[0]

    def query_at_csv(self, ts, query: str) -> str:
        return self.answer(ts, query, "csv")[0]

    def query_at_tsv(self, ts, query: str) -> str:
        return self.answer(ts, query, "tsv")[0]

    def graphs(self, ts) -> "tuple[str, str]":
        """``(merged canonical N-Triples at ts, cache level)``."""
        t0 = time.monotonic()
        k = ts_key(ts)
        entry, seen = self._entry(k)
        level = ("Prettified" if "graphs" in entry
                 else "Graph" if seen else "Nothing")
        text = self._at(k, "graphs")
        self._record("graphs", level, t0)
        return text, level

    def graphs_at(self, ts) -> str:
        return self.graphs(ts)[0]
