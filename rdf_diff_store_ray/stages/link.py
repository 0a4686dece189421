"""Entity linking: surface form → canonical entity IRI.

``SurfaceResolver`` holds the broadcast small side — the gazetteer alias
table plus the MinHash-LSH/union-find canonical map — as a plain dict
built **once per worker process** from ``ray.put`` object refs (broadcast
once, read per worker, never re-shipped per batch).

Two sibling batch stages consume the nested raw-triples rows:

- :func:`serialize_versions_batch`: raw page rows → per-(graph, version)
  canonical N-Triples snapshots (``VERSIONS``). Runs with **no shuffle**:
  a page's triples never leave the batch. The serialized text's SHA-256 is
  the digest used for no-op suppression downstream (the byte-compare of
  stored content in the reference, ``/root/reference/src/graphs.rs:52-61``).
- :func:`emit_triples_batch`: raw page rows → exploded, linked ``TRIPLES``
  rows (the queryable/P-R-scored triple table).
"""

from __future__ import annotations

import re
import unicodedata

import pyarrow as pa
import ray

from ..corpus import ENTITY_NS, entity_iri
from ..ntriples import serialize, sha256_text
from ..schemas import TRIPLES, VERSIONS

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def surface_slug(surface: str) -> str:
    """Deterministic IRI slug for a surface no linker/canonicalizer could
    resolve — keeps recall (the triple survives with a stable identity)."""
    s = unicodedata.normalize("NFKC", surface).lower()
    return _SLUG_RE.sub("-", s).strip("-") or "unknown"


class SurfaceResolver:
    def __init__(self, gazetteer: dict, canonical_map: dict | None = None):
        self.table: dict[str, str] = {}
        ents = gazetteer["entities"]
        for alias, eid in gazetteer["alias_to_eid"].items():
            self.table[alias] = ents[eid]["iri"] if eid in ents else entity_iri(eid)
        for surface, iri in (canonical_map or {}).items():
            self.table.setdefault(surface, iri)

    def resolve(self, surface: str) -> str:
        iri = self.table.get(surface)
        if iri is None:
            iri = ENTITY_NS + surface_slug(surface)
        return iri


def _get(ref_or_obj):
    return ray.get(ref_or_obj) if isinstance(ref_or_obj, ray.ObjectRef) else ref_or_obj


# The resolver is memoized PER WORKER PROCESS (keyed by the broadcast
# object refs): setup happens once per worker, and the batches run on
# Ray's shared, already-warm task-worker pool, so a build pays no
# per-stage actor-spawn latency.
_RESOLVER_CACHE: dict = {}


def _cached_resolver(gazetteer_ref, canonical_map_ref) -> SurfaceResolver:
    key = (gazetteer_ref, canonical_map_ref)
    r = _RESOLVER_CACHE.get(key)
    if r is None:
        r = SurfaceResolver(
            _get(gazetteer_ref),
            _get(canonical_map_ref) if canonical_map_ref is not None else None,
        )
        _RESOLVER_CACHE.clear()  # one live resolver per worker is plenty
        _RESOLVER_CACHE[key] = r
    return r


def serialize_versions_batch(batch: pa.Table, gazetteer_ref=None,
                             canonical_map_ref=None) -> pa.Table:
    resolver = _cached_resolver(gazetteer_ref, canonical_map_ref)
    return _serialize_versions(resolver, batch)


def emit_triples_batch(batch: pa.Table, gazetteer_ref=None,
                       canonical_map_ref=None) -> pa.Table:
    resolver = _cached_resolver(gazetteer_ref, canonical_map_ref)
    return _emit_triples(resolver, batch)


def _serialize_versions(resolver: SurfaceResolver, batch: pa.Table) -> pa.Table:
    res = resolver.resolve
    texts, digests = [], []
    for trips in batch["triples"].to_pylist():
        canon = [
            (
                res(t["subj_surface"]),
                t["pred"],
                t["obj_surface"] if t["obj_is_literal"] else res(t["obj_surface"]),
                t["obj_is_literal"],
            )
            for t in trips
        ]
        text = serialize(canon)
        texts.append(text)
        digests.append(sha256_text(text))
    return pa.table(
        {
            "graph_id": batch["url"],
            "warc_ts": batch["warc_ts"],
            "delta_text": pa.array(texts, pa.large_string()),
            "digest": pa.array(digests, pa.binary()),
        }
    ).cast(VERSIONS)


def _emit_triples(resolver: SurfaceResolver, batch: pa.Table) -> pa.Table:
    res = resolver.resolve
    cols = {k: [] for k in TRIPLES.names}
    urls = batch["url"].to_pylist()
    tss = batch["warc_ts"].to_pylist()
    for url, ts, trips in zip(urls, tss, batch["triples"].to_pylist()):
        for t in trips:
            cols["subj"].append(res(t["subj_surface"]))
            cols["pred"].append(t["pred"])
            cols["obj"].append(
                t["obj_surface"] if t["obj_is_literal"] else res(t["obj_surface"])
            )
            cols["obj_is_literal"].append(t["obj_is_literal"])
            cols["graph_id"].append(url)
            cols["warc_ts"].append(ts)
    return pa.table(
        {
            "subj": pa.array(cols["subj"], pa.string()),
            "pred": pa.array(cols["pred"], pa.string()),
            "obj": pa.array(cols["obj"], pa.string()),
            "obj_is_literal": pa.array(cols["obj_is_literal"], pa.bool_()),
            "graph_id": pa.array(cols["graph_id"], pa.string()),
            "warc_ts": pa.array(cols["warc_ts"], pa.timestamp("s")),
        }
    ).cast(TRIPLES)

