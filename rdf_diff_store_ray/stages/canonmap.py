"""Persisted, distributed canonical entity map (surface → IRI).

The default canonicalization path (:mod:`.canonicalize`) reduces the
surface vocabulary to a Python dict on the driver and broadcasts it —
the right call while the vocabulary is bounded (a gazetteer-anchored
domain). On open web text distinct surfaces grow with the corpus, so
the 100× path here never materializes the vocabulary anywhere:

- the map is built by the SAME edge pipeline (exact-norm chains +
  MinHash-LSH candidates + Jaccard verification, byte-compatible with
  the driver path) but reduced by distributed min-label propagation
  (:func:`..functions.graph.connected_components`) instead of a driver
  union-find, and persisted as a hash-partitioned parquet side table;
- resolution happens by co-partition join: triples explode once, meet
  their map partition, and regroup on the SAME graph-hash key the delta
  log is laid out by;
- incremental extension probes persisted band/norm indexes — O(batch)
  work per ingest, never a re-cluster of the vocabulary.

Cluster-IRI rule (identical to ``canonicalize.canonical_map_from_edges``,
so the two paths emit byte-identical stores): a component containing
gazetteer aliases canonicalizes to ``entity_iri(min alias eid)``; an
all-unknown component to ``ENTITY_NS + surface_slug(min member)``; an
alias surface itself always resolves to its OWN entity's IRI
(``SurfaceResolver`` precedence).

On-disk layout (log-structured like the delta log / dedup indexes)::

    <canon_dir>/meta.json                      knobs pinned at build
    <canon_dir>/map/part-PPPPP[-seg-SSSSSS].parquet    surface, iri
    <canon_dir>/bands/part-PPPPP[-seg-SSSSSS].parquet  band_id, band_hash, surface
    <canon_dir>/norms/part-PPPPP[-seg-SSSSSS].parquet  norm, iri

Partitioning assumption (documented per the build brief): `map/` is
hash(surface) % P, `bands/` is hash(band_hash*bands+band_id) % P,
`norms/` is hash(norm) % P — P pinned in meta.json, so probes and
joins co-locate by construction across builds and extensions.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import fs
from ..corpus import ENTITY_NS, entity_iri
from ..ntriples import serialize, sha256_text
from ..schemas import TRIPLES, VERSIONS
from ..shuffle_utils import sort_values_nul_safe, stable_hash_array
from .canonicalize import (
    bucket_pairs,
    jaccard,
    minhash_signatures_batch,
    normalize_surface,
    verify_pairs,
)
from .link import surface_slug

META_NAME = "meta.json"
_NUM_BUCKET_PARTITIONS = 64  # must match canonicalize.build_canonical_map


# ------------------------------------------------------------ small helpers
def _pid_on(batch: pa.Table, col: str, num_partitions: int,
            out: str = "pid") -> pa.Table:
    h = stable_hash_array(batch[col]) % np.uint64(num_partitions)
    return batch.append_column(out, pa.array(h.astype("int32")))


def _part_files(dir_: str) -> list:
    import glob

    return sorted(glob.glob(os.path.join(dir_, "part-*.parquet")))


def _write_parts(ds, dir_: str, pid_col: str = "pid", seg: int | None = None):
    """One parquet file per hash partition (``part-PPPPP.parquet``, or a
    ``-seg-SSSSSS`` suffix for extension appends). Returns row counts."""
    import pyarrow.parquet as pq

    os.makedirs(dir_, exist_ok=True)
    suffix = "" if seg is None else f"-seg-{seg:06d}"

    def write_one(group: pd.DataFrame) -> pd.DataFrame:
        pid = int(group[pid_col].iloc[0])
        t = pa.Table.from_pandas(
            group.drop(columns=[pid_col]), preserve_index=False
        )
        fs.put_table(t, os.path.join(dir_, f"part-{pid:05d}{suffix}.parquet"))
        return pd.DataFrame({"pid": [pid], "rows": [len(group)]})

    return ds.groupby(pid_col).map_groups(
        write_one, batch_format="pandas"
    ).take_all()


def _alias_table(gazetteer: dict) -> pa.Table:
    """(surface, eid, alias_iri) — the gazetteer is bounded reference
    input (not corpus-derived), so a driver-side table is fine."""
    ents = gazetteer["entities"]
    surfaces, eids, iris = [], [], []
    for alias, eid in gazetteer["alias_to_eid"].items():
        surfaces.append(alias)
        eids.append(eid)
        iris.append(ents[eid]["iri"] if eid in ents else entity_iri(eid))
    return pa.table({
        "surface": pa.array(surfaces, pa.string()),
        "eid": pa.array(eids, pa.string()),
        "alias_iri": pa.array(iris, pa.string()),
    })


def _surfaces_of(batch: pa.Table) -> pa.Table:
    """Distinct entity surfaces of a nested-triples batch, sorted —
    vectorized (list-flatten + Arrow unique/sort; UTF-8 byte order ==
    code-point order, so the sort matches Python's)."""
    trips = batch["triples"]
    if isinstance(trips, pa.ChunkedArray):
        trips = trips.combine_chunks()
    flat = trips.flatten()
    subj = flat.field("subj_surface")
    obj = flat.field("obj_surface").filter(
        pc.invert(flat.field("obj_is_literal")))
    both = pa.chunked_array([subj, obj]).combine_chunks()
    u = pc.unique(both)
    return pa.table({
        "surface": pc.take(u, pc.sort_indices(u)).cast(pa.string())
    })


def _distinct_by(ds, col: str, num_partitions: int):
    """Bounded-partition exact distinct (never a per-key Ray aggregate —
    vocabulary cardinality is unbounded)."""
    def dedup(group: pd.DataFrame) -> pd.DataFrame:
        return group.drop_duplicates(subset=[col], ignore_index=True)[[col]]

    return (
        ds.map_batches(
            lambda b: _pid_on(b, col, num_partitions), batch_format="pyarrow"
        )
        .groupby("pid")
        .map_groups(dedup, batch_format="pandas")
    )


# ----------------------------------------------------------------- edges
def _norm_edges(surf_ds, num_partitions: int):
    """Surfaces sharing a normalized form link unconditionally. Norms are
    ``[a-z0-9]*`` (NUL-free) so a pandas groupby would be safe, but we
    stay with the sort+boundary idiom used everywhere else."""
    def add_norm(batch: pa.Table) -> pa.Table:
        norms = [normalize_surface(s) for s in batch["surface"].to_pylist()]
        return batch.append_column("norm", pa.array(norms, pa.string()))

    def chain(group: pd.DataFrame) -> pd.DataFrame:
        g = sort_values_nul_safe(group, ["norm", "surface"],
                                 ignore_index=True)
        norms = g["norm"].to_numpy(object)
        if not len(norms):
            return pd.DataFrame({"src": [], "dst": []}, dtype=object)
        starts = np.flatnonzero(np.r_[True, norms[1:] != norms[:-1]])
        first = np.repeat(starts, np.diff(np.r_[starts, len(norms)]))
        keep = first != np.arange(len(norms))
        surf = g["surface"].to_numpy(object)
        return pd.DataFrame({
            "src": pd.Series(surf[first[keep]], dtype=object),
            "dst": pd.Series(surf[keep], dtype=object),
        })

    _s_edge = pa.schema([("src", pa.string()), ("dst", pa.string())])
    return (
        surf_ds.map_batches(add_norm, batch_format="pyarrow")
        .map_batches(lambda b: _pid_on(b, "norm", num_partitions),
                     batch_format="pyarrow")
        .groupby("pid")
        .map_groups(chain, batch_format="pandas")
        .map_batches(lambda b: b.select(["src", "dst"]).cast(_s_edge),
                     batch_format="pyarrow")
    )


def _band_rows(surf_ds, num_perm: int, bands: int):
    return surf_ds.map_batches(
        minhash_signatures_batch,
        fn_kwargs={"num_perm": num_perm, "bands": bands},
        batch_format="pyarrow",
    )


def _bucket_pid(batch: pa.Table, num_partitions: int) -> pa.Table:
    # identical bucket routing to canonicalize.build_canonical_map so the
    # hot-bucket chain cap emits the exact same pair set
    key = pc.add(batch["band_hash"], batch["band_id"].cast(pa.int64()))
    pid = pc.subtract(
        key,
        pc.multiply(
            pc.divide(key, pa.scalar(num_partitions, pa.int64())),
            pa.scalar(num_partitions, pa.int64()),
        ),
    ).cast(pa.int32())
    return batch.append_column("pid", pid)


def _lsh_edges(surf_ds, num_perm: int, bands: int, threshold: float):
    pairs = (
        _band_rows(surf_ds, num_perm, bands)
        .map_batches(lambda b: _bucket_pid(b, _NUM_BUCKET_PARTITIONS),
                     batch_format="pyarrow")
        .groupby("pid")
        .map_groups(bucket_pairs, batch_format="pandas")
    )
    return pairs.map_batches(
        verify_pairs, fn_kwargs={"threshold": threshold},
        batch_format="pyarrow",
    ).map_batches(
        lambda b: pa.table({"src": b["s1"], "dst": b["s2"]}),
        batch_format="pyarrow",
    )


# ------------------------------------------------------------- store build
def distinct_surfaces(raw_ds, gazetteer: dict):
    """The shared vocabulary pass: distinct entity surfaces of the corpus
    ∪ the gazetteer alias vocabulary, as a ``(surface)`` Dataset. Both
    canonical-map paths consume exactly this set, so ``build()``'s auto
    gate materializes it ONCE, counts it, and hands it to whichever path
    the count selects.

    Reduced by Ray's sort-shuffle ``groupby.count`` (a distributed
    aggregate, NOT a per-key ``map_groups`` — fine at unbounded key
    cardinality): measured at sf0.1 its sorted many-block output layout
    feeds the downstream minhash/bucket stages 1.3 s faster than the
    bounded-partition ``_distinct_by`` fold's few fat pandas-built
    blocks (3.4 s vs 4.7 s canonical-stage wall)."""
    import ray.data as rd

    alias_tbl = _alias_table(gazetteer)
    return (
        raw_ds.map_batches(_surfaces_of, batch_format="pyarrow")
        .union(rd.from_arrow(alias_tbl.select(["surface"])))
        .groupby("surface")
        .count()
        .select_columns(["surface"])
    )


def build_canonical_store(
    raw_ds,
    gazetteer: dict,
    canon_dir: str,
    *,
    threshold: float = 0.45,
    num_perm: int = 64,
    bands: int = 16,
    num_partitions: int = 16,
    surf_ds=None,
) -> dict:
    """Build the persisted map from a raw nested-triples Dataset. The
    vocabulary is never collected: clustering reduces via distributed
    min-label propagation and every derivation below is a co-partition
    pass over bounded hash partitions. Returns summary counts.

    ``surf_ds``: optional pre-materialized :func:`distinct_surfaces`
    result (must include the alias vocabulary) — skips the corpus scan."""
    canon_dir = fs.local(canon_dir)
    import ray.data as rd
    import shutil

    from ..functions.graph import connected_components

    shutil.rmtree(canon_dir, ignore_errors=True)
    os.makedirs(canon_dir, exist_ok=True)
    alias_tbl = _alias_table(gazetteer)
    if surf_ds is None:
        # vocabulary-scale; consumed by edges + attach below
        surf_ds = distinct_surfaces(raw_ds, gazetteer).materialize()

    edges = _norm_edges(surf_ds, num_partitions).union(
        _lsh_edges(surf_ds, num_perm, bands, threshold)
    )
    comp = connected_components(edges)  # (node, component = min member)

    # full (surface, component) incl. singleton surfaces
    def attach(group: pd.DataFrame) -> pd.DataFrame:
        s = group.loc[group["component"].isna(), ["surface"]]
        c = group.loc[group["component"].notna(), ["surface", "component"]]
        m = s.merge(c, on="surface", how="left")
        m["component"] = m["component"].where(
            m["component"].notna(), m["surface"]
        )
        return m[["surface", "component"]]

    surf_rows = surf_ds.map_batches(
        lambda b: b.append_column(
            "component", pa.array([None] * b.num_rows, pa.string())
        ),
        batch_format="pyarrow",
    )
    comp_rows = comp.map_batches(
        lambda b: pa.table({"surface": b["node"], "component": b["component"]}),
        batch_format="pyarrow",
    )
    full = (
        surf_rows.union(comp_rows)
        .map_batches(lambda b: _pid_on(b, "surface", num_partitions),
                     batch_format="pyarrow")
        .groupby("pid")
        .map_groups(attach, batch_format="pandas")
        .materialize()  # consumed twice (alias eids + final map join)
    )

    # (component, min alias eid) — alias rows meet their surface's
    # component by surface hash, fold min by component hash
    def alias_eids(group: pd.DataFrame) -> pd.DataFrame:
        a = group.loc[group["eid"].notna(), ["surface", "eid"]]
        c = group.loc[group["eid"].isna(), ["surface", "component"]]
        return a.merge(c, on="surface", how="inner")[["component", "eid"]]

    alias_keyed = rd.from_arrow(alias_tbl.select(["surface", "eid"])).map_batches(
        lambda b: b.append_column(
            "component", pa.array([None] * b.num_rows, pa.string())
        ),
        batch_format="pyarrow",
    )
    full_keyed = full.map_batches(
        lambda b: pa.table({
            "surface": b["surface"],
            "eid": pa.array([None] * b.num_rows, pa.string()),
            "component": b["component"],
        }),
        batch_format="pyarrow",
    )
    comp_eid = (
        alias_keyed.union(full_keyed)
        .map_batches(lambda b: _pid_on(b, "surface", num_partitions),
                     batch_format="pyarrow")
        .groupby("pid")
        .map_groups(alias_eids, batch_format="pandas")
    )

    def fold_min_eid(group: pd.DataFrame) -> pd.DataFrame:
        g = sort_values_nul_safe(group[["component", "eid"]],
                                 ["component", "eid"], ignore_index=True)
        return g.drop_duplicates(subset=["component"], keep="first",
                                 ignore_index=True)

    min_eid = (
        comp_eid.map_batches(
            lambda b: _pid_on(b, "component", num_partitions),
            batch_format="pyarrow",
        )
        .groupby("pid")
        .map_groups(fold_min_eid, batch_format="pandas")
    )

    # map rows: component → cluster IRI, joined back onto every surface,
    # then alias surfaces override with their OWN entity IRI
    def assign(group: pd.DataFrame) -> pd.DataFrame:
        full_part = group.loc[group["kind"] == "f", ["surface", "component"]]
        eid_part = group.loc[group["kind"] == "e", ["component", "eid"]]
        m = full_part.merge(eid_part, on="component", how="left")
        has = m["eid"].notna()
        iris = np.empty(len(m), dtype=object)
        eids = m["eid"].to_numpy(object)
        comps = m["component"].to_numpy(object)
        for i in range(len(m)):
            iris[i] = (
                entity_iri(eids[i]) if has.iat[i]
                else ENTITY_NS + surface_slug(comps[i])
            )
        return pd.DataFrame({
            "surface": m["surface"],
            "iri": pd.Series(iris, dtype=object),
        })

    full_f = full.map_batches(
        lambda b: pa.table({
            "surface": b["surface"], "component": b["component"],
            "eid": pa.array([None] * b.num_rows, pa.string()),
            "kind": pa.array(["f"] * b.num_rows, pa.string()),
        }),
        batch_format="pyarrow",
    )
    eid_f = min_eid.map_batches(
        lambda b: pa.table({
            "surface": pa.array([None] * b.num_rows, pa.string()),
            "component": b["component"], "eid": b["eid"],
            "kind": pa.array(["e"] * b.num_rows, pa.string()),
        }),
        batch_format="pyarrow",
    )
    mapped = (
        full_f.union(eid_f)
        .map_batches(lambda b: _pid_on(b, "component", num_partitions),
                     batch_format="pyarrow")
        .groupby("pid")
        .map_groups(assign, batch_format="pandas")
    )

    def override(group: pd.DataFrame) -> pd.DataFrame:
        # iri = what resolution uses (alias surfaces → OWN entity IRI);
        # cluster_iri = the pre-override cluster canonical — what
        # extension anchors adopt (extend_canonical_map semantics: old
        # *cluster* IRIs propagate, not alias-own IRIs)
        m = group.loc[group["alias_iri"].isna(), ["surface", "iri"]]
        a = group.loc[group["alias_iri"].notna(), ["surface", "alias_iri"]]
        out = m.merge(a, on="surface", how="left")
        out["cluster_iri"] = out["iri"]
        out["iri"] = out["alias_iri"].where(out["alias_iri"].notna(),
                                            out["iri"])
        return out[["surface", "iri", "cluster_iri"]]

    _s_ovr = pa.schema([("surface", pa.string()), ("iri", pa.string()),
                        ("alias_iri", pa.string())])
    alias_o = rd.from_arrow(alias_tbl).map_batches(
        lambda b: pa.table({
            "surface": b["surface"],
            "iri": pa.nulls(b.num_rows, pa.string()),
            "alias_iri": b["alias_iri"],
        }).cast(_s_ovr),
        batch_format="pyarrow",
    )
    mapped_o = mapped.map_batches(
        lambda b: pa.table({
            "surface": b["surface"].cast(pa.string()),
            "iri": b["iri"].cast(pa.string()),
            "alias_iri": pa.nulls(b.num_rows, pa.string()),
        }).cast(_s_ovr),
        batch_format="pyarrow",
    )
    final = (
        alias_o.union(mapped_o)
        .map_batches(lambda b: _pid_on(b, "surface", num_partitions),
                     batch_format="pyarrow")
        .groupby("pid")
        .map_groups(override, batch_format="pandas")
        .materialize()  # vocabulary-scale; consumed by map write + norms
    )

    map_counts = _write_parts(
        final.map_batches(
            lambda b: _pid_on(b, "surface", num_partitions),
            batch_format="pyarrow",
        ),
        os.path.join(canon_dir, "map"),
    )
    band_counts = _write_parts(
        _band_rows(surf_ds, num_perm, bands).map_batches(
            lambda b: _bucket_pid(b, num_partitions), batch_format="pyarrow"
        ),
        os.path.join(canon_dir, "bands"),
    )

    # norm → min cluster IRI (anchors for O(batch) extension): norms and
    # their surfaces' assigned IRIs meet by surface hash, fold by norm
    def norm_iri(group: pd.DataFrame) -> pd.DataFrame:
        g = sort_values_nul_safe(group[["norm", "iri"]], ["norm", "iri"],
                                 ignore_index=True)
        return g.drop_duplicates(subset=["norm"], keep="first",
                                 ignore_index=True)

    def add_norm_col(batch: pa.Table) -> pa.Table:
        norms = [normalize_surface(s) for s in batch["surface"].to_pylist()]
        return pa.table({
            "norm": pa.array(norms, pa.string()),
            "iri": batch["cluster_iri"],
        })

    norms_ds = (
        final.map_batches(add_norm_col, batch_format="pyarrow")
        .map_batches(lambda b: _pid_on(b, "norm", num_partitions),
                     batch_format="pyarrow")
        .groupby("pid")
        .map_groups(norm_iri, batch_format="pandas")
    )
    norm_counts = _write_parts(
        norms_ds.map_batches(
            lambda b: _pid_on(b, "norm", num_partitions),
            batch_format="pyarrow",
        ),
        os.path.join(canon_dir, "norms"),
    )

    meta = {
        "num_partitions": num_partitions,
        "num_perm": num_perm,
        "bands": bands,
        "threshold": threshold,
        "segments": 0,
    }
    fs.put_text(os.path.join(canon_dir, META_NAME), json.dumps(meta))
    return {
        "map_rows": int(sum(r["rows"] for r in map_counts)),
        "band_rows": int(sum(r["rows"] for r in band_counts)),
        "norm_rows": int(sum(r["rows"] for r in norm_counts)),
    }


def read_meta(canon_dir: str) -> dict:
    canon_dir = fs.local(canon_dir)
    with open(os.path.join(canon_dir, META_NAME)) as f:
        return json.load(f)


def map_files(canon_dir: str) -> list:
    canon_dir = fs.local(canon_dir)
    return _part_files(os.path.join(canon_dir, "map"))


def map_dataset(canon_dir: str):
    import ray.data as rd

    return rd.read_parquet(map_files(canon_dir))


def map_as_dict(canon_dir: str) -> dict:
    """Driver-side view (tests / small stores only — the point of this
    module is that production paths never call this). Extension segments
    override base rows (later files win)."""
    import pyarrow.parquet as pq

    out: dict = {}
    for f in map_files(canon_dir):
        t = pq.read_table(f)
        out.update(zip(t["surface"].to_pylist(), t["iri"].to_pylist()))
    return out


# --------------------------------------------------------- join resolution
_BASE_COLS = [
    ("graph_id", pa.string()),
    ("warc_ts", pa.timestamp("s")),
    ("pred", pa.string()),
    ("obj_is_literal", pa.bool_()),
    ("is_marker", pa.bool_()),
]
_S_EXPLODED = pa.schema(
    _BASE_COLS + [("subj_surface", pa.string()), ("obj_surface", pa.string())]
)
_S_SUBJ = pa.schema(
    _BASE_COLS + [("obj_surface", pa.string()), ("subj", pa.string())]
)
_S_RESOLVED = pa.schema(
    _BASE_COLS + [("subj", pa.string()), ("obj", pa.string())]
)


def explode_raw(raw_ds):
    """Nested page rows → flat triple rows (+ one marker row per empty
    page so its empty-graph version survives to the delta log)."""
    def explode(batch: pa.Table) -> pa.Table:
        trips = batch["triples"]
        if isinstance(trips, pa.ChunkedArray):
            trips = trips.combine_chunks()
        parent = pc.list_parent_indices(trips)
        flat = trips.flatten()
        n_t = len(parent)
        t1 = pa.table({
            "graph_id": batch["url"].take(parent),
            "warc_ts": batch["warc_ts"].take(parent),
            "pred": flat.field("pred"),
            "obj_is_literal": flat.field("obj_is_literal"),
            "is_marker": pa.array(np.zeros(n_t, dtype=bool)),
            "subj_surface": flat.field("subj_surface"),
            "obj_surface": flat.field("obj_surface"),
        }).cast(_S_EXPLODED)
        eb = batch.filter(pc.equal(pc.list_value_length(trips), 0))
        n_e = eb.num_rows
        t2 = pa.table({
            "graph_id": eb["url"],
            "warc_ts": eb["warc_ts"],
            "pred": pa.array([""] * n_e, pa.string()),
            "obj_is_literal": pa.array([True] * n_e, pa.bool_()),
            "is_marker": pa.array([True] * n_e, pa.bool_()),
            "subj_surface": pa.array([""] * n_e, pa.string()),
            "obj_surface": pa.array([""] * n_e, pa.string()),
        }).cast(_S_EXPLODED)
        return pa.concat_tables([t1, t2]).combine_chunks()

    return raw_ds.map_batches(explode, batch_format="pyarrow")


def _resolve_stage(rows_ds, canon_dir: str, *, key_col: str, out_col: str,
                   in_schema: pa.Schema, out_schema: pa.Schema,
                   literal_passthrough: bool):
    """One co-partition join: rows meet the map partition owning their
    ``key_col`` surface; unmatched surfaces fall back to the slug IRI
    (``SurfaceResolver`` semantics); literal / marker rows pass their raw
    value through unresolved."""
    import ray.data as rd

    meta = read_meta(canon_dir)
    P = int(meta["num_partitions"])
    union_names = list(in_schema.names) + ["surface", "iri", "__is_map",
                                           "pid"]
    union_schema = pa.schema(
        list(zip(in_schema.names, in_schema.types))
        + [("surface", pa.string()), ("iri", pa.string()),
           ("__is_map", pa.bool_()), ("pid", pa.int32())]
    )

    def t_pad(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        h = stable_hash_array(batch[key_col]) % np.uint64(P)
        cols = {name: batch[name] for name in in_schema.names}
        cols["surface"] = pa.nulls(n, pa.string())
        cols["iri"] = pa.nulls(n, pa.string())
        cols["__is_map"] = pa.array(np.zeros(n, dtype=bool))
        cols["pid"] = pa.array(h.astype("int32"))
        return pa.table([cols[c] for c in union_names],
                        schema=union_schema)

    def m_pad(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        h = stable_hash_array(batch["surface"]) % np.uint64(P)
        cols = {name: pa.nulls(n, typ)
                for name, typ in zip(in_schema.names, in_schema.types)}
        cols["surface"] = batch["surface"].cast(pa.string())
        cols["iri"] = batch["iri"].cast(pa.string())
        cols["__is_map"] = pa.array(np.ones(n, dtype=bool))
        cols["pid"] = pa.array(h.astype("int32"))
        return pa.table([cols[c] for c in union_names],
                        schema=union_schema)

    def resolve(group: pd.DataFrame) -> pd.DataFrame:
        is_map = group["__is_map"].to_numpy(bool)
        m = group.loc[is_map, ["surface", "iri"]]
        t = group.loc[~is_map, list(in_schema.names)]
        if not len(t):
            return pd.DataFrame(
                {c: pd.Series([], dtype=object) for c in out_schema.names}
            )
        # later map rows (extension segments) supersede base rows
        m = m.drop_duplicates(subset=["surface"], keep="last")
        j = t.merge(m, left_on=key_col, right_on="surface", how="left")
        res = j["iri"].to_numpy(object).copy()
        passthrough = j["is_marker"].to_numpy(bool)
        if literal_passthrough:
            passthrough = passthrough | j["obj_is_literal"].to_numpy(bool)
        keys = j[key_col].to_numpy(object)
        res[passthrough] = keys[passthrough]
        # slug fallback only for surfaces ABSENT from the map — zero in
        # a standard build (the map covers every corpus surface), so
        # the per-row Python cost is O(missing), not O(partition)
        missing = pd.isna(j["iri"]).to_numpy(bool) & ~passthrough
        for i in np.flatnonzero(missing):
            res[i] = ENTITY_NS + surface_slug(keys[i])
        j[out_col] = pd.Series(res, dtype=object)
        return j[list(out_schema.names)]

    def cast_out(batch: pa.Table) -> pa.Table:
        return batch.select(out_schema.names).cast(out_schema)

    map_rows = rd.read_parquet(map_files(canon_dir)).map_batches(
        m_pad, batch_format="pyarrow"
    )
    t_rows = rows_ds.map_batches(t_pad, batch_format="pyarrow")
    return (
        t_rows.union(map_rows)
        .groupby("pid")
        .map_groups(resolve, batch_format="pandas")
        .map_batches(cast_out, batch_format="pyarrow")
    )


def resolve_triples(raw_ds, canon_dir: str):
    """Raw nested rows → resolved flat rows (``_S_RESOLVED``) via two
    co-partition joins (subject surfaces, then non-literal object
    surfaces). Streaming: no stage holds more than one hash partition of
    (rows + map slice); the map is never broadcast or collected."""
    canon_dir = fs.local(canon_dir)
    ex = explode_raw(raw_ds)
    s1 = _resolve_stage(
        ex, canon_dir, key_col="subj_surface", out_col="subj",
        in_schema=_S_EXPLODED, out_schema=_S_SUBJ,
        literal_passthrough=False,
    )
    return _resolve_stage(
        s1, canon_dir, key_col="obj_surface", out_col="obj",
        in_schema=_S_SUBJ, out_schema=_S_RESOLVED,
        literal_passthrough=True,
    )


def marker_rows(rows: pa.Table) -> pa.Table:
    """(graph_id, warc_ts, partition_id) rows → resolved marker rows with
    their ``partition_id``: each serializes to one empty version of its
    graph (:func:`serialize_partition_frame`)."""
    n = rows.num_rows
    blank = pa.array([""] * n, pa.string())
    flag = pa.array([True] * n, pa.bool_())
    return pa.table({
        "graph_id": rows["graph_id"], "warc_ts": rows["warc_ts"],
        "pred": blank, "obj_is_literal": flag, "is_marker": flag,
        "subj": blank, "obj": blank,
    }).cast(_S_RESOLVED).append_column("partition_id",
                                       rows["partition_id"])


def triples_dataset(resolved_ds):
    """Resolved rows → the ``TRIPLES`` contract (markers dropped)."""
    def to_triples(batch: pa.Table) -> pa.Table:
        keep = pc.invert(batch["is_marker"])
        t = batch.filter(keep)
        return pa.table({
            "subj": t["subj"].cast(pa.string()),
            "pred": t["pred"].cast(pa.string()),
            "obj": t["obj"].cast(pa.string()),
            "obj_is_literal": t["obj_is_literal"],
            "graph_id": t["graph_id"],
            "warc_ts": t["warc_ts"].cast(pa.timestamp("s")),
        }).cast(TRIPLES)

    return resolved_ds.map_batches(to_triples, batch_format="pyarrow")


def map_size(canon_dir: str) -> int:
    """Total map rows from parquet footers only (extension segments only
    ever ADD surfaces, so the sum is exact)."""
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(f).metadata.num_rows
               for f in map_files(canon_dir))


def serialize_partition_frame(group: pd.DataFrame) -> pd.DataFrame:
    """One delta partition's resolved rows → ``VERSIONS`` rows (+
    ``partition_id``): group to (graph_id, warc_ts) with NUL-safe
    integer codes, serialize each page's triple set to canonical
    N-Triples. Byte-identical to the per-page broadcast serializer for
    well-formed inputs (distinct (url, warc_ts) pages); duplicate
    (url, ts) raw rows merge into one version here (union of triples)."""
    gids = group["graph_id"].to_numpy(object)
    u_g, gcode = np.unique(gids, return_inverse=True)
    ts = group["warc_ts"].to_numpy("datetime64[s]").astype(np.int64)
    u_t, tcode = np.unique(ts, return_inverse=True)
    combo = gcode.astype(np.int64) * len(u_t) + tcode
    order = np.argsort(combo, kind="stable")
    sorted_combo = combo[order]
    starts = np.flatnonzero(np.r_[True, sorted_combo[1:] != sorted_combo[:-1]])
    ends = np.r_[starts[1:], len(order)]

    subj = group["subj"].to_numpy(object)
    pred = group["pred"].to_numpy(object)
    obj = group["obj"].to_numpy(object)
    lit = group["obj_is_literal"].to_numpy(bool)
    marker = group["is_marker"].to_numpy(bool)

    out_g, out_ts, out_text, out_dig = [], [], [], []
    for s, e in zip(starts, ends):
        idx = order[s:e]
        canon = [
            (subj[i], pred[i], obj[i], bool(lit[i]))
            for i in idx
            if not marker[i]
        ]
        text = serialize(canon)
        first = idx[0]
        out_g.append(gids[first])
        out_ts.append(int(ts[first]))
        out_text.append(text)
        out_dig.append(sha256_text(text))
    t = pa.table({
        "graph_id": pa.array(out_g, pa.string()),
        "warc_ts": pa.array(out_ts, pa.timestamp("s")),
        "delta_text": pa.array(out_text, pa.large_string()),
        "digest": pa.array(out_dig, pa.binary()),
    }).cast(VERSIONS).append_column(
        "partition_id",
        pa.array([int(group["partition_id"].iloc[0])] * len(out_g),
                 pa.int32()),
    )
    return t.to_pandas()


# ------------------------------------------------------ O(batch) extension
def _copartition_lookup(probe_tbl: pa.Table, files: list, on: list,
                        take: list, P: int) -> pd.DataFrame:
    """Inner-join a SMALL probe table against a persisted hash-partitioned
    table without collecting the stored side: probe rows and stored rows
    meet in the partition owning their key (``on[0]`` is the hash key).
    Compute is O(probe × matches); stored-side I/O is one pass over the
    index files (parallel, columnar). Returns the joined frame (probe
    columns + ``take``) on the driver — callers pass batch-scale probes.
    """
    import ray.data as rd

    probe_cols = probe_tbl.column_names
    stored_schema: dict = {}
    import pyarrow.parquet as pq

    sch = pq.ParquetFile(files[0]).schema_arrow
    for name in on + take:
        stored_schema[name] = sch.field(name).type
    union_schema = pa.schema(
        [(c, probe_tbl.schema.field(c).type) for c in probe_cols]
        + [(f"__s_{c}", stored_schema[c]) for c in on + take]
        + [("__probe", pa.bool_()), ("pid", pa.int32())]
    )

    def pad_probe(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        h = stable_hash_array(batch[on[0]]) % np.uint64(P)
        cols = [batch[c] for c in probe_cols]
        cols += [pa.nulls(n, stored_schema[c]) for c in on + take]
        cols += [pa.array(np.ones(n, dtype=bool)),
                 pa.array(h.astype("int32"))]
        return pa.table(cols, schema=union_schema)

    def pad_stored(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        h = stable_hash_array(batch[on[0]]) % np.uint64(P)
        cols = [pa.nulls(n, probe_tbl.schema.field(c).type)
                for c in probe_cols]
        cols += [batch[c] for c in on + take]
        cols += [pa.array(np.zeros(n, dtype=bool)),
                 pa.array(h.astype("int32"))]
        return pa.table(cols, schema=union_schema)

    # a take column sharing a probe column's name comes back as
    # "<name>__hit" so the merge never collides
    out_take = [c if c not in probe_cols else f"{c}__hit" for c in take]

    def join_part(group: pd.DataFrame) -> pd.DataFrame:
        is_p = group["__probe"].to_numpy(bool)
        p = group.loc[is_p, probe_cols]
        s = group.loc[~is_p, [f"__s_{c}" for c in on + take]]
        s.columns = on + out_take
        if not len(p) or not len(s):
            return pd.DataFrame(
                {c: pd.Series([], dtype=object)
                 for c in probe_cols + out_take}
            )
        from ..shuffle_utils import drop_duplicates_nul_safe

        j = p.merge(drop_duplicates_nul_safe(s), left_on=on, right_on=on,
                    how="inner")
        return j[probe_cols + out_take]

    probe_ds = rd.from_arrow(probe_tbl).map_batches(
        pad_probe, batch_format="pyarrow"
    )
    stored_ds = rd.read_parquet(files).map_batches(
        pad_stored, batch_format="pyarrow"
    )
    rows = (
        probe_ds.union(stored_ds)
        .groupby("pid")
        .map_groups(join_part, batch_format="pandas")
        .take_all()
    )
    return pd.DataFrame(rows, columns=probe_cols + out_take)


def extend_canonical_store(raw_ds, gazetteer: dict, canon_dir: str) -> dict:
    """Extend a persisted canonical store with an incremental batch —
    O(batch) compute, one columnar pass over the index partitions, never
    a re-cluster of the vocabulary (the driver-path
    ``extend_canonical_map`` re-clusters everything per batch, its one
    genuine scale ceiling).

    Semantics (matches ``extend_canonical_map``'s stability contract):
    existing surfaces keep their IRIs unconditionally; a NEW surface that
    clusters with existing vocabulary adopts the smallest of the anchored
    old *cluster* IRIs; an all-new cluster derives its canonical from its
    own members (min alias eid — impossible here since aliases pre-exist
    — else slug of the min member).

    Partitioning/approximation assumption (documented): anchors are
    found by DIRECT probe collisions (shared norm, or a verified shared
    LSH band) between a new surface and the stored vocabulary. Old-old
    transitive bridges that only a full re-cluster would traverse are
    not followed — those can differ only through the hot-bucket chain
    cap, and old assignments are immutable either way.
    """
    canon_dir = fs.local(canon_dir)
    from .canonicalize import MinHashSignatures, UnionFind

    meta = read_meta(canon_dir)
    P = int(meta["num_partitions"])
    num_perm, bands = int(meta["num_perm"]), int(meta["bands"])
    threshold = float(meta["threshold"])

    # 1. batch vocabulary (distinct surfaces), batch-scale
    batch_vocab = sorted(
        {
            s
            for b in _distinct_by(
                raw_ds.map_batches(_surfaces_of, batch_format="pyarrow"),
                "surface", P,
            ).iter_batches(batch_format="pyarrow")
            for s in b["surface"].to_pylist()
        }
    )
    if not batch_vocab:
        return {"new_surfaces": 0, "segment": int(meta["segments"])}

    # 2. which of them are NEW (anti-join against the map partitions)
    probe = pa.table({"surface": pa.array(batch_vocab, pa.string())})
    known = _copartition_lookup(
        probe, map_files(canon_dir), on=["surface"], take=["iri"], P=P
    )
    known_set = set(known["surface"])
    new_surfaces = [s for s in batch_vocab if s not in known_set]
    if not new_surfaces:
        return {"new_surfaces": 0, "segment": int(meta["segments"])}

    # 3. new↔new edges (batch-scale, same kernels as the build)
    uf = UnionFind()
    for s in new_surfaces:
        uf.find(s)
    by_norm: dict = {}
    norms = {s: normalize_surface(s) for s in new_surfaces}
    for s in new_surfaces:
        by_norm.setdefault(norms[s], []).append(s)
    for group in by_norm.values():
        for other in group[1:]:
            uf.union(group[0], other)
    signer = MinHashSignatures(num_perm=num_perm, bands=bands)
    band_rows = signer(probe.filter(
        pa.array([s not in known_set for s in batch_vocab])
    ))
    bdf = band_rows.to_pandas()
    for (_, _), bucket in bdf.groupby(["band_id", "band_hash"], sort=False):
        members = sorted(set(bucket["surface"]))
        for a, b in zip(members, members[1:]):
            if jaccard(norms.get(a) or normalize_surface(a),
                       norms.get(b) or normalize_surface(b)) >= threshold:
                uf.union(a, b)

    # 4. anchors: direct collisions with the stored vocabulary
    norm_probe = pa.table({
        "surface": pa.array(new_surfaces, pa.string()),
        "norm": pa.array([norms[s] for s in new_surfaces], pa.string()),
    })
    norm_hits = _copartition_lookup(
        norm_probe, _part_files(os.path.join(canon_dir, "norms")),
        on=["norm"], take=["iri"], P=P,
    )
    band_hits = _probe_band_index(
        band_rows, canon_dir, norms, threshold, P
    )
    anchors: dict = {}
    for s, iri in zip(norm_hits["surface"], norm_hits["iri"]):
        if iri is not None:
            anchors[s] = min(anchors.get(s, iri), iri)
    for s, iri in band_hits:
        anchors[s] = min(anchors.get(s, iri), iri)

    # 5. adoption per new component
    comp_anchor: dict = {}
    for s, iri in anchors.items():
        root = uf.find(s)
        comp_anchor[root] = min(comp_anchor.get(root, iri), iri)
    assigned: dict = {}
    for root, members in uf.clusters().items():
        target = comp_anchor.get(root)
        if target is None:
            target = ENTITY_NS + surface_slug(members[0])
        for m in members:
            assigned[m] = target

    # 6. append log-structured segments (map / bands / norms)
    import ray.data as rd

    seg = int(meta["segments"]) + 1
    new_map = pa.table({
        "surface": pa.array(new_surfaces, pa.string()),
        "iri": pa.array([assigned[s] for s in new_surfaces], pa.string()),
        "cluster_iri": pa.array([assigned[s] for s in new_surfaces],
                                pa.string()),
    })
    _write_parts(
        rd.from_arrow(new_map).map_batches(
            lambda b: _pid_on(b, "surface", P), batch_format="pyarrow"),
        os.path.join(canon_dir, "map"), seg=seg,
    )
    _write_parts(
        rd.from_arrow(band_rows).map_batches(
            lambda b: _bucket_pid(b, P), batch_format="pyarrow"),
        os.path.join(canon_dir, "bands"), seg=seg,
    )
    new_norms = pa.table({
        "norm": pa.array([norms[s] for s in new_surfaces], pa.string()),
        "iri": pa.array([assigned[s] for s in new_surfaces], pa.string()),
    })
    _write_parts(
        rd.from_arrow(new_norms).map_batches(
            lambda b: _pid_on(b, "norm", P), batch_format="pyarrow"),
        os.path.join(canon_dir, "norms"), seg=seg,
    )
    meta["segments"] = seg
    fs.put_text(os.path.join(canon_dir, META_NAME), json.dumps(meta))
    return {"new_surfaces": len(new_surfaces), "segment": seg,
            "assigned": assigned}


def _probe_band_index(band_rows: pa.Table, canon_dir: str, norms: dict,
                      threshold: float, P: int,
                      max_check_per_bucket: int = 64) -> list:
    """(new surface, anchor cluster IRI) pairs from verified LSH band
    collisions against the persisted band index. At most
    ``max_check_per_bucket`` distinct stored collisions are verified per
    NEW surface (the hot-bucket guard, mirroring ``bucket_pairs`` — a
    degenerate bucket costs O(cap), never O(members))."""
    files = _part_files(os.path.join(canon_dir, "bands"))
    if not files or band_rows.num_rows == 0:
        return []
    hits = _copartition_lookup(
        band_rows.select(["band_hash", "band_id", "surface"]),
        files, on=["band_hash", "band_id"], take=["surface"], P=P,
    )
    if not len(hits):
        return []
    pairs = sorted(set(zip(hits["surface"], hits["surface__hit"])))
    out = []
    checked: dict = {}
    for new_s, old_s in pairs:
        if checked.get(new_s, 0) >= max_check_per_bucket:
            continue
        checked[new_s] = checked.get(new_s, 0) + 1
        if jaccard(norms.get(new_s) or normalize_surface(new_s),
                   normalize_surface(old_s)) >= threshold:
            out.append((new_s, old_s))
    if not out:
        return []
    old_uniq = sorted({o for _, o in out})
    probe = pa.table({"surface": pa.array(old_uniq, pa.string())})
    lut = _copartition_lookup(
        probe, map_files(canon_dir), on=["surface"],
        take=["cluster_iri"], P=P,
    )
    old_iri = dict(zip(lut["surface"], lut["cluster_iri"]))
    return [(n, old_iri[o]) for n, o in out if o in old_iri]
