"""As-of reads over the delta log: one kernel, two drivers.

Semantics (reference parity):

- ``state_at(ts)``: for each graph, the latest delta with ``warc_ts <= ts``
  (as-of predecessor semantics — the binary search in
  ``/root/reference/src/git.rs:157-161``); graphs whose latest op is
  ``delete`` are absent; a ``ts`` before the first delta yields the empty
  state (``Err(0)`` → empty, ``src/git.rs:157-159``).
- ``graphs_at(ts)``: union of all live graphs' triples serialized as ONE
  canonical N-Triples document — graph identity erased, duplicates folded
  (``combine_graphs`` + oxigraph store dedup, ``src/query.rs:127-169``).
- ``metadata()``: (first, last) delta time (``repo_metadata``,
  ``src/git.rs:78-85``).

One primitive: every read form derives from the live graphs' canonical
N-Triples LINES. Canonical text is sorted and deduped
(:mod:`..ntriples`), so line-level set algebra equals triple-level set
algebra.

One prepare step (:func:`prepare`, :class:`Versions`), built once per
delta table, turns the log into version intervals ("An Interval-centric
Model for Distributed Computing over Temporal Graphs", ICDE 2020):

- the rows sorted by ``(graph_id, warc_ts, seq)`` — the log's one
  version order (``seq`` makes it total: same-second ties resolve by
  write order, never by sort stability) — each valid over
  ``[sec, t_to)``, where ``sec`` is its floored second and ``t_to`` the
  second of its graph's next version (open for the last, the graph's
  head). Same-second replays get empty intervals ``[s, s)``, so the
  last write of a second wins with no special case;
- on the first read that needs lines, the distinct version texts, each
  exploded once into ids of ONE bytewise-sorted dictionary of distinct
  lines (:func:`explode_lines`), and each row's line ids
  (:attr:`Versions.row_lines`: offsets into one id array);
- on the first read that needs triples, that dictionary parsed by ONE
  ``ntriples.parse`` call, with its lines' order as triples.

An as-of read is then one mask, ``sec <= k < t_to and op != delete``
(:meth:`Versions.live`, behind :func:`state_at_table`), whose row
positions take line ids from the rows and triples from the dictionary —
no per-read sort, explode, parse or text hashing. A pattern scan need
not read the instant's triples at all: the query layer keeps, per
reader and pattern, a match list over the dictionary (the matching
lines, their bindings, and each (row, matching line) with the row's
interval, from :attr:`Versions.row_lines`), and answers a scan at ``k``
as a stab ``sec <= k < t_to`` into it (:func:`..query.bgp.pattern_at`);
:meth:`Versions.extend` keeps the map of old line ids to new
(:attr:`Versions.remap`) that carries those lists through a write.
Arrow hashes and sorts full bytes, so NUL-bearing graph ids and literals
are safe by construction, with no per-site guard. Every kernel accepts a
raw delta
table (prepared on entry, as :func:`..schemas.ensure_seq` normalizes a
seq-less table) or a prepared :class:`Versions`:

- ``state_at_table``: the live rows, in ``graph_id`` order;
- ``graphs_at_table``: the live lines of the dictionary, in its order —
  no parse, no re-serialization, so each graph keeps its own blank-node
  labels;
- ``triples_at_table``: the live lines' triples, sorted (what a pattern
  stab equals; still built for property-path node universes, SERVICE
  tables and the partition actors' ``node_terms``);
- ``quads_at_table``: each live graph's triples with its graph id, in
  graph then line order;
- ``diff_table``: unchanged graphs skipped by digest, then a set
  difference on ``(graph_id, line id)``;
- ``blame_table`` (:mod:`.blame`): the line ids of every version
  ``<= ts``.

Two drivers run the kernels:

- **Table path** (pyarrow, no Ray): the kernels on one delta table —
  the query reader's path over a partition or a small store.
- **Dataset path** (scales): ``state_at``, ``diff_between`` and
  ``blame`` filter rows to ``<= ts``, hash ``graph_id`` into
  :data:`NUM_PARTITIONS` bounded partitions (the log's own key, so every
  graph's history lands in one partition) and run the table kernel per
  partition — one keyed shuffle, nothing driver-sized.
"""

from __future__ import annotations

import copy
import math
import numbers

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import ntriples
from ..schemas import OP_DELETE, ensure_seq

# bounded shuffle width of the Dataset path: graph cardinality is
# corpus-scale, so one map_groups per graph would pay Ray's per-group
# overhead once per url
NUM_PARTITIONS = 64


def unix_seconds(ts) -> "int | None":
    """``ts`` as whole unix seconds when it is a real number (``bool``
    excepted), floored to the second grain; None for anything else."""
    if isinstance(ts, bool) or not isinstance(ts, numbers.Real):
        return None
    return math.floor(ts)


def _ts_scalar(ts) -> pa.Scalar:
    """Accept unix seconds (any real number) or a datetime; compare at
    second grain — the reference's version-axis resolution
    (``src/git.rs:82,157``)."""
    secs = unix_seconds(ts)
    return pa.scalar(ts if secs is None else secs, pa.timestamp("s"))


# ---------------------------------------------------------------- kernels
_VERSION_ORDER = [("graph_id", "ascending"), ("warc_ts", "ascending"),
                  ("seq", "ascending")]
_OPEN = np.iinfo(np.int64).max  # t_to of a graph's last version
_UNIT_PER_S = {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}


def _instant(ts) -> int:
    """``ts`` as whole unix seconds (:func:`_ts_scalar`'s conversion)."""
    return _ts_scalar(ts).value


def _starts(a: np.ndarray) -> np.ndarray:
    """True where ``a[i]`` differs from ``a[i - 1]`` (and at ``i = 0``)."""
    out = np.ones(len(a), bool)
    out[1:] = a[1:] != a[:-1]
    return out


class Versions:
    """A delta table prepared for as-of reads (see the module doc): its
    rows in ``(graph_id, warc_ts, seq)`` order, each valid over
    ``[sec, t_to)``, and — built on the first read that needs lines —
    the dictionary of every version's lines, each row's line ids and
    the dictionary's one parse."""

    def __init__(self, deltas: pa.Table, row_text=None):
        # row_text: each row's id into the dictionary's texts, in the
        # order of ``deltas`` (given by :meth:`extend` with the
        # dictionary it carries)
        rows = ensure_seq(deltas)  # legacy seq-less tables: row order
        if rows.num_rows:
            order = pc.sort_indices(rows, sort_keys=_VERSION_ORDER)
            rows = rows.take(order)
            if row_text is not None:
                row_text = row_text[order.to_numpy()]
        self.rows = rows
        ts = rows["warc_ts"]
        self.sec = ts.cast(pa.int64()).to_numpy() // _UNIT_PER_S[ts.type.unit]
        # True at each graph's first version
        self.first = _starts(rows["graph_id"].to_numpy(zero_copy_only=False))
        self.t_to = np.full(rows.num_rows, _OPEN)
        same = ~self.first[1:]
        self.t_to[:-1][same] = self.sec[1:][same]
        self.kept = rows["op"].to_numpy(zero_copy_only=False) != OP_DELETE
        # built on first use, without a lock (the library's classes are
        # pickled by value into Ray workers, and a lock does not pickle):
        # two threads racing here only repeat the work
        self._row_text = row_text
        self._dictionary = self._row_lines = self._triples = None
        # set by extend when it carries a dictionary: the line ids of
        # the table it extends mapped to this one's, and the ids of the
        # lines the write added
        self.remap = None

    def heads(self) -> pa.Table:
        """Each graph's latest version, deletes included: the rows
        whose interval is open — what a write validates against."""
        return self.rows.filter(pa.array(self.t_to == _OPEN))

    def live(self, k: int) -> np.ndarray:
        """The one as-of mask: the versions valid at ``k`` and not a
        delete, at most one per graph."""
        return (self.sec <= k) & (k < self.t_to) & self.kept

    @property
    def dictionary(self) -> tuple:
        """``(texts, lines, text_lines)``: the distinct version texts,
        the distinct lines of all of them sorted bytewise, and per text
        the ids of its lines into ``lines``, in text order."""
        if self._dictionary is None:
            d, self._row_text = _add_texts(None, self.rows["delta_text"])[:2]
            self._dictionary = d
        return self._dictionary

    @property
    def row_lines(self) -> pa.LargeListArray:
        """Each row's line ids into :attr:`lines`, in row order: offsets
        into one id array (a delete's, like an empty graph's, is
        empty)."""
        if self._row_lines is None:
            text_lines = self.dictionary[2]
            self._row_lines = text_lines.take(pa.array(self._row_text))
        return self._row_lines

    def numbered(self) -> "Versions":
        """This table with each row replaced by its position (one
        ``row`` column), intervals unchanged: an as-of select over it
        yields the live rows' positions, by which the kernels take line
        ids and triples."""
        out = copy.copy(self)
        out.rows = pa.table({"row": np.arange(self.rows.num_rows)})
        return out

    def line_ids(self, pos=None) -> "tuple[np.ndarray, np.ndarray]":
        """``(parent, ids)``: one entry per line of each row at ``pos``
        (row positions; every row when None), in order — the index of
        its row in ``pos`` and its id into :attr:`lines`."""
        per = self.row_lines if pos is None else self.row_lines.take(pos)
        return (pc.list_parent_indices(per).to_numpy(),
                pc.list_flatten(per).to_numpy())

    def extend(self, rows: pa.Table) -> "Versions":
        """This table with ``rows`` (a write's new delta rows) added, as
        a new object equal to a prepare of the whole: each new row
        closes its graph's open interval at its second and opens the
        next. Of the dictionary and its parse, when built, only the new
        distinct lines are exploded, merged in and parsed; the existing
        line ids are remapped (the map is kept as :attr:`remap`).
        ``self`` is unchanged: concurrent reads may still hold it."""
        both = pa.concat_tables([self.rows, rows.select(self.rows.schema.names)
                                 .cast(self.rows.schema)])
        if self._dictionary is None:
            return Versions(both)
        dictionary, text_ids, fresh, perm, new_id = _add_texts(
            self._dictionary, rows["delta_text"])
        out = Versions(both, np.r_[self._row_text, text_ids])
        out._dictionary = dictionary
        old = len(self._dictionary[1])
        out.remap = new_id[:old], new_id[old:]
        out._triples = self._triples
        if self._triples is not None and len(fresh):
            parsed = pa.concat_tables([self._triples[0],
                                       pa.table(_parse_lines(fresh))])
            parsed = parsed.take(perm)
            out._triples = parsed, _triple_order(parsed)
        return out

    @property
    def lines(self) -> pa.Array:
        return self.dictionary[1]

    @property
    def triples(self) -> tuple:
        """``(parsed, order)``: the triples of :attr:`lines` in line
        order, from one ``ntriples.parse`` call, and the line ids in
        triple order."""
        if self._triples is None:
            parsed = pa.table(_parse_lines(self.lines))
            self._triples = parsed, _triple_order(parsed)
        return self._triples


def prepare(deltas) -> Versions:
    """``deltas`` prepared for as-of reads; a prepared table as is. The
    test is on the Arrow type: a Ray worker may hold two copies of this
    module's classes (the library is pickled by value into it)."""
    return Versions(deltas) if isinstance(deltas, pa.Table) else deltas


def state_at_table(deltas, ts) -> pa.Table:
    """Live (graph_id, warc_ts, delta_text, digest) rows at ``ts``, in
    ``graph_id`` order."""
    v = prepare(deltas)
    return v.rows.filter(pa.array(v.live(_instant(ts))))


def _live_rows(v: Versions, ts) -> np.ndarray:
    """The positions in ``v.rows`` of the rows live at ``ts``: the one
    as-of select, :func:`state_at_table`, over :meth:`Versions.numbered`
    (looked up on the module, where the benchmark times it)."""
    return state_at_table(v.numbered(), ts)["row"].to_numpy()


def explode_lines(table: pa.Table, carry) -> pa.Table:
    """One row per canonical line of each row's ``delta_text``: the
    ``carry`` columns repeated, then ``line``. Empty lines (the trailing
    one of every text, the whole of an empty graph) are dropped."""
    parts = pc.split_pattern(table["delta_text"], "\n")
    lines = pc.list_flatten(parts)
    parent = pc.list_parent_indices(parts)
    out = pa.table({**{c: table[c].take(parent) for c in carry},
                    "line": lines})
    return out.filter(pc.not_equal(lines, ""))


def union_document(texts) -> str:
    """The canonical document of the union of canonical documents
    ``texts``: their distinct lines sorted bytewise, joined with
    ``"\n"`` plus a trailing ``"\n"`` (``""`` if there are none). The
    one merge of the partition actors' documents on the router; a
    store's own ``graphs_at`` is the same document from its line
    dictionary."""
    lines = pc.unique(explode_lines(pa.table({"delta_text": texts}), ())["line"])
    return _document(lines.take(pc.sort_indices(lines)))


def _document(lines) -> str:
    """Sorted distinct ``lines`` as a canonical document."""
    return _joined(lines) + "\n" if len(lines) else ""


def _joined(lines) -> str:
    """``lines`` joined with ``"\n"`` by one Arrow kernel — no Python
    string per line."""
    flat = pc.cast(lines, pa.large_string())
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    one = pa.LargeListArray.from_arrays(pa.array([0, len(flat)], pa.int64()),
                                        flat)
    return pc.binary_join(one, pa.scalar("\n", pa.large_string()))[0].as_py()


_TRIPLE = (("subj", pa.string()), ("pred", pa.string()),
           ("obj", pa.string()), ("obj_is_literal", pa.bool_()))


def _parse_lines(lines) -> dict:
    """``(subj, pred, obj, obj_is_literal)`` columns of canonical lines,
    in line order, from ONE ``ntriples.parse`` call."""
    rows = ntriples.parse(_joined(lines))
    cols = list(zip(*rows)) if rows else [()] * len(_TRIPLE)
    return {name: pa.array(col, typ) for (name, typ), col in zip(_TRIPLE, cols)}


def _add_texts(dictionary, texts) -> tuple:
    """``(dictionary, text_ids, fresh, perm, new_id)``: ``dictionary``
    (as :attr:`Versions.dictionary`; None for the empty one) with the
    distinct version ``texts`` it lacks added, and each of ``texts``'s
    id into its texts. Only the added texts are exploded, and only
    their lines that it lacks (``fresh``) are merged into the sorted
    lines; ``perm`` takes its old lines then ``fresh`` into the merged
    order, and ``new_id`` (its inverse) maps them to merged ids."""
    if dictionary is None:
        dictionary = (pa.array([], texts.type), pa.array([], texts.type),
                      pa.LargeListArray.from_arrays(
                          pa.array([0], pa.int64()), pa.array([], pa.int32())))
    known, lines, text_lines = dictionary
    at = pc.index_in(texts, value_set=known)
    add = pc.unique(texts.filter(pc.is_null(at)))
    text_ids = pc.coalesce(at, pc.add(pc.index_in(texts, value_set=add),
                                      len(known))).to_numpy()
    ex = explode_lines(pa.table({
        "delta_text": add,
        "text": pa.array(np.arange(len(add)), pa.int64())}), ["text"])
    fresh = pc.unique(ex["line"])
    fresh = fresh.filter(pc.invert(pc.is_in(fresh, value_set=lines)))
    merged = pa.concat_arrays([lines, fresh.cast(lines.type)])
    perm = pc.sort_indices(merged)
    new_id = np.empty(len(merged), np.int32)
    new_id[perm.to_numpy()] = np.arange(len(merged), dtype=np.int32)
    lines = merged.take(perm)
    counts = np.bincount(ex["text"].to_numpy(), minlength=len(add))
    offsets = text_lines.offsets.to_numpy()
    return (pa.concat_arrays([known, add.cast(known.type)]), lines,
            pa.LargeListArray.from_arrays(
                pa.array(np.r_[offsets, offsets[-1] + np.cumsum(counts)],
                         pa.int64()),
                pa.concat_arrays([
                    pa.array(new_id[text_lines.values.to_numpy()],
                             pa.int32()),
                    pc.index_in(ex["line"], value_set=lines)
                    .combine_chunks()]))), text_ids, fresh, perm, new_id


def _triple_order(parsed: pa.Table) -> np.ndarray:
    """The row ids of ``parsed`` in sorted triple order."""
    return pc.sort_indices(parsed, sort_keys=[
        (name, "ascending") for name, _ in _TRIPLE]).to_numpy()


def _live_line_mask(v: Versions, ts) -> np.ndarray:
    """Which of ``v``'s lines some graph live at ``ts`` holds."""
    _, ids = v.line_ids(_live_rows(v, ts))
    mask = np.zeros(len(v.lines), bool)
    mask[ids] = True
    return mask


def graphs_at_table(deltas, ts) -> str:
    """Merged canonical N-Triples document at ``ts``."""
    v = prepare(deltas)
    return _document(v.lines.filter(pa.array(_live_line_mask(v, ts))))


def triples_at_table(deltas, ts) -> pa.Table:
    """Distinct (subj, pred, obj, obj_is_literal) live at ``ts``, sorted."""
    v = prepare(deltas)
    mask = _live_line_mask(v, ts)
    parsed, order = v.triples
    return parsed.take(order[mask[order]])


def quads_at_table(deltas, ts) -> pa.Table:
    """(graph_id, subj, pred, obj, obj_is_literal) live at ``ts``, one
    row per line of each live graph — the quad view that scopes ``GRAPH``
    clauses. The engine's named graphs are the reference's
    one-graph-per-source-id model (``src/git.rs:110-120``), so the graph
    term of a quad is the graph id itself."""
    v = prepare(deltas)
    pos = _live_rows(v, ts)
    parent, ids = v.line_ids(pos)
    return v.triples[0].take(ids).add_column(
        0, "graph_id", v.rows["graph_id"].take(pos[parent]))


def _changed_lines(v: Versions, a: np.ndarray, b: np.ndarray) -> pa.Table:
    """(graph_id, line id) of the live graphs at row positions ``a``
    whose content differs at ``b`` — the stored digest skips unchanged
    graphs unexploded."""
    keys = v.rows.select(["graph_id", "digest"])
    changed = keys.take(a).append_column("pos", pa.array(a)).join(
        keys.take(b), ["graph_id", "digest"], join_type="left anti")
    changed = changed["pos"].combine_chunks()
    parent, ids = v.line_ids(changed)
    return pa.table({"graph_id": v.rows["graph_id"].take(
        changed.take(parent)), "line": ids})


def diff_table(deltas, ts1, ts2) -> pa.Table:
    """Triples added/removed between the store states at ``ts1`` and
    ``ts2`` — the diff-store's namesake operation. The reference keeps
    exactly this as its storage format (one git commit per graph change,
    ``src/git.rs:151-190``); here it is recovered from the delta log by
    resolving both as-of states and set-differencing their line ids.
    Returns ``(graph_id, change ∈ {added, removed}, line)`` sorted."""
    v = prepare(deltas)
    live1, live2 = _live_rows(v, ts1), _live_rows(v, ts2)
    old, new = _changed_lines(v, live1, live2), _changed_lines(v, live2, live1)
    keys = ["graph_id", "line"]
    out = pa.concat_tables([
        pa.table({"graph_id": d["graph_id"],
                  "change": pa.repeat(change, d.num_rows),
                  "line": d["line"]})
        for x, y, change in ((old, new, "removed"), (new, old, "added"))
        for d in [x.join(y, keys, join_type="left anti")]
    ])
    # line ids follow the bytewise order of the lines
    out = out.take(pc.sort_indices(
        out, sort_keys=[(c, "ascending") for c in out.column_names]))
    return out.set_column(2, "line", v.lines.take(out["line"]).cast(pa.string()))


def metadata_table(deltas: pa.Table):
    if deltas.num_rows == 0:
        return (None, None)
    col = deltas["warc_ts"].cast(pa.timestamp("s"))
    return (pc.min(col).as_py(), pc.max(col).as_py())


# -------------------------------------------------------------- Dataset path
def per_partition(deltas_ds, ts, kernel):
    """The Dataset driver: rows with ``warc_ts <= ts`` (later rows never
    enter the shuffle), ``graph_id`` hashed into :data:`NUM_PARTITIONS`
    bounded partitions, and ``kernel`` — a table-path kernel of one delta
    table — run on each partition's rows."""
    from ..shuffle_utils import add_partition_id

    bound = _ts_scalar(ts)

    def upto(batch: pa.Table) -> pa.Table:
        batch = batch.filter(
            pc.less_equal(batch["warc_ts"].cast(pa.timestamp("s")), bound))
        return add_partition_id(batch, key="graph_id",
                                num_partitions=NUM_PARTITIONS,
                                col="state_pid")

    return (
        deltas_ds.map_batches(upto, batch_format="pyarrow")
        .groupby("state_pid")
        .map_groups(lambda g: kernel(g.drop_columns(["state_pid"])),
                    batch_format="pyarrow")
    )


def state_at(deltas_ds, ts):
    """Dataset of live graph rows at ``ts`` (distributed as-of)."""
    return per_partition(deltas_ds, ts, lambda t: state_at_table(t, ts))


def diff_between(deltas_ds, ts1, ts2):
    """Distributed :func:`diff_table`: each partition resolves BOTH
    as-of states of its graphs."""
    hi = max(_ts_scalar(ts1).value, _ts_scalar(ts2).value)
    return per_partition(deltas_ds, hi,
                         lambda t: diff_table(t, ts1, ts2))


def metadata(deltas_ds):
    """(start_time, end_time) via Min/Max tree-reduce (no full shuffle)."""
    from ray.data.aggregate import Max, Min

    res = deltas_ds.aggregate(Min("warc_ts"), Max("warc_ts"))
    return (res["min(warc_ts)"], res["max(warc_ts)"])
