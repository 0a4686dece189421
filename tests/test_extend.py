"""``reconstruct.Versions.extend``: a prepared log extended by each
write's rows equals a prepare of the whole log — rows, intervals, line
dictionary, parse — and every as-of kernel reads the same from both,
whether the dictionary and parse were built before the writes, between
them, or not at all; a reader's pattern match lists carried through the
writes equal lists built on the whole log. No Ray session."""

import pyarrow as pa
import pytest

from rdf_diff_store_ray import ntriples
from rdf_diff_store_ray.state import reconstruct

T0 = 1_700_000_000
US = 1_000_000
IRI = "<https://x/s> <https://x/p> <https://x/o> .\n"
LIT = '<https://x/s> <https://x/p> "https://x/o" .\n'  # IRI's literal twin
NUL1 = '<https://x/s> <https://x/p> "m\x00k" .\n'
NUL2 = '<https://x/s> <https://x/q> "m\x00n" .\n'
BN = '_:x <https://x/p> _:y .\n_:y <https://x/q> "z" .\n'
TYPED = '<https://x/s> <https://x/p> "5"^^<https://x/int> .\n'
NEW = '<https://x/n> <https://x/p> "new" .\n'


def _text(*lines) -> str:
    return "".join(sorted(set(lines)))


# the log's writes in order: the base, then one segment per commit;
# (graph_id, second offset, op, text)
WRITES = [
    [("g\x00a", 0, "update", _text(IRI)),
     ("g\x00b", 0, "update", _text(LIT)),
     ("bn", 0, "update", BN),
     ("gone", 0, "update", _text(IRI, TYPED)),
     ("empty", 0, "update", "")],
    # NUL twins in one graph; a tombstone
    [("g\x00a", 60, "update", _text(IRI, NUL1, NUL2)),
     ("gone", 60, "delete", "")],
    # the re-add, and an empty graph filled
    [("gone", 120, "update", _text(IRI, TYPED)),
     ("empty", 120, "update", _text(TYPED))],
    # same-second replays of one graph: the last write wins
    [("g\x00b", 120, "update", _text(IRI))],
    [("g\x00b", 120, "update", _text(LIT, NUL1))],
    # a write older than other graphs' heads, with a line nobody held
    [("late", 30, "update", _text(NEW, LIT))],
    # only known texts: nothing new to explode or parse
    [("g\x00b", 180, "update", _text(IRI)),
     ("bn", 180, "delete", "")],
    # back to empty, and a second new graph at the head
    [("empty", 240, "update", ""),
     ("h", 240, "update", _text(BN, NEW))],
]


def _table(rows, seq0: int) -> pa.Table:
    return pa.table({
        "graph_id": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([(T0 + r[1]) * US for r in rows],
                            pa.timestamp("us")),
        "op": pa.array([r[2] for r in rows], pa.string()),
        "delta_text": pa.array([r[3] for r in rows], pa.large_string()),
        "digest": pa.array([ntriples.sha256_text(r[3]) for r in rows],
                           pa.binary()),
        "partition_id": pa.array([0] * len(rows), pa.int32()),
        "seq": pa.array(range(seq0, seq0 + len(rows)), pa.int64()),
    })


def _segments() -> list:
    out, seq = [], 0
    for rows in WRITES:
        out.append(_table(rows, seq))
        seq += len(rows)
    return out


def _text_ids(v) -> dict:
    """version text → the lines of its dictionary ids, in order."""
    texts, lines, text_lines = v.dictionary
    return {t: [lines[i].as_py() for i in ids]
            for t, ids in zip(texts.to_pylist(), text_lines.to_pylist())}


def _same(got, want) -> None:
    assert got.rows.equals(want.rows)
    for name in ("sec", "first", "t_to", "kept"):
        assert getattr(got, name).tolist() == getattr(want, name).tolist()
    if got._dictionary is None:
        return
    assert got.lines.equals(want.lines)
    assert _text_ids(got) == _text_ids(want)
    assert got.row_lines.to_pylist() == want.row_lines.to_pylist()
    if got._triples is None:
        return
    got_parsed, got_order = got.triples
    want_parsed, want_order = want.triples
    assert got_parsed.equals(want_parsed)
    assert got_order.tolist() == want_order.tolist()


def _build(v, when: str) -> None:
    if when == "dictionary":
        v.dictionary
    elif when == "triples":
        v.triples


@pytest.mark.parametrize("before", ["nothing", "dictionary", "triples"])
@pytest.mark.parametrize("after", ["dictionary", "triples"])
def test_extend_equals_prepare_of_the_whole_log(before, after):
    segs = _segments()
    v = reconstruct.prepare(segs[0])
    _build(v, before)
    for i, seg in enumerate(segs[1:], start=2):
        v = v.extend(seg)
        want = reconstruct.prepare(pa.concat_tables(segs[:i]))
        _build(want, before)
        _same(v, want)
    _build(v, after)
    want = reconstruct.prepare(pa.concat_tables(segs))
    _build(want, after)
    _same(v, want)


def test_extend_parses_only_new_lines(monkeypatch):
    segs = _segments()
    v = reconstruct.prepare(segs[0])
    v.triples
    parsed = []
    parse = ntriples.parse

    def counting(text):
        out = parse(text)
        parsed.append(len(out))
        return out

    monkeypatch.setattr(ntriples, "parse", counting)
    known = set(v.lines.to_pylist())
    for seg in segs[1:]:
        new = {ln for t in seg["delta_text"].to_pylist()
               for ln in t.split("\n") if ln} - known
        parsed.clear()
        v = v.extend(seg)
        assert sum(parsed) == len(new)
        assert len(parsed) == (1 if new else 0)
        known |= new


def _instants() -> list:
    secs = sorted({T0 + r[1] for rows in WRITES for r in rows})
    return sorted({k + d for k in secs for d in (-1, 0, 1)})


def test_extended_kernels_match_a_fresh_prepare_at_every_second():
    segs = _segments()
    v = reconstruct.prepare(segs[0])
    v.triples
    for seg in segs[1:]:
        v = v.extend(seg)
    fresh = reconstruct.prepare(pa.concat_tables(segs))
    for k in _instants():
        assert (reconstruct.graphs_at_table(v, k)
                == reconstruct.graphs_at_table(fresh, k)), k
        for kernel in (reconstruct.state_at_table,
                       reconstruct.triples_at_table,
                       reconstruct.quads_at_table):
            assert kernel(v, k).equals(kernel(fresh, k)), (kernel, k)
        for k2 in _instants():
            assert reconstruct.diff_table(v, k, k2).equals(
                reconstruct.diff_table(fresh, k, k2)), (k, k2)


def test_extend_leaves_the_original_unchanged():
    segs = _segments()
    v = reconstruct.prepare(pa.concat_tables(segs[:3]))
    v.triples
    before = (v.rows, v.t_to.copy(), v.dictionary, v.triples[0])
    v.extend(segs[3])
    assert v.rows is before[0] and v.t_to.tolist() == before[1].tolist()
    assert v.dictionary is before[2] and v.triples[0] is before[3]


PATTERNS = [
    (("var", "s"), ("var", "p"), ("var", "o")),
    (("var", "s"), ("var", "p"), ("iri", "https://x/o")),
    (("var", "s"), ("var", "p"), ("lit", "https://x/o")),
    (("var", "s"), ("var", "p"), ("var", "s")),
    (("iri", "https://x/n"), ("iri", "https://x/p"), ("lit", "new")),
]


def _by_line(ml) -> dict:
    """A match list as matching line → its binding row."""
    rows = ml.bindings.to_pylist() if ml.bindings.num_columns \
        else [{}] * ml.bindings.num_rows
    lines = ml.versions.lines
    return {lines[int(i)].as_py(): rows[b] for i, b in zip(ml.lines, ml.bids)}


def test_reader_carries_match_lists_through_writes(monkeypatch):
    """Match lists built before the writes and carried by
    ``DiffStoreReader.extended`` match the same lines with the same
    bindings, and stab the same answers at every second, as lists built
    on the whole log; each write runs the match rules over its new
    lines only."""
    from rdf_diff_store_ray.query import bgp

    segs = _segments()
    reader = bgp.DiffStoreReader(segs[0])
    for pat in PATTERNS:
        bgp.pattern_at(reader.versions, pat, T0, reader.matches)
    scanned = []
    rows = bgp._pattern_rows

    def counting(table, *a, **kw):
        scanned.append(table.num_rows)
        return rows(table, *a, **kw)

    monkeypatch.setattr(bgp, "_pattern_rows", counting)
    known = set(reader.versions.lines.to_pylist())
    for seg in segs[1:]:
        new = {ln for t in seg["delta_text"].to_pylist()
               for ln in t.split("\n") if ln} - known
        scanned.clear()
        reader = reader.extended(seg)
        assert scanned == [len(new)] * len(PATTERNS)
        known |= new
    monkeypatch.setattr(bgp, "_pattern_rows", rows)
    fresh = reconstruct.prepare(pa.concat_tables(segs))
    for pat in PATTERNS:
        carried = reader.matches.get(bgp.format_pattern(pat))
        assert carried.versions is reader.versions
        built = bgp.MatchList.build(fresh, pat)
        assert _by_line(carried) == _by_line(built)
        for k in _instants():
            assert carried.at(k).equals(built.at(k)), (pat, k)
            assert carried.at(k).equals(bgp.eval_one_pattern(
                reconstruct.triples_at_table(fresh, k), pat)), (pat, k)
