"""The prepared version-interval table (``reconstruct.prepare``): every
as-of kernel gives the same answer from a raw delta table and from a
prepared one, both equal a naive per-graph replay of the log, and a
reader prepares (and parses) once per table. No Ray session."""

import itertools

import pyarrow as pa
import pytest

from rdf_diff_store_ray import ntriples
from rdf_diff_store_ray.state import reconstruct
from rdf_diff_store_ray.state.blame import blame_table

T0 = 1_700_000_000
US = 1_000_000
A = "<https://x/s> <https://x/p> <https://x/o> .\n"
NUL1 = '<https://x/s> <https://x/p> "m\x00k" .\n'
NUL2 = '<https://x/s> <https://x/q> "m\x00n" .\n'
BN = '_:x <https://x/p> _:y .\n_:y <https://x/q> "z" .\n'
LIT = '<https://x/s> <https://x/p> "5"^^<https://x/int> .\n'


def _text(*lines) -> str:
    return "".join(sorted(set(lines)))


# (graph_id, warc_ts in µs, op, text); seq is the list position
LOG = [
    ("g\x00a", T0 * US, "update", _text(A)),
    ("g\x00b", T0 * US, "update", _text(NUL1)),
    ("bn", T0 * US, "update", BN),
    ("gone", T0 * US, "update", _text(A, LIT)),
    ("empty", T0 * US, "update", ""),
    ("g\x00a", (T0 + 60) * US, "update", _text(A, NUL2)),
    ("gone", (T0 + 60) * US, "delete", ""),
    ("empty", (T0 + 60) * US, "update", _text(LIT)),
    # a tombstone, then a re-add
    ("gone", (T0 + 120) * US, "update", _text(A, LIT)),
    # three same-second rows of one graph: the last write wins
    ("g\x00b", (T0 + 120) * US, "update", _text(A)),
    ("g\x00b", (T0 + 120) * US, "update", _text(A, NUL1)),
    ("g\x00b", (T0 + 120) * US, "update", _text(NUL1, NUL2)),
    # same second, sub-second stamps in the opposite order to seq: the
    # later stamp wins although it was written first
    ("sub", (T0 + 180) * US + 700_000, "update", _text(A, NUL2)),
    ("sub", (T0 + 180) * US + 200_000, "update", _text(LIT)),
    ("empty", (T0 + 240) * US, "update", ""),
    ("bn", (T0 + 240) * US, "delete", ""),
]


def _table(log) -> pa.Table:
    return pa.table({
        "graph_id": pa.array([r[0] for r in log], pa.string()),
        "warc_ts": pa.array([r[1] for r in log], pa.timestamp("us")),
        "op": pa.array([r[2] for r in log], pa.string()),
        "delta_text": pa.array([r[3] for r in log], pa.large_string()),
        "digest": pa.array([ntriples.sha256_text(r[3]) for r in log],
                           pa.binary()),
        "partition_id": pa.array([0] * len(log), pa.int32()),
        "seq": pa.array(range(len(log)), pa.int64()),
    })


def _lines(text: str) -> list:
    return [ln for ln in text.split("\n") if ln]


def _versions(log, gid: str, k: int) -> list:
    """``gid``'s versions at or before second ``k`` in replay order:
    ``(second, op, text)``."""
    rows = sorted((r[1], seq, r) for seq, r in enumerate(log) if r[0] == gid)
    return [(ts // US, r[2], r[3]) for ts, _, r in rows if ts // US <= k]


def _live(log, k: int) -> dict:
    """graph id → its live text at ``k``, in graph id order."""
    out = {}
    for gid in sorted({r[0] for r in log}):
        vs = _versions(log, gid, k)
        if vs and vs[-1][1] != "delete":
            out[gid] = vs[-1][2]
    return out


def _triple(line: str) -> tuple:
    return ntriples.parse(line)[0]


def _naive_blame(log, k: int) -> list:
    out = []
    for gid, text in _live(log, k).items():
        vs = _versions(log, gid, k)
        for line in sorted(set(_lines(text))):
            i = len(vs) - 1
            while i > 0 and vs[i - 1][1] != "delete" and \
                    line in _lines(vs[i - 1][2]):
                i -= 1
            out.append((gid, line, vs[i][0]))
    return out


def _instants(log) -> list:
    secs = sorted({r[1] // US for r in log})
    between = [(a + b) // 2 for a, b in zip(secs, secs[1:])]
    return sorted(set(secs + between + [secs[0] - 1, secs[-1] + 10**6]))


def _state_rows(t: pa.Table) -> list:
    return list(zip(t["graph_id"].to_pylist(), t["delta_text"].to_pylist(),
                    t["seq"].to_pylist()))


def _check_instant(log, forms, k: int) -> None:
    live = _live(log, k)
    seqs = {}
    for seq, r in enumerate(log):
        if r[0] in live and r[1] // US <= k:
            seqs[r[0]] = max(seqs.get(r[0], (-1, -1)), (r[1], seq))
    lines = sorted({ln for text in live.values() for ln in _lines(text)})
    for deltas in forms:
        assert _state_rows(reconstruct.state_at_table(deltas, k)) == [
            (gid, text, seqs[gid][1]) for gid, text in live.items()], k
        assert reconstruct.graphs_at_table(deltas, k) == \
            "".join(ln + "\n" for ln in lines), k
        assert reconstruct.triples_at_table(deltas, k).to_pylist() == [
            dict(zip(("subj", "pred", "obj", "obj_is_literal"), t))
            for t in sorted(map(_triple, lines))], k
        assert reconstruct.quads_at_table(deltas, k).to_pylist() == [
            dict(zip(("subj", "pred", "obj", "obj_is_literal", "graph_id"),
                     _triple(ln) + (gid,)))
            for gid, text in live.items() for ln in _lines(text)], k
        got = blame_table(deltas, k)
        assert list(zip(got["graph_id"].to_pylist(),
                        got["line"].to_pylist(),
                        [int(t.timestamp()) for t in
                         got["since_ts"].to_pandas()])) == \
            _naive_blame(log, k), k


def _naive_diff(log, k1: int, k2: int) -> list:
    a, b = _live(log, k1), _live(log, k2)
    out = []
    for gid in sorted(set(a) | set(b)):
        la, lb = set(_lines(a.get(gid, ""))), set(_lines(b.get(gid, "")))
        out += [(gid, "added", ln) for ln in sorted(lb - la)]
        out += [(gid, "removed", ln) for ln in sorted(la - lb)]
    return out


def test_kernels_match_naive_replay_on_hostile_log():
    raw = _table(LOG)
    forms = (raw, reconstruct.prepare(raw))
    instants = _instants(LOG)
    for k in instants:
        _check_instant(LOG, forms, k)
    for k1, k2 in itertools.product(instants, repeat=2):
        want = _naive_diff(LOG, k1, k2)
        for deltas in forms:
            got = reconstruct.diff_table(deltas, k1, k2)
            assert list(zip(*(got[c].to_pylist() for c in got.column_names))) \
                == want, (k1, k2)
    # the log exercises every hostile shape it claims to
    end = _live(LOG, T0 + 200)
    assert end["sub"] == _text(A, NUL2) and end["g\x00b"] == _text(NUL1, NUL2)
    assert end["empty"] == _text(LIT) and "gone" in end
    assert "gone" not in _live(LOG, T0 + 60) and "bn" not in _live(LOG, T0 + 240)


@pytest.mark.parametrize("log", [[], LOG[:1], [("gone", T0 * US, "delete", "")]],
                         ids=["empty", "one-row", "one-delete"])
def test_small_tables_through_every_kernel(log):
    raw = _table(log)
    for k in (T0 - 1, T0, T0 + 1):
        _check_instant(log, (raw, reconstruct.prepare(raw)), k)
        for deltas in (raw, reconstruct.prepare(raw)):
            assert reconstruct.diff_table(deltas, T0 - 1, k).num_rows == \
                len(_naive_diff(log, T0 - 1, k))


def test_state_keeps_the_delta_schema():
    """The live rows keep the table's schema; a legacy seq-less table
    gains seq in row order."""
    raw = _table(LOG)
    for deltas in (raw, raw.slice(0, 0), raw.drop_columns(["seq"])):
        assert reconstruct.state_at_table(deltas, T0 + 200).schema == \
            raw.schema


def test_reader_prepares_and_parses_once(monkeypatch):
    """A reader over one table answers cold instants from one prepare:
    graph reads never parse, and 20 cold query instants parse once, with
    no per-read sort of the log or explode of its texts."""
    from rdf_diff_store_ray.query.bgp import DiffStoreReader

    calls = {"parse": 0, "log_sorts": 0, "explode_lines": 0}

    def counted(owner, name):
        orig = getattr(owner, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return orig(*a, **kw)
        monkeypatch.setattr(owner, name, wrapper)

    counted(ntriples, "parse")
    counted(reconstruct, "explode_lines")
    log = _table(LOG)
    real_versions = reconstruct.Versions

    def versions(deltas):
        # a graph_at point read prepares only its graph's rows
        calls["log_sorts"] += deltas.num_rows == log.num_rows
        return real_versions(deltas)
    monkeypatch.setattr(reconstruct, "Versions", versions)
    reader = DiffStoreReader(log)
    instants = list(range(T0 - 1, T0 + 250, 13))[:20]
    assert len(instants) == 20
    for k in instants:
        reader.graphs_at(k)
        reader.graph_at("g\x00b", k)
    assert calls == {"parse": 0, "log_sorts": 1, "explode_lines": 1}
    for k in instants:
        assert reader.query_at(k, "SELECT ?s ?p ?o WHERE { ?s ?p ?o }") \
            is not None
        reader.diff(T0, k)
    assert calls == {"parse": 1, "log_sorts": 1, "explode_lines": 1}
