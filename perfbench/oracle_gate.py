"""Untimed correctness gate: expected answers from the reference oracle.

Every answer the benchmark times is compared here with an answer derived
independently from :class:`rdf_diff_store_ray.oracle.RefDiffStore`, a
dict-based replay of the same page versions. A mismatch raises
:class:`GateFailure`, which fails the run (it is not an op error and is
not counted in ``failed``).
"""

from __future__ import annotations

from collections import Counter, defaultdict

import pandas as pd

from rdf_diff_store_ray import ntriples, oracle

PROP = "https://kg.example/prop/"
HQ, ACQ, FOUNDED = (PROP + "headquarteredIn", PROP + "acquired",
                    PROP + "foundedIn")

# the four query shapes of the read workloads
QUERIES = {
    "q_one": f"SELECT ?s ?o WHERE {{ ?s <{HQ}> ?o }}",
    "q_path": f"SELECT ?a ?c WHERE {{ ?a <{ACQ}> ?b . ?b <{HQ}> ?c }}",
    "q_star": f"SELECT ?s ?c ?y WHERE {{ ?s <{HQ}> ?c . ?s <{FOUNDED}> ?y }}",
    "q_group": (f"SELECT ?c (COUNT(?s) AS ?n) WHERE {{ ?s <{HQ}> ?c }} "
                "GROUP BY ?c"),
}


class GateFailure(Exception):
    """An answer differs from the oracle's."""


def check(what: str, got, want) -> None:
    if got != want:
        raise GateFailure(f"{what}: answer differs from the oracle")


def epoch_s(ts) -> int:
    return int(pd.Timestamp(ts).timestamp())


def replay(rows, pages, snapshot_times) -> oracle.RefDiffStore:
    """The construction of ``tests/conftest.py``: group triple rows
    ``(subj, pred, obj, obj_is_literal, graph_id, warc_ts)`` into
    per-(graph, instant) canonical texts and replay them over the crawl
    grid. ``pages`` (``(url, warc_ts)`` pairs) adds the page versions
    that carry no triple as empty graphs, as the build stores them."""
    by_pv = defaultdict(set)
    for s, p, o, lit, gid, ts in rows:
        by_pv[(gid, epoch_s(ts))].add((s, p, o, lit))
    for url, ts in pages:
        by_pv.setdefault((url, epoch_s(ts)), set())
    pv = [(u, ts, ntriples.serialize(tr)) for (u, ts), tr in by_pv.items()]
    return oracle.replay_pages(pv, snapshot_times)


def triple_rows(table) -> list:
    cols = ["subj", "pred", "obj", "obj_is_literal", "graph_id", "warc_ts"]
    return list(zip(*(table[c].to_pylist() for c in cols)))


def delta_rows(table) -> list:
    return sorted(zip(
        table["graph_id"].to_pylist(),
        [epoch_s(t) for t in table["warc_ts"].to_pylist()],
        table["op"].to_pylist(),
        table["delta_text"].to_pylist(),
    ))


def oracle_delta_rows(ref: oracle.RefDiffStore) -> list:
    return sorted((g, ts, op, txt) for g, ts, op, txt, _ in ref.deltas())


def precision_recall(got_rows, want_rows) -> tuple:
    got = {r[:3] for r in got_rows}
    want = {r[:3] for r in want_rows}
    tp = len(got & want)
    return tp / max(1, len(got)), tp / max(1, len(want))


def frame_rows(df) -> list:
    return sorted(tuple(str(v) for v in r)
                  for r in df.itertuples(index=False, name=None))


def json_rows(doc: dict) -> list:
    names = doc["head"]["vars"]
    return sorted(tuple(str(b[v]["value"]) for v in names)
                  for b in doc["results"]["bindings"])


def _query_rows(kind: str, triples) -> list:
    by_p = defaultdict(list)
    for s, p, o, lit in triples:
        by_p[p].append((s, o, lit))
    hq_of = defaultdict(list)
    for s, o, _ in by_p[HQ]:
        hq_of[s].append(o)
    if kind == "q_one":
        rows = [(s, o) for s, o, _ in by_p[HQ]]
    elif kind == "q_path":
        rows = [(a, c) for a, b, lit in by_p[ACQ] if not lit
                for c in hq_of.get(b, ())]
    elif kind == "q_star":
        founded = defaultdict(list)
        for s, o, _ in by_p[FOUNDED]:
            founded[s].append(o)
        rows = [(s, c, y) for s, c, _ in by_p[HQ] for y in founded.get(s, ())]
    else:
        rows = list(Counter(c for _, c, _ in by_p[HQ]).items())
    return sorted(tuple(str(v) for v in r) for r in rows)


class Expect:
    """Expected read answers, memoized by the version a timestamp
    resolves to. Writes only ever add versions later than every existing
    one, so a memo entry never goes stale."""

    def __init__(self, ref: oracle.RefDiffStore):
        self.ref = ref
        self._memo: dict = {}

    def _get(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def version(self, ts: int):
        return self.ref.as_of_time(ts)

    def graphs_at(self, ts: int) -> str:
        v = self.version(ts)
        return self._get(("graphs", v), lambda: (
            "" if v is None else self.ref.combined_graph(v)))

    def _live(self, v) -> dict:
        return self._get(("live", v), lambda: (
            {} if v is None else self.ref.checkout(v)))

    def graph(self, graph_id: str, ts: int) -> str:
        return self._live(self.version(ts)).get(graph_id, "")

    def query(self, kind: str, ts: int) -> list:
        v = self.version(ts)

        def make():
            triples = set()
            for text in self._live(v).values():
                triples.update(ntriples.parse(text))
            return _query_rows(kind, triples)

        return self._get((kind, v), make)

    def metadata(self) -> tuple:
        return self.ref.metadata()

    def warm(self) -> None:
        """Compute every answer of every version up front, so that no
        oracle work or allocation happens between timed ops."""
        versions = sorted(set(self.ref.version_times()))
        probes = [versions[0] - 1] + versions
        for t in probes:
            self.graphs_at(t)
            for kind in QUERIES:
                self.query(kind, t)
