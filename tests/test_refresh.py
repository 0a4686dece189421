"""A write refreshes every door's held state instead of reloading it.

One call sequence of reads and writes runs through each door — the
in-process ``DiffStoreReader`` (extended by the rows each commit
returns), the ``QueryService`` router, and the HTTP server on either
backend — each over its own copy of one store. At every read the answer
equals a freshly loaded reader's, and the cache level equals the one
sequence of levels every door must report: a repeated read before a
write's instant stays warm (``Query`` / ``Prettified``), a read at or
after it misses. Router actor handles survive the writes; a write into a
partition that had no directory gets an actor. A log rewritten behind
the server's back (another writer, then compaction) falls back to a
reload, and ``/metrics`` counts both outcomes."""

import re
import shutil
import urllib.parse

import pytest

from test_server import _req

T1, T2, T3, T4, T5, T6, T7 = (1_700_000_000 + 100 * i for i in range(7))
P = "<https://x/p>"
A, B, C = "https://x/a", "https://x/b", "https://x/c"
NUL_A, NUL_B = "https://x/g\x00a", "https://x/g\x00b"


def _doc(*lines) -> str:
    return "".join(sorted(set(lines)))


def _line(s, o) -> str:
    return f'<{s}> {P} "{o}" .\n'


Q = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"
Q_JOIN = f"SELECT ?s ?o ?t WHERE {{ ?s {P} ?o . ?t {P} ?o }}"

BASE = [  # (ts, upserts)
    (T1, {A: _doc(_line(A, "1")), NUL_A: _doc(_line(NUL_A, "1"))}),
    (T2, {B: _doc(_line(B, "1"), _line(B, "2"))}),
]

# ("read", ts, query) | ("graphs", ts) | ("write", ts, upserts, deletes),
# each read with the cache level every door reports
SEQUENCE = [
    (("read", T2, Q), "Nothing"),
    (("graphs", T2), "Graph"),
    (("read", T3, Q), "Nothing"),
    (("read", T3, Q_JOIN), "Store"),
    (("write", T4, {C: _doc(_line(C, "1"))}, []), None),
    # before the write's instant: still warm
    (("read", T2, Q), "Query"),
    (("graphs", T2), "Prettified"),
    (("read", T3, Q_JOIN), "Query"),
    (("read", T4, Q), "Nothing"),
    # a same-second write at k = ts_w drops k again
    (("write", T4, {C: _doc(_line(C, "2"))}, []), None),
    (("read", T4, Q), "Nothing"),
    (("read", T3, Q), "Query"),
    # older than C's latest version, after A's own
    (("write", T3 + 50, {A: _doc(_line(A, "3"))}, []), None),
    (("read", T3, Q), "Query"),
    (("read", T4, Q), "Nothing"),
    (("graphs", T3 + 50), "Nothing"),
    # a delete, then a re-add
    (("write", T5, {}, [B]), None),
    (("read", T5, Q), "Nothing"),
    (("write", T6, {B: _doc(_line(B, "1"))}, []), None),
    (("read", T5, Q), "Query"),
    (("read", T6, Q_JOIN), "Nothing"),
    # the NUL twin of an existing graph id
    (("write", T7, {NUL_B: _doc(_line(NUL_B, "1"))}, []), None),
    (("read", T7, Q), "Nothing"),
    (("graphs", T7), "Graph"),
    (("read", T6, Q_JOIN), "Query"),
]
N_WRITES = sum(op[0] == "write" for op, _ in SEQUENCE)


def _store(tmp_path, name: str, num_partitions: int = 4) -> str:
    from rdf_diff_store_ray.state.append import append_graphs, init_log

    store = init_log(str(tmp_path / name), num_partitions=num_partitions)
    for ts, graphs in BASE:
        append_graphs(store, graphs, ts)
    return store


def _fresh(store: str, op) -> str:
    """The answer of a freshly loaded reader."""
    from rdf_diff_store_ray.query.bgp import DiffStoreReader
    from rdf_diff_store_ray.stages.deltas import read_log

    reader = DiffStoreReader(read_log(store))
    if op[0] == "graphs":
        return reader.graphs_at(op[1])
    return reader.answer(op[1], op[2], "json")[0]


class InProcess:
    """A reader or router in this process, extended by each commit's
    rows."""

    def __init__(self, store: str, door):
        self.store, self.door = store, door

    def read(self, op):
        if op[0] == "graphs":
            return self.door.graphs(op[1])
        return self.door.answer(op[1], op[2], "json")

    def write(self, ts, upserts, deletes):
        from rdf_diff_store_ray.state.append import commit

        self.door = self.door.extended(
            commit(self.store, upserts, deletes, ts))

    def handles(self):
        return _handles(self.door)


class OverHttp:
    def __init__(self, server):
        self.server = server
        self.base = f"http://127.0.0.1:{server.port}"

    def read(self, op):
        if op[0] == "graphs":
            _, hdr, body = _req("GET", f"{self.base}/api/graphs/{op[1]}")
        else:
            _, hdr, body = _req("GET", f"{self.base}/api/sparql/{op[1]}"
                                f"?query={urllib.parse.quote(op[2])}")
        return body, hdr["Cache-Level"]

    def write(self, ts, upserts, deletes):
        if upserts:
            _req("POST", f"{self.base}/api/graphs",
                 [{"id": g, "graph": t, "timestamp": ts}
                  for g, t in upserts.items()])
        for g in deletes:
            _req("DELETE", f"{self.base}/api/graphs?id="
                 f"{urllib.parse.quote(g)}&timestamp={ts}")

    def handles(self):
        return _handles(self.server.backend.reader())

    def refreshes(self) -> dict:
        _, _, text = _req("GET", f"{self.base}/metrics")
        return {m[1]: int(m[2]) for m in re.finditer(
            r'^store_refresh_total\{outcome="(\w+)"\} (\d+)$', text, re.M)} \
            | {"seconds": int(m[1]) for m in re.finditer(
                r"^store_refresh_seconds_count\{\} (\d+)$", text, re.M)}


def _handles(door) -> dict:
    """pid → actor id of a router; empty for a single reader."""
    return {pid: a._actor_id
            for pid, a in getattr(door, "_actor_of", {}).items()}


def _open(kind: str, store: str):
    from rdf_diff_store_ray.query.bgp import DiffStoreReader
    from rdf_diff_store_ray.query.service import QueryService
    from rdf_diff_store_ray.server import DiffStoreServer
    from rdf_diff_store_ray.stages.deltas import read_log

    if kind == "reader":
        return InProcess(store, DiffStoreReader(read_log(store)))
    if kind == "service":
        return InProcess(store, QueryService(store))
    return OverHttp(DiffStoreServer(
        store, distributed=kind == "server_distributed").start())


def _close(door) -> None:
    if isinstance(door, OverHttp):
        door.server.shutdown()
    elif hasattr(door.door, "shutdown"):
        door.door.shutdown()


def _run(door, store: str, sequence) -> list:
    """Run ``sequence`` through ``door``; check every answer against a
    fresh reader and that every actor handle survives each write.
    Returns the cache levels of the reads."""
    levels = []
    for op, _ in sequence:
        if op[0] == "write":
            before = door.handles()
            door.write(*op[1:])
            after = door.handles()
            assert {p: after.get(p) for p in before} == before, op
            continue
        body, level = door.read(op)
        assert body == _fresh(store, op), op
        levels.append(level)
    return levels


def _metrics_before(door) -> dict:
    return door.refreshes() if isinstance(door, OverHttp) else {}


def _delta(door, before: dict) -> dict:
    after = door.refreshes()
    return {k: after.get(k, 0) - before.get(k, 0)
            for k in ("extend", "reload", "seconds")}


@pytest.mark.parametrize(
    "kind", ["reader", "service", "server", "server_distributed"])
def test_writes_refresh_every_door(ray_session, tmp_path, kind):
    store = _store(tmp_path, kind)
    door = _open(kind, store)
    try:
        before = _metrics_before(door)
        levels = _run(door, store, SEQUENCE)
        assert levels == [lv for _, lv in SEQUENCE if lv is not None]
        if isinstance(door, OverHttp):
            assert _delta(door, before) == {
                "extend": N_WRITES, "reload": 0, "seconds": N_WRITES}
    finally:
        _close(door)


@pytest.mark.parametrize("kind", ["service", "server_distributed"])
def test_write_into_a_partition_without_a_directory(ray_session, tmp_path,
                                                    kind):
    """A sparse store (a build writes no directory for a partition no
    graph hashes to): a write there gets the partition an actor, and
    the other actors keep their handles."""
    from rdf_diff_store_ray.shuffle_utils import partition_ids
    from rdf_diff_store_ray.stages.deltas import partition_dir, partitions

    store = _store(tmp_path, kind)
    held = set(partitions(store))
    empty = next(p for p in held
                 if not any(partition_ids([g], 4)[0] == p
                            for _, gs in BASE for g in gs))
    shutil.rmtree(partition_dir(store, empty))
    gid = next(g for g in (f"https://x/n{i}" for i in range(64))
               if partition_ids([g], 4)[0] == empty)
    sequence = [
        (("read", T2, Q), "Nothing"),
        (("write", T3, {gid: _doc(_line(gid, "1"))}, []), None),
        (("read", T2, Q), "Query"),
        (("read", T3, Q), "Nothing"),
        (("graphs", T3), "Graph"),
    ]
    door = _open(kind, store)
    try:
        before = door.handles()
        assert set(before) == held - {empty}
        assert _run(door, store, sequence) == [lv for _, lv in sequence
                                               if lv is not None]
        after = door.handles()
        assert set(after) == held
        assert {p: after[p] for p in before} == before
    finally:
        _close(door)


@pytest.mark.parametrize("kind", ["server", "server_distributed"])
def test_log_rewritten_behind_the_server_reloads(ray_session, tmp_path,
                                                 kind):
    """Another writer's commit and a compaction between two server
    writes: the server's next write finds a listing it did not make,
    drops its reader, and the next read sees everything."""
    from rdf_diff_store_ray.state.append import append_graphs, compact_log

    store = _store(tmp_path, kind)
    door = _open(kind, store)
    try:
        before = _metrics_before(door)
        door.read(("read", T2, Q))
        door.write(T3, {C: _doc(_line(C, "1"))}, [])
        append_graphs(store, {A: _doc(_line(A, "outside"))}, T4)
        compact_log(store)
        door.write(T5, {C: _doc(_line(C, "2"))}, [])
        for op in (("read", T4, Q), ("read", T5, Q), ("graphs", T5)):
            body, level = door.read(op)
            assert body == _fresh(store, op), op
            assert level == ("Graph" if op[0] == "graphs" else "Nothing")
        assert "outside" in door.read(("graphs", T5))[0]
        assert _delta(door, before) == {"extend": 1, "reload": 1,
                                        "seconds": 2}
    finally:
        _close(door)


def test_concurrent_writes_and_reads_lose_no_update(ray_session, tmp_path):
    """Writer threads race each other's commits and refreshes while
    reader threads keep reading, with a short switch interval: a write
    that loses the store lock is retried, and afterwards every answer
    equals a freshly loaded reader's — no refresh dropped another
    write's rows."""
    import sys
    import threading
    import urllib.error

    from rdf_diff_store_ray.server import DiffStoreServer

    store = _store(tmp_path, "stress")
    door = OverHttp(DiffStoreServer(store).start())
    writers, rounds = 4, 6
    stamps = [T3 + 10 * (w + writers * r) for r in range(rounds)
              for w in range(writers)]
    errors, done = [], threading.Event()

    def write(w):
        try:
            for r in range(rounds):
                ts = T3 + 10 * (w + writers * r)
                gid = f"https://x/w{w}"
                while True:
                    try:
                        door.write(ts, {gid: _doc(_line(gid, r))}, [])
                        break
                    except urllib.error.HTTPError as e:
                        if "LogLockedError" not in e.read().decode():
                            raise
        except Exception as e:  # reported by the main thread
            errors.append(e)

    def read():
        try:
            while not done.is_set():
                for k in (T2, stamps[-1]):
                    door.read(("read", k, Q))
        except Exception as e:
            errors.append(e)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write, args=(w,))
                   for w in range(writers)]
        readers = [threading.Thread(target=read) for _ in range(4)]
        for t in threads + readers:
            t.start()
        for t in threads:
            t.join(timeout=120)
        done.set()
        for t in readers:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads + readers)
    finally:
        sys.setswitchinterval(switch)
    try:
        assert not errors, errors
        for k in [T2] + stamps:
            for op in (("read", k, Q), ("graphs", k)):
                assert door.read(op)[0] == _fresh(store, op), op
    finally:
        _close(door)
