"""Incremental writes to an existing delta log — the library form of the
reference's writer service (``POST /api/graphs`` / ``DELETE /api/graphs``,
``/root/reference/src/bin/rdf-diff-writer.rs:45-91``).

Semantics reproduced:

- **upsert with no-op suppression** (``store_graph``,
  ``src/graphs.rs:35-79``): an appended graph whose canonical text digest
  equals its currently-stored digest produces NO new delta;
- **delete as a first-class delta** (``delete_graph``,
  ``src/graphs.rs:82-93``): a tombstone only if the graph is currently
  live; deleting an absent graph is a no-op;
- **monotone version axis** (commits always stamped "now",
  ``src/git.rs:208``): appends must not predate a graph's existing
  history — enforced, like the reference's monotone commit clock.

Execution shape: one commit is one pass in the driver under the store's
write lock. The batch is partitioned by the SAME ``hash(graph_id) % P``
key as the build (P from :func:`..stages.deltas.num_partitions`); each
touched partition is read once (:func:`..stages.deltas.read_log`, the
one reader of the log's files), every touched graph is validated
against its head in that read (:meth:`.reconstruct.Versions.heads`)
BEFORE any write (so a monotonicity violation raises with zero
bytes changed — the atomicity the reference gets from its global write
lock), and then each touched partition gets ONE new log segment holding
only its new rows (``deltas.seg-NNNNNN.parquet``; existing data files are
never rewritten — O(delta) like the reference's git commit) and a
refreshed manifest. Untouched partitions are never opened, and a commit
needs no Ray session: bulk ingest runs through ``build_incremental``'s
Dataset sink (:func:`make_incremental_appender`) instead.

**Concurrency contract**: writes are single-writer per STORE, enforced
by :class:`StoreWriteLock` (an atomic lock file under the log root) —
the explicit form of the reference's serialized writes (repo pool of
size 1, ``src/bin/rdf-diff-writer.rs:25-31``). A second concurrent
appender/compactor fails fast with :class:`LogLockedError` instead of
interleaving validation and segment writes. Readers never take the
lock.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from dataclasses import dataclass

from .. import fs
from ..ntriples import parse, serialize, sha256_text
from ..schemas import DELTAS, OP_DELETE, OP_UPDATE
from ..shuffle_utils import partition_ids
from ..stages import deltas as deltas_mod
from .reconstruct import prepare


@dataclass
class Graph:
    """The reference's wire model (``src/models/graph.rs:14-22``,
    ``openapi.yaml:21-41``): ``id`` + document text + optional
    ``format``. Here ``format`` selects the input parser —
    ``"text/turtle"`` routes through the Turtle reader; ``None`` or
    ``"application/n-triples"`` expects canonical N-Triples. Either way
    the stored form is the canonical serialization (the reference's
    prettifier normalizes every accepted format the same way,
    ``src/rdf.rs:44-84``)."""

    id: str
    graph: str
    format: str | None = None


def _graph_triples(text: str, fmt: str | None):
    if fmt == "text/turtle":
        from ..turtle import parse_turtle

        return parse_turtle(text)
    if fmt in (None, "application/n-triples"):
        return parse(text)
    raise ValueError(f"unsupported graph format: {fmt!r}")


def init_log(delta_dir: str, num_partitions: int = 8) -> str:
    """Create an EMPTY delta log (the reference's clone-if-absent boot
    path, ``src/git.rs:38-49``): all partitions present with valid empty
    manifests + the _SUCCESS marker, ready for :func:`append_graphs`.
    ``delta_dir`` may be a plain path or a ``file://`` URI (:mod:`..fs`)."""
    delta_dir = fs.local(delta_dir)
    os.makedirs(delta_dir, exist_ok=True)
    for pid in range(num_partitions):
        deltas_mod.write_partition(delta_dir, pid, DELTAS.empty_table(), wall_s=0.0)
    deltas_mod.mark_success(
        delta_dir,
        {
            "num_partitions": num_partitions,
            "partitions_written": num_partitions,
            "partitions_resumed": 0,
            "snapshot_times": [],
        },
    )
    return delta_dir


def _max_seq(table: pa.Table) -> int:
    if table.num_rows == 0:
        return -1
    return int(pc.max(table["seq"]).as_py())


def _latest_by_graph(table: pa.Table) -> dict:
    """graph_id → (latest_ts_seconds, op, digest) of its head, the
    max-``(warc_ts, seq)`` row (:meth:`.reconstruct.Versions.heads`)."""
    latest = prepare(table).heads()
    tss = latest["warc_ts"].cast(pa.timestamp("s")).cast(pa.int64())
    return dict(zip(latest["graph_id"].to_pylist(),
                    zip(tss.to_pylist(), latest["op"].to_pylist(),
                        latest["digest"].to_pylist())))


def _secs(col) -> list:
    """Unix seconds of a datetime column."""
    return np.asarray(col, "datetime64[s]").astype("int64").tolist()


def _check_monotone(what: str, stamped, latest: dict, scope: str) -> None:
    """Raise if any ``(graph_id, ts_seconds)`` of ``stamped`` predates
    that graph's latest version in ``latest``
    (:func:`_latest_by_graph`): the version axis is monotone per graph,
    like the reference's commit clock (``src/git.rs:208``). Callers
    check before they write, so the message can say nothing was."""
    bad = [(gid, t, latest[gid][0]) for gid, t in stamped
           if gid in latest and t < latest[gid][0]]
    if bad:
        gid, t, prev = bad[0]
        raise ValueError(
            f"{what} at ts={t} predates existing history ({prev}) for "
            f"graph {gid!r} (+{len(bad) - 1} more) — the version axis is "
            "monotone per graph (src/git.rs:208 analog); nothing was "
            f"written{scope}"
        )


_NEW_COLS = ("graph_id", "warc_ts", "op", "delta_text", "digest")


def _append_rows(delta_dir: str, pid: int, current: pa.Table, new,
                 t0: float) -> pa.Table:
    """Write ``new`` (a non-empty mapping of :data:`_NEW_COLS` to
    equal-length columns, ``warc_ts`` in unix seconds or datetimes) as
    partition ``pid``'s next log segment, ``seq`` continuing the replay
    order of ``current`` (the partition as read for this write). Returns
    the rows written."""
    import time

    n = len(new["graph_id"])
    add = pa.table(
        {
            "graph_id": pa.array(new["graph_id"], pa.string()),
            "warc_ts": pa.array(np.asarray(new["warc_ts"], "datetime64[s]")),
            "op": pa.array(new["op"], pa.string()),
            "delta_text": pa.array(new["delta_text"], pa.large_string()),
            "digest": pa.array(list(new["digest"]), pa.binary()),
            "partition_id": pa.array(np.full(n, pid, dtype=np.int32)),
            "seq": pa.array(_max_seq(current) + 1
                            + np.arange(n, dtype=np.int64)),
        }
    ).cast(DELTAS)
    merged = pa.concat_tables([current, add]).cast(DELTAS)
    deltas_mod.append_segment(delta_dir, pid, add, merged,
                              wall_s=time.monotonic() - t0)
    return add


class LogLockedError(RuntimeError):
    """Another writer holds the store's write lock."""


class StoreWriteLock:
    """Advisory single-writer lock for a delta log — the enforcement of
    the reference's serialized writes (repo pool of size 1,
    ``src/bin/rdf-diff-writer.rs:25-31``). Without it, two concurrent
    appenders could BOTH pass the read-only monotonicity validation and
    interleave segment writes.

    Acquisition is an atomic ``O_CREAT|O_EXCL`` create of
    ``<delta_dir>/.write.lock`` (atomic on POSIX local and NFS v3+
    filesystems — the delta log already assumes shared storage on a
    cluster). A held lock fails FAST with :class:`LogLockedError`
    rather than queueing: callers own retry policy. A stale lock left by
    a dead process on the same host is broken automatically; cross-host
    staleness can't be probed, so those require manual removal (the
    lock file records holder pid/host/time for the operator)."""

    def __init__(self, delta_dir: str):
        self.path = os.path.join(fs.local(delta_dir), ".write.lock")

    def _try_acquire(self) -> bool:
        # the conditional-create verb (If-None-Match: * on an object
        # store, O_CREAT|O_EXCL on POSIX) — one primitive on every scheme
        import socket
        import time

        return fs.put_if_absent(self.path, json.dumps({
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "acquired_unix": int(time.time()),
        }).encode())

    def _holder(self) -> dict:
        try:
            with open(self.path) as f:
                return json.load(f)
        except (OSError, ValueError):
            return {}

    def _stale(self, holder: dict) -> bool:
        import socket

        if holder.get("host") != socket.gethostname():
            return False  # can't probe liveness across hosts
        pid = holder.get("pid")
        if not isinstance(pid, int):
            return True  # unreadable/corrupt lock on this host
        try:
            os.kill(pid, 0)
            return False
        except ProcessLookupError:
            return True
        except PermissionError:
            return False

    def _break_stale(self, observed: dict) -> bool:
        """Remove a lock we observed as stale, safely against racing
        breakers: the lock is atomically RENAMED to a private claim path
        (only one racer's rename succeeds; the loser sees
        FileNotFoundError instead of unlinking a fresh lock) and its
        content re-verified — if a LIVE lock slipped in between observe
        and rename, it is restored with an atomic ``link``."""
        import time

        claim = f"{self.path}.stale.{os.getpid()}.{time.monotonic_ns()}"
        try:
            os.rename(self.path, claim)
        except FileNotFoundError:
            return True  # another breaker got it first; path is free(ish)
        try:
            with open(claim) as f:
                cur = json.load(f)
        except (OSError, ValueError):
            cur = None
        if cur == observed:
            os.unlink(claim)
            return True
        # the observe→rename window let a FRESH lock in: restore it
        try:
            os.link(claim, self.path)  # atomic, fails if yet another lock
            os.unlink(claim)
            return False
        except FileExistsError:
            raise LogLockedError(
                "lock contention while breaking a stale lock; a displaced "
                f"live lock was left at {claim!r} — manual cleanup needed"
            ) from None

    def __enter__(self):
        if self._try_acquire():
            return self
        holder = self._holder()
        if holder and self._stale(holder):
            if self._break_stale(holder) and self._try_acquire():
                return self
            holder = self._holder() or holder
        raise LogLockedError(
            f"delta log {os.path.dirname(self.path)!r} is locked by "
            f"another writer ({holder or 'unknown holder'}); retry after "
            "it finishes, or remove the .write.lock file if its process "
            "is known dead"
        )

    def __exit__(self, *exc):
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return False


def commit(delta_dir: str, graphs: dict, deleted, ts: int) -> pa.Table:
    """One commit at unix-seconds ``ts``: upsert ``graphs`` (as
    :func:`append_graphs`) and tombstone ``deleted`` (as
    :func:`delete_graphs`) all-or-nothing, under one write lock. A graph
    may not be in both. Returns the delta rows written (``DELTAS``, in
    pid then commit order) — what a held reader extends by
    (:meth:`..query.bgp.DiffStoreReader.extended`)."""
    delta_dir = fs.local(delta_dir)

    deleted = sorted(set(deleted))
    both = sorted(set(deleted).intersection(graphs))
    if both:
        raise ValueError(
            f"graphs both upserted and deleted in one commit: {both!r}")
    ops = []
    for gid, g in sorted(graphs.items()):
        if isinstance(g, Graph):
            text = serialize(_graph_triples(g.graph, g.format))
        elif isinstance(g, str):
            text = serialize(_graph_triples(g, None))
        else:
            text = serialize(g)
        ops.append((gid, OP_UPDATE, text))
    ops += [(gid, OP_DELETE, "") for gid in deleted]
    with StoreWriteLock(delta_dir):
        return _apply_locked(delta_dir, ops, int(ts))


def _apply_locked(delta_dir: str, ops: list, ts: int) -> pa.Table:
    """Apply ``ops`` (``(graph_id, op, canonical text)`` in commit
    order) at ``ts``: read each touched partition once, validate every
    op against that read, then write one segment per partition that
    changes. Returns the rows written."""
    import time

    t0 = time.monotonic()
    pids = partition_ids([gid for gid, _, _ in ops],
                         deltas_mod.num_partitions(delta_dir))
    by_pid: dict = {}
    for pid, op in zip(pids.tolist(), ops):
        by_pid.setdefault(pid, []).append(op)
    current = {pid: deltas_mod.read_log(delta_dir, [pid])
               for pid in sorted(by_pid)}
    latest: dict = {}  # a graph lives in one partition: no key collides
    for table in current.values():
        latest.update(_latest_by_graph(table))
    # validate every op before any write: a commit applies entirely or
    # raises with zero bytes changed (partial application would be
    # unrecoverable)
    _check_monotone("append", ((gid, ts) for gid, _, _ in ops), latest, "")
    written = [DELTAS.empty_table()]
    for pid, table in current.items():
        new = []
        for gid, op, text in by_pid[pid]:
            prev = latest.get(gid)
            live = prev is not None and prev[1] != OP_DELETE
            if op == OP_DELETE:
                if live:  # deleting an absent graph is a no-op
                    new.append((gid, ts, OP_DELETE, "", b""))
                continue
            digest = sha256_text(text)
            if not (live and prev[2] == digest):
                # otherwise a no-op: suppressed (src/graphs.rs:52-61)
                new.append((gid, ts, OP_UPDATE, text, digest))
        if new:
            written.append(_append_rows(delta_dir, pid, table,
                                        dict(zip(_NEW_COLS, zip(*new))), t0))
    return pa.concat_tables(written)


def append_graphs(delta_dir: str, graphs: dict, ts: int) -> int:
    """Upsert ``graph_id → graph`` at unix-seconds ``ts``. ``graph`` is
    a :class:`Graph` (with optional ``format``), document text, or an
    iterable of ``(subj, pred, obj, obj_is_literal)`` triples. String
    input is re-canonicalized (parse → serialize: sort, dedupe, NFC,
    trailing newline) before digesting — the reference prettifies before
    its equality check (``src/graphs.rs:35-61``), so a
    reordered-but-equal document must still be a suppressed no-op.
    Returns the number of deltas actually written (no-op posts write
    nothing).

    Reserved shape for TUPLE input: a PLAIN literal object
    (``obj_is_literal=True``) whose raw value is itself a well-formed
    decorated token (e.g. the 8-character string ``"5"^^<d>``) is
    indistinguishable from the typed literal it spells and will be
    stored as that typed literal (see ``ntriples.format_line``). Pass
    such values through document text (where they arrive escaped) if the
    plain reading is intended."""
    return commit(delta_dir, graphs, (), ts).num_rows


_SEED_MARKER = "\x00__partition_seed__"


def incremental_seed_rows(num_partitions: int) -> pa.Table:
    """One marker row per partition (VERSIONS schema + partition_id) so
    the incremental delta pass visits partitions with NO new pages — their
    live graphs are absent from the new crawl and still need tombstones.
    The marker graph id starts with NUL, unreachable from any real input
    (filename encoding rejects/escapes control bytes)."""
    n = num_partitions
    return pa.table(
        {
            "graph_id": pa.array([_SEED_MARKER] * n, pa.string()),
            "warc_ts": pa.array(
                [pd.Timestamp(0, unit="s")] * n, pa.timestamp("s")
            ),
            "delta_text": pa.array([""] * n, pa.large_string()),
            "digest": pa.array([b""] * n, pa.binary()),
            "partition_id": pa.array(
                np.arange(n, dtype=np.int32), pa.int32()
            ),
        }
    )


def make_incremental_appender(delta_dir: str, snapshot_times):
    """``map_groups`` callable for one partition of an INCREMENTAL build.

    Replay determinism: the derive is seeded from the partition's
    PRE-BATCH state (rows before the batch's first instant), so running
    the same batch twice derives byte-identical delta rows; rows already
    present in the log (exact ``(graph, ts, op, digest)`` match — a
    previous run of this batch) are then dropped, and only genuinely new
    rows are validated for per-graph monotonicity against the FULL
    current state and appended as one new segment. Each partition is
    all-or-nothing (one atomic segment write); a re-run after a partial
    failure appends exactly the missing partitions' rows and nothing
    else — no markers, the log itself is the ledger."""
    delta_dir = fs.local(delta_dir)

    snap = sorted(int(t) for t in snapshot_times)

    def append_incremental_partition(group: pd.DataFrame) -> pd.DataFrame:
        import time

        t0 = time.monotonic()
        pid = int(group["partition_id"].iloc[0])
        g = group[group["graph_id"] != _SEED_MARKER]
        current = deltas_mod.read_log(delta_dir, [pid])
        pre = current.filter(
            pc.less(
                current["warc_ts"].cast(pa.timestamp("s")),
                pa.scalar(snap[0] * 10**6, pa.timestamp("us")).cast(
                    pa.timestamp("s")
                ),
            )
        ) if current.num_rows and snap else current
        deltas = deltas_mod.derive_partition_deltas(
            g, snap, seed_latest=_latest_by_graph(pre)
        )
        if len(deltas) and current.num_rows > pre.num_rows:
            # drop rows a previous run of this batch already appended
            cur = current.to_pandas()
            cur_keys = set(zip(cur["graph_id"], _secs(cur["warc_ts"]),
                               cur["op"], cur["digest"]))
            keep = [key not in cur_keys for key in zip(
                deltas["graph_id"], _secs(deltas["warc_ts"]), deltas["op"],
                deltas["digest"])]
            deltas = deltas[keep].reset_index(drop=True)
        if len(deltas):
            # genuinely new rows must not predate any graph's CURRENT
            # latest version (e.g. an API append stamped after the batch)
            _check_monotone("incremental delta",
                            zip(deltas["graph_id"], _secs(deltas["warc_ts"])),
                            _latest_by_graph(current), " for this partition")
            _append_rows(delta_dir, pid, current, deltas, t0)
        return pd.DataFrame({"partition_id": [pid], "applied": [len(deltas)]})

    return append_incremental_partition


def compact_log(delta_dir: str, min_segments: int = 1) -> int:
    """Merge each partition's append segments back into its base file
    (the git-gc analog for the log-structured store): partitions with
    ≥ ``min_segments`` segments are rewritten as one sorted base file
    (atomic rename; the full write invalidates the merged segments),
    restoring point-read locality after many incremental writes without
    changing any observable state. Untouched partitions are skipped.
    Returns the number of partitions compacted.

    Rows are sorted by ``(graph_id, warc_ts, seq)`` — ``seq`` (the
    explicit replay-order column) makes the sort a total order, so
    same-second ties resolve identically before and after compaction
    without relying on sort stability; reconstruction is byte-identical."""
    delta_dir = fs.local(delta_dir)

    with StoreWriteLock(delta_dir):
        return _compact_locked(delta_dir, min_segments)


def _compact_locked(delta_dir: str, min_segments: int) -> int:
    import time

    import ray.data as rd

    todo = [pid for pid in range(deltas_mod.num_partitions(delta_dir))
            if deltas_mod.segment_count(delta_dir, pid) >= min_segments]
    if not todo:
        return 0

    def compact_one(batch: pa.Table) -> pa.Table:
        out = []
        for pid in batch["pid"].to_pylist():
            t0 = time.monotonic()
            merged = prepare(deltas_mod.read_log(delta_dir, [pid])).rows
            deltas_mod.write_partition(delta_dir, pid, merged,
                                       wall_s=time.monotonic() - t0)
            out.append(pid)
        return pa.table({"pid": pa.array(out, pa.int64())})

    done = (
        rd.from_arrow(pa.table({"pid": pa.array(todo, pa.int64())}))
        .map_batches(compact_one, batch_format="pyarrow", batch_size=1)
        .count()
    )
    return int(done)


def truncate_log(delta_dir: str, before_ts: int) -> int:
    """Retention: squash all history BEFORE ``before_ts`` (unix seconds)
    into one baseline version per graph — the git shallow-clone /
    history-truncation analog (the reference's repo otherwise grows one
    commit per change forever, ``src/git.rs:151-190``).

    Every ``state_at``/``diff`` read at ``t >= before_ts`` is unchanged
    BYTE-FOR-BYTE: a graph live at the cut keeps exactly one row
    carrying its original latest pre-cut ``warc_ts``, text and digest;
    rows at ``t >= before_ts`` are kept verbatim. Graphs dead at the cut
    with no later history vanish entirely (their tombstones squash
    away). History before the cut is unrecoverable: reads at ``t <
    before_ts`` see only the baselines, and ``blame`` runs that began
    before the cut re-blame to the baseline's timestamp — the earliest
    surviving evidence, exactly like ``git blame`` stopping at a shallow
    clone's boundary commit.

    Runs distributed (one task per partition, like compaction), each
    partition rewritten atomically under the store write lock; ``seq``
    is renumbered in replay order (sorting is total on ``(graph, ts,
    seq)``). Returns the number of rows removed."""
    delta_dir = fs.local(delta_dir)

    with StoreWriteLock(delta_dir):
        return _truncate_locked(delta_dir, int(before_ts))


def _truncate_locked(delta_dir: str, before_ts: int) -> int:
    import time

    import ray.data as rd

    num_partitions = deltas_mod.num_partitions(delta_dir)
    cut = pa.scalar(before_ts * 10**6, pa.timestamp("us")).cast(
        pa.timestamp("s")
    )

    def truncate_one(batch: pa.Table) -> pa.Table:
        out = []
        for pid in batch["pid"].to_pylist():
            t0 = time.monotonic()
            merged = deltas_mod.read_log(delta_dir, [pid])
            if merged.num_rows == 0:
                out.append({"pid": pid, "removed": 0})
                continue
            ts_col = merged["warc_ts"].cast(pa.timestamp("s"))
            old = merged.filter(pc.less(ts_col, cut))
            new = merged.filter(pc.greater_equal(ts_col, cut))
            # baseline: each graph's latest pre-cut row, live graphs only
            base = prepare(old).heads()
            base = base.filter(pc.not_equal(base["op"], OP_DELETE))
            squashed = prepare(pa.concat_tables([base, new])).rows
            squashed = squashed.set_column(
                squashed.schema.get_field_index("seq"), "seq",
                pa.array(np.arange(squashed.num_rows, dtype=np.int64)),
            )
            deltas_mod.write_partition(
                delta_dir, pid, squashed, wall_s=time.monotonic() - t0
            )
            out.append(
                {"pid": pid, "removed": merged.num_rows - squashed.num_rows}
            )
        return pa.Table.from_pylist(out)

    rows = (
        rd.from_arrow(pa.table({"pid": pa.array(range(num_partitions),
                                                pa.int64())}))
        .map_batches(truncate_one, batch_format="pyarrow", batch_size=1)
        .take_all()
    )
    return int(sum(r["removed"] for r in rows))


def delete_graphs(delta_dir: str, graph_ids, ts: int) -> int:
    """Tombstone each currently-live graph at ``ts``; absent graphs are
    no-ops. Returns the number of tombstones written."""
    return commit(delta_dir, {}, graph_ids, ts).num_rows
