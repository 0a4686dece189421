"""Incremental append/delete API — ports of the reference's own
integration scenarios (`tests/integration_test.rs:16-94` `timestamps`,
`:96-125` `test_no_diff`) against the delta-log store, plus monotonicity
and build-interop checks."""

import glob
import os

import pandas as pd
import pyarrow.dataset as pads
import pytest

HOSTILE_ID = "<#/(%¤=:"  # the reference's hostile graph id (it:22)

G_A = '<https://x/a> <https://x/p> "1" .\n'
G_B = '<https://x/b> <https://x/p> "2" .\n'
G_A2 = '<https://x/a> <https://x/p> "changed" .\n'

T1, T2, T3 = 1_700_000_000, 1_700_000_100, 1_700_000_200


def _delta_table(delta_dir):
    files = sorted(glob.glob(os.path.join(delta_dir, "partition=*", "*.parquet")))
    return pads.dataset(files).to_table()


@pytest.fixture()
def store(ray_session, tmp_path):
    from rdf_diff_store_ray.state.append import init_log

    return init_log(str(tmp_path / "deltas"), num_partitions=4)


def test_timestamps_scenario(store, ray_session):
    """Store A at T1, B at T2; read post (2 graphs), pre (0), mid (1) —
    deliberately out of order, proving time travel both directions."""
    from rdf_diff_store_ray.query.bgp import DiffStoreReader
    from rdf_diff_store_ray.state.append import append_graphs
    from rdf_diff_store_ray.state.reconstruct import state_at_table

    assert append_graphs(store, {HOSTILE_ID: G_A}, T1) == 1
    assert append_graphs(store, {"graph-b": G_B}, T2) == 1
    dt = _delta_table(store)
    assert state_at_table(dt, T2 + 1).num_rows == 2  # post
    assert state_at_table(dt, T1 - 1).num_rows == 0  # pre (before history)
    assert state_at_table(dt, T1 + 50).num_rows == 1  # mid
    reader = DiffStoreReader(dt)
    assert G_A.strip() in reader.graphs_at(T2 + 1)
    assert G_B.strip() in reader.graphs_at(T2 + 1)
    assert reader.graphs_at(T1 - 1) == ""


def test_no_diff_scenario(store, ray_session):
    """Storing byte-identical content twice produces exactly one delta
    (`store_graph` equality abort, src/graphs.rs:52-61)."""
    from rdf_diff_store_ray.state.append import append_graphs

    assert append_graphs(store, {"g": G_A}, T1) == 1
    assert append_graphs(store, {"g": G_A}, T2) == 0  # suppressed
    dt = _delta_table(store)
    assert dt.num_rows == 1


def test_delete_is_first_class_and_reappear(store, ray_session):
    from rdf_diff_store_ray.state.append import append_graphs, delete_graphs
    from rdf_diff_store_ray.state.reconstruct import state_at_table

    append_graphs(store, {"g": G_A}, T1)
    assert delete_graphs(store, ["g"], T2) == 1
    assert delete_graphs(store, ["g", "never-existed"], T2 + 1) == 0  # no-ops
    append_graphs(store, {"g": G_A2}, T3)  # reappears with new content
    dt = _delta_table(store)
    assert state_at_table(dt, T1 + 1).num_rows == 1
    assert state_at_table(dt, T2 + 1).num_rows == 0
    assert state_at_table(dt, T3 + 1).num_rows == 1


def test_change_after_delete_then_same_content(store, ray_session):
    """Same content re-posted AFTER a delete must produce a new update
    (the graph was absent; suppression only applies while live)."""
    from rdf_diff_store_ray.state.append import append_graphs, delete_graphs

    append_graphs(store, {"g": G_A}, T1)
    delete_graphs(store, ["g"], T2)
    assert append_graphs(store, {"g": G_A}, T3) == 1
    assert _delta_table(store).num_rows == 3


def test_monotonicity_enforced(store, ray_session):
    from rdf_diff_store_ray.state.append import append_graphs

    append_graphs(store, {"g": G_A}, T2)
    with pytest.raises(Exception, match="monotone|predates"):
        append_graphs(store, {"g": G_A2}, T1)


def test_append_onto_built_log(ray_session, built, tmp_path):
    """The incremental API composes with a batch-built log: append a new
    graph after the build's end and reconstruct both sides. (Appends to a
    COPY — the `built` fixture is shared session-wide.)"""
    import shutil

    from rdf_diff_store_ray.state.append import append_graphs
    from rdf_diff_store_ray.state.reconstruct import metadata_table, state_at_table

    delta_dir = str(tmp_path / "deltas_copy")
    shutil.copytree(built.delta_dir, delta_dir)
    dt0 = _delta_table(delta_dir)
    _, hi = metadata_table(dt0)
    hi_s = int(pd.Timestamp(hi).timestamp())
    n_before = state_at_table(dt0, hi_s).num_rows
    assert append_graphs(delta_dir, {"https://new.example/g": G_B},
                         hi_s + 60) == 1
    dt1 = _delta_table(delta_dir)
    assert state_at_table(dt1, hi_s + 61).num_rows == n_before + 1
    # pre-append states are untouched
    assert state_at_table(dt1, hi_s).num_rows == n_before


def test_append_is_log_structured(store, ray_session):
    """An append writes a NEW segment file and never rewrites existing
    data bytes (the O(delta) commit analog, src/git.rs:192-222)."""
    from rdf_diff_store_ray.state.append import append_graphs

    append_graphs(store, {"g1": G_A, "g2": G_B}, T1)

    def data_files():
        return {
            p: (os.path.getmtime(p), os.path.getsize(p))
            for p in glob.glob(os.path.join(store, "partition=*", "*.parquet"))
        }

    before = data_files()
    assert append_graphs(store, {"g1": G_A2, "g3": G_B}, T2) == 2
    after = data_files()
    # every pre-existing data file is byte-for-byte untouched
    for path, stat in before.items():
        assert after[path] == stat, f"append rewrote {path}"
    # and the new rows landed in fresh segment files
    new_files = set(after) - set(before)
    assert new_files and all(".seg-" in os.path.basename(p) for p in new_files)


def test_append_canonicalizes_string_input(store, ray_session):
    """Raw string input is re-canonicalized before digesting: the same
    graph content reordered / duplicated / missing the trailing newline
    must be a suppressed no-op (the reference prettifies before its
    equality check, src/graphs.rs:35-61)."""
    from rdf_diff_store_ray.state.append import append_graphs

    two = ('<https://x/a> <https://x/p> "1" .\n'
           '<https://x/b> <https://x/p> "2" .\n')
    reordered = ('<https://x/b> <https://x/p> "2" .\n'
                 '<https://x/a> <https://x/p> "1" .\n'
                 '<https://x/a> <https://x/p> "1" .')  # dupe + no trailing \n
    assert append_graphs(store, {"g": two}, T1) == 1
    assert append_graphs(store, {"g": reordered}, T2) == 0  # suppressed


def _data_files(delta_dir):
    return sorted(glob.glob(os.path.join(delta_dir, "partition=*", "*")))


def test_failed_append_writes_nothing(store, ray_session):
    """A multi-graph append with one monotonicity violation raises BEFORE
    any partition is touched — no partial application, also when the
    valid graphs sit in other partitions that come first and the
    violation is in the partition processed last."""
    from rdf_diff_store_ray.shuffle_utils import partition_ids
    from rdf_diff_store_ray.state.append import append_graphs

    fresh = ["fresh-5", "fresh", "fresh-0"]
    assert partition_ids(fresh + ["old"], 4).tolist() == [0, 1, 2, 3]
    append_graphs(store, {"old": G_A}, T2)
    before, files = _delta_table(store), _data_files(store)
    with pytest.raises(Exception, match="predates"):
        # the "fresh" graphs alone would be valid; "old" at T1 < T2 is not
        append_graphs(store, {**{g: G_B for g in fresh}, "old": G_A2}, T1)
    after = _delta_table(store)
    assert after.equals(before)
    assert _data_files(store) == files


def test_commit_reads_each_touched_partition_once(store, monkeypatch):
    """Validation and apply share one read of each touched partition
    under the write lock: a commit over several partitions reads each of
    them exactly once and never opens an untouched one."""
    from rdf_diff_store_ray.shuffle_utils import partition_ids
    from rdf_diff_store_ray.stages import deltas as deltas_mod
    from rdf_diff_store_ray.state import append as append_mod

    ids = ["fresh", "fresh-0", "old"]
    touched = sorted(set(partition_ids(ids, 4).tolist()))
    assert len(touched) == 3
    reads = []
    real = deltas_mod.read_log

    def counting(delta_dir, pids=None, upto_ts=None):
        reads.extend(pids)
        return real(delta_dir, pids, upto_ts)

    monkeypatch.setattr(deltas_mod, "read_log", counting)
    assert append_mod.append_graphs(store, {g: G_A for g in ids}, T1) == 3
    assert sorted(reads) == touched
    reads.clear()
    assert append_mod.delete_graphs(store, ids, T2) == 3
    assert sorted(reads) == touched


def test_commit_path_runs_no_ray_data_job(store, monkeypatch):
    """append_graphs, delete_graphs and sparql_update commit in the
    calling process: none of them starts a Ray Data job."""
    import ray.data

    from rdf_diff_store_ray.state.append import append_graphs, delete_graphs
    from rdf_diff_store_ray.state.reconstruct import state_at_table
    from rdf_diff_store_ray.state.update import sparql_update

    def no_job(*_a, **_k):
        raise AssertionError("a commit started a Ray Data job")

    monkeypatch.setattr(ray.data, "from_arrow", no_job)
    assert append_graphs(store, {"g1": G_A, "g2": G_B}, T1) == 2
    assert delete_graphs(store, ["g1"], T2) == 1
    res = sparql_update(store, "MOVE <g2> TO <g3>", T3)
    assert res["graphs"] == 2
    live = state_at_table(_delta_table(store), T3)
    assert live["graph_id"].to_pylist() == ["g3"]


def test_cli_commits_import_no_ray(store):
    """The CLI's append, delete and update subcommands need no Ray
    session: a process that runs all three never imports ray."""
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from rdf_diff_store_ray.__main__ import main\n"
        f"s = {store!r}\n"
        f"main(['append', '--store', s, '--graph', 'g', '--ts', '{T1}',"
        f" '--text', {G_A!r}])\n"
        f"main(['update', '--store', s, '--ts', '{T2}',"
        " 'MOVE <g> TO <h>'])\n"
        f"main(['delete', '--store', s, '--graph', 'h', '--ts', '{T3}'])\n"
        "assert 'ray' not in sys.modules, 'ray was imported'\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, cwd=os.path.dirname(os.path.dirname(
                             os.path.abspath(__file__))))
    assert out.returncode == 0, out.stderr
    assert [line.split(":")[0] for line in out.stdout.splitlines()] == [
        '{"applied"', '{"form"', '{"applied"']
    assert _delta_table(store).num_rows == 4


def test_append_turtle_format(store, ray_session):
    """The Graph wire model's format field (src/models/graph.rs:14-22)
    selects the input parser: text/turtle documents with prefixes are
    canonicalized to the same stored form as equivalent N-Triples."""
    from rdf_diff_store_ray.query.bgp import DiffStoreReader
    from rdf_diff_store_ray.state.append import Graph, append_graphs

    ttl = """@prefix x: <https://x/> .
x:a x:p "1" .
x:b x:p 2 ."""
    assert append_graphs(store, {"g": Graph("g", ttl, "text/turtle")}, T1) == 1
    reader = DiffStoreReader(_delta_table(store))
    text = reader.graphs_at(T1 + 1)
    assert '<https://x/a> <https://x/p> "1" .' in text
    assert ('<https://x/b> <https://x/p> '
            '"2"^^<http://www.w3.org/2001/XMLSchema#integer> .') in text
    # same content posted as canonical N-Triples is a suppressed no-op
    assert append_graphs(store, {"g": text}, T2) == 0
    # unknown format raises
    import pytest as _pytest
    with _pytest.raises(ValueError, match="unsupported graph format"):
        append_graphs(store, {"g": Graph("g", ttl, "application/rdf+xml")}, T3)


def test_compaction_preserves_state_and_removes_segments(store, ray_session):
    """compact_log merges segments into the base file; every observable
    reconstruction is byte-identical before and after."""
    from rdf_diff_store_ray.query.bgp import DiffStoreReader
    from rdf_diff_store_ray.state.append import (
        append_graphs,
        compact_log,
        delete_graphs,
    )

    append_graphs(store, {"g1": G_A, "g2": G_B}, T1)
    append_graphs(store, {"g1": G_A2, "g3": G_B}, T2)
    delete_graphs(store, ["g2"], T3)
    before = {
        ts: DiffStoreReader(_delta_table(store)).graphs_at(ts)
        for ts in (T1, T2, T3, T3 + 1)
    }
    assert glob.glob(os.path.join(store, "partition=*", "*.seg-*.parquet"))
    n = compact_log(store)
    assert n >= 1
    assert not glob.glob(os.path.join(store, "partition=*", "*.seg-*.parquet"))
    reader = DiffStoreReader(_delta_table(store))
    for ts, text in before.items():
        assert reader.graphs_at(ts) == text
    # appends keep working after compaction
    assert append_graphs(store, {"g4": G_A}, T3 + 60) == 1
    # nothing to do on an already-compact partition set beyond g4's
    assert compact_log(store, min_segments=2) == 0


def test_same_second_appends_are_deterministic(store, ray_session):
    """Two appends to one graph in the SAME second: the later append wins
    (last-write-wins at one commit instant, src/git.rs:151-161 analog),
    identically across the table path, the Dataset path, the service
    path, and before/after compaction — the explicit seq replay column,
    never sort stability, decides the tie."""
    from rdf_diff_store_ray.query.bgp import DiffStoreReader
    from rdf_diff_store_ray.query.service import QueryService
    from rdf_diff_store_ray.state.append import append_graphs, compact_log
    from rdf_diff_store_ray.state.reconstruct import state_at, state_at_table

    assert append_graphs(store, {"g": G_A}, T1) == 1
    assert append_graphs(store, {"g": G_A2}, T1) == 1  # same second, new text

    def winner_table():
        live = state_at_table(_delta_table(store), T1 + 1)
        assert live.num_rows == 1
        return live["delta_text"][0].as_py()

    def winner_dataset():
        import ray.data as rd

        files = sorted(
            glob.glob(os.path.join(store, "partition=*", "*.parquet"))
        )
        rows = state_at(rd.read_parquet(files), T1 + 1).take_all()
        assert len(rows) == 1
        return rows[0]["delta_text"]

    def winner_service():
        svc = QueryService(store)
        try:
            return svc.graph_at("g", T1 + 1)
        finally:
            svc.shutdown()

    assert winner_table() == G_A2  # replay order: the later append won
    assert winner_dataset() == G_A2
    assert winner_service() == G_A2
    before = DiffStoreReader(_delta_table(store)).graphs_at(T1 + 1)
    assert compact_log(store) >= 1
    assert winner_table() == G_A2
    assert winner_dataset() == G_A2
    assert DiffStoreReader(_delta_table(store)).graphs_at(T1 + 1) == before


def test_concurrent_writer_fails_fast(store, ray_session):
    """Single-writer contract: while one appender holds the store lock,
    a second append/compact raises LogLockedError and writes NOTHING;
    after release the same append succeeds."""
    from rdf_diff_store_ray.state.append import (
        LogLockedError,
        StoreWriteLock,
        append_graphs,
        compact_log,
    )

    doc = '<https://x/a> <https://x/p> "v" .\n'
    before = _delta_table(store).num_rows
    with StoreWriteLock(store):
        with pytest.raises(LogLockedError, match="locked by another writer"):
            append_graphs(store, {"g1": doc}, 1_700_000_000)
        with pytest.raises(LogLockedError):
            compact_log(store)
    assert _delta_table(store).num_rows == before  # loser wrote nothing
    assert append_graphs(store, {"g1": doc}, 1_700_000_000) == 1


def test_stale_lock_from_dead_process_is_broken(store, ray_session):
    """A lock file left by a dead pid on this host must not wedge the
    store; a foreign-host lock must (liveness can't be probed)."""
    import json as _json
    import os as _os
    import socket

    from rdf_diff_store_ray.state.append import LogLockedError, append_graphs

    lock = _os.path.join(store, ".write.lock")
    doc = '<https://x/a> <https://x/p> "v" .\n'
    with open(lock, "w") as f:  # pid 2**22+5 is never a live pid here
        _json.dump({"pid": 2**22 + 5, "host": socket.gethostname(),
                    "acquired_unix": 0}, f)
    assert append_graphs(store, {"g1": doc}, 1_700_000_000) == 1
    assert not _os.path.exists(lock)
    with open(lock, "w") as f:
        _json.dump({"pid": 1, "host": "some-other-host",
                    "acquired_unix": 0}, f)
    with pytest.raises(LogLockedError):
        append_graphs(store, {"g2": doc}, 1_700_000_001)
    _os.unlink(lock)


def test_interleaved_appenders_one_loses(store, ray_session):
    """Two threads race the same store; every append either fully applies
    or fails with LogLockedError, and the final log equals the serial
    replay of exactly the successful appends."""
    import threading

    from rdf_diff_store_ray.state.append import LogLockedError, append_graphs
    from rdf_diff_store_ray.state.reconstruct import state_at_table

    results = {}
    barrier = threading.Barrier(2)

    def writer(name, gid, ts):
        doc = f'<https://x/{name}> <https://x/p> "v" .\n'
        barrier.wait()
        try:
            results[name] = ("ok", append_graphs(store, {gid: doc}, ts))
        except LogLockedError:
            results[name] = ("locked", None)

    ts = 1_700_000_000
    threads = [
        threading.Thread(target=writer, args=(n, f"g-{n}", ts))
        for n in ("a", "b")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    outcomes = sorted(v[0] for v in results.values())
    n_ok = outcomes.count("ok")
    assert n_ok >= 1  # at least one writer made progress
    live = state_at_table(_delta_table(store), ts + 1)
    assert live.num_rows == n_ok  # exactly the winners' graphs are live


# ----------------------------------------------------------------- fsck


def _first_nonempty_partition(delta_dir):
    import pyarrow.parquet as pq

    for f in sorted(glob.glob(os.path.join(delta_dir, "partition=*",
                                           "*.parquet"))):
        t = pq.read_table(f)
        if t.num_rows:
            return f, t
    raise AssertionError("no rows in store")


def test_fsck_clean_store(store, ray_session):
    from rdf_diff_store_ray.state.append import append_graphs, delete_graphs
    from rdf_diff_store_ray.state.fsck import fsck_ok, fsck_store

    append_graphs(store, {HOSTILE_ID: G_A, "graph-b": G_B}, T1)
    append_graphs(store, {HOSTILE_ID: G_A2}, T2)
    delete_graphs(store, ["graph-b"], T3)
    report = fsck_store(store)
    assert fsck_ok(report), report.to_pandas().to_string()
    df = report.to_pandas()
    assert df["n_rows"].sum() == 4 and df["n_graphs"].sum() == 2


def test_fsck_detects_corruption(store, ray_session):
    import pyarrow.parquet as pq

    from rdf_diff_store_ray.state.append import append_graphs
    from rdf_diff_store_ray.state.fsck import fsck_ok, fsck_store

    append_graphs(store, {HOSTILE_ID: G_A, "graph-b": G_B}, T1)
    f, t = _first_nonempty_partition(store)
    # tamper: change delta_text without updating the digest
    import pyarrow as pa

    texts = t["delta_text"].to_pylist()
    texts[0] = '<https://x/evil> <https://x/p> "tampered" .\n'
    cols = {c: t[c] for c in t.column_names}
    cols["delta_text"] = pa.array(texts, pa.large_string())
    pq.write_table(pa.table(cols).cast(t.schema), f)
    report = fsck_store(store)
    assert not fsck_ok(report)
    df = report.to_pandas()
    assert df["bad_digest"].sum() >= 1


def test_fsck_detects_misplaced_graph(store, ray_session):
    """Rows moved to a partition that does not own their graph hash are
    flagged (the invariant the service's point-read pruning relies on)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rdf_diff_store_ray.state.append import append_graphs
    from rdf_diff_store_ray.state.fsck import fsck_ok, fsck_store

    append_graphs(store, {HOSTILE_ID: G_A, "graph-b": G_B}, T1)
    f, t = _first_nonempty_partition(store)
    # rewrite this partition's rows claiming a different partition dir
    other = [d for d in sorted(glob.glob(os.path.join(store, "partition=*")))
             if d != os.path.dirname(f)][0]
    dst = os.path.join(other, os.path.basename(f))
    if os.path.exists(dst):
        src_rows = pq.read_table(dst)
        merged = pa.concat_tables([src_rows, t.cast(src_rows.schema)])
    else:
        merged = t
    pq.write_table(merged, dst)
    os.remove(f)
    report = fsck_store(store)
    assert not fsck_ok(report)
    assert report.to_pandas()["bad_ownership"].sum() >= 1


def test_fsck_cli(store, ray_session, capsys):
    import json as _json

    from rdf_diff_store_ray.__main__ import main
    from rdf_diff_store_ray.state.append import append_graphs

    append_graphs(store, {"graph-b": G_B}, T1)
    rc = main(["fsck", "--store", store])
    out = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0 and out["ok"] is True


# ---------------------------------------------------------------- truncation
def test_truncate_preserves_post_cut_reads(store, ray_session):
    """Retention squash: every state_at at t >= cut is byte-identical
    before and after truncate_log; pre-cut history is gone; fsck clean."""
    from rdf_diff_store_ray.state.append import (
        append_graphs, delete_graphs, truncate_log,
    )
    from rdf_diff_store_ray.state.fsck import fsck_ok, fsck_store
    from rdf_diff_store_ray.state.reconstruct import state_at_table

    G_C = '<https://x/c> <https://x/p> "9" .\n'
    append_graphs(store, {"a": G_A, "b": G_B, "dead": G_C}, T1)
    append_graphs(store, {"a": G_A2}, T2)
    delete_graphs(store, ["dead"], T2)
    append_graphs(store, {"b": G_A}, T3)

    cut = T2 + 50  # between T2 and T3
    probes = [cut, T3 - 1, T3, T3 + 100]
    before = {
        t: sorted(
            zip(*(state_at_table(_delta_table(store), t)[c].to_pylist()
                  for c in ("graph_id", "warc_ts", "delta_text")))
        )
        for t in probes
    }
    removed = truncate_log(store, cut)
    assert removed > 0
    after = {
        t: sorted(
            zip(*(state_at_table(_delta_table(store), t)[c].to_pylist()
                  for c in ("graph_id", "warc_ts", "delta_text")))
        )
        for t in probes
    }
    assert before == after
    dt = _delta_table(store)
    # squashed: one baseline per live graph + post-cut rows; 'dead' gone
    assert set(dt["graph_id"].to_pylist()) == {"a", "b"}
    assert dt.num_rows == 3  # a@T2 baseline, b@T1 baseline, b@T3
    assert fsck_ok(fsck_store(store)), fsck_store(store).to_pandas()


def test_truncate_cli(ray_session, tmp_path, capsys):
    import json as _json

    from rdf_diff_store_ray.__main__ import main

    store = str(tmp_path / "deltas")
    assert main(["init", "--store", store, "--partitions", "2"]) == 0
    assert main(["append", "--store", store, "--graph", "g",
                 "--text", G_A, "--ts", str(T1)]) == 0
    assert main(["append", "--store", store, "--graph", "g",
                 "--text", G_A2, "--ts", str(T2)]) == 0
    capsys.readouterr()
    assert main(["truncate", "--store", store,
                 "--before-ts", str(T2 + 1)]) == 0
    out = _json.loads(capsys.readouterr().out.strip())
    assert out["removed_rows"] == 1


def test_prune_log_files_time_pruning(store, ray_session):
    """Footer-stat pruning for as-of reads (``read_log(upto_ts=...)``):
    (a) files whose every row postdates the target instant are dropped,
    (b) the pruned read reconstructs the identical state, (c) a pruned
    file is genuinely never opened — corrupting it on disk cannot
    perturb the read."""
    from rdf_diff_store_ray.stages.deltas import _log_files, read_log
    from rdf_diff_store_ray.state.append import append_graphs
    from rdf_diff_store_ray.state.reconstruct import state_at_table

    append_graphs(store, {"g1": G_A, "g2": G_B}, T1)
    append_graphs(store, {"g1": G_A2}, T2)
    append_graphs(store, {"g3": G_B}, T3)

    files = sorted(glob.glob(os.path.join(store, "partition=*", "*.parquet")))
    kept_mid = [f for _, f in _log_files(store, None, T1 + 1)]
    assert set(kept_mid) < set(files), "late segments must drop"
    full = state_at_table(read_log(store), T1 + 1)
    pruned = state_at_table(read_log(store, upto_ts=T1 + 1), T1 + 1)
    assert sorted(full["graph_id"].to_pylist()) == ["g1", "g2"]
    assert full.sort_by("graph_id").equals(pruned.sort_by("graph_id"))

    # end-of-history read: only empty base files may drop; state identical
    full_end = state_at_table(read_log(store), T3)
    pruned_end = state_at_table(read_log(store, upto_ts=T3), T3)
    assert full_end.sort_by("graph_id").equals(pruned_end.sort_by("graph_id"))

    # pruned files are never read past their footer: corrupt every
    # dropped file's data pages (the footer stays intact), re-read
    for f in set(files) - set(kept_mid):
        size = os.path.getsize(f)
        with open(f, "r+b") as fh:
            fh.seek(size - 8)
            footer = int.from_bytes(fh.read(4), "little")
            fh.seek(4)  # past the leading magic bytes
            fh.write(b"\xff" * (size - 8 - footer - 4))
    with pytest.raises(OSError):  # the full read does reach them
        read_log(store)
    again = state_at_table(read_log(store, upto_ts=T1 + 1), T1 + 1)
    assert again.sort_by("graph_id").equals(pruned.sort_by("graph_id"))


def test_delta_files_upto_ts_pre_history_keeps_schema(ray_session, tmp_path):
    """A pre-history as-of read prunes every file but must keep one so
    downstream readers see the delta schema (and zero live rows)."""
    from rdf_diff_store_ray.pipelines.build import BuildResult
    from rdf_diff_store_ray.state.append import append_graphs, init_log
    from rdf_diff_store_ray.state.reconstruct import state_at

    delta_dir = init_log(str(tmp_path / "out" / "deltas"), num_partitions=2)
    append_graphs(delta_dir, {"g": G_A}, T2)
    res = BuildResult(out_dir=str(tmp_path / "out"), num_partitions=2,
                      manifests=[], canonical_map_size=0, wall_s=0.0,
                      resumed_partitions=0)
    pre = res.delta_dataset(upto_ts=T1)
    assert {"graph_id", "warc_ts", "op", "delta_text"} <= set(
        pre.schema().names)
    live = state_at(pre, T1)
    assert live.count() == 0
    # mid/end reads through the same surface stay correct
    assert state_at(res.delta_dataset(upto_ts=T2), T2).count() == 1


def test_store_stats_counts_and_ts_range(store, ray_session):
    """store_stats reads only manifests + parquet footers and reports
    exact rows/files/ts-range across base + segment files."""
    from rdf_diff_store_ray.state.append import append_graphs, compact_log
    from rdf_diff_store_ray.state.stats import store_stats

    append_graphs(store, {"g1": G_A, "g2": G_B}, T1)
    append_graphs(store, {"g1": G_A2}, T2)
    s = store_stats(store)
    assert s["partitions"] == 4
    assert s["rows"] == 3
    assert s["segment_files"] >= 1 and s["base_files"] == 4
    assert s["ts_min"].startswith("2023-11-14") and s["ts_max"] > s["ts_min"]
    assert s["locked"] is False

    compact_log(store)
    s2 = store_stats(store)
    assert s2["rows"] == 3 and s2["segment_files"] == 0
    assert s2["graphs_base"] == 2  # g1 + g2 in the compacted bases
    assert (s2["ts_min"], s2["ts_max"]) == (s["ts_min"], s["ts_max"])
