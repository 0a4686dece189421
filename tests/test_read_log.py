"""``stages.deltas.read_log``, the one reader of the delta log's files,
against a naive oracle: each file read on its own with
``pq.read_table``, in segment order, ``seq`` synthesized for seq-less
(legacy) files from the partition's running offset, rows at or before
``upto_ts`` kept."""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from rdf_diff_store_ray import fs
from rdf_diff_store_ray.schemas import DELTAS, ensure_seq
from rdf_diff_store_ray.stages.deltas import partitions, read_log

G1 = '<https://x/a> <https://x/p> "1" .\n'
G2 = '<https://x/a> <https://x/p> "2" .\n'
G3 = '<https://x/b> <https://x/p> "3" .\n'
T1, T2, T3 = 1_700_000_000, 1_700_000_100, 1_700_000_200


def _oracle(store, pids=None, upto_ts=None) -> pa.Table:
    root = fs.local(store)
    if pids is None:
        pids = sorted(int(d.split("=")[1]) for d in os.listdir(root)
                      if d.startswith("partition="))
    parts = []
    for pid in pids:
        offset = 0
        for f in sorted(glob.glob(os.path.join(
                root, f"partition={pid:05d}", "deltas*.parquet"))):
            t = ensure_seq(pq.read_table(f), start=offset)
            if t.num_rows:
                offset = max(offset, pc.max(t["seq"]).as_py() + 1)
            parts.append(t.select(DELTAS.names).cast(DELTAS))
    out = pa.concat_tables(parts) if parts else DELTAS.empty_table()
    if upto_ts is not None:
        out = out.filter(pc.less_equal(
            out["warc_ts"], pa.scalar(upto_ts, pa.timestamp("s"))))
    return out


def _same(store, **kw) -> pa.Table:
    got = read_log(store, **kw)
    want = _oracle(store, **kw)
    assert got.schema == DELTAS
    assert got.equals(want), kw
    return got


def _segmented_store(store: str) -> str:
    from rdf_diff_store_ray.state.append import (append_graphs,
                                                 delete_graphs, init_log)

    init_log(store, num_partitions=4)
    append_graphs(store, {"g-a": G1, "g-b": G3}, T1)
    append_graphs(store, {"g-a": G2}, T2)
    delete_graphs(store, ["g-b"], T3)
    return store


def _check_all(store) -> None:
    assert _same(store).num_rows == 4
    for pid in partitions(store):
        _same(store, pids=[pid])
    assert _same(store, upto_ts=T1 - 1).num_rows == 0  # before history
    assert _same(store, upto_ts=T2).num_rows == 3  # the middle
    assert _same(store, upto_ts=T3 + 5).num_rows == 4  # the end


def test_base_plus_segments(tmp_path):
    store = _segmented_store(str(tmp_path / "deltas"))
    assert any(len(glob.glob(os.path.join(d, "deltas.seg-*.parquet")))
               for d in glob.glob(os.path.join(store, "partition=*")))
    _check_all(store)


@pytest.mark.parametrize("scheme", ["file", "mocks3"])
def test_uri_stores(tmp_path, monkeypatch, scheme):
    monkeypatch.setenv("KG_MOCKS3_ROOT", str(tmp_path / "mocks3"))
    uri = (f"file://{tmp_path}/deltas" if scheme == "file"
           else "mocks3://bucket/store/deltas")
    _check_all(_segmented_store(uri))
    assert read_log(uri).equals(read_log(fs.local(uri)))


def test_legacy_seqless_base_with_segments(tmp_path):
    """A base file written before ``seq`` existed, then segments that
    carry it: the base's rows get ``0..n-1`` in file order, the
    segments keep their own."""
    store = str(tmp_path / "deltas")
    pdir = os.path.join(store, "partition=00000")
    os.makedirs(pdir)

    def rows(gids, secs, texts, seq=None):
        cols = {
            "graph_id": pa.array(gids, pa.string()),
            "warc_ts": pa.array([s * 1000 for s in secs], pa.timestamp("ms")),
            "op": pa.array(["update"] * len(gids)),
            "delta_text": pa.array(texts, pa.large_string()),
            "digest": pa.array([t.encode() for t in texts], pa.binary()),
            "partition_id": pa.array([0] * len(gids), pa.int32()),
        }
        if seq is not None:
            cols["seq"] = pa.array(seq, pa.int64())
        return pa.table(cols)

    pq.write_table(rows(["g-a", "g-b", "g-a"], [T1, T1, T1], [G1, G3, G2]),
                   os.path.join(pdir, "deltas.parquet"))
    pq.write_table(rows(["g-a"], [T2], [G1], seq=[7]),
                   os.path.join(pdir, "deltas.seg-000000.parquet"))
    pq.write_table(rows(["g-b", "g-a"], [T3, T3], [G1, G3], seq=[8, 9]),
                   os.path.join(pdir, "deltas.seg-000001.parquet"))
    got = _same(store)
    assert got["seq"].to_pylist() == [0, 1, 2, 7, 8, 9]
    _same(store, upto_ts=T2)
    _same(store, upto_ts=T1 - 1)


def test_missing_partition_directory(tmp_path):
    """A pid with no directory holds no rows; the whole-log read skips
    it."""
    import shutil

    store = _segmented_store(str(tmp_path / "deltas"))
    gone = next(pid for pid in partitions(store)
                if read_log(store, [pid]).num_rows == 0)
    shutil.rmtree(os.path.join(store, f"partition={gone:05d}"))
    assert gone not in partitions(store)
    assert read_log(store, pids=[gone]).equals(DELTAS.empty_table())
    _check_all(store)


def test_missing_store_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_log(str(tmp_path / "nope"))
