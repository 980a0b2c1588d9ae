"""Resumable partitioned output: atomic per-partition commits, and a
resumed write skips finished partitions while completing missing ones
(the 100-TB restartability contract — never one giant file, never a
marked partial)."""

import glob
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _read_all(out_dir):
    files = sorted(glob.glob(os.path.join(out_dir, "part=*", "data.parquet")))
    return pd.concat([pq.read_table(f).to_pandas() for f in files],
                     ignore_index=True)


def _bucket(ids, num_partitions):
    """The sink's pinned routing: pandas hash of the first column mod P."""
    h = pd.util.hash_pandas_object(pd.Series(ids, dtype=np.int64), index=False)
    return h.to_numpy() % num_partitions


def test_result_handle_partitioned_resume(ray_session, tmp_work):
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    from libgrape_lite_ray.graph.driver import GraphEngine
    from libgrape_lite_ray.sinks import (finished_partitions,
                                         write_dataset_partitioned)

    rng = np.random.default_rng(3)
    src = rng.integers(0, 200, 1500).astype(np.int64)
    dst = rng.integers(0, 200, 1500).astype(np.int64)
    meta = build_graph(edges_from_numpy(src, dst), f"{tmp_work}/g", 4,
                       dense_int_oids=True)
    eng = GraphEngine(meta)
    try:
        res, _ = eng.run("degree")
        out = os.path.join(tmp_work, "out")
        st = write_dataset_partitioned(res.to_dataset(), out, 4)
        assert st == {"written": 4, "skipped": 0, "rows": 200}
        assert finished_partitions(out) == {0, 1, 2, 3}

        # simulate a torn run: kill one partition's marker + data
        shutil.rmtree(os.path.join(out, "part=2"))
        # leave another partition UNMARKED (torn write): must re-write
        os.remove(os.path.join(out, "part=1", "_SUCCESS"))

        res2, _ = eng.run("degree")
        st2 = write_dataset_partitioned(res2.to_dataset(), out, 4)
        assert st2["skipped"] == 2 and st2["written"] == 2
        df = _read_all(out).sort_values("gid").reset_index(drop=True)
        assert len(df) == 200
        deg = np.bincount(np.unique(src * 1000 + dst) // 1000, minlength=200)
        np.testing.assert_array_equal(df["degree"].to_numpy(), deg)
    finally:
        eng.shutdown()


def test_dataset_partitioned_resume(ray_session, tmp_work):
    import ray.data as rd

    from libgrape_lite_ray.sinks import write_dataset_partitioned

    ds = rd.range(1000)
    out = os.path.join(tmp_work, "dsout")
    st = write_dataset_partitioned(ds, out, num_partitions=8)
    assert st["written"] == 8 and st["rows"] == 1000
    # wipe two buckets; resume completes exactly those
    shutil.rmtree(os.path.join(out, "part=3"))
    shutil.rmtree(os.path.join(out, "part=5"))
    st2 = write_dataset_partitioned(ds, out, num_partitions=8)
    assert st2["written"] == 2 and st2["skipped"] == 6
    df = _read_all(out)
    assert sorted(df["id"].tolist()) == list(range(1000))


@pytest.mark.parametrize("num_partitions", [1, 8])
def test_rows_land_in_their_hash_bucket(ray_session, tmp_work, num_partitions):
    """Every row sits in the partition of its pinned hash bucket (so an
    output directory written by an earlier version resumes correctly),
    and a partition no row hashes to is still committed, empty."""
    import ray.data as rd

    from libgrape_lite_ray.sinks import (finished_partitions,
                                         write_dataset_partitioned)

    P = num_partitions
    ids = np.arange(200, dtype=np.int64)
    empty = {P - 1} if P > 1 else set()
    ids = ids[~np.isin(_bucket(ids, P), list(empty))]
    blocks = [pa.table({"id": chunk, "x": chunk * 0.5})
              for chunk in np.array_split(ids, 3)]
    out = os.path.join(tmp_work, "hashed")
    st = write_dataset_partitioned(rd.from_arrow(blocks), out, P)
    assert st == {"written": P, "skipped": 0, "rows": len(ids)}
    assert finished_partitions(out) == set(range(P))
    seen = []
    for k in range(P):
        t = pq.read_table(os.path.join(out, f"part={k}", "data.parquet"))
        assert t.schema.names == ["id", "x"]
        got = t.column("id").to_numpy()
        assert (t.num_rows == 0) == (k in empty)
        assert (_bucket(got, P) == k).all()
        seen.extend(got.tolist())
    assert sorted(seen) == ids.tolist()


def test_resume_removes_leftover_commit_tmp(ray_session, tmp_work):
    """A commit killed between the tmp write and the rename leaves a
    complete tmp file behind; the resumed commit must not leave it next
    to the new data.parquet, where directory readers would read both."""
    import ray.data as rd

    from libgrape_lite_ray.sinks import write_dataset_partitioned

    ds = rd.range(100)
    out = os.path.join(tmp_work, "tmpout")
    write_dataset_partitioned(ds, out, 2)
    pdir = os.path.join(out, "part=1")
    os.remove(os.path.join(pdir, "_SUCCESS"))
    for tmp in ("data.parquet.tmp-12345", ".data.parquet.tmp-12346"):
        shutil.copy(os.path.join(pdir, "data.parquet"), os.path.join(pdir, tmp))

    st = write_dataset_partitioned(ds, out, 2)
    assert st["written"] == 1 and st["skipped"] == 1
    assert pq.read_table(out).num_rows == 100
    assert sorted(os.listdir(pdir)) == ["_SUCCESS", "data.parquet"]


def test_empty_blocks_and_empty_dataset(ray_session, tmp_work):
    """Blocks a filter emptied (which may have no columns) and a Dataset
    with no blocks at all still commit every partition."""
    import ray.data as rd

    from libgrape_lite_ray.sinks import write_dataset_partitioned

    ds = rd.range(100, override_num_blocks=4).filter(lambda r: r["id"] < 10)
    st = write_dataset_partitioned(ds, os.path.join(tmp_work, "some"), 3)
    assert st == {"written": 3, "skipped": 0, "rows": 10}
    assert sorted(_read_all(os.path.join(tmp_work, "some"))["id"]) == list(range(10))
    st = write_dataset_partitioned(rd.range(0), os.path.join(tmp_work, "none"), 2)
    assert st == {"written": 2, "skipped": 0, "rows": 0}
