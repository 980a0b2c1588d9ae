"""String-oid dictionary build: the one-task small-dictionary path and
the distributed sort + join path must produce the same graph with the
same partition starts, the exact per-vertex ``deg + 1`` split; with
fewer histogram buckets than vertices every build path snaps to the
same bucket ends."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from libgrape_lite_ray.graph.build import build_graph
from libgrape_lite_ray.graph.fragment import load_arrays
from libgrape_lite_ray.ids import weighted_partition_starts

P = 4


def _edge_table() -> pa.Table:
    rng = np.random.default_rng(11)
    n, m = 5000, 20000
    # hub-skewed endpoints, and oid order unrelated to the draw order
    src = np.minimum(rng.zipf(1.6, m) - 1, n - 1)
    dst = rng.integers(0, n, m)
    names = [f"https://h{(i * 7919) % 97:02d}.example/p{i}" for i in range(n)]
    s = pa.array([names[i] for i in src], pa.string())
    d = pa.array([names[i] for i in dst], pa.string())
    return pa.table({"src": s, "dst": d})


def _edges_ds():
    import ray.data as rd

    t = _edge_table()
    # several input blocks, so per-block partials repeat oids
    return rd.from_arrow([t.slice(i, 4000) for i in range(0, t.num_rows, 4000)])


def _vertices(meta) -> pa.Table:
    t = pq.read_table(meta.vertices_path, columns=["oid", "gid", "weight"])
    return t.sort_by("gid")


def _csrs(meta) -> list[dict]:
    return [load_arrays(os.path.join(meta.work_dir, "snapshot", f"part={p}"))[0]
            for p in range(meta.num_partitions)]


def _input_gids(t: pa.Table, oids: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """``t``'s src and dst as gids: each oid's rank among ``oids``."""
    order = pc.sort_indices(oids)
    return tuple(pc.index_in(t.column(c), value_set=oids.take(order)).to_numpy()
                 for c in ("src", "dst"))


CASES = {
    "directed": {},
    "symmetrize": {"symmetrize": True, "directed": False},
    "vertices_ds": {"isolated": True},
}


@pytest.mark.parametrize("case", list(CASES))
def test_one_task_dictionary_matches_sort_path(ray_session, tmp_work, case, monkeypatch):
    import ray.data as rd

    import libgrape_lite_ray.graph.build as build

    kw = dict(CASES[case])
    if kw.pop("isolated", False):
        # one vertex that appears in no edge, plus one that does
        kw["vertices_ds"] = rd.from_arrow(pa.table({"oid": pa.array(
            ["https://isolated.example/", "https://h00.example/p0"], pa.string())}))
    edges = _edges_ds()
    small = [build_graph(edges, os.path.join(tmp_work, f"s{i}"), P, **kw) for i in range(2)]
    monkeypatch.setattr(build, "_BROADCAST_VERTICES", 0)  # the sort + join path
    large = build_graph(edges, os.path.join(tmp_work, "l"), P, **kw)

    a, b = small[0], large
    assert a.num_vertices == b.num_vertices
    assert a.num_partitions == b.num_partitions
    assert np.array_equal(a.starts, b.starts)
    assert _vertices(a).equals(_vertices(b))
    for x, y in zip(_csrs(a), _csrs(b)):
        assert sorted(x) == sorted(y)
        for k in x:
            assert x[k].dtype == y[k].dtype and np.array_equal(x[k], y[k]), k
    if "vertices_ds" in kw:
        oids = _vertices(a).column("oid").to_pylist()
        assert "https://isolated.example/" in oids

    # the one-task starts are deterministic and exact: the per-vertex
    # deg + 1 split, deg counted over every routed copy of an input row
    V = a.num_vertices
    assert np.array_equal(small[0].starts, small[1].starts)
    t = _edge_table()
    isolated = ["https://isolated.example/"] if "vertices_ds" in kw else []
    oids = pc.unique(pa.concat_arrays([t.column("src").combine_chunks(),
                                       t.column("dst").combine_chunks(),
                                       pa.array(isolated, pa.string())]))
    src, dst = _input_gids(t, oids)
    assert len(oids) == V
    copies = 2 if kw.get("symmetrize") else 1
    deg = copies * (np.bincount(src, minlength=V) + np.bincount(dst, minlength=V))
    want = weighted_partition_starts(np.arange(V), deg + 1, V, a.num_partitions)
    assert np.array_equal(a.starts, want)


def test_bucketed_starts_equal_on_every_build_path(ray_session, tmp_work, monkeypatch):
    """B = 64 < V buckets: dense int oids, and the same graph as
    zero-padded string oids (gid == int oid) through the one-task and
    the sort + join dictionary paths, give the same starts."""
    import ray.data as rd

    import libgrape_lite_ray.graph.build as build

    monkeypatch.setattr(build, "_HIST_BUCKETS", 64)
    rng = np.random.default_rng(5)
    V, m = 1000, 6000
    # a ring keeps every vertex in some edge, zipf sources skew the weight
    src = np.concatenate([np.arange(V), np.minimum(rng.zipf(1.5, m) - 1, V - 1)])
    dst = np.concatenate([(np.arange(V) + 1) % V, rng.integers(0, V, m)])
    dense = build_graph(build.edges_from_numpy(src, dst), os.path.join(tmp_work, "d"), P,
                        dense_int_oids=True)

    def as_str(a):
        return pa.array([f"{i:06d}" for i in a], pa.string())

    edges = rd.from_arrow(pa.table({"src": as_str(src), "dst": as_str(dst)}))
    one_task = build_graph(edges, os.path.join(tmp_work, "s"), P)
    monkeypatch.setattr(build, "_BROADCAST_VERTICES", 0)
    sort_join = build_graph(edges, os.path.join(tmp_work, "l"), P)

    assert dense.num_vertices == one_task.num_vertices == sort_join.num_vertices == V
    assert np.array_equal(one_task.starts, dense.starts), (one_task.starts, dense.starts)
    assert np.array_equal(sort_join.starts, dense.starts), (sort_join.starts, dense.starts)
    # every boundary is a bucket end: the 64 buckets really were used
    bucket_starts = -(-np.arange(65) * V // 64)
    assert np.isin(dense.starts, bucket_starts).all(), dense.starts
