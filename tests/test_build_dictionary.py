"""Dictionary build: the one-task dictionary (R = 1) and the
range-partitioned one (a small ``_ROUTE_ROWS`` forces R >= 3) must
produce the same graph, bitwise, with the same partition starts, the
exact per-vertex ``deg + 1`` split, for string, non-ASCII and sparse
int64 oids; with fewer histogram buckets than vertices every build path
snaps to the same bucket ends; a null oid is refused on every path."""

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


def _oids(n: int, kind: str) -> pa.Array:
    """``n`` distinct oids whose sort order is unrelated to their index."""
    mix = (np.arange(n) * 7919) % n
    if kind == "sparse_int":  # negative and huge, int64's extremes included
        v = (mix - n // 2) * ((2**63 - 1) // n)
        v[1], v[2] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        return pa.array(v, pa.int64())
    # non-ASCII: multi-byte UTF-8 sorts by bytes, after every ASCII char
    hosts = ["h", "é", "Z", "日本", "\U0001F600", "ü"] if kind == "non_ascii" else ["h"]
    return pa.array([f"https://{hosts[i % len(hosts)]}{m % 97:02d}.example/p{i}"
                     for i, m in enumerate(mix)], pa.string())


def _edge_table(kind: str = "url") -> pa.Table:
    rng = np.random.default_rng(11)
    n, m = 5000, 20000
    # hub-skewed endpoints, and oid order unrelated to the draw order
    src = np.minimum(rng.zipf(1.6, m) - 1, n - 1)
    dst = rng.integers(0, n, m)
    # weights repeat, so weighted multi-edges tie on the weight too
    w = rng.integers(0, 4, m).astype(np.float64)
    names = _oids(n, kind)
    return pa.table({"src": names.take(src), "dst": names.take(dst), "w": w})


def _edges_ds(kind: str = "url"):
    import ray.data as rd

    t = _edge_table(kind)
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
    "weighted": {"weight_col": "w"},
    "non_ascii": {"oids": "non_ascii"},
    "sparse_int": {"oids": "sparse_int"},
}


@pytest.mark.parametrize("case", list(CASES))
def test_one_task_dictionary_matches_sort_path(ray_session, tmp_work, case, monkeypatch):
    """R = 1 against R >= 3 oid ranges: the range assignment agrees
    with Arrow's sort order, so every file matches."""
    import ray.data as rd

    import libgrape_lite_ray.graph.build as build

    kw = dict(CASES[case])
    kind = kw.pop("oids", "url")
    if kw.pop("isolated", False):
        # one vertex that appears in no edge, plus one that does
        kw["vertices_ds"] = rd.from_arrow(pa.table({"oid": pa.array(
            ["https://isolated.example/", _oids(1, kind)[0].as_py()], pa.string())}))
    edges = _edges_ds(kind)
    small = [build_graph(edges, os.path.join(tmp_work, f"s{i}"), P, **kw) for i in range(2)]
    monkeypatch.setattr(build, "_ROUTE_ROWS", 3000)  # the range-partitioned dictionary
    large = build_graph(edges, os.path.join(tmp_work, "l"), P, **kw)
    assert small[0].extra["build"]["dict_ranges"] == 1
    assert large.extra["build"]["dict_ranges"] >= 3

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
    t = _edge_table(kind)
    isolated = ["https://isolated.example/"] if "vertices_ds" in kw else []
    oids = pc.unique(pa.concat_arrays([t.column("src").combine_chunks(),
                                       t.column("dst").combine_chunks(),
                                       pa.array(isolated, t.column("src").type)]))
    src, dst = _input_gids(t, oids)
    assert len(oids) == V
    copies = 2 if kw.get("symmetrize") else 1
    deg = copies * (np.bincount(src, minlength=V) + np.bincount(dst, minlength=V))
    want = weighted_partition_starts(np.arange(V), deg + 1, V, a.num_partitions)
    assert np.array_equal(a.starts, want)


def test_bucketed_starts_equal_on_every_build_path(ray_session, tmp_work, monkeypatch):
    """B = 64 < V buckets: dense int oids, and the same graph as
    zero-padded string oids (gid == int oid) through the one-task and
    the range-partitioned dictionary, give the same starts."""
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
    monkeypatch.setattr(build, "_ROUTE_ROWS", 300)
    sort_join = build_graph(edges, os.path.join(tmp_work, "l"), P)
    assert sort_join.extra["build"]["dict_ranges"] >= 3

    assert dense.num_vertices == one_task.num_vertices == sort_join.num_vertices == V
    assert np.array_equal(one_task.starts, dense.starts), (one_task.starts, dense.starts)
    assert np.array_equal(sort_join.starts, dense.starts), (sort_join.starts, dense.starts)
    # every boundary is a bucket end: the 64 buckets really were used
    bucket_starts = -(-np.arange(65) * V // 64)
    assert np.isin(dense.starts, bucket_starts).all(), dense.starts


@pytest.mark.parametrize("path", ["dictionary", "dense_int", "dense_vertices", "vdata",
                                  "vdata_ranges"])
def test_null_oid_is_refused(ray_session, tmp_work, path, monkeypatch):
    """A null oid names no vertex: every build path raises, naming the
    column, where it used to become a vertex or vanish with its row."""
    import ray.data as rd

    import libgrape_lite_ray.graph.build as build

    if path == "vdata_ranges":
        monkeypatch.setattr(build, "_ROUTE_ROWS", 2)  # 6 partial rows: R = 3
    ints = path.startswith("dense")
    src = pa.array([0, 1, None, 2] if ints else ["a", "b", None, "c"])
    dst = pa.array([1, 2, 0, 0] if ints else ["b", "c", "a", "a"])
    edges, vdata, vertices = rd.from_arrow(pa.table({"src": src, "dst": dst})), None, None
    col = "src"
    if path.startswith("vdata"):
        edges = rd.from_arrow(pa.table({"src": dst, "dst": dst.take([1, 2, 0, 1])}))
        vdata = rd.from_arrow(pa.table({"oid": src, "x": [1.0, 2.0, 3.0, 4.0]}))
        col = "oid"
    elif path == "dense_vertices":  # the declared universe of a dense build
        edges = rd.from_arrow(pa.table({"src": dst, "dst": dst.take([1, 2, 0, 1])}))
        vertices = rd.from_arrow(pa.table({"oid": src}))
        col = "oid"
    with pytest.raises(ValueError, match=f"null oid in column '{col}'"):
        build_graph(edges, os.path.join(tmp_work, path), 2, dense_int_oids=ints,
                    vdata_ds=vdata, vertices_ds=vertices)
