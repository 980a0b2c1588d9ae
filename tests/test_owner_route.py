"""The build routes every row to its owner partition: the cases where a
route task or a partition gets no row build what the rest of the input
alone would.  A vertex-data input with no row, or with no row naming a
vertex, loads every vertex's value as 0; a string column loads as
strings in a partition that got none of its rows; a weighted partition
without edges still holds its weights; a dense-int build gives a gid
to a declared vertex above every edge oid; an empty input block
changes no CSR byte.  A delta op other than ``a``, ``d`` or ``u`` is
refused."""

import os

import numpy as np
import pyarrow as pa
import pytest

from libgrape_lite_ray.graph.build import GraphMeta, build_graph, edges_from_numpy
from libgrape_lite_ray.graph.fragment import Fragment

P = 4


def _names(ids) -> np.ndarray:
    return np.array([f"v{i:04d}" for i in ids])


def _csr_files(meta) -> dict:
    """``{path relative to snapshot/: bytes}`` of every partition's CSR."""
    root = os.path.join(meta.work_dir, "snapshot")
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            with open(os.path.join(dirpath, f), "rb") as fh:
                out[os.path.relpath(os.path.join(dirpath, f), root)] = fh.read()
    return out


@pytest.mark.parametrize("oids", ["none", "unknown"])
@pytest.mark.parametrize("dense", [False, True], ids=["string", "dense_int"])
def test_vdata_without_matching_rows_loads_zeros(ray_session, tmp_work, oids, dense):
    import ray.data as rd

    rng = np.random.default_rng(4)
    src, dst = rng.integers(0, 60, 400), rng.integers(0, 60, 400)
    if oids == "none":
        keys = pa.array([], pa.int64() if dense else pa.string())
    else:
        keys = pa.array([10**6, 10**6 + 1]) if dense else pa.array(["nope", "zzzz"])
    vds = rd.from_arrow(pa.table({"oid": keys, "val": pa.array(np.ones(len(keys)))}))
    edges = edges_from_numpy(src, dst) if dense else edges_from_numpy(_names(src), _names(dst))
    meta = build_graph(edges, os.path.join(tmp_work, "g"), P, dense_int_oids=dense,
                       vdata_ds=vds)
    assert meta.extra["vdata_cols"] == ["val"]
    for p in range(meta.num_partitions):
        f = Fragment(p, meta.work_dir, meta.starts, meta.extra["vdata_cols"])
        assert f.vdata["val"].dtype == np.float64
        assert len(f.vdata["val"]) == f.ivnum and not f.vdata["val"].any()


def _tagged_ring(tmp_work, name):
    """A 40-vertex string-oid ring whose vertex data tags its first two
    vertices, which partition 0 owns."""
    import ray.data as rd

    ids = np.arange(40)
    vds = rd.from_arrow(pa.table({"oid": _names([0, 1]), "tag": ["a", "b"]}))
    return build_graph(edges_from_numpy(_names(ids), _names((ids + 1) % 40)),
                       os.path.join(tmp_work, name), P, vdata_ds=vds)


def test_string_vdata_loads_as_strings_in_every_partition(ray_session, tmp_work):
    meta = _tagged_ring(tmp_work, "g")
    # only partition 0 got a row, so only it has a file to read types from
    assert sorted(os.listdir(os.path.join(meta.work_dir, "vdata"))) == ["part=0"]
    assert meta.vdata_columns == {"tag": "string"}
    tags = []
    for p in range(meta.num_partitions):
        f = Fragment(p, meta.work_dir, meta.starts, meta.vdata_columns)
        assert f.vdata["tag"].dtype == object
        assert f.vdata_full["tag"].dtype == object
        tags += f.vdata["tag"].tolist()
    assert tags == ["a", "b"] + [""] * 38


def test_vdata_translate_reads_no_dictionary_in_the_driver(ray_session, tmp_work,
                                                           monkeypatch):
    """The translate's sorted oids come from a task: a patch of the
    driver's dictionary read, which the workers never see, goes unused."""
    real = GraphMeta._oid_range

    def no_full_read(self, lo, hi):
        if hi - lo + 1 >= self.num_vertices:
            raise AssertionError("the driver read the whole vertex dictionary")
        return real(self, lo, hi)

    monkeypatch.setattr(GraphMeta, "_oid_range", no_full_read)
    meta = _tagged_ring(tmp_work, "g")
    f = Fragment(0, meta.work_dir, meta.starts, meta.vdata_columns)
    assert f.vdata["tag"][:2].tolist() == ["a", "b"]


def test_weighted_empty_partition_keeps_weight_arrays(ray_session, tmp_work):
    """A star's leaves own no edge: their partitions' CSRs are empty,
    yet weighted ones: ``edge_w`` is stored, and ``w_by_tgt`` is
    derived, an empty float64 array."""
    n = 50
    src, dst = np.zeros(n, np.int64), np.arange(1, n + 1)
    w = (dst % 5).astype(np.float64)
    meta = build_graph(edges_from_numpy(src, dst, w), os.path.join(tmp_work, "w"), P,
                       dense_int_oids=True, weight_col="w")
    files = [sorted(os.listdir(os.path.join(meta.work_dir, "snapshot", f"part={p}")))
             for p in range(P)]
    assert all(f == files[0] for f in files)
    assert "edge_w.npy" in files[0] and "w_by_tgt.npy" not in files[0]
    empty = 0
    for p in range(P):
        f = Fragment(p, meta.work_dir, meta.starts)
        assert f.edge_w is not None and f.w_by_tgt is not None
        assert f.edge_w.dtype == np.float64 and len(f.edge_w) == f.num_local_edges
        assert f.w_by_tgt.dtype == np.float64 and len(f.w_by_tgt) == f.num_local_edges
        empty += f.num_local_edges == 0
    assert empty > 0


def test_dense_build_numbers_declared_vertices_past_the_edges(ray_session, tmp_work):
    """Edges 0 -> 1 -> 2 and declared vertices {0, 1, 2, 9}: vertex 9
    routes no edge, yet it gets gid 9, isolated and dangling."""
    import ray.data as rd

    vds = rd.from_arrow(pa.table({"oid": pa.array([0, 1, 2, 9], pa.int64())}))
    meta = build_graph(edges_from_numpy(np.array([0, 1]), np.array([1, 2])),
                       os.path.join(tmp_work, "g"), 2, dense_int_oids=True, vertices_ds=vds)
    assert meta.num_vertices == 10 and meta.starts[-1] == 10
    deg = np.concatenate([Fragment(p, meta.work_dir, meta.starts).out_degree
                          for p in range(meta.num_partitions)])
    assert deg.tolist() == [1, 1] + [0] * 8
    assert meta.gids_of([9]).tolist() == [9]


@pytest.mark.parametrize("symmetrize", [False, True], ids=["directed", "undirected"])
def test_empty_input_block_changes_no_csr(ray_session, tmp_work, symmetrize):
    import ray.data as rd

    rng = np.random.default_rng(6)
    m = 900
    t = pa.table({"src": _names(rng.integers(0, 150, m)), "dst": _names(rng.integers(0, 150, m)),
                  "w": rng.integers(1, 4, m).astype(np.float64)})
    with_empty = rd.from_arrow([t.slice(0, 400), t.schema.empty_table(), t.slice(400)])
    kw = dict(weight_col="w", symmetrize=symmetrize, directed=not symmetrize)
    a = build_graph(rd.from_arrow(t), os.path.join(tmp_work, "a"), P, **kw)
    b = build_graph(with_empty, os.path.join(tmp_work, "b"), P, **kw)
    assert np.array_equal(a.starts, b.starts) and a.num_edges == b.num_edges
    assert _csr_files(a) == _csr_files(b)


@pytest.mark.parametrize("op", ["x", "D", "del"])
def test_mutate_refuses_unknown_op(ray_session, tmp_work, op):
    from libgrape_lite_ray.graph.mutate import mutate_graph, parse_delta_lines

    meta = build_graph(edges_from_numpy(np.arange(9), np.arange(1, 10)),
                       os.path.join(tmp_work, "g"), 2, dense_int_oids=True)
    delta = parse_delta_lines(["a 0 5", f"{op} 1 2"])
    out = os.path.join(tmp_work, "m")
    with pytest.raises(ValueError, match=f"'{op}'"):
        mutate_graph(meta, delta, out)
    assert not os.path.exists(out)
