"""The build routes every row to its owner partition: the cases where a
route task or a partition gets no row build what the rest of the input
alone would.  A vertex-data input with no row, or with no row naming a
vertex, loads every vertex's value as 0; a weighted partition without
edges still holds its weight arrays; an empty input block changes no
CSR byte.  A delta op other than ``a``, ``d`` or ``u`` is refused."""

import os

import numpy as np
import pyarrow as pa
import pytest

from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
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


def test_weighted_empty_partition_keeps_weight_arrays(ray_session, tmp_work):
    """A star's leaves own no edge: their partitions' CSRs are empty,
    yet weighted ones, with ``edge_w`` and ``w_by_tgt``."""
    n = 50
    src, dst = np.zeros(n, np.int64), np.arange(1, n + 1)
    w = (dst % 5).astype(np.float64)
    meta = build_graph(edges_from_numpy(src, dst, w), os.path.join(tmp_work, "w"), P,
                       dense_int_oids=True, weight_col="w")
    files = [sorted(os.listdir(os.path.join(meta.work_dir, "snapshot", f"part={p}")))
             for p in range(P)]
    assert all(f == files[0] for f in files)
    assert {"edge_w.npy", "w_by_tgt.npy"} <= set(files[0])
    empty = 0
    for p in range(P):
        f = Fragment(p, meta.work_dir, meta.starts)
        assert f.edge_w is not None and f.w_by_tgt is not None
        assert f.edge_w.dtype == np.float64 and len(f.edge_w) == f.num_local_edges
        empty += f.num_local_edges == 0
    assert empty > 0


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
