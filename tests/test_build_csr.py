"""Each partition's CSR is a build product: every graph dir a build
publishes (string, dense and weighted builds, the undirected view,
``reverse_graph`` and ``mutate_graph``) holds ``snapshot/part={p}/``
for every partition p, an empty one included, equal to ``csr_arrays``
of that partition's spool.  Engines only read the graph dir, and a dir
without CSRs is refused with a clear error."""

import os

import numpy as np
import pyarrow as pa
import pytest

from libgrape_lite_ray.graph.build import (
    GraphMeta,
    build_graph,
    edges_from_numpy,
    read_spool,
    reverse_graph,
)
from libgrape_lite_ray.graph.fragment import Fragment, csr_arrays, load_arrays

P = 4
N = 100


def _star():
    """Vertex 0 links to 1..N: one source, so the directed spool fills
    only the first partition and the reversed spool leaves it empty."""
    dst = np.arange(1, N + 1)
    return np.zeros(N, np.int64), dst, (dst % 7).astype(np.float64)


def _assert_csrs(meta: GraphMeta, empty: bool):
    snap = os.path.join(meta.work_dir, "snapshot")
    assert sorted(os.listdir(snap)) == sorted(f"part={p}" for p in range(P))
    spooled = [os.path.isdir(os.path.join(meta.spool_dir, f"part={p}")) for p in range(P)]
    assert (not all(spooled)) == empty
    for p in range(P):
        got, _ = load_arrays(os.path.join(snap, f"part={p}"))
        want = csr_arrays(*read_spool(meta.work_dir, p, meta.has_weights),
                          int(meta.starts[p]), int(meta.starts[p + 1]))
        assert sorted(got) == sorted(want), p
        for k, v in want.items():
            assert got[k].dtype == v.dtype and np.array_equal(got[k], v), (p, k)
        f = Fragment(p, meta.work_dir, meta.starts, meta.has_weights)
        assert f.num_local_edges == len(want["indices"])


def test_every_build_writes_every_partition_csr(ray_session, tmp_work):
    from libgrape_lite_ray.graph.mutate import mutate_graph

    src, dst, w = _star()
    names = np.array([f"v{i:04d}" for i in range(N + 1)])  # v0000 sorts first
    s = build_graph(edges_from_numpy(names[src], names[dst]),
                    os.path.join(tmp_work, "s"), P)
    d = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "d"), P,
                    dense_int_oids=True)
    wt = build_graph(edges_from_numpy(src, dst, w), os.path.join(tmp_work, "w"), P,
                     weight_col="w")
    u = build_graph(None, os.path.join(tmp_work, "u"), P, directed=False, symmetrize=True,
                    reuse_vertices_from=s)
    r = reverse_graph(d)
    m = mutate_graph(wt, pa.table({"op": ["a", "d"], "src": [0, 0], "dst": [1, 2],
                                   "w": [9.0, 0.0]}), os.path.join(tmp_work, "m"))
    for meta in (s, d, wt, r, m):
        _assert_csrs(meta, empty=True)
    _assert_csrs(u, empty=False)
    assert m.has_weights and m.num_edges == N - 1


def _listing(root: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            st = os.stat(os.path.join(dirpath, f))
            out[os.path.relpath(os.path.join(dirpath, f), root)] = (st.st_size, st.st_mtime_ns)
    return out


def test_engine_leaves_graph_dir_unchanged(ray_session, tmp_work):
    from libgrape_lite_ray.graph.driver import GraphEngine

    src, dst, _ = _star()
    meta = build_graph(edges_from_numpy(np.append(src, dst), np.append(dst, src)),
                       os.path.join(tmp_work, "g"), P)
    before = _listing(meta.work_dir)
    eng = GraphEngine(meta, num_hosts=2)
    try:
        eng.run("pagerank", {"rounds": 3})
    finally:
        eng.shutdown()
    assert _listing(meta.work_dir) == before


def test_graph_dir_without_csr_is_refused(ray_session, tmp_work):
    import shutil

    src, dst, _ = _star()
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "g"), P)
    shutil.rmtree(os.path.join(meta.work_dir, "snapshot"))
    with pytest.raises(FileNotFoundError, match="rebuild"):
        Fragment(0, meta.work_dir, meta.starts)
