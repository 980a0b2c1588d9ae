"""A fragment maps the CSR its build wrote (Serialize/Deserialize
analog, immutable_edgecut_fragment.h:303-376): every load of a
partition is memory-mapped and array-identical to ``csr_arrays`` of its
input edges, and a rebuilt graph dir loads the new edges."""

import os

import numpy as np

from libgrape_lite_ray import fixtures
from libgrape_lite_ray.graph import oracle
from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
from libgrape_lite_ray.graph.driver import GraphEngine
from libgrape_lite_ray.graph.fragment import Fragment, csr_arrays, csr_edges


def test_snapshot_roundtrip(ray_session, tmp_work):
    n = 200
    src, dst = fixtures.zipf_graph(n=n, m=1500)
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "snap"),
                       4, directed=True)
    f1 = Fragment(1, meta.work_dir, meta.starts)
    assert isinstance(f1.indices, np.memmap)  # mapped from the build's CSR
    # gid = rank of the oid among the vertices
    sg, dg = (np.searchsorted(np.unique(np.concatenate([src, dst])), x) for x in (src, dst))
    mine = (sg >= f1.lo) & (sg < f1.hi)
    want = csr_arrays(sg[mine], dg[mine], None, f1.lo, f1.hi)
    f2 = Fragment(1, meta.work_dir, meta.starts)
    for k, v in want.items():
        assert np.array_equal(getattr(f1, k), v), k
        assert getattr(f1, k).dtype == v.dtype, k
        assert np.array_equal(getattr(f2, k), v), k
    assert f1.tvnum == f2.tvnum and f1.num_local_edges == f2.num_local_edges

    # engine run on the mapped graph still matches the oracle
    eng = GraphEngine(meta)
    try:
        ds, _ = eng.run("pagerank", {"rounds": 10, "damping": 0.85})
        got = ds.to_pandas().sort_values("gid")["pagerank"].to_numpy()
        want = oracle.pagerank(src, dst, n, rounds=10)
        assert np.allclose(got, want, atol=1e-9)
    finally:
        eng.shutdown()


def test_snapshot_invalidated_by_rebuild(ray_session, tmp_work):
    """A graph dir rebuilt with other edges under the same path loads
    the new edges: the CSR is part of the build, not a cache of it."""
    import shutil

    src, dst = fixtures.er_components()  # oids 0..99, so gid == oid
    d = os.path.join(tmp_work, "inv")
    meta = build_graph(edges_from_numpy(src, dst), d, 2, directed=True)
    f = Fragment(0, meta.work_dir, meta.starts)
    s1, d1, _ = csr_edges(f.csr, f.lo)
    assert not ((s1 == 0) & (d1 == 70)).any()
    # rebuild with an edge across the two components, so a new one
    shutil.rmtree(d)
    meta2 = build_graph(edges_from_numpy(np.append(src, 0), np.append(dst, 70)), d, 2,
                        directed=True)
    f = Fragment(0, meta2.work_dir, meta2.starts)
    s2, d2, _ = csr_edges(f.csr, f.lo)
    assert ((s2 == 0) & (d2 == 70)).sum() == 1
    assert (s2 == 0).sum() == (s1 == 0).sum() + 1
