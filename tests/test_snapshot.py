"""A fragment maps the CSR its build wrote (Serialize/Deserialize
analog, immutable_edgecut_fragment.h:303-376): every load of a
partition is memory-mapped and array-identical to ``csr_arrays`` of its
input edges, and a rebuilt graph dir loads the new edges.  A load
derives ``out_degree`` and ``src_of_edge`` from the stored CSR and
reads no other file of its dir; only a program that pushes builds the
CSC, once per load."""

import importlib.util
import os

import numpy as np

from libgrape_lite_ray import fixtures
from libgrape_lite_ray.graph import oracle
from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
from libgrape_lite_ray.graph.driver import GraphEngine
from libgrape_lite_ray.graph.fragment import Fragment, csr_arrays, csr_dir, csr_edges

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def _er_graphs(tmp_work):
    """The two-component graph directed and symmetrized; its oids are
    0..99, so gid == oid."""
    src, dst = fixtures.er_components()
    d = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "d"), 4,
                    dense_int_oids=True)
    u = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "u"), 4,
                    symmetrize=True, directed=False, dense_int_oids=True)
    return src, dst, d, u


def test_stray_derived_arrays_in_a_csr_dir_are_ignored(ray_session, tmp_work):
    """Every partition's CSR dir also holds wrong copies of the arrays
    a dir once stored beside its CSR: a fragment derives its own, and
    PageRank and WCC still equal the oracle."""
    src, dst, d, u = _er_graphs(tmp_work)
    for meta in (d, u):
        for p in range(meta.num_partitions):
            f = Fragment(p, meta.work_dir, meta.starts)
            E, it = f.num_local_edges, f.indices.dtype
            stray = {"out_degree": np.zeros(f.ivnum, np.int64),
                     "src_of_edge": np.zeros(E, it),
                     "tgt_unique": np.zeros(E, it),
                     "tgt_starts": np.arange(E, dtype=np.int64),
                     "src_by_tgt": np.zeros(E, it),
                     "w_by_tgt": np.ones(E)}
            for k, v in stray.items():
                np.save(os.path.join(csr_dir(meta.work_dir, p), f"{k}.npy"), v)
            g = Fragment(p, meta.work_dir, meta.starts)
            assert sorted(g.csr) == ["indices", "indptr", "outer_gids"]
            assert np.array_equal(g.out_degree, np.diff(g.indptr))
            for k in ("src_of_edge", "tgt_unique", "tgt_starts", "src_by_tgt"):
                assert np.array_equal(getattr(g, k), getattr(f, k)), (p, k)
            assert g.w_by_tgt is None

    n = d.num_vertices
    eng = GraphEngine(d)
    try:
        got = eng.run("pagerank", {"rounds": 10})[0].to_pandas().sort_values("gid")
        assert np.allclose(got["pagerank"].to_numpy(), oracle.pagerank(src, dst, n, rounds=10),
                           atol=1e-9)
    finally:
        eng.shutdown()
    eng = GraphEngine(u)
    try:
        got = eng.run("wcc")[0].to_pandas().sort_values("gid")
        assert np.array_equal(got["comp"].to_numpy(), oracle.wcc(src, dst, n))
    finally:
        eng.shutdown()


def test_only_a_pushing_program_builds_the_csc(ray_session, tmp_work):
    """On an in-process host (``scripts/kernel_bench.py``'s), PageRank,
    CDLP and LCC leave every fragment's CSC unbuilt; WCC builds it, a
    second WCC reuses it, and a reload starts without one."""
    spec = importlib.util.spec_from_file_location(
        "kernel_bench", os.path.join(_ROOT, "scripts", "kernel_bench.py"))
    kernel_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel_bench)
    csc = ("tgt_unique", "tgt_starts", "src_by_tgt", "w_by_tgt")

    _, _, _, u = _er_graphs(tmp_work)
    host = kernel_bench.load_host(u)
    frags = list(host.frags.values())
    for name, params in (("pagerank", {"rounds": 5}), ("cdlp", {"rounds": 5}), ("lcc", {})):
        kernel_bench.run_once(host, name, params, 10)
        assert not any(k in f.__dict__ for f in frags for k in csc), name
    kernel_bench.run_once(host, "wcc", {}, 50)
    assert all(k in f.__dict__ for f in frags for k in csc)
    built = [f.src_by_tgt for f in frags]
    kernel_bench.run_once(host, "wcc", {}, 50)
    assert all(f.src_by_tgt is b for f, b in zip(frags, built))
    host = kernel_bench.load_host(u)
    assert not any(k in f.__dict__ for f in host.frags.values() for k in csc)
