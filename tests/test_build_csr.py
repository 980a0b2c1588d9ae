"""Each partition's CSR is a build product and a graph dir's only edge
store: every graph dir a build publishes (string, dense and weighted
builds, the undirected view, ``reverse_graph`` and ``mutate_graph``)
holds ``snapshot/part={p}/`` for every partition p, an empty one
included, equal to ``csr_arrays`` of that partition's input edges, and
no ``edges/`` spool.  A CSR dir stores exactly ``indices``, ``indptr``
and ``outer_gids`` (plus ``edge_w`` when weighted).  Views and
mutations read their donor's CSRs, so duplicate unweighted input edges
leave no trace in what they publish.
Engines only read the graph dir, and a dir without CSRs is refused
with a clear error."""

import os

import numpy as np
import pyarrow as pa
import pytest

from libgrape_lite_ray.graph.build import (
    GraphMeta,
    build_graph,
    edges_from_numpy,
    reverse_graph,
)
from libgrape_lite_ray.graph.fragment import Fragment, csr_arrays, load_arrays

P = 4
N = 100


def _star():
    """Vertex 0 links to 1..N: one source, so the directed graph fills
    only the first partition and the reversed one leaves it empty."""
    dst = np.arange(1, N + 1)
    return np.zeros(N, np.int64), dst, (dst % 7).astype(np.float64)


def _csrs(meta: GraphMeta) -> list[dict]:
    snap = os.path.join(meta.work_dir, "snapshot")
    assert sorted(os.listdir(snap)) == sorted(f"part={p}" for p in range(meta.num_partitions))
    stored = {"indices.npy", "indptr.npy", "outer_gids.npy"} | (
        {"edge_w.npy"} if meta.has_weights else set())
    for p in range(meta.num_partitions):
        assert set(os.listdir(os.path.join(snap, f"part={p}"))) == stored, p
    return [load_arrays(os.path.join(snap, f"part={p}"))[0] for p in range(meta.num_partitions)]


def _assert_csrs(meta: GraphMeta, src, dst, w=None):
    """Every partition's CSR is ``csr_arrays`` of the gid edges
    ``(src, dst, w)`` whose source it owns."""
    for p, got in enumerate(_csrs(meta)):
        lo, hi = int(meta.starts[p]), int(meta.starts[p + 1])
        m = (src >= lo) & (src < hi)
        want = csr_arrays(src[m], dst[m], None if w is None else w[m], lo, hi)
        assert sorted(got) == sorted(want), p
        for k, v in want.items():
            assert got[k].dtype == v.dtype and np.array_equal(got[k], v), (p, k)
        f = Fragment(p, meta.work_dir, meta.starts)
        assert f.num_local_edges == len(want["indices"])


@pytest.fixture(scope="module")
def star_graphs(ray_session, tmp_path_factory):
    """Every kind of published graph dir over the star; every oid is a
    vertex id 0..N (or its zero-padded name), so gid == oid."""
    from libgrape_lite_ray.graph.mutate import mutate_graph

    root = str(tmp_path_factory.mktemp("star"))
    src, dst, w = _star()
    names = np.array([f"v{i:04d}" for i in range(N + 1)])  # v0000 sorts first
    g = {"s": build_graph(edges_from_numpy(names[src], names[dst]), f"{root}/s", P),
         "d": build_graph(edges_from_numpy(src, dst), f"{root}/d", P, dense_int_oids=True),
         "w": build_graph(edges_from_numpy(src, dst, w), f"{root}/w", P, weight_col="w")}
    g["u"] = build_graph(None, f"{root}/u", P, directed=False, symmetrize=True,
                         reuse_vertices_from=g["s"])
    g["r"] = reverse_graph(g["d"])
    g["m"] = mutate_graph(g["w"], pa.table({"op": ["a", "d"], "src": [0, 0], "dst": [1, 2],
                                            "w": [9.0, 0.0]}), f"{root}/m")
    return g


def test_every_build_writes_every_partition_csr(star_graphs):
    g = star_graphs
    src, dst, w = _star()
    for name in ("s", "d"):
        _assert_csrs(g[name], src, dst)
    _assert_csrs(g["w"], src, dst, w)
    _assert_csrs(g["r"], dst, src)
    _assert_csrs(g["u"], np.concatenate([src, dst]), np.concatenate([dst, src]))
    # the delta upserts (0, 1) at 9.0 and deletes (0, 2)
    keep = dst != 2
    _assert_csrs(g["m"], src[keep], dst[keep], np.where(dst == 1, 9.0, w)[keep])
    assert g["m"].has_weights and g["m"].num_edges == N - 1
    # one source: the star fills only the first partition and its
    # reverse leaves that one empty; an empty partition has its CSR too
    for name, meta in g.items():
        empty = [len(c["indices"]) == 0 for c in _csrs(meta)]
        assert any(empty) == (name != "u"), name


def test_published_graph_dirs_hold_no_spool(star_graphs):
    """The Parquet spool is the build's private shuffle: neither a
    fresh build, the undirected view, ``reverse_graph`` nor
    ``mutate_graph`` publishes it."""
    for name, meta in star_graphs.items():
        assert os.path.isdir(os.path.join(meta.work_dir, "snapshot")), name
        assert not os.path.exists(meta.spool_dir), name
        assert not os.path.exists(os.path.join(meta.work_dir, "edges")), name


def _ring(n: int, copies: int):
    """A ring plus chords ``i -> i+5``, every edge ``copies`` times:
    every vertex has the same degree, so duplicates leave the
    partition starts as they are."""
    i = np.arange(n, dtype=np.int64)
    src = np.tile(np.concatenate([i, i]), copies)
    dst = np.tile(np.concatenate([(i + 1) % n, (i + 5) % n]), copies)
    return src, dst


def test_views_and_mutations_read_the_deduped_store(ray_session, tmp_work):
    """A view and a mutation of a donor whose input repeats every
    unweighted edge equal a fresh build of the deduped input: the same
    CSR arrays, and the same rows routed."""
    from libgrape_lite_ray.graph.mutate import mutate_graph

    n, p = 40, 2

    def build(src, dst, name, **kw):
        return build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, name), p,
                           dense_int_oids=True, **kw)

    donor = build(*_ring(n, 2), "dup")
    clean = build(*_ring(n, 1), "clean")
    assert donor.num_edges == 2 * clean.num_edges
    view = build_graph(None, os.path.join(tmp_work, "view"), p, directed=False,
                       symmetrize=True, reuse_vertices_from=donor)
    # swap two edges' heads: every vertex keeps its degree
    delta = pa.table({"op": ["d", "d", "a", "a"], "src": [0, 2, 0, 2], "dst": [1, 3, 3, 1]})
    mutated = mutate_graph(donor, delta, os.path.join(tmp_work, "mutated"))

    src, dst = _ring(n, 1)
    fresh_view = build(src, dst, "fresh_view", symmetrize=True, directed=False)
    keep = ~(((src == 0) & (dst == 1)) | ((src == 2) & (dst == 3)))
    fresh_mut = build(np.append(src[keep], [0, 2]), np.append(dst[keep], [3, 1]), "fresh_mut")
    for got, want in ((view, fresh_view), (mutated, fresh_mut)):
        assert np.array_equal(got.starts, want.starts)
        assert got.num_edges == want.num_edges
        for a, b in zip(_csrs(got), _csrs(want)):
            assert sorted(a) == sorted(b)
            for k in a:
                assert a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]), k


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
