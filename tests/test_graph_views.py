"""Undirected and reversed views all come from the one direction-aware
spool router.  A from-scratch symmetrized build and the undirected
view of a built graph must both hold exactly the edge multiset
directed ∪ transpose(directed); ``reverse_graph`` must hold
transpose(directed); every spool row must sit in the partition that
owns its source."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy, reverse_graph
from libgrape_lite_ray.ids import weighted_partition_starts

P = 4
N, M, BLOCK = 800, 6000, 1500


def _draw(weighted: bool):
    rng = np.random.default_rng(5)
    # hub-skewed sources; the last vertex appears so dense-int V == N
    src = np.minimum(rng.zipf(1.7, M) - 1, N - 1)
    dst = rng.integers(0, N, M)
    dst[-1] = N - 1
    w = rng.random(M) if weighted else None
    return src.astype(np.int64), dst.astype(np.int64), w


def _edges(kind: str, weighted: bool):
    """Several input blocks, so per-block partials and routes repeat."""
    import ray.data as rd

    src, dst, w = _draw(weighted)
    if kind == "dense":
        return edges_from_numpy(src, dst, w)
    names = np.array([f"https://h{(i * 31) % 13}.example/p{i}" for i in range(N)])
    cols = {"src": pa.array(names[src]), "dst": pa.array(names[dst])}
    if weighted:
        cols["w"] = pa.array(w)
    t = pa.table(cols)
    return rd.from_arrow([t.slice(i, BLOCK) for i in range(0, M, BLOCK)])


def _rows(meta, path=None) -> np.ndarray:
    """Spool rows as an (n, 2|3) float array sorted lexicographically."""
    cols = ["src_gid", "dst_gid"] + (["w"] if meta.has_weights else [])
    t = pq.read_table(path or meta.spool_dir, columns=cols)
    e = np.stack([t.column(c).to_numpy().astype(np.float64) for c in cols], 1)
    return e[np.lexsort(e.T[::-1])]


def _transpose(e: np.ndarray) -> np.ndarray:
    t = e.copy()
    t[:, [0, 1]] = e[:, [1, 0]]
    return t[np.lexsort(t.T[::-1])]


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    u = np.concatenate([a, b])
    return u[np.lexsort(u.T[::-1])]


def _vertices(meta) -> pa.Table:
    return pq.read_table(meta.vertices_path, columns=["oid", "gid", "weight"]).sort_by("gid")


CASES = ["string", "string_weighted", "dense", "dense_weighted"]


@pytest.fixture(scope="module", params=CASES)
def views(request, ray_session, tmp_path_factory):
    kind, _, weighted = request.param.partition("_")
    kw = {"weight_col": "w"} if weighted else {}
    if kind == "dense":
        kw["dense_int_oids"] = True
    root = str(tmp_path_factory.mktemp(request.param))
    d = build_graph(_edges(kind, weighted), f"{root}/d", P, **kw)
    s = build_graph(_edges(kind, weighted), f"{root}/s", P, symmetrize=True, **kw)
    u = build_graph(None, f"{root}/u", P, directed=False, symmetrize=True,
                    reuse_vertices_from=d)
    rev_side_effect = os.path.exists(os.path.join(d.work_dir, "rev"))
    r = reverse_graph(d)
    return {"kind": kind, "d": d, "s": s, "u": u, "r": r,
            "rev_side_effect": rev_side_effect}


def test_symmetrized_views_are_directed_plus_transpose(views):
    d, s, u = views["d"], views["s"], views["u"]
    e = _rows(d)
    assert len(e) == M and d.num_edges == M and d.directed
    want = _union(e, _transpose(e))
    for meta in (s, u):
        assert not meta.directed
        assert meta.num_edges == 2 * M
        assert meta.num_vertices == d.num_vertices
        assert meta.has_weights == d.has_weights
        assert np.array_equal(_rows(meta), want)
    # the undirected view keeps the donor's starts and writes nothing
    # into the donor's directory
    assert np.array_equal(u.starts, d.starts)
    assert not views["rev_side_effect"]


def test_reverse_graph_is_transpose_and_cached(views):
    d, r = views["d"], views["r"]
    rev_dir = os.path.join(d.work_dir, "rev")
    assert r.work_dir == rev_dir and r.directed == d.directed
    assert r.num_edges == d.num_edges
    assert np.array_equal(r.starts, d.starts)
    assert r.extra["reversed_of"] == d.work_dir
    assert np.array_equal(_rows(r), _transpose(_rows(d)))

    files = sorted(glob.glob(os.path.join(rev_dir, "**", "*"), recursive=True))
    mtime = os.path.getmtime(os.path.join(rev_dir, "graph_meta.json"))
    again = reverse_graph(d)  # loads the cached view, writes nothing
    assert again.work_dir == rev_dir and again.num_edges == r.num_edges
    assert sorted(glob.glob(os.path.join(rev_dir, "**", "*"), recursive=True)) == files
    assert os.path.getmtime(os.path.join(rev_dir, "graph_meta.json")) == mtime
    assert not glob.glob(f"{rev_dir}.building-*")


def test_spool_rows_sit_in_owner_partition(views):
    for name in ("d", "s", "u", "r"):
        meta = views[name]
        seen = 0
        for pdir in glob.glob(os.path.join(meta.spool_dir, "part=*")):
            p = int(os.path.basename(pdir).split("=")[1])
            for f in glob.glob(os.path.join(pdir, "*.parquet")):
                sg = pq.read_table(f, columns=["src_gid"]).column("src_gid").to_numpy()
                assert sg.min() >= meta.starts[p] and sg.max() < meta.starts[p + 1], name
                seen += len(sg)
        assert seen == meta.num_edges, name


def test_symmetrize_keeps_the_directed_dictionary(views):
    d, s, u = views["d"], views["s"], views["u"]
    if views["kind"] == "dense":
        for meta in (s, u, views["r"]):
            assert meta.extra.get("identity_oids")
            assert not os.path.exists(meta.vertices_path)
    else:
        vd = _vertices(d)
        assert _vertices(s).select(["oid", "gid"]).equals(vd.select(["oid", "gid"]))
        assert _vertices(u).equals(vd)
        assert _vertices(views["r"]).equals(vd)
    # from-scratch starts are the exact per-vertex deg + 1 split of the
    # symmetrized spool (each input row counted once per routed copy)
    e = _rows(s)[:, :2].astype(np.int64)
    V = s.num_vertices
    deg = np.bincount(e[:, 0], minlength=V) + np.bincount(e[:, 1], minlength=V)
    want = weighted_partition_starts(np.arange(V), deg + 1, V, s.num_partitions)
    assert np.array_equal(s.starts, want)


def test_reuse_vertices_from_rejects_ambiguous_input(ray_session, tmp_work):
    src, dst, _ = _draw(False)
    donor = build_graph(edges_from_numpy(src[:200], dst[:200]), f"{tmp_work}/d", 2)
    with pytest.raises(ValueError, match="edges_ds=None"):
        build_graph(edges_from_numpy(dst[:200], src[:200]), f"{tmp_work}/u", 2,
                    symmetrize=True, reuse_vertices_from=donor)
    with pytest.raises(ValueError, match="symmetrize=True"):
        build_graph(None, f"{tmp_work}/v", 2, reuse_vertices_from=donor)
    assert not glob.glob(f"{tmp_work}/u*") and not glob.glob(f"{tmp_work}/v*")
