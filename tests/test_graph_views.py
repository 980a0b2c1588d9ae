"""Undirected and reversed views all come from the one direction-aware
router.  A from-scratch symmetrized build and the undirected view of a
built graph must both store exactly the edges of input ∪
transpose(input); ``reverse_graph`` must store transpose(input); every
stored edge must sit in the partition that owns its source.  Stored
edges are deduped unless weighted (weighted multi-edges all stay)."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy, reverse_graph
from libgrape_lite_ray.graph.fragment import csr_edges, load_arrays
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


_NAMES = np.array([f"https://h{(i * 31) % 13}.example/p{i}" for i in range(N)])


def _edges(kind: str, weighted: bool):
    """Several input blocks, so per-block partials and routes repeat."""
    import ray.data as rd

    src, dst, w = _draw(weighted)
    if kind == "dense":
        return edges_from_numpy(src, dst, w)
    cols = {"src": pa.array(_NAMES[src]), "dst": pa.array(_NAMES[dst])}
    if weighted:
        cols["w"] = pa.array(w)
    t = pa.table(cols)
    return rd.from_arrow([t.slice(i, BLOCK) for i in range(0, M, BLOCK)])


def _sorted(e: np.ndarray) -> np.ndarray:
    return e[np.lexsort(e.T[::-1])]


def _part_rows(meta, p: int) -> np.ndarray:
    """Partition p's stored edges as an (n, 2|3) float array."""
    arrays, _ = load_arrays(os.path.join(meta.work_dir, "snapshot", f"part={p}"))
    s, d, w = csr_edges(arrays, int(meta.starts[p]))
    return np.stack([s, d] + ([] if w is None else [w]), 1).astype(np.float64)


def _rows(meta) -> np.ndarray:
    """Every stored edge, sorted lexicographically."""
    return _sorted(np.concatenate([_part_rows(meta, p) for p in range(meta.num_partitions)]))


def _input(kind: str, weighted: bool) -> np.ndarray:
    """The input edges in gid space (gid = rank of the oid among the
    vertices), as an (M, 2|3) float array sorted lexicographically."""
    src, dst, w = _draw(weighted)
    if kind != "dense":
        oids = _NAMES[np.unique(np.concatenate([src, dst]))]
        src, dst = (np.searchsorted(np.sort(oids), _NAMES[x]) for x in (src, dst))
    return _sorted(np.stack([src, dst] + ([] if w is None else [w]), 1).astype(np.float64))


def _stored(e: np.ndarray) -> np.ndarray:
    """What the edge store keeps of the edges ``e``: every weighted
    row, one of each unweighted (src, dst)."""
    return e if e.shape[1] == 3 else np.unique(e, axis=0)


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
    return {"kind": kind, "d": d, "s": s, "u": u, "r": r, "e": _input(kind, weighted),
            "rev_side_effect": rev_side_effect}


def test_symmetrized_views_are_directed_plus_transpose(views):
    d, s, u, e = views["d"], views["s"], views["u"], views["e"]
    assert len(e) == M and d.num_edges == M and d.directed
    assert np.array_equal(_rows(d), _stored(e))
    want = _stored(_union(e, _transpose(e)))
    # rows routed: the input rows twice; the view routes the donor's
    # stored edges twice
    assert s.num_edges == 2 * M and u.num_edges == 2 * len(_rows(d))
    for meta in (s, u):
        assert not meta.directed
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
    assert r.num_edges == len(_rows(d))
    assert np.array_equal(r.starts, d.starts)
    assert r.extra["reversed_of"] == d.work_dir
    assert np.array_equal(_rows(r), _stored(_transpose(views["e"])))

    files = sorted(glob.glob(os.path.join(rev_dir, "**", "*"), recursive=True))
    mtime = os.path.getmtime(os.path.join(rev_dir, "graph_meta.json"))
    again = reverse_graph(d)  # loads the cached view, writes nothing
    assert again.work_dir == rev_dir and again.num_edges == r.num_edges
    assert sorted(glob.glob(os.path.join(rev_dir, "**", "*"), recursive=True)) == files
    assert os.path.getmtime(os.path.join(rev_dir, "graph_meta.json")) == mtime
    assert not glob.glob(f"{rev_dir}.building-*")


def test_spool_rows_sit_in_owner_partition(views):
    """Each routed row lands in the CSR of the partition that owns its
    source, and that CSR holds nothing else."""
    e = views["e"]
    want = {"d": _stored(e), "r": _stored(_transpose(e))}
    want["s"] = want["u"] = _stored(_union(e, _transpose(e)))
    for name, rows in want.items():
        meta = views[name]
        for p in range(meta.num_partitions):
            lo, hi = meta.starts[p], meta.starts[p + 1]
            mine = rows[(rows[:, 0] >= lo) & (rows[:, 0] < hi)]
            assert np.array_equal(_sorted(_part_rows(meta, p)), mine), (name, p)


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
    # symmetrized input (each input row counted once per routed copy)
    e = views["e"][:, :2].astype(np.int64)
    V = s.num_vertices
    deg = 2 * (np.bincount(e[:, 0], minlength=V) + np.bincount(e[:, 1], minlength=V))
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
