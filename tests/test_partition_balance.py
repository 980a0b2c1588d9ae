"""Degree-aware partitioning weights BOTH endpoints (total degree),
on both the string-oid and the dense-int build paths.

On an in-degree-skewed graph (web-style hub page), the symmetrized
variant built from the donor's partition starts must stay
edge-balanced: the round-4 advisor found that out-degree-only endpoint
weights made the donor starts blind to the hub, packing all its
reverse edges into one partition of the undirected build (measured
~1.8x the mean on this topology)."""

import numpy as np


def _edge_counts(meta):
    from libgrape_lite_ray.graph.fragment import csr_dir, csr_num_edges

    return [csr_num_edges(csr_dir(meta.work_dir, p)) for p in range(meta.num_partitions)]


def _hub_ring():
    n, spokes = 4000, 2000
    ring_src = np.arange(n - 1, dtype=np.int64)
    ring_dst = ring_src + 1
    sp_src = np.arange(1, spokes + 1, dtype=np.int64)
    sp_dst = np.zeros(spokes, np.int64)  # hub: in-degree 2000, out-degree 1
    return np.concatenate([ring_src, sp_src]), np.concatenate([ring_dst, sp_dst])


def _assert_symmetrized_donor_balanced(tmp_work, **kw):
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy

    src, dst = _hub_ring()
    meta_d = build_graph(edges_from_numpy(src, dst), f"{tmp_work}/d", 4, **kw)
    meta_u = build_graph(None, f"{tmp_work}/u", 4, directed=False,
                         symmetrize=True, reuse_vertices_from=meta_d)

    counts = _edge_counts(meta_u)
    pairs = np.stack([np.concatenate([src, dst]), np.concatenate([dst, src])], 1)
    assert sum(counts) == len(np.unique(pairs, axis=0))
    mean = sum(counts) / len(counts)
    # the hub's total degree is ~17% of all symmetrized edges (< the
    # 25% per-partition target), so balanced starts are feasible; the
    # old out-degree-only weighting measured max/mean ~1.8 here
    assert max(counts) / mean < 1.5, counts


def test_symmetrized_donor_balance_on_indegree_skew(ray_session, tmp_work):
    _assert_symmetrized_donor_balanced(tmp_work)


def test_dense_int_donor_balance_on_indegree_skew(ray_session, tmp_work):
    """The dense-int histogram starts weigh both endpoints too."""
    _assert_symmetrized_donor_balanced(tmp_work, dense_int_oids=True)


def test_dense_int_starts_equal_per_vertex_formula(ray_session, tmp_work):
    """With B == V buckets the histogram starts ARE the per-vertex
    split on w = total degree + 1 (exact counts, no sampling)."""
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy

    rng = np.random.default_rng(3)
    V, P = 500, 4
    src = (rng.zipf(1.6, 6000) % V).astype(np.int64)
    dst = rng.integers(0, V, 6000).astype(np.int64)
    src[0], dst[0] = V - 1, 0  # pin V
    meta = build_graph(edges_from_numpy(src, dst), f"{tmp_work}/x", P,
                       dense_int_oids=True)

    w = (np.bincount(src, minlength=V) + np.bincount(dst, minlength=V)).astype(np.float64)
    cum = np.cumsum(w + 1.0)
    inner = np.searchsorted(cum, cum[-1] * np.arange(1, P) / P).astype(np.int64)
    want = np.maximum.accumulate(np.concatenate([[0], np.minimum(inner + 1, V), [V]]))
    assert np.array_equal(meta.starts, want), (meta.starts, want)


def test_dense_int_starts_driver_memory_independent_of_v(ray_session):
    """V = 10**9 from a handful of edges: the driver holds O(2**20)
    bucket sums, never a V-sized array."""
    import tracemalloc

    from libgrape_lite_ray.graph.build import _block_groups, _dataset_starts, edges_from_numpy

    V, P = 10**9, 4
    src = np.array([0, 5, 123_456_789, 500_000_000, V - 1], np.int64)
    dst = np.array([V - 1, 7, 0, 999_999, 42], np.int64)
    groups = _block_groups(edges_from_numpy(src, dst))[0]
    tracemalloc.start()
    try:
        starts = _dataset_starts(groups, V, P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert starts[0] == 0 and starts[-1] == V and len(starts) == P + 1
    assert (np.diff(starts) >= 0).all()
    assert peak < 64 << 20, f"driver peak {peak / 2**20:.1f} MiB"


def test_weighted_starts_isolate_heavy_vertex():
    """Pure-function check: a hub holding ~40% of total weight gets a
    partition (nearly) to itself instead of dragging half the id space
    along — the contiguous-range analog of GRAPE's Rebalancer."""
    from libgrape_lite_ray.ids import weighted_partition_starts

    V, P = 1000, 4
    gids = np.arange(V, dtype=np.int64)
    w = np.ones(V, np.float64)
    w[500] = 660.0  # ~40% of the 1659 total
    starts = weighted_partition_starts(gids, w, V, P)
    assert starts[0] == 0 and starts[-1] == V
    assert (np.diff(starts) >= 0).all()
    sizes = [w[starts[i]:starts[i + 1]].sum() for i in range(P)]
    # the hub's partition may not also own a big share of the light
    # vertices: its weight must be dominated by the hub itself
    hub_part = int(np.searchsorted(starts, 500, side="right")) - 1
    assert sizes[hub_part] <= 660.0 + (V - 1) / P
    # and the light partitions split the remainder roughly evenly
    light = [s for i, s in enumerate(sizes) if i != hub_part]
    assert max(light) <= 2.2 * (sum(light) / len(light))
