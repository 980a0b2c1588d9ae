"""Skew handling evidence (north_rule: explicit high-degree mitigation).

On a zipfian hub graph the per-round exchange volume must be bounded by
the mirror count (each vertex's value crosses a partition boundary at
most once per requesting partition — source-side combining), never by
the edge count — the hub-splitting property the reference gets from
per-destination message combination (sync_buffer.h aggregators) and we
get from mirror-slice sync + pre-combined messages.
"""

import os

import numpy as np

from libgrape_lite_ray import fixtures
from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
from libgrape_lite_ray.graph.driver import GraphEngine


def test_exchange_volume_bounded_by_mirrors_not_edges(ray_session, tmp_work):
    n, m = 400, 20000  # heavy multi-edges onto zipf hubs
    src, dst = fixtures.zipf_graph(n=n, m=m, alpha=1.1)
    P = 4
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "z"), P)
    eng = GraphEngine(meta)
    try:
        _, metrics = eng.run("pagerank", {"rounds": 3})
        # upper bound: every vertex mirrored in every other partition
        mirror_bound = meta.num_vertices * (P - 1)
        for r in metrics["round_log"]:
            assert r["sent"] <= mirror_bound
            assert r["sent"] < len(src)  # far below raw edge count
    finally:
        eng.shutdown()


def test_degree_aware_partitions_balance_edges(ray_session, tmp_work):
    import ray

    n, m = 2000, 60000
    src, dst = fixtures.zipf_graph(n=n, m=m, alpha=1.2)
    P = 4
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "b"), P)
    eng = GraphEngine(meta)
    try:
        counts = ray.get([a.edge_count.remote() for a in eng.actors])
        # degree-aware contiguous ranges keep the max partition within
        # a reasonable factor of the mean (naive equal-vertex ranges on
        # zipf graphs can be off by far more)
        assert max(counts) <= 3.0 * (sum(counts) / P)
    finally:
        eng.shutdown()
