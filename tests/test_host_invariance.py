"""Deployment-shape invariance: the same P = 4 graph run on 1, 2 and 4
host actors gives bitwise-equal output for every registered program
that needs no vertex data or sampling seed.  Exchange pairs are applied
and global partials reduced in source-partition order, so co-hosting
partitions must not change a single float."""

import os

import numpy as np
import pytest

HOSTS = (1, 2, 4)

DIRECTED = {
    "pagerank": {"rounds": 10},
    "pagerank_local": {"rounds": 10},
    "ppr": {"sources": [0, 7, 123], "rounds": 10},
    "hits": {"rounds": 8},
    "bfs": {"source": 3},
    "sssp": {"source": 3},
    "degree": {},
}
UNDIRECTED = {
    "wcc": {},
    "cdlp": {"rounds": 10},
    "lcc": {},
    "kcore": {"k": 3},
    "coreness": {},
    "msbfs": {},
}


@pytest.fixture(scope="module")
def outputs(ray_session, tmp_path_factory):
    """{program: {H: output DataFrame sorted by gid}}; one engine per
    (graph, H), every program run on it."""
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    from libgrape_lite_ray.graph.driver import GraphEngine

    work = str(tmp_path_factory.mktemp("hosts"))
    rng = np.random.default_rng(5)
    n, m = 5000, 60000
    src = rng.integers(0, n, m).astype(np.int64)
    dst = (rng.zipf(1.5, m) * 7 + src) % n  # skewed, crosses partitions
    w = rng.random(m)
    directed = build_graph(edges_from_numpy(src, dst, w), os.path.join(work, "d"), 4,
                           weight_col="w", dense_int_oids=True)
    undirected = build_graph(edges_from_numpy(src, dst), os.path.join(work, "u"), 4,
                             symmetrize=True, dense_int_oids=True)
    out: dict = {}
    for meta, progs in ((directed, DIRECTED), (undirected, UNDIRECTED)):
        for H in HOSTS:
            eng = GraphEngine(meta, num_hosts=H)
            try:
                for name, params in progs.items():
                    res, _ = eng.run(name, params)
                    out.setdefault(name, {})[H] = (
                        res.to_pandas().sort_values("gid").reset_index(drop=True))
            finally:
                eng.shutdown()
    return out


@pytest.mark.parametrize("program", [*DIRECTED, *UNDIRECTED])
def test_output_bitwise_equal_across_num_hosts(outputs, program):
    base = outputs[program][HOSTS[0]]
    assert len(base) > 4000
    for H in HOSTS[1:]:
        got = outputs[program][H]
        assert list(got.columns) == list(base.columns)
        for c in base.columns:
            # array_equal, not allclose: any reordering of float adds fails
            assert np.array_equal(base[c].to_numpy(), got[c].to_numpy()), (c, H)


def test_every_seedless_program_is_covered():
    """A newly registered program that needs no vertex data or sampling
    seed must join the matrix above."""
    from libgrape_lite_ray.graph.programs import PROGRAMS

    needs_input = {"vdata_sum", "vdata_match_count", "sample_neighbors", "sample_multihop"}
    assert set(PROGRAMS) - needs_input == set(DIRECTED) | set(UNDIRECTED)
