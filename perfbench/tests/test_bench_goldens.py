"""The vectorized goldens against the literal oracle, on small graphs."""

import numpy as np
import pytest

import goldens
from libgrape_lite_ray import extract, fixtures
from libgrape_lite_ray.graph import oracle


def _engine_like(n=1500, m=12000, seed=3):
    # the same hub-skewed shape as fixtures.big_engine_edges, built in NumPy
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = np.minimum((n * rng.random(m) ** 3).astype(np.int64), n - 1)
    keep = src != dst
    return src[keep], dst[keep], n


GRAPHS = {
    "er_components": (*fixtures.er_components(), 100),
    "zipf": (*fixtures.zipf_graph(), 500),
    "cliques": (*fixtures.cliques_and_bridges(), 30),
    "engine_like": _engine_like(),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_goldens_match_oracle(name):
    src, dst, n = GRAPHS[name]
    assert np.array_equal(goldens.pagerank(src, dst, n), oracle.pagerank(src, dst, n))
    assert np.array_equal(goldens.wcc(src, dst, n), oracle.wcc(src, dst, n))
    assert np.array_equal(goldens.cdlp(src, dst, n), oracle.cdlp(src, dst, n))
    got_t, got_l = goldens.triangles_lcc(src, dst, n, chunk=64)
    want_t, want_l = oracle.triangles_lcc(src, dst, n)
    assert np.array_equal(got_t, want_t)
    assert np.array_equal(got_l, want_l)


def test_triangle_golden_counts_cliques():
    src, dst, n = GRAPHS["cliques"]
    tricnt, _ = goldens.triangles_lcc(src, dst, n)
    assert tricnt.sum() == 3 * fixtures.expected_triangles()


def test_web_edges_match_extract_spec():
    pages = fixtures.pages_table(60, 4, seed=7, richness=3)
    src, dst = goldens.web_edges(pages.column("url").to_pylist(),
                                 pages.column("html").to_pylist())
    want = extract.extract_edges_batch(pages)
    assert src == want.column("src").to_pylist()
    assert dst == want.column("dst").to_pylist()
    assert any(d.startswith("https://external") for d in dst)
