"""Flagship end-to-end: pages corpus -> link extraction -> graph build
-> PageRank/WCC, validated against the NumPy oracle on the extracted
edge list (the north_star pipeline shape)."""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def web(ray_session, tmp_path_factory):
    import ray.data as rd

    from libgrape_lite_ray import extract, fixtures
    from libgrape_lite_ray.pipelines.web import pages_to_graph

    n_pages = 600
    tbl = fixtures.pages_table(n_pages, 8)
    pages = rd.from_arrow(tbl)
    wd = str(tmp_path_factory.mktemp("web"))
    meta = pages_to_graph(pages, wd + "/directed", 4)

    # independent edge list for the oracle (url-string space)
    edges = extract.extract_edges_batch(tbl)
    return meta, edges


def test_graph_shape(web):
    meta, edges = web
    import pandas as pd

    pdf = edges.to_pandas().drop_duplicates()
    n_vertices = len(set(pdf["src"]) | set(pdf["dst"]))
    assert meta.num_vertices == n_vertices
    assert meta.oid_type == "string"


def test_pagerank_on_extracted_graph(web):
    meta, edges = web
    from libgrape_lite_ray.graph import oracle
    from libgrape_lite_ray.graph.driver import GraphEngine

    pdf = edges.to_pandas()
    oids = sorted(set(pdf["src"]) | set(pdf["dst"]))
    idx = {u: i for i, u in enumerate(oids)}
    src = np.array([idx[u] for u in pdf["src"]], np.int64)
    dst = np.array([idx[u] for u in pdf["dst"]], np.int64)
    want = oracle.pagerank(src, dst, len(oids), rounds=10)

    eng = GraphEngine(meta)
    try:
        ds, _ = eng.run("pagerank", {"rounds": 10})
        got = ds.to_pandas().sort_values("gid")["pagerank"].to_numpy()
    finally:
        eng.shutdown()
    # gid order == sorted(url) order == oids order
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
    # dangling vertices (external urls) exist and get rank
    deg = np.bincount(src, minlength=len(oids))
    assert (deg == 0).any()


def test_wcc_on_extracted_graph(ray_session, tmp_path_factory, web):
    _, edges = web
    import ray.data as rd

    from libgrape_lite_ray.graph import oracle
    from libgrape_lite_ray.graph.build import build_graph
    from libgrape_lite_ray.graph.driver import GraphEngine

    wd = str(tmp_path_factory.mktemp("webu"))
    meta = build_graph(rd.from_arrow(edges), wd, 4, symmetrize=True)

    pdf = edges.to_pandas()
    oids = sorted(set(pdf["src"]) | set(pdf["dst"]))
    idx = {u: i for i, u in enumerate(oids)}
    src = np.array([idx[u] for u in pdf["src"]], np.int64)
    dst = np.array([idx[u] for u in pdf["dst"]], np.int64)
    want = oracle.wcc(src, dst, len(oids))

    eng = GraphEngine(meta)
    try:
        ds, _ = eng.run("wcc")
        got = ds.to_pandas().sort_values("gid")["comp"].to_numpy()
    finally:
        eng.shutdown()
    assert np.array_equal(got, want)
