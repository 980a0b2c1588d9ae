"""Engine vs the reference's own golden outputs on its test dataset
(p2p-31, 62,586 vertices / 147,892 edges — dataset/README.md).  This is
the strongest parity evidence: the checked-in files were produced by
the reference itself (misc/app_tests.sh: pagerank --pr_mr=10
--pr_d=0.85, cdlp 10 rounds, undirected load; bfs/sssp --*_source=6).

The golden files are read from the read-only reference checkout; the
test skips if they are absent.
"""

import os

import numpy as np
import pytest

DATA = "/root/reference/dataset"

pytestmark = pytest.mark.skipif(
    not os.path.exists(os.path.join(DATA, "p2p-31.e")), reason="reference dataset absent"
)


@pytest.fixture(scope="module")
def p2p_edges():
    e = np.loadtxt(os.path.join(DATA, "p2p-31.e"))
    return e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2].astype(np.float64)


@pytest.fixture(scope="module")
def p2p_graph(ray_session, tmp_path_factory, p2p_edges):
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy

    src, dst, _ = p2p_edges
    wd = str(tmp_path_factory.mktemp("p2p31"))
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(wd, "und"), 4, symmetrize=True)
    return meta


def _golden(name):
    g = np.loadtxt(os.path.join(DATA, name))
    order = np.argsort(g[:, 0])
    return g[order, 0].astype(np.int64), g[order, 1]


def _engine_result(meta, program, params, col):
    from libgrape_lite_ray.graph.driver import GraphEngine

    eng = GraphEngine(meta)
    try:
        ds, _ = eng.run(program, params)
        df = ds.to_pandas().sort_values("gid")
        return df[col].to_numpy()
    finally:
        eng.shutdown()


def test_pagerank_matches_reference_golden(p2p_graph):
    oid, want = _golden("p2p-31-PR")
    got = _engine_result(p2p_graph, "pagerank", {"rounds": 10, "damping": 0.85}, "pagerank")
    # gids are oid-rank; oids are 1..N so order aligns
    assert len(got) == len(want)
    assert np.allclose(got, want, rtol=1e-6, atol=1e-12)


def test_wcc_matches_reference_golden(p2p_graph):
    from libgrape_lite_ray.graph.build import attach_oids
    from libgrape_lite_ray.graph.driver import GraphEngine

    oid, want = _golden("p2p-31-WCC")
    eng = GraphEngine(p2p_graph)
    try:
        ds, _ = eng.run("wcc")
        tbl = ds.to_arrow()
    finally:
        eng.shutdown()
    df = attach_oids(tbl, p2p_graph).to_pandas().sort_values("oid")
    assert np.array_equal(df["oid"].to_numpy(), oid)
    got = df["comp"].to_numpy()
    want = want.astype(np.int64)
    # the golden's labels are gid-space from the producing run, so exact
    # label equality is not defined — check label ISOMORPHISM exactly as
    # the reference does (misc/wcc_check.cc: consistent bijection)
    import pandas as pd

    pair = pd.DataFrame({"got": got, "want": want})
    assert (pair.groupby("got")["want"].nunique() == 1).all()
    assert (pair.groupby("want")["got"].nunique() == 1).all()


def test_cdlp_matches_reference_golden(p2p_graph):
    import pyarrow.parquet as pq

    oid, want = _golden("p2p-31-CDLP")
    got_gids = _engine_result(p2p_graph, "cdlp", {"rounds": 10}, "label")
    vt = pq.read_table(os.path.join(p2p_graph.work_dir, "vertices"), columns=["oid", "gid"]).to_pandas()
    gid_to_oid = vt.sort_values("gid")["oid"].to_numpy()
    got = gid_to_oid[got_gids]
    assert np.array_equal(got, want.astype(np.int64))


def test_lcc_matches_reference_golden(p2p_graph):
    oid, want = _golden("p2p-31-LCC")
    got = _engine_result(p2p_graph, "lcc", {}, "lcc")
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_bfs_matches_reference_golden(ray_session, tmp_path_factory, p2p_edges):
    """BFS golden (undirected, source oid 6).  Unreached print as a
    large sentinel in the reference; all p2p-31 vertices are reachable
    in the undirected graph except isolated ones — compare reached set
    exactly and unreached as our -1."""
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    import pyarrow.parquet as pq

    src, dst, _ = p2p_edges
    wd = str(tmp_path_factory.mktemp("p2pbfs"))
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(wd, "und"), 4, symmetrize=True)
    vt = pq.read_table(os.path.join(meta.work_dir, "vertices"), columns=["oid", "gid"]).to_pandas()
    source_gid = int(vt[vt["oid"] == 6]["gid"].iloc[0])
    got = _engine_result(meta, "bfs", {"source": source_gid}, "depth")
    goid, want = _golden("p2p-31-BFS")
    reached = want < 1e9  # reference prints int64-max for unreached;
    # mask BEFORE any int cast (the sentinel overflows int64 from float)
    assert np.array_equal(got[reached], want[reached].astype(np.int64))
    assert (got[~reached] == -1).all()


def test_sssp_matches_reference_golden(ray_session, tmp_path_factory, p2p_edges):
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    import pyarrow.parquet as pq

    src, dst, w = p2p_edges
    wd = str(tmp_path_factory.mktemp("p2psssp"))
    # undirected weighted: symmetrize with weights preserved
    s2 = np.concatenate([src, dst])
    d2 = np.concatenate([dst, src])
    w2 = np.concatenate([w, w])
    meta = build_graph(edges_from_numpy(s2, d2, w2), os.path.join(wd, "und"), 4,
                       weight_col="w")
    vt = pq.read_table(os.path.join(meta.work_dir, "vertices"), columns=["oid", "gid"]).to_pandas()
    source_gid = int(vt[vt["oid"] == 6]["gid"].iloc[0])
    got = _engine_result(meta, "sssp", {"source": source_gid}, "dist")
    goid, want = _golden("p2p-31-SSSP")
    finite = np.isfinite(got)
    ref_finite = want < 1e300  # 'infinity' parses as inf -> loadtxt inf
    assert np.array_equal(finite, np.isfinite(want) & ref_finite)
    assert np.allclose(got[finite], want[finite], rtol=1e-9)
