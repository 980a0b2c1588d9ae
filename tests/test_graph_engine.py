"""Engine vs NumPy oracle on seeded topologies, across partition counts
(the reference's golden-at-multiple-parallelism pattern,
misc/app_tests.sh:227-233)."""

import numpy as np
import pytest

from libgrape_lite_ray import fixtures
from libgrape_lite_ray.graph import oracle
from libgrape_lite_ray.graph.build import attach_oids, build_graph, edges_from_numpy
from libgrape_lite_ray.graph.driver import GraphEngine


def _result_by_gid(ds, col):
    df = ds.to_pandas().sort_values("gid")
    return df[col].to_numpy()


def _build(tmp_work, src, dst, P, sub, **kw):
    import os

    ds = edges_from_numpy(src, dst)
    return build_graph(ds, os.path.join(tmp_work, sub), P, **kw)


@pytest.mark.parametrize("P", [1, 3])
def test_wcc_two_components(ray_session, tmp_work, P):
    src, dst = fixtures.er_components()
    n = 100
    meta = _build(tmp_work, src, dst, P, f"wcc{P}", symmetrize=True)
    assert meta.num_vertices == n
    eng = GraphEngine(meta)
    ds, metrics = eng.run("wcc")
    got = _result_by_gid(ds, "comp")
    want = oracle.wcc(src, dst, n)
    assert np.array_equal(got, want)
    assert len(np.unique(got)) == 2
    eng.shutdown()


@pytest.mark.parametrize("P", [1, 4])
def test_pagerank_zipf_directed(ray_session, tmp_work, P):
    n = 300
    src, dst = fixtures.zipf_graph(n=n, m=2500)
    meta = _build(tmp_work, src, dst, P, f"pr{P}", directed=True)
    eng = GraphEngine(meta)
    ds, _ = eng.run("pagerank", {"rounds": 10, "damping": 0.85})
    got = _result_by_gid(ds, "pagerank")
    want = oracle.pagerank(src, dst, n, rounds=10)
    assert np.allclose(got, want, rtol=0, atol=1e-9)
    eng.shutdown()


@pytest.mark.parametrize("P", [1, 4])
def test_cdlp(ray_session, tmp_work, P):
    src, dst = fixtures.er_components()
    n = 100
    meta = _build(tmp_work, src, dst, P, f"cdlp{P}", symmetrize=True)
    eng = GraphEngine(meta)
    ds, _ = eng.run("cdlp", {"rounds": 10})
    got = _result_by_gid(ds, "label")
    want = oracle.cdlp(src, dst, n, rounds=10)
    assert np.array_equal(got, want)
    eng.shutdown()


@pytest.mark.parametrize("P", [1, 4])
def test_lcc_triangles(ray_session, tmp_work, P):
    src, dst = fixtures.cliques_and_bridges(5, 6)
    n = 30
    meta = _build(tmp_work, src, dst, P, f"lcc{P}", symmetrize=True)
    eng = GraphEngine(meta)
    ds, _ = eng.run("lcc")
    df = ds.to_pandas().sort_values("gid")
    tri_want, lcc_want = oracle.triangles_lcc(src, dst, n)
    assert np.array_equal(df["tricnt"].to_numpy(), tri_want)
    assert np.allclose(df["lcc"].to_numpy(), lcc_want, atol=1e-12)
    assert int(df["tricnt"].sum()) // 3 == fixtures.expected_triangles(5, 6)
    eng.shutdown()


@pytest.mark.parametrize("P", [1, 4])
def test_lcc_zipf(ray_session, tmp_work, P):
    n = 200
    src, dst = fixtures.zipf_graph(n=n, m=1500)
    meta = _build(tmp_work, src, dst, P, f"lccz{P}", symmetrize=True)
    eng = GraphEngine(meta)
    ds, _ = eng.run("lcc")
    df = ds.to_pandas().sort_values("gid")
    tri_want, lcc_want = oracle.triangles_lcc(src, dst, n)
    assert np.array_equal(df["tricnt"].to_numpy(), tri_want)
    assert np.allclose(df["lcc"].to_numpy(), lcc_want, atol=1e-12)
    eng.shutdown()


def test_bfs_sssp(ray_session, tmp_work):
    n = 300
    src, dst = fixtures.zipf_graph(n=n, m=2000)
    rng = np.random.default_rng(7)
    w = rng.uniform(0.5, 3.0, size=len(src))
    meta = _build(tmp_work, src, dst, 4, "bfs", directed=True)

    eng = GraphEngine(meta)
    ds, _ = eng.run("bfs", {"source": 0})
    got = _result_by_gid(ds, "depth")
    want = oracle.bfs(src, dst, n, source=0, directed=True)
    assert np.array_equal(got, want)
    eng.shutdown()

    ds_w = edges_from_numpy(src, dst, w)
    import os

    meta_w = build_graph(ds_w, os.path.join(tmp_work, "sssp"), 4, directed=True, weight_col="w")
    eng = GraphEngine(meta_w)
    ds, _ = eng.run("sssp", {"source": 0})
    got = _result_by_gid(ds, "dist")
    want = oracle.sssp(src, dst, w, n, source=0, directed=True)
    assert np.allclose(got, want, atol=1e-12)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    eng.shutdown()


def test_string_oids_and_attach(ray_session, tmp_work):
    """String-oid matrix (tests/vertex_map_tests.cc analog): WCC labels
    on url-style ids == min-oid per component after re-attach."""
    import pyarrow as pa
    import ray.data as rd
    import os

    src, dst = fixtures.er_components()
    s = pa.array([f"https://v{i:04d}.example/" for i in src], pa.string())
    d = pa.array([f"https://v{i:04d}.example/" for i in dst], pa.string())
    ds = rd.from_arrow(pa.table({"src": s, "dst": d}))
    meta = build_graph(ds, os.path.join(tmp_work, "str"), 3, symmetrize=True)
    eng = GraphEngine(meta)
    out, _ = eng.run("wcc")
    tbl = out.to_arrow()
    tbl = attach_oids(tbl, meta)
    df = tbl.to_pandas()
    want = oracle.wcc(src, dst, 100)
    by_gid = df.sort_values("gid")
    assert np.array_equal(by_gid["comp"].to_numpy(), want)
    # zero-padded ids sort like ints, so min-oid == oid of min-gid
    comp_oid = np.array([f"https://v{i:04d}.example/" for i in want])
    got_comp_oid = np.array([f"https://v{i:04d}.example/" for i in by_gid["comp"].to_numpy()])
    assert np.array_equal(got_comp_oid, comp_oid)
    eng.shutdown()


def test_attach_oids_ds_matches_gather(ray_session, tmp_work):
    """attach_oids on the result Dataset (one dictionary range read per
    partition block) == attach_oids on the collected Table."""
    import os

    import pyarrow as pa
    import ray.data as rd

    src, dst = fixtures.er_components()
    s = pa.array([f"u{i:04d}" for i in src], pa.string())
    d = pa.array([f"u{i:04d}" for i in dst], pa.string())
    ds = rd.from_arrow(pa.table({"src": s, "dst": d}))
    meta = build_graph(ds, os.path.join(tmp_work, "att"), 3, symmetrize=True)
    eng = GraphEngine(meta)
    try:
        out, _ = eng.run("wcc")
        tbl = out.to_arrow()
        want = attach_oids(tbl, meta).to_pandas().sort_values("gid").reset_index(drop=True)
        got = (attach_oids(out.to_dataset(), meta).to_pandas()
               .sort_values("gid").reset_index(drop=True))
        assert got.columns.tolist() == want.columns.tolist() == ["oid", "gid", "comp"]
        assert got.equals(want)
    finally:
        eng.shutdown()


def test_sample_neighbors(ray_session, tmp_work):
    """GNN-sampler analog (examples/gnn_sampler): deterministic random
    and top-k-by-weight neighbor sampling."""
    import os

    n = 100
    src, dst = fixtures.zipf_graph(n=n, m=800)
    rng = np.random.default_rng(3)
    w = rng.uniform(0, 10, size=len(src))
    meta = build_graph(edges_from_numpy(src, dst, w), os.path.join(tmp_work, "smp"),
                       3, weight_col="w")
    eng = GraphEngine(meta)
    try:
        ds, _ = eng.run("sample_neighbors", {"k": 3, "strategy": "random", "seed": 7})
        df = ds.to_pandas()
        per = df.groupby("gid").size()
        assert (per <= 3).all() and len(per) > 0
        # deterministic across runs
        ds2, _ = eng.run("sample_neighbors", {"k": 3, "strategy": "random", "seed": 7})
        df2 = ds2.to_pandas()
        assert df.sort_values(["gid", "sampled_gid"]).reset_index(drop=True).equals(
            df2.sort_values(["gid", "sampled_gid"]).reset_index(drop=True))
        # top-k picks the heaviest edges
        ds3, _ = eng.run("sample_neighbors", {"k": 2, "strategy": "topk"})
        df3 = ds3.to_pandas()
        assert (df3.groupby("gid").size() <= 2).all()
    finally:
        eng.shutdown()


def test_join_translate_path_matches_broadcast(ray_session, tmp_work, monkeypatch):
    """The range-partitioned dictionary (a small ``_ROUTE_ROWS`` forces
    R >= 3 oid ranges, each edge column one hop to its range's task, the
    grape/vertex_map/local_vertex_map.h analog) produces the same graph
    and the same WCC results as the one-range dictionary."""
    import os

    import pyarrow as pa
    import ray.data as rd

    import libgrape_lite_ray.graph.build as build

    src, dst = fixtures.er_components()
    s = pa.array([f"https://v{i:04d}.example/" for i in src], pa.string())
    d = pa.array([f"https://v{i:04d}.example/" for i in dst], pa.string())
    ds = rd.from_arrow(pa.table({"src": s, "dst": d}))
    m_b = build_graph(ds, os.path.join(tmp_work, "jb"), 3, symmetrize=True)
    monkeypatch.setattr(build, "_ROUTE_ROWS", 60)
    m_j = build_graph(ds, os.path.join(tmp_work, "jj"), 3, symmetrize=True)
    assert m_b.extra["build"]["dict_ranges"] == 1 and m_j.extra["build"]["dict_ranges"] >= 3
    assert (m_j.num_vertices, m_j.num_edges) == (m_b.num_vertices, m_b.num_edges)
    want = oracle.wcc(src, dst, 100)
    for meta in (m_b, m_j):
        eng = GraphEngine(meta)
        try:
            out, _ = eng.run("wcc")
            assert np.array_equal(_result_by_gid(out, "comp"), want)
        finally:
            eng.shutdown()


def test_memtune_applied():
    """keep_heap_resident applies the malloc tuning where invoked: at
    library import in Ray workers (fragment actors included) and
    explicitly in bench.py and scripts/kernel_bench.py, never at import
    in a user process (see ADVICE round 2).  Gated: on non-glibc
    platforms there is nothing to tune."""
    import ctypes

    import pytest

    from libgrape_lite_ray.memtune import keep_heap_resident

    try:
        ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        pytest.skip("non-glibc platform: mallopt unavailable")
    assert keep_heap_resident() is True  # idempotent re-call reports active


@pytest.mark.parametrize("P", [1, 4])
def test_reverse_graph_in_degree_and_bfs(ray_session, tmp_work, P):
    """LoadStrategy kBothOutIn analog: build once, derive the reversed
    view with reverse_graph, open the reversed fragments, and check
    (a) Degree on the reversed graph == in-degree of the original
    (post-dedup, like the reference's distinct CSR rows), and
    (b) BFS along in-edges == BFS on the numpy-transposed graph."""
    import os

    n = 300
    src, dst = fixtures.zipf_graph(n=n, m=2500)
    meta = _build(tmp_work, src, dst, P, f"rev{P}", directed=True)
    from libgrape_lite_ray.graph.build import reverse_graph

    reverse_graph(meta)
    rev_dir = os.path.join(meta.work_dir, "rev")
    assert os.path.exists(os.path.join(rev_dir, "graph_meta.json"))
    rmeta = reverse_graph(meta)  # idempotent: loads the built one
    assert rmeta.num_vertices == n

    # in-degree oracle over distinct edges
    import pandas as pd

    e = pd.DataFrame({"s": src, "d": dst}).drop_duplicates()
    want_in = np.bincount(e["d"].to_numpy(), minlength=n)

    eng = GraphEngine(rmeta)
    ds, _ = eng.run("degree")
    got = _result_by_gid(ds, "degree")
    assert np.array_equal(got, want_in)

    dsb, _ = eng.run("bfs", {"source": 0})
    got_b = _result_by_gid(dsb, "depth")
    want_b = oracle.bfs(dst, src, n, source=0)  # transposed graph
    assert np.array_equal(got_b, want_b)
    eng.shutdown()


@pytest.mark.parametrize("P", [1, 4])
def test_multihop_sampler(ray_session, tmp_work, P):
    """hop_and_num walk (sampler.h:154-205 analog): topk strategy is
    exact vs a NumPy walk oracle; random strategy is checked for
    edge-validity, per-pair counts, distinctness, and determinism."""
    import pandas as pd

    n = 200
    rng = np.random.default_rng(3)
    m = 1500
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = rng.random(len(src)).round(6)
    import os

    import pyarrow as pa
    import ray.data as rd

    # pre-aggregate (min w per distinct (src,dst)): weighted builds keep
    # multi-edges by design (the reference's EV loader does too), and
    # this test's oracle wants a simple-graph walk
    e = pd.DataFrame({"s": src, "d": dst, "w": w}).groupby(["s", "d"], as_index=False)["w"].min()
    ds = rd.from_arrow(pa.table({"src": pa.array(e["s"].to_numpy(), pa.int64()),
                                 "dst": pa.array(e["d"].to_numpy(), pa.int64()),
                                 "w": pa.array(e["w"].to_numpy(), pa.float64())}))
    meta = build_graph(ds, os.path.join(tmp_work, f"mh{P}"), P,
                       directed=True, weight_col="w")
    adj = {}
    for s, d, ww in e.itertuples(index=False):
        adj.setdefault(s, []).append((-ww, d))

    def topk_walk(sources, hops):
        out = set()
        frontier = [(r, r) for r in sources]
        for h, k in enumerate(hops, 1):
            nxt = []
            for r, v in frontier:
                for _, d in sorted(adj.get(v, []))[:k]:
                    out.add((h, r, v, d))
                    nxt.append((r, d))
            frontier = nxt
        return out

    eng = GraphEngine(meta)
    srcs = [0, 1, 2]
    hops = [3, 2]
    dsr, _ = eng.run("sample_multihop", {"sources": srcs, "hop_and_num": hops,
                                         "strategy": "topk"})
    got = dsr.to_pandas()
    got_set = set(map(tuple, got[["hop", "root_gid", "src_gid", "dst_gid"]]
                      .itertuples(index=False)))
    assert got_set == topk_walk(srcs, hops)

    # random: valid edges, counts, distinct neighbors, deterministic
    dsr1, _ = eng.run("sample_multihop", {"sources": srcs, "hop_and_num": hops,
                                          "strategy": "random", "seed": 7})
    g1 = dsr1.to_pandas().sort_values(["hop", "root_gid", "src_gid", "dst_gid"]).reset_index(drop=True)
    edge_set = set(map(tuple, e[["s", "d"]].itertuples(index=False)))
    assert all((s, d) in edge_set for s, d in
               g1[["src_gid", "dst_gid"]].itertuples(index=False))
    # per (hop, root, src) counts == min(k, out_degree(src)), neighbors distinct
    outdeg = e.groupby("s").size().to_dict()
    for (h, r, s), grp in g1.groupby(["hop", "root_gid", "src_gid"]):
        # a (root, v) pair reached via multiple parents resamples the
        # same index window: the group is c identical copies of one
        # distinct min(k, deg)-sized sample
        vc = grp["dst_gid"].value_counts()
        assert vc.nunique() == 1  # every copy complete
        assert len(vc) == min(hops[h - 1], outdeg.get(s, 0))
    dsr2, _ = eng.run("sample_multihop", {"sources": srcs, "hop_and_num": hops,
                                          "strategy": "random", "seed": 7})
    g2 = dsr2.to_pandas().sort_values(["hop", "root_gid", "src_gid", "dst_gid"]).reset_index(drop=True)
    assert g1.equals(g2)
    eng.shutdown()


def test_multihop_sparse_frontier_empty_partition(ray_session, tmp_work):
    """Regression (round-4 ADVICE): a partition receiving NO frontier
    pairs at hop >= 2 must not crash — a chain graph with one source
    leaves most partitions' inboxes empty every round."""
    import os

    src = np.array([0, 1, 2], dtype=np.int64)
    dst = np.array([1, 2, 3], dtype=np.int64)
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "chain"),
                       4, directed=True)
    eng = GraphEngine(meta)
    try:
        ds, _ = eng.run("sample_multihop",
                        {"sources": [0], "hop_and_num": [1, 1], "strategy": "topk"})
        got = set(map(tuple, ds.to_pandas()[["hop", "root_gid", "src_gid", "dst_gid"]]
                      .itertuples(index=False)))
        assert got == {(1, 0, 0, 1), (2, 0, 1, 2)}
    finally:
        eng.shutdown()


def test_sample_weighted_distribution_and_determinism(ray_session, tmp_work):
    """strategy='weighted' (fragment_indices.h:71-97 accumulated-weight
    indices): draws are edge-weight-proportional (chi-square), WITH
    replacement, deterministic per seed, and zero-weight edges are
    never drawn."""
    import os

    # star: hub 0 -> {1..5}, weights 1,2,3,4,0 (edge to 5 has zero mass)
    src = np.zeros(5, dtype=np.int64)
    dst = np.arange(1, 6, dtype=np.int64)
    w = np.array([1.0, 2.0, 3.0, 4.0, 0.0])
    meta = build_graph(edges_from_numpy(src, dst, w), os.path.join(tmp_work, "wsmp"),
                       2, directed=True, weight_col="w")
    eng = GraphEngine(meta)
    try:
        k = 4000
        ds, _ = eng.run("sample_neighbors", {"k": k, "strategy": "weighted", "seed": 11})
        df = ds.to_pandas()
        hub = df[df["gid"] == df["gid"].min()]  # gid of oid 0
        assert len(hub) == k  # with replacement: exactly k draws
        counts = hub["sampled_gid"].value_counts()
        assert len(counts) == 4  # zero-weight edge never drawn
        # chi-square vs expected proportions 1:2:3:4 (df=3, alpha=0.001 -> 16.27)
        obs = counts.sort_index().to_numpy(dtype=float)
        exp = np.array([1, 2, 3, 4], dtype=float) / 10.0 * k
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        assert chi2 < 16.27, f"chi2={chi2}, obs={obs}"
        # deterministic per seed, different across seeds
        ds2, _ = eng.run("sample_neighbors", {"k": k, "strategy": "weighted", "seed": 11})
        assert df.sort_values(["gid", "sampled_gid"]).reset_index(drop=True).equals(
            ds2.to_pandas().sort_values(["gid", "sampled_gid"]).reset_index(drop=True))
        ds3, _ = eng.run("sample_neighbors", {"k": k, "strategy": "weighted", "seed": 12})
        assert not df.equals(ds3.to_pandas())
    finally:
        eng.shutdown()


def test_multihop_weighted(ray_session, tmp_work):
    """Weighted multi-hop walk: every sampled edge exists, each
    (hop, root, v) visit yields exactly k with-replacement draws, all
    hops produce output, and the walk is seed-deterministic."""
    import os

    import pandas as pd

    rng = np.random.default_rng(5)
    n, m = 60, 400
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = rng.uniform(0.1, 5.0, len(src))
    meta = build_graph(edges_from_numpy(src, dst, w), os.path.join(tmp_work, "wmh"),
                       3, directed=True, weight_col="w")
    eng = GraphEngine(meta)
    try:
        args = {"sources": [0, 1], "hop_and_num": [2, 3],
                "strategy": "weighted", "seed": 9}
        ds, _ = eng.run("sample_multihop", args)
        g = ds.to_pandas()
        edge_set = set(zip(src.tolist(), dst.tolist()))
        assert all((s, d) in edge_set for s, d in
                   zip(g["src_gid"], g["dst_gid"]))
        assert set(g["hop"]) == {1, 2}
        ks = {1: 2, 2: 3}
        sizes = g.groupby(["hop", "root_gid", "src_gid"]).size()
        assert all(sz % ks[h] == 0 for (h, _r, _s), sz in sizes.items())
        ds2, _ = eng.run("sample_multihop", args)
        key = ["hop", "root_gid", "src_gid", "dst_gid"]
        assert g.sort_values(key).reset_index(drop=True).equals(
            ds2.to_pandas().sort_values(key).reset_index(drop=True))
    finally:
        eng.shutdown()


def test_cdlp_multiedge_weighted(ray_session, tmp_work):
    """Regression (round-4 ADVICE): weighted builds retain parallel
    edges, so CDLP's first-round all-distinct shortcut (mode == min
    neighbor label) is invalid — a twice-seen neighbor label has count
    2 and must win the mode even when a smaller label appears once."""
    import os

    # vertex 2 sees label(0) once and label(1) twice (parallel edges)
    src = np.array([2, 2, 2, 0, 1, 1], dtype=np.int64)
    dst = np.array([0, 1, 1, 2, 2, 2], dtype=np.int64)
    w = np.ones(len(src))
    meta = build_graph(edges_from_numpy(src, dst, w), os.path.join(tmp_work, "cme"),
                       2, directed=True, weight_col="w")
    eng = GraphEngine(meta)
    try:
        ds, _ = eng.run("cdlp", {"rounds": 1})
        df = ds.to_pandas().sort_values("gid").reset_index(drop=True)
        # gids are dense ranks of oids 0,1,2 -> label of vertex 2 must
        # be gid(1) (mode, count 2), not gid(0) (min, count 1)
        assert df.loc[2, "label"] == df.loc[1, "gid"]
    finally:
        eng.shutdown()
