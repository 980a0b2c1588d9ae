"""Personalized PageRank (programs/ppr.py): fixed-round parity against
a NumPy transcription of the RWR semantics (teleport on a seed set,
mass along OUT-edges, dangling mass leaks), plus mass-conservation and
restart-locality checks — the push-channel (mirror_push/export_lids)
exercise at sum semantics."""

import numpy as np
import pytest


def _numpy_ppr(n, src, dst, sources, rounds, d=0.85):
    e = np.zeros(n)
    e[np.asarray(sources)] = 1.0 / len(sources)
    deg = np.bincount(src, minlength=n)
    rank = e.copy()
    for _ in range(rounds):
        stored = rank / np.maximum(deg, 1)
        s = np.zeros(n)
        np.add.at(s, dst, stored[src])  # u -> v ships r(u)/outdeg(u)
        rank = (1 - d) * e + d * s
    return rank


def _dedup(src, dst):
    key = src * 10**6 + dst
    _, idx = np.unique(key, return_index=True)
    return src[idx], dst[idx]


def test_ppr_matches_numpy(ray_session, tmp_work):
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    from libgrape_lite_ray.graph.driver import GraphEngine

    rng = np.random.default_rng(17)
    n, m = 300, 2400
    src, dst = _dedup(rng.integers(0, n, m).astype(np.int64),
                      rng.integers(0, n, m).astype(np.int64))
    meta = build_graph(edges_from_numpy(src, dst), f"{tmp_work}/g", 4,
                       dense_int_oids=True)
    eng = GraphEngine(meta)
    ds, metrics = eng.run("ppr", {"sources": [5, 123, 250], "rounds": 9})
    got = ds.to_pandas().sort_values("gid")["ppr"].to_numpy()
    eng.shutdown()
    want = _numpy_ppr(n, src, dst, [5, 123, 250], 9)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert metrics["rounds"] == 9
    # RWR mass bound: total rank <= 1 (dangling/teleport leakage only)
    assert got.sum() <= 1.0 + 1e-9
    # seeds carry the restart mass floor
    assert got[[5, 123, 250]].min() >= (1 - 0.85) / 3 - 1e-12


def test_ppr_restart_locality(ray_session, tmp_work):
    """On two disconnected rings, all mass stays in the seed's ring."""
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    from libgrape_lite_ray.graph.driver import GraphEngine

    n = 32  # ring A: 0..15, ring B: 16..31
    src = np.concatenate([np.arange(16), np.arange(16, 32)]).astype(np.int64)
    dst = np.concatenate([(np.arange(16) + 1) % 16,
                          (np.arange(16, 32) + 1 - 16) % 16 + 16]).astype(np.int64)
    meta = build_graph(edges_from_numpy(src, dst), f"{tmp_work}/r", 4,
                       dense_int_oids=True)
    eng = GraphEngine(meta)
    ds, _ = eng.run("ppr", {"sources": [3], "rounds": 12})
    got = ds.to_pandas().sort_values("gid")["ppr"].to_numpy()
    eng.shutdown()
    assert got[16:].sum() == 0.0
    np.testing.assert_allclose(got[:16].sum(), 1.0, rtol=1e-9)  # no dangling in a ring


def test_ppr_weighted_matches_numpy(ray_session, tmp_work):
    """weighted=True: transitions proportional to edge weight,
    w(e)/W(u) — numpy parity on a random weighted graph."""
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    from libgrape_lite_ray.graph.driver import GraphEngine

    rng = np.random.default_rng(31)
    n, m = 250, 2000
    src, dst = _dedup(rng.integers(0, n, m).astype(np.int64),
                      rng.integers(0, n, m).astype(np.int64))
    w = rng.random(len(src)).round(3) + 0.05
    meta = build_graph(edges_from_numpy(src, dst, w), f"{tmp_work}/gw", 4,
                       dense_int_oids=True, weight_col="w")
    eng = GraphEngine(meta)
    ds, _ = eng.run("ppr", {"sources": [7, 200], "rounds": 9, "weighted": True})
    got = ds.to_pandas().sort_values("gid")["ppr"].to_numpy()
    eng.shutdown()

    e = np.zeros(n)
    e[[7, 200]] = 0.5
    W = np.bincount(src, weights=w, minlength=n)
    trans = w / W[src]
    rank = e.copy()
    for _ in range(9):
        s = np.zeros(n)
        np.add.at(s, dst, rank[src] * trans)
        rank = (1 - 0.85) * e + 0.85 * s
    np.testing.assert_allclose(got, rank, rtol=1e-11)
    assert got.sum() <= 1.0 + 1e-9


@pytest.mark.parametrize("seed", [-1, 32])
def test_ppr_rejects_out_of_range_seed(ray_session, tmp_work, seed):
    """A seed outside [0, V) must raise instead of losing its restart
    mass and scaling every rank down."""
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    from libgrape_lite_ray.graph.driver import GraphEngine

    src = np.arange(32, dtype=np.int64)
    dst = (src + 1) % 32
    meta = build_graph(edges_from_numpy(src, dst), f"{tmp_work}/bad", 4,
                       dense_int_oids=True)
    eng = GraphEngine(meta)
    try:
        with pytest.raises(ValueError, match="outside"):
            eng.run("ppr", {"sources": [3, seed], "rounds": 4})
    finally:
        eng.shutdown()
