"""HITS (programs/hits.py): numpy parity of the L1-normalized dual
ranking, structure sanity on a known hub/authority topology, and
checkpoint/resume through the per-round Communicator channel (the
in-flight global norm must survive a mid-run restore)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _numpy_hits(n, src, dst, iters):
    h = np.ones(n)
    for _ in range(iters):
        a = np.zeros(n)
        np.add.at(a, dst, h[src])
        a /= a.sum()
        h = np.zeros(n)
        np.add.at(h, src, a[dst])
        h /= h.sum()
    return a, h


def _dedup(src, dst):
    key = src * 10**6 + dst
    _, idx = np.unique(key, return_index=True)
    return src[idx], dst[idx]


def test_hits_matches_numpy(ray_session, tmp_work):
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    from libgrape_lite_ray.graph.driver import GraphEngine

    rng = np.random.default_rng(23)
    n, m = 300, 2400
    src, dst = _dedup(rng.integers(0, n, m).astype(np.int64),
                      rng.integers(0, n, m).astype(np.int64))
    meta = build_graph(edges_from_numpy(src, dst), f"{tmp_work}/g", 4,
                       dense_int_oids=True)
    eng = GraphEngine(meta)
    ds, metrics = eng.run("hits", {"rounds": 7})
    df = ds.to_pandas().sort_values("gid")
    eng.shutdown()
    a_want, h_want = _numpy_hits(n, src, dst, 7)
    np.testing.assert_allclose(df["authority"].to_numpy(), a_want, rtol=1e-10)
    np.testing.assert_allclose(df["hub"].to_numpy(), h_want, rtol=1e-10)
    assert metrics["rounds"] == 2 * 7 + 1  # 2 supersteps/iter + finalize
    np.testing.assert_allclose(df["authority"].sum(), 1.0, rtol=1e-9)
    np.testing.assert_allclose(df["hub"].sum(), 1.0, rtol=1e-9)


def test_hits_star_topology(ray_session, tmp_work):
    """One page linked by everyone is the authority; the linkers split
    the hub mass evenly."""
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    from libgrape_lite_ray.graph.driver import GraphEngine

    n = 9  # vertices 1..8 all link to 0
    src = np.arange(1, n, dtype=np.int64)
    dst = np.zeros(n - 1, np.int64)
    meta = build_graph(edges_from_numpy(src, dst), f"{tmp_work}/star", 4,
                       dense_int_oids=True)
    eng = GraphEngine(meta)
    ds, _ = eng.run("hits", {"rounds": 3})
    df = ds.to_pandas().sort_values("gid")
    eng.shutdown()
    a, h = df["authority"].to_numpy(), df["hub"].to_numpy()
    np.testing.assert_allclose(a[0], 1.0, rtol=1e-12)
    assert (a[1:] == 0).all() and h[0] == 0
    np.testing.assert_allclose(h[1:], 1.0 / (n - 1), rtol=1e-12)


def test_hits_resume_midrun(ray_session, tmp_work):
    """Kill-at-checkpoint resume: restoring from step k must reproduce
    the uninterrupted run bit-for-bit, INCLUDING the in-flight global
    norm (carried by the manifest's globals_in_next)."""
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    from libgrape_lite_ray.graph.driver import GraphEngine

    rng = np.random.default_rng(29)
    n, m = 200, 1500
    src, dst = _dedup(rng.integers(0, n, m).astype(np.int64),
                      rng.integers(0, n, m).astype(np.int64))
    meta = build_graph(edges_from_numpy(src, dst), f"{tmp_work}/g", 4,
                       dense_int_oids=True)

    eng = GraphEngine(meta)
    ds, _ = eng.run("hits", {"rounds": 6})
    want = ds.to_pandas().sort_values("gid")
    eng.shutdown()

    # interrupted run: checkpoint every 3 rounds, stop at round 5
    # (mid-iteration: round 5 is an a-phase, the checkpoint at round 3
    # sits between the a- and h-phase of iteration 2)
    ck = f"{tmp_work}/ck"
    eng = GraphEngine(meta)
    eng.run("hits", {"rounds": 6}, max_rounds=5, ckpt_dir=ck, checkpoint_every=3)
    eng.shutdown()

    eng = GraphEngine(meta)
    ds2, metrics = eng.run("hits", {"rounds": 6}, ckpt_dir=ck,
                           checkpoint_every=3, resume=True)
    got = ds2.to_pandas().sort_values("gid")
    eng.shutdown()
    assert metrics["resumed_from"] == 3
    np.testing.assert_array_equal(got["authority"].to_numpy(),
                                  want["authority"].to_numpy())
    np.testing.assert_array_equal(got["hub"].to_numpy(),
                                  want["hub"].to_numpy())


def test_hits_output_warns_before_finalize(tmp_work):
    """A run cut before the finalize superstep has all-zero hubs; its
    output must say so instead of passing them off as scores."""
    from libgrape_lite_ray.graph.build import write_csr
    from libgrape_lite_ray.graph.fragment import Fragment
    from libgrape_lite_ray.graph.programs.hits import HITS

    d = os.path.join(tmp_work, "edges", "part=0")
    os.makedirs(d)
    pq.write_table(pa.table({"src_gid": pa.array([1, 2, 3], pa.int64()),
                             "dst_gid": pa.array([0, 0, 0], pa.int64())}),
                   os.path.join(d, "e.parquet"))
    write_csr(tmp_work, 0, np.array([0, 4]), False)
    prog = HITS(Fragment(0, tmp_work, np.array([0, 4])), rounds=2)
    prog.init()
    with pytest.warns(RuntimeWarning, match="finalize"):
        out = prog.output()
    assert (out["hub"] == 0).all()
