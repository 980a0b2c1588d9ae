"""Checkpoint/resume (north_rule): kill after step k, resume, final
output must equal the uninterrupted run's exactly (FIXTURES.md F5)."""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from libgrape_lite_ray import fixtures
from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
from libgrape_lite_ray.graph.driver import GraphEngine


def test_wcc_resume_equals_uninterrupted(ray_session, tmp_work):
    src, dst = fixtures.er_components(n1=120, n2=80, extra1=150, extra2=90)
    meta = build_graph(
        edges_from_numpy(src, dst), os.path.join(tmp_work, "g"), 4,
        symmetrize=True, fingerprint="ckpt-test-1",
    )
    ckpt = os.path.join(tmp_work, "ckpt")

    # uninterrupted run (with checkpoints every round)
    eng = GraphEngine(meta)
    ds, m_full = eng.run("wcc", ckpt_dir=ckpt, checkpoint_every=1)
    full = ds.to_pandas().sort_values("gid").reset_index(drop=True)
    eng.shutdown()
    assert m_full["rounds"] >= 2

    # simulate a kill after step 1: delete all later checkpoints
    for d in os.listdir(ckpt):
        if d.startswith("step=") and int(d.split("=")[1]) > 1:
            import shutil

            shutil.rmtree(os.path.join(ckpt, d))

    # resume from step 1 with a fresh actor pool
    eng2 = GraphEngine(meta)
    ds2, m_res = eng2.run("wcc", ckpt_dir=ckpt, checkpoint_every=1, resume=True)
    resumed = ds2.to_pandas().sort_values("gid").reset_index(drop=True)
    eng2.shutdown()

    assert m_res["resumed_from"] == 1
    assert np.array_equal(full["comp"].to_numpy(), resumed["comp"].to_numpy())


def test_pagerank_resume_bitwise(ray_session, tmp_work):
    n = 200
    src, dst = fixtures.zipf_graph(n=n, m=1500)
    meta = build_graph(
        edges_from_numpy(src, dst), os.path.join(tmp_work, "g2"), 3,
        directed=True, fingerprint="ckpt-test-2",
    )
    ckpt = os.path.join(tmp_work, "ckpt2")

    eng = GraphEngine(meta)
    ds, _ = eng.run("pagerank", {"rounds": 8}, ckpt_dir=ckpt, checkpoint_every=2)
    full = ds.to_pandas().sort_values("gid")["pagerank"].to_numpy()
    eng.shutdown()

    import shutil

    for d in os.listdir(ckpt):
        if d.startswith("step=") and int(d.split("=")[1]) > 4:
            shutil.rmtree(os.path.join(ckpt, d))

    eng2 = GraphEngine(meta)
    ds2, m = eng2.run("pagerank", {"rounds": 8}, ckpt_dir=ckpt, checkpoint_every=2, resume=True)
    resumed = ds2.to_pandas().sort_values("gid")["pagerank"].to_numpy()
    eng2.shutdown()

    assert m["resumed_from"] == 4
    # deterministic reduction order -> bitwise identical, not just close
    assert np.array_equal(full, resumed)


def test_manifest_lineage(ray_session, tmp_work):
    import json

    src, dst = fixtures.er_components()
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "g3"), 2,
                       symmetrize=True, fingerprint="lineage-xyz")
    ckpt = os.path.join(tmp_work, "ckpt3")
    eng = GraphEngine(meta)
    eng.run("wcc", ckpt_dir=ckpt, checkpoint_every=1)
    eng.shutdown()
    steps = [d for d in os.listdir(ckpt) if d.startswith("step=")]
    assert steps
    with open(os.path.join(ckpt, steps[0], "MANIFEST.json")) as f:
        m = json.load(f)
    assert m["fingerprint"] == "lineage-xyz"
    assert m["algorithm"] == "wcc"
    assert m["num_partitions"] == 2
    assert "round_log" in m


def test_multihop_resume_keeps_frontier(ray_session, tmp_work):
    """Regression (round-4 ADVICE): resuming sample_multihop from a
    mid-walk checkpoint must restore the routed frontier (_next), or
    every remaining hop silently produces nothing."""
    n = 150
    src, dst = fixtures.zipf_graph(n=n, m=1200)
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "gmh"), 3,
                       directed=True, fingerprint="ckpt-mh")
    ckpt = os.path.join(tmp_work, "ckpt-mh")
    args = {"sources": [0, 1, 2], "hop_and_num": [2, 2, 2],
            "strategy": "random", "seed": 3}

    eng = GraphEngine(meta)
    ds, m_full = eng.run("sample_multihop", args, ckpt_dir=ckpt, checkpoint_every=1)
    full = ds.to_pandas().sort_values(
        ["hop", "root_gid", "src_gid", "dst_gid"]).reset_index(drop=True)
    eng.shutdown()
    assert set(full["hop"]) == {1, 2, 3}

    import shutil

    for d in os.listdir(ckpt):
        if d.startswith("step=") and int(d.split("=")[1]) > 1:
            shutil.rmtree(os.path.join(ckpt, d))

    eng2 = GraphEngine(meta)
    ds2, m = eng2.run("sample_multihop", args, ckpt_dir=ckpt,
                      checkpoint_every=1, resume=True)
    resumed = ds2.to_pandas().sort_values(
        ["hop", "root_gid", "src_gid", "dst_gid"]).reset_index(drop=True)
    eng2.shutdown()

    assert m["resumed_from"] == 1
    assert full.equals(resumed)


@pytest.mark.parametrize("program", ["pagerank_local", "ppr", "cdlp"])
def test_fixed_round_resume_bitwise(ray_session, tmp_work, program):
    """Resume of the FixedRounds programs restores their declared state
    (step counter, done flag, arrays) and rebuilds derived data: a run
    cut after round 4 and resumed equals the uninterrupted run bit for
    bit."""
    import shutil

    src, dst = fixtures.zipf_graph(n=200, m=1500)
    meta = build_graph(
        edges_from_numpy(src, dst), os.path.join(tmp_work, "g"), 3,
        symmetrize=program == "cdlp", fingerprint=f"ckpt-{program}",
    )
    ckpt = os.path.join(tmp_work, "ckpt")
    params = {"rounds": 8}
    if program == "ppr":
        params["sources"] = [0, 5, 17]

    def _run(**kw):
        eng = GraphEngine(meta)
        try:
            out, m = eng.run(program, params, ckpt_dir=ckpt, checkpoint_every=2, **kw)
            return out.to_pandas().sort_values("gid").reset_index(drop=True), m
        finally:
            eng.shutdown()

    full, m_full = _run()
    assert m_full["rounds"] == 8
    for d in os.listdir(ckpt):
        if d.startswith("step=") and int(d.split("=")[1]) > 4:
            shutil.rmtree(os.path.join(ckpt, d))
    resumed, m = _run(resume=True)

    assert m["resumed_from"] == 4
    assert list(full.columns) == list(resumed.columns)
    for c in full.columns:
        assert np.array_equal(full[c].to_numpy(), resumed[c].to_numpy()), c


def test_resume_on_a_different_layout_raises(ray_session, tmp_work):
    """A checkpoint whose algorithm, P and fingerprint match but whose
    graph has other partition starts (same vertices, hubs moved to the
    other end of the gid range) is refused with a clear error naming
    both layouts, not restored into misaligned fragments."""
    n = 200
    src, dst = fixtures.zipf_graph(n=n, m=1500)
    ckpt = os.path.join(tmp_work, "ckpt-layout")

    def build(name, s, d):
        return build_graph(edges_from_numpy(s, d), os.path.join(tmp_work, name), 3,
                           directed=True, fingerprint="ckpt-layout")

    meta = build("a", src, dst)
    eng = GraphEngine(meta)
    eng.run("pagerank", {"rounds": 4}, ckpt_dir=ckpt, checkpoint_every=1)
    eng.shutdown()

    other = build("b", n - 1 - src, n - 1 - dst)
    assert other.num_vertices == meta.num_vertices
    assert not np.array_equal(other.starts, meta.starts)
    eng2 = GraphEngine(other)
    try:
        with pytest.raises(ValueError, match="different graph layout") as e:
            eng2.run("pagerank", {"rounds": 4}, ckpt_dir=ckpt, checkpoint_every=1,
                     resume=True)
    finally:
        eng2.shutdown()
    assert str(other.starts.tolist()) in str(e.value)


def test_lcc_resume_after_requests_bitwise(ray_session, tmp_work):
    """LCC cut after round 2, when every partition has recorded the
    adjacency requests it must serve but no triangle is counted yet,
    resumes from the restored oriented lists and requests and equals
    the uninterrupted run bit for bit."""
    import json
    import shutil

    from libgrape_lite_ray.graph import oracle

    n = 300
    src, dst = fixtures.zipf_graph(n=n, m=3000, alpha=1.2)
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "g"), 4,
                       symmetrize=True, fingerprint="ckpt-lcc")
    ckpt = os.path.join(tmp_work, "ckpt")

    def _run(**kw):
        eng = GraphEngine(meta)
        try:
            out, m = eng.run("lcc", ckpt_dir=ckpt, checkpoint_every=1, **kw)
            return out.to_pandas().sort_values("gid").reset_index(drop=True), m
        finally:
            eng.shutdown()

    full, m_full = _run()
    assert m_full["rounds"] == 4
    for d in os.listdir(ckpt):
        if d.startswith("step=") and int(d.split("=")[1]) > 2:
            shutil.rmtree(os.path.join(ckpt, d))
    step2 = os.path.join(ckpt, "step=2")
    requests = 0
    for p in range(4):
        with open(os.path.join(step2, f"part={p}.json")) as fh:
            side = json.load(fh)
        assert side["scalars"]["stage"] == 2
        requests += side["lens"].get("req_lids", 0)
        tri = pq.read_table(os.path.join(step2, f"part={p}.parquet"), columns=["tricnt"])
        assert not tri.column("tricnt").to_numpy().any()
    assert requests > 0
    resumed, m = _run(resume=True)

    assert m["resumed_from"] == 2
    for c in ("gid", "tricnt", "lcc"):
        assert np.array_equal(full[c].to_numpy(), resumed[c].to_numpy()), c
    assert np.array_equal(full["tricnt"].to_numpy(), oracle.triangles_lcc(src, dst, n)[0])
