"""Checkpoint/resume (north_rule): kill after step k, resume, final
output must equal the uninterrupted run's exactly (FIXTURES.md F5)."""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from libgrape_lite_ray import fixtures
from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
from libgrape_lite_ray.graph.driver import GraphEngine
from libgrape_lite_ray.graph.fragment import Fragment, load_arrays


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
        arrays, scalars = load_arrays(os.path.join(step2, f"part={p}"))
        assert scalars["stage"] == 2
        requests += len(arrays.get("req_lids", ()))
        # each array keeps its own length: no padding to the edge-sized lists
        assert len(arrays["tricnt"]) == Fragment(p, meta.work_dir, meta.starts).tvnum
        assert not arrays["tricnt"].any()
    assert requests > 0
    resumed, m = _run(resume=True)

    assert m["resumed_from"] == 2
    for c in ("gid", "tricnt", "lcc"):
        assert np.array_equal(full[c].to_numpy(), resumed[c].to_numpy()), c
    assert np.array_equal(full["tricnt"].to_numpy(), oracle.triangles_lcc(src, dst, n)[0])


def _pagerank_ckpt_run(meta, ckpt, **kw):
    eng = GraphEngine(meta)
    try:
        ds, m = eng.run("pagerank", {"rounds": 6}, ckpt_dir=ckpt, checkpoint_every=1, **kw)
        return ds.to_pandas().sort_values("gid")["pagerank"].to_numpy(), m
    finally:
        eng.shutdown()


def test_legacy_parquet_step_resumes_bitwise(ray_session, tmp_work):
    """A step in the layout written before the array-directory format
    (every array zero-padded to one length in ``part={p}.parquet``, the
    lengths and scalars in ``part={p}.json``) still restores, and the
    resumed run equals the uninterrupted one bit for bit."""
    import json
    import shutil

    import pyarrow as pa

    src, dst = fixtures.zipf_graph(n=200, m=1500)
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "g"), 3,
                       directed=True, fingerprint="ckpt-legacy")
    ckpt = os.path.join(tmp_work, "ckpt")
    full, _ = _pagerank_ckpt_run(meta, ckpt)
    for d in os.listdir(ckpt):
        if d.startswith("step=") and int(d.split("=")[1]) > 3:
            shutil.rmtree(os.path.join(ckpt, d))
    step3 = os.path.join(ckpt, "step=3")
    for p in range(3):
        pdir = os.path.join(step3, f"part={p}")
        arrays, scalars = load_arrays(pdir)
        # one longer extra array, so the rank array is stored padded
        arrays["pad_probe"] = np.arange(len(arrays["result"]) + 5, dtype=np.int64)
        lens = {k: len(v) for k, v in arrays.items()}
        n = max(lens.values())
        pq.write_table(pa.table({k: np.concatenate([v, np.zeros(n - len(v), v.dtype)])
                                 for k, v in arrays.items()}),
                       os.path.join(step3, f"part={p}.parquet"))
        with open(os.path.join(step3, f"part={p}.json"), "w") as f:
            json.dump({"scalars": scalars, "lens": lens}, f)
        shutil.rmtree(pdir)

    resumed, m = _pagerank_ckpt_run(meta, ckpt, resume=True)
    assert m["resumed_from"] == 3
    assert np.array_equal(full, resumed)


def test_resume_rewrites_steps_without_manifest(ray_session, tmp_work):
    """A run cut between its state writes and their manifests leaves
    ``part=`` dirs behind without a ``MANIFEST.json``: the resume starts
    from the newest step with a manifest, re-writes the later steps
    over the stale dirs, and equals the uninterrupted run bit for bit."""
    src, dst = fixtures.zipf_graph(n=200, m=1500)
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "g"), 3,
                       directed=True, fingerprint="ckpt-nomanifest")
    ckpt = os.path.join(tmp_work, "ckpt")
    full, m_full = _pagerank_ckpt_run(meta, ckpt)
    last = m_full["rounds"]
    for r in (last - 1, last):
        os.remove(os.path.join(ckpt, f"step={r}", "MANIFEST.json"))
        assert os.path.isdir(os.path.join(ckpt, f"step={r}", "part=0"))

    resumed, m = _pagerank_ckpt_run(meta, ckpt, resume=True)
    assert m["resumed_from"] == last - 2
    assert np.array_equal(full, resumed)
    for r in (last - 1, last):
        assert os.path.exists(os.path.join(ckpt, f"step={r}", "MANIFEST.json"))
        assert sorted(os.listdir(os.path.join(ckpt, f"step={r}"))) == \
            ["MANIFEST.json", "part=0", "part=1", "part=2"]
