"""The LCC wedge-count kernel against the oracle's exact triangle counts
on the shapes that reach its corners: a hub whose wedges alone exceed
the block budget, a partition with no oriented edges, one partition (no
received lists), and a skewed P = 8 graph whose received lists carry far
corners the requester does not hold.

The program runs in this process on ``scripts/kernel_bench.py``'s
in-process host, so the block budget can be shrunk and each
partition's state inspected.  The P = 8 case also runs on the engine's
actors."""

import importlib.util
import os

import numpy as np
import pytest

from libgrape_lite_ray import fixtures
from libgrape_lite_ray.graph import oracle
from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
from libgrape_lite_ray.graph.driver import GraphEngine
from libgrape_lite_ray.graph.programs import lcc as lcc_mod

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture()
def kernel_bench():
    """The script's in-process runner: a host built here, outside a Ray
    worker, leaves the test process's heap alone."""
    spec = importlib.util.spec_from_file_location(
        "kernel_bench", os.path.join(_ROOT, "scripts", "kernel_bench.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _build(tmp_work, src, dst, P, sub):
    return build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, sub), P,
                       symmetrize=True, dense_int_oids=True)


def _run(kernel_bench, meta):
    """Run LCC on an in-process host; returns the per-partition programs."""
    host = kernel_bench.load_host(meta)
    res = kernel_bench.run_once(host, "lcc", {}, 10)
    assert res["rounds"] == 4
    return [host.programs[p] for p in host.parts]


def _check(progs, src, dst, n):
    """Inner rows concatenated in partition order are in gid order."""
    tri = np.concatenate([pr.tricnt[: pr.frag.ivnum] for pr in progs])
    lcc = np.concatenate([pr.lcc for pr in progs])
    tri_want, lcc_want = oracle.triangles_lcc(src, dst, n)
    assert tri.dtype == np.int64
    assert np.array_equal(tri, tri_want)
    assert np.allclose(lcc, lcc_want, atol=1e-12)


def _max_wedges_per_vertex(src, dst, n) -> int:
    """max over v of sum_{u in N+(v)} |N+(u)|, with N+ the neighbors of
    larger (deg, gid): the kernel's orientation."""
    s, t = oracle.symmetrize(src, dst)
    deg = np.bincount(s, minlength=n)
    keep = (deg[t] > deg[s]) | ((deg[t] == deg[s]) & (t > s))
    odeg = np.bincount(s[keep], minlength=n)
    return int(np.bincount(s[keep], weights=odeg[t[keep]], minlength=n).max())


@pytest.mark.parametrize("share", [0, 4])
def test_hub_exceeding_the_block_budget(ray_session, tmp_work, kernel_bench, monkeypatch,
                                        share):
    """Budgets below the hub's wedge count.  At one wedge, every vertex
    that has wedges is the only such vertex of its block, the hub
    included.  At a quarter of the hub's count, the hub overruns the
    budget alone while lighter vertices share blocks.  Counts stay
    exact either way."""
    n = 300
    src, dst = fixtures.zipf_graph(n=n, m=3000, alpha=1.2)
    top = _max_wedges_per_vertex(src, dst, n)
    budget = top // share if share else 1
    assert 1 <= budget < top
    monkeypatch.setattr(lcc_mod, "_BLOCK_WEDGES", budget)
    progs = _run(kernel_bench, _build(tmp_work, src, dst, 2, "hub"))
    _check(progs, src, dst, n)


def test_partition_with_no_oriented_edges(ray_session, tmp_work, kernel_bench):
    """Three stars whose leaves are paired into triangles with their
    hub.  The hubs outrank every neighbor, so their partition keeps no
    oriented edge; its triangle counts all arrive from mirrors."""
    hubs, leaves = 3, 40
    src, dst = [], []
    for h in range(hubs):
        hub = hubs * leaves + h
        for i in range(leaves):
            a = h * leaves + i
            src.append(a)
            dst.append(hub)
            if i % 2:
                src.append(a - 1)
                dst.append(a)
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    n = hubs * (leaves + 1)
    progs = _run(kernel_bench, _build(tmp_work, src, dst, 4, "stars"))
    empty = [pr for pr in progs if len(pr.o_nbr_local_inner) == 0 and pr.frag.ivnum]
    assert empty, "no partition without oriented edges"
    assert all(pr.tricnt[: pr.frag.ivnum].any() for pr in empty)
    _check(progs, src, dst, n)


def test_single_partition_has_no_received_lists(ray_session, tmp_work, kernel_bench):
    n = 200
    src, dst = fixtures.zipf_graph(n=n, m=1500)
    (prog,) = _run(kernel_bench, _build(tmp_work, src, dst, 1, "p1"))
    assert prog.frag.tvnum == prog.frag.ivnum and not prog.requested
    _check([prog], src, dst, n)


@pytest.mark.parametrize("filter_bits", [None, 2])
def test_skewed_p8_rejects_far_corners_the_requester_lacks(ray_session, tmp_work,
                                                          kernel_bench, monkeypatch,
                                                          filter_bits):
    """Some shipped (u, w) entries name a w that is neither inner nor a
    mirror at the requester; the filter must reject them, on the
    in-process host and on the engine's actors alike.  With a 4-slot
    filter nearly every probe collides with a member's slot, so the
    exact check alone must reject the misses."""
    n = 400
    src, dst = fixtures.zipf_graph(n=n, m=6000, alpha=1.2)
    meta = _build(tmp_work, src, dst, 8, "p8")
    if filter_bits:
        monkeypatch.setattr(lcc_mod, "_FILTER_BITS", filter_bits)
    progs = _run(kernel_bench, meta)
    foreign = 0
    for owner in progs:
        for p, lids in owner.requested.items():
            f = progs[p].frag
            lo, hi = owner.o_indptr[lids], owner.o_indptr[lids + 1]
            w = np.concatenate([owner.o_nbr_gid_inner[a:b] for a, b in zip(lo, hi)])
            local = ((w >= f.lo) & (w < f.hi)) | np.isin(w, f.outer_gids)
            foreign += int((~local).sum())
    assert foreign > 0
    _check(progs, src, dst, n)
    if filter_bits:
        return

    eng = GraphEngine(meta)
    try:
        ds, _ = eng.run("lcc")
        got = ds.to_pandas().sort_values("gid")["tricnt"].to_numpy()
    finally:
        eng.shutdown()
    assert np.array_equal(got, oracle.triangles_lcc(src, dst, n)[0])
