"""Per-superstep mutation (Worker::processMutation,
grape/worker/worker.h:176-187 + grape/app/mutation_context.h): edge ops
queued mid-run apply between supersteps — the mutable_fragment_tests
contract at SUPERSTEP granularity: continuing after a mid-run edge ADD
must converge to the same fixpoint as a fresh run on the mutated graph,
and the in-actor rebuilt topology must match a from-scratch build."""

import numpy as np
import pytest


def _ring_edges(n, extra=()):
    """Weighted ring 0->1->...->n-1 (w=1) plus extra (s,d,w) edges."""
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    w = np.ones(n - 1, np.float64)
    for s, d, ww in extra:
        src = np.append(src, s)
        dst = np.append(dst, d)
        w = np.append(w, ww)
    return src, dst, w


def _build(tmp, name, src, dst, w, P=4, directed=True):
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy

    return build_graph(edges_from_numpy(src, dst, w), f"{tmp}/{name}", P,
                       directed=directed, dense_int_oids=True, weight_col="w")


def _sssp(eng, src=0, **kw):
    ds, m = eng.run("sssp", {"source": src}, **kw)
    df = ds.to_pandas().sort_values("gid")
    return df["dist"].to_numpy(), m


def test_midrun_add_matches_fresh_run(ray_session, tmp_work):
    """SSSP on a 64-ring; at round 2 add shortcut edges 0->32 (w=1.5)
    and 10->63 (w=2.0).  Continuing must equal a fresh SSSP over the
    mutated graph (monotone min => same fixpoint)."""
    from libgrape_lite_ray.graph.driver import GraphEngine

    n = 64
    src, dst, w = _ring_edges(n)
    meta = _build(tmp_work, "base", src, dst, w)
    eng = GraphEngine(meta)
    sched = {2: {"op": np.array([0, 0], np.int8),
                 "src": np.array([0, 10], np.int64),
                 "dst": np.array([32, 63], np.int64),
                 "w": np.array([1.5, 2.0], np.float64)}}
    got, metrics = _sssp(eng, mutation_schedule=sched)
    eng.shutdown()

    src2, dst2, w2 = _ring_edges(n, [(0, 32, 1.5), (10, 63, 2.0)])
    meta2 = _build(tmp_work, "full", src2, dst2, w2)
    eng2 = GraphEngine(meta2)
    want, _ = _sssp(eng2)
    eng2.shutdown()
    np.testing.assert_allclose(got, want)


def test_midrun_topology_matches_scratch_build(ray_session, tmp_work):
    """After a mid-run batch of adds + deletes + weight upserts, the
    in-actor fragments must hold exactly the edges of a from-scratch
    build (degree + full edge-list comparison via a follow-up program
    on the SAME engine)."""
    from libgrape_lite_ray.graph.driver import GraphEngine

    rng = np.random.default_rng(7)
    n, m = 40, 160
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    w = rng.random(m).round(3)
    meta = _build(tmp_work, "base", src, dst, w)
    # ops: add two fresh edges, delete two existing, re-weight one
    ops = {"op": np.array([0, 0, 1, 1, 0], np.int8),
           "src": np.array([0, 5, src[0], src[1], src[2]], np.int64),
           "dst": np.array([39, 17, dst[0], dst[1], dst[2]], np.int64),
           "w": np.array([0.5, 0.25, 0.0, 0.0, 9.0], np.float64)}
    eng = GraphEngine(meta)
    _sssp(eng, mutation_schedule={1: ops})
    deg_mut = eng.run("degree")[0].to_pandas().sort_values("gid")
    eng.shutdown()

    # scratch build of the mutated edge list (last-op-wins semantics)
    V = n
    key = src * V + dst
    okey = ops["src"] * V + ops["dst"]
    keep = ~np.isin(key, okey)
    adds = ops["op"] == 0
    s2 = np.concatenate([src[keep], ops["src"][adds]])
    d2 = np.concatenate([dst[keep], ops["dst"][adds]])
    w2 = np.concatenate([w[keep], ops["w"][adds]])
    meta2 = _build(tmp_work, "scratch", s2, d2, w2)
    eng2 = GraphEngine(meta2)
    deg_ref = eng2.run("degree")[0].to_pandas().sort_values("gid")
    eng2.shutdown()
    np.testing.assert_array_equal(deg_mut["degree"].to_numpy(),
                                  deg_ref["degree"].to_numpy())


def test_program_queued_mutation(ray_session, tmp_work):
    """The MutationContext path: a program queues an edge add DURING
    update (round 1); the engine applies it at the round-2 barrier and
    the final distances reflect the new edge."""
    from libgrape_lite_ray.graph.driver import GraphEngine
    from libgrape_lite_ray.graph.programs.sssp import SSSP

    class MutatingSSSP(SSSP):
        name = "_test_mut_sssp"

        def update(self, rnd, outer_vals, msgs, pushes=()):
            if rnd == 1 and self.frag.lo <= 0 < self.frag.hi:
                self.queue_add_edge(0, 48, 0.5)
            return super().update(rnd, outer_vals, msgs, pushes)

    n = 64
    src, dst, w = _ring_edges(n)
    meta = _build(tmp_work, "base", src, dst, w)
    eng = GraphEngine(meta)
    # pass the CLASS itself — the user-extension surface (SURVEY §2.10):
    # unregistered programs ship to the actors via cloudpickle
    ds, _ = eng.run(MutatingSSSP, {"source": 0})
    got = ds.to_pandas().sort_values("gid")["dist"].to_numpy()
    eng.shutdown()

    src2, dst2, w2 = _ring_edges(n, [(0, 48, 0.5)])
    meta2 = _build(tmp_work, "full", src2, dst2, w2)
    eng2 = GraphEngine(meta2)
    want, _ = _sssp(eng2)
    eng2.shutdown()
    np.testing.assert_allclose(got, want)


def test_undirected_mutation_symmetrized(ray_session, tmp_work):
    """On a symmetrized graph a mutation applies in both directions
    (mutate.py semantics): WCC over two rings joined mid-run equals a
    fresh engine on the ``mutate_graph`` result, so the rebuild dropped
    the CSC that round 1's push built."""
    import pyarrow as pa

    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    from libgrape_lite_ray.graph.driver import GraphEngine
    from libgrape_lite_ray.graph.mutate import mutate_graph

    n = 32  # ring A: 0..15, ring B: 16..31 (disconnected)
    src = np.concatenate([np.arange(15), np.arange(16, 31)]).astype(np.int64)
    dst = src + 1
    meta = build_graph(edges_from_numpy(src, dst), f"{tmp_work}/u", 4,
                       directed=False, symmetrize=True, dense_int_oids=True)
    eng = GraphEngine(meta)
    sched = {1: {"op": np.array([0], np.int8), "src": np.array([3], np.int64),
                 "dst": np.array([20], np.int64), "w": np.array([0.0])}}
    ds, _ = eng.run("wcc", mutation_schedule=sched)
    comp = ds.to_pandas().sort_values("gid")["comp"].to_numpy()
    eng.shutdown()
    assert len(np.unique(comp)) == 1  # single component after the join
    assert (comp == comp[0]).all()
    mutated = mutate_graph(meta, pa.table({"op": ["a"], "src": [3], "dst": [20]}),
                           f"{tmp_work}/mutated")
    eng = GraphEngine(mutated)
    try:
        fresh = eng.run("wcc")[0].to_pandas().sort_values("gid")["comp"].to_numpy()
    finally:
        eng.shutdown()
    assert np.array_equal(comp, fresh)


def test_unsupported_program_raises(ray_session, tmp_work):
    """Programs without an on_mutation remap must fail loudly, not
    silently corrupt state (pagerank keeps degree-derived globals)."""
    from libgrape_lite_ray.graph.driver import GraphEngine

    src, dst, w = _ring_edges(16)
    meta = _build(tmp_work, "pr", src, dst, w)
    eng = GraphEngine(meta)
    sched = {1: {"op": np.array([0], np.int8), "src": np.array([0], np.int64),
                 "dst": np.array([8], np.int64), "w": np.array([1.0])}}
    with pytest.raises(Exception, match="per-superstep mutation"):
        eng.run("pagerank", {"rounds": 5}, mutation_schedule=sched)
    eng.shutdown()


def test_run_warns_on_unreached_schedule(ray_session, tmp_work):
    """A mutation_schedule entry past the last executed round must be
    surfaced, not silently dropped."""
    import warnings

    from libgrape_lite_ray.graph.driver import GraphEngine

    src, dst, w = _ring_edges(16)
    meta = _build(tmp_work, "warn1", src, dst, w)
    eng = GraphEngine(meta)
    sched = {99: {"op": np.array([0], np.int8), "src": np.array([0], np.int64),
                  "dst": np.array([8], np.int64), "w": np.array([1.0])}}
    with pytest.warns(RuntimeWarning, match="never reached"):
        eng.run("sssp", {"source": 0}, mutation_schedule=sched)
    eng.shutdown()


def test_run_warns_on_staged_at_max_rounds(ray_session, tmp_work):
    """Ops staged for the round AFTER max_rounds (queued at the final
    round) must warn — the old behavior dropped them silently."""
    from libgrape_lite_ray.graph.driver import GraphEngine

    src, dst, w = _ring_edges(16)
    meta = _build(tmp_work, "warn2", src, dst, w)
    eng = GraphEngine(meta)
    sched = {3: {"op": np.array([0], np.int8), "src": np.array([0], np.int64),
                 "dst": np.array([8], np.int64), "w": np.array([1.0])}}
    with pytest.warns(RuntimeWarning, match="staged for the next round"):
        eng.run("sssp", {"source": 0}, max_rounds=3, mutation_schedule=sched)
    eng.shutdown()


def test_apply_round_harvest_not_deferred(ray_session, tmp_work):
    """Ops a program queues DURING the round a prior mutation applies
    (here: inside on_mutation) must be harvested that same round — with
    the tightest max_rounds that lets the prompt-harvest path finish,
    the final distances must reflect BOTH edges and no drop warning may
    fire."""
    import warnings

    from libgrape_lite_ray.graph.driver import GraphEngine
    from libgrape_lite_ray.graph.programs.sssp import SSSP

    class ChainMutSSSP(SSSP):
        name = "_test_chain_mut_sssp"

        def on_mutation(self, old_outer):
            # queued while apply_mutations runs (round 2's barrier);
            # prompt harvest stages it for round 3
            if self.frag.lo <= 0 < self.frag.hi and not getattr(self, "_did", False):
                self._did = True
                self.queue_add_edge(0, 15, 0.125)
            return super().on_mutation(old_outer)

    n = 16
    src, dst, w = _ring_edges(n)
    meta = _build(tmp_work, "chain", src, dst, w)
    eng = GraphEngine(meta)
    sched = {1: {"op": np.array([0], np.int8), "src": np.array([0], np.int64),
                 "dst": np.array([8], np.int64), "w": np.array([0.5])}}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ds, metrics = eng.run(ChainMutSSSP, {"source": 0},
                              mutation_schedule=sched)
    got = ds.to_pandas().sort_values("gid")["dist"].to_numpy()
    eng.shutdown()

    src2, dst2, w2 = _ring_edges(n, [(0, 8, 0.5), (0, 15, 0.125)])
    meta2 = _build(tmp_work, "chainfull", src2, dst2, w2)
    eng2 = GraphEngine(meta2)
    want, _ = _sssp(eng2)
    eng2.shutdown()
    np.testing.assert_allclose(got, want)


def test_mutate_graph_matches_in_process_apply(ray_session, tmp_work):
    """One delta through ``mutate_graph`` (the stored CSR rewrite) and the
    same ops through ``Fragment.apply_edge_mutations`` on the base
    graph's fragments give equal edge lists, on a weighted symmetrized
    graph: both run the one last-op-wins merge."""
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    from libgrape_lite_ray.graph.fragment import Fragment, csr_edges
    from libgrape_lite_ray.graph.mutate import mutate_graph, parse_delta_lines
    from libgrape_lite_ray.ids import part_of

    n = 30
    src, dst, w = _ring_edges(n, [(0, 15, 2.0), (3, 20, 0.5), (7, 25, 1.25)])
    meta = build_graph(edges_from_numpy(src, dst, w), f"{tmp_work}/base", 3,
                       symmetrize=True, dense_int_oids=True, weight_col="w")
    assert not meta.directed
    delta = parse_delta_lines([
        "a 1 9 0.5", "a 1 9 0.75",    # repeated key: the last add wins
        "a 4 12 1.0", "d 4 12",       # add then delete: absent
        "d 0 15", "a 0 15 3.5",       # delete then add an existing edge
        "u 3 20 9.0",                 # weighted upsert of an existing edge
        "d 7 25",                     # delete an existing edge
        "a 28 2 4.0",
    ])
    new = mutate_graph(meta, delta, f"{tmp_work}/mutated")
    # the base's build record stays with the base
    assert "build" in meta.extra and "build" not in new.extra

    op = (np.asarray(delta.column("op").to_pylist()) == "d").astype(np.int8)
    s = delta.column("src").to_numpy()
    d = delta.column("dst").to_numpy()
    ww = delta.column("w").to_numpy()
    # symmetrized: every op in both directions, routed to the src owner
    op, s, d, ww = (np.concatenate([op, op]), np.concatenate([s, d]),
                    np.concatenate([d, s]), np.concatenate([ww, ww]))
    owner = part_of(s, meta.starts)
    for p in range(meta.num_partitions):
        f = Fragment(p, meta.work_dir, meta.starts)
        m = owner == p
        f.apply_edge_mutations(op[m], s[m], d[m], ww[m])
        g = Fragment(p, new.work_dir, new.starts)
        for a, b in zip(csr_edges(f.csr, f.lo), csr_edges(g.csr, g.lo)):
            assert np.array_equal(a, b), p
        # the rebuilt fragment derives what the stored one does
        for k in ("out_degree", "src_of_edge", "tgt_unique", "tgt_starts", "src_by_tgt",
                  "w_by_tgt"):
            a, b = getattr(f, k), getattr(g, k)
            assert a.dtype == b.dtype and np.array_equal(a, b), (p, k)
    # the delta took effect: (1, 9) once at 0.75, (4, 12) and (7, 25) gone
    es, ed, ew = (np.concatenate(x) for x in zip(*(
        csr_edges(Fragment(p, new.work_dir, new.starts).csr, int(new.starts[p]))
        for p in range(new.num_partitions))))
    key = dict(zip(zip(es.tolist(), ed.tolist()), ew.tolist()))
    assert key[(1, 9)] == key[(9, 1)] == 0.75 and ((es == 1) & (ed == 9)).sum() == 1
    assert (4, 12) not in key and (7, 25) not in key and (25, 7) not in key
    assert key[(0, 15)] == 3.5 and key[(3, 20)] == 9.0 and key[(2, 28)] == 4.0
