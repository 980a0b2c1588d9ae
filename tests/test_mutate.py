"""Delta mutation (ev_fragment_mutator analog): base + delta must be
equivalent to a full build of the mutated graph — the reference's
mutable_fragment_tests contract (misc/app_tests.sh:119-181), exercised
with its own p2p-31 mutable_base/mutable_delta files against the
checked-in golden outputs."""

import os

import numpy as np
import pytest

DATA = "/root/reference/dataset"

pytestmark = pytest.mark.skipif(
    not os.path.exists(os.path.join(DATA, "p2p-31.e.mutable_base")),
    reason="reference mutable dataset absent",
)


def _load_e(path):
    e = np.loadtxt(path)
    return e[:, 0].astype(np.int64), e[:, 1].astype(np.int64), e[:, 2].astype(np.float64)


def _vfile_ds():
    """p2p-31.v as the explicit vertex universe (oid column)."""
    import pyarrow as pa
    import ray.data as rd

    v = np.loadtxt(os.path.join(DATA, "p2p-31.v"))[:, 0].astype(np.int64)
    return rd.from_arrow(pa.table({"oid": pa.array(v, pa.int64())}))


def _golden(name):
    g = np.loadtxt(os.path.join(DATA, name))
    order = np.argsort(g[:, 0])
    return g[order, 0].astype(np.int64), g[order, 1]


@pytest.fixture(scope="module")
def mutated_undirected(ray_session, tmp_path_factory):
    """base (undirected, unweighted) -> mutate -> meta of base+delta."""
    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    from libgrape_lite_ray.graph.mutate import load_delta_file, mutate_graph

    src, dst, _ = _load_e(os.path.join(DATA, "p2p-31.e.mutable_base"))
    wd = str(tmp_path_factory.mktemp("p2pmut"))
    base = build_graph(edges_from_numpy(src, dst), os.path.join(wd, "base"), 4,
                       symmetrize=True, vertices_ds=_vfile_ds())
    delta = load_delta_file(os.path.join(DATA, "p2p-31.e.mutable_delta"))
    return mutate_graph(base, delta, os.path.join(wd, "mutated"))


def _engine_result(meta, program, params, col):
    from libgrape_lite_ray.graph.driver import GraphEngine

    eng = GraphEngine(meta)
    try:
        ds, _ = eng.run(program, params)
        df = ds.to_pandas().sort_values("gid")
        return df[col].to_numpy()
    finally:
        eng.shutdown()


def test_mutated_pagerank_matches_full_golden(mutated_undirected):
    _, want = _golden("p2p-31-PR")
    got = _engine_result(mutated_undirected, "pagerank",
                         {"rounds": 10, "damping": 0.85}, "pagerank")
    assert len(got) == len(want)
    assert np.allclose(got, want, rtol=1e-6, atol=1e-12)


def test_mutated_lcc_matches_full_golden(mutated_undirected):
    _, want = _golden("p2p-31-LCC")
    got = _engine_result(mutated_undirected, "lcc", {}, "lcc")
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_mutated_spool_equals_full_build(ray_session, tmp_path_factory, mutated_undirected):
    """Strongest check: the mutated spool's deduped edge set equals a
    FULL build of p2p-31.e (base+delta == full, verified fact of the
    reference dataset)."""
    import glob

    import pyarrow.parquet as pq

    from libgrape_lite_ray.graph.fragment import Fragment

    src, dst, _ = _load_e(os.path.join(DATA, "p2p-31.e"))
    # expected symmetrized deduped edge set in gid space: oids are dense
    # ints starting at 1 -> gid = rank in sorted unique oid array
    uniq = np.unique(np.concatenate([src, dst]))
    gid_of = {int(o): i for i, o in enumerate(uniq)}
    sg = np.array([gid_of[int(x)] for x in src])
    dg = np.array([gid_of[int(x)] for x in dst])
    pairs = np.unique(np.stack([np.concatenate([sg, dg]),
                                np.concatenate([dg, sg])], axis=1), axis=0)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]] if False else pairs  # self loops kept as built

    meta = mutated_undirected
    got = []
    for p in range(meta.num_partitions):
        f = Fragment(p, meta.work_dir, meta.starts)
        rows = np.repeat(np.arange(f.ivnum) + f.lo, np.diff(f.indptr))
        loc = f.indices.astype(np.int64)
        dsts = np.where(loc < f.ivnum, loc + f.lo,
                        f.outer_gids[np.maximum(loc - f.ivnum, 0)])
        got.append(np.stack([rows, dsts], axis=1))
    got = np.concatenate(got)
    got = got[np.lexsort((got[:, 1], got[:, 0]))]
    assert np.array_equal(got, pairs)


def test_mutated_sssp_matches_full_golden(ray_session, tmp_path_factory):
    """Weighted directed-duplicated build + delta (both directions) ==
    the reference's undirected weighted SSSP golden."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
    from libgrape_lite_ray.graph.mutate import load_delta_file, mutate_graph

    src, dst, w = _load_e(os.path.join(DATA, "p2p-31.e.mutable_base"))
    s2, d2, w2 = np.concatenate([src, dst]), np.concatenate([dst, src]), np.concatenate([w, w])
    wd = str(tmp_path_factory.mktemp("p2pmutw"))
    base = build_graph(edges_from_numpy(s2, d2, w2), os.path.join(wd, "base"), 4,
                       weight_col="w", vertices_ds=_vfile_ds())
    delta = load_delta_file(os.path.join(DATA, "p2p-31.e.mutable_delta"))
    # directed build: mirror the delta explicitly (both directions)
    delta2 = pa.table({
        "op": pa.concat_arrays([delta.column("op").combine_chunks()] * 2),
        "src": pa.array(np.concatenate([delta.column("src").to_numpy(),
                                        delta.column("dst").to_numpy()])),
        "dst": pa.array(np.concatenate([delta.column("dst").to_numpy(),
                                        delta.column("src").to_numpy()])),
        "w": pa.concat_arrays([delta.column("w").combine_chunks()] * 2),
    })
    meta = mutate_graph(base, delta2, os.path.join(wd, "mutated"))
    vt = pq.read_table(os.path.join(meta.work_dir, "vertices"),
                       columns=["oid", "gid"]).to_pandas()
    source_gid = int(vt[vt["oid"] == 6]["gid"].iloc[0])
    got = _engine_result(meta, "sssp", {"source": source_gid}, "dist")
    _, want = _golden("p2p-31-SSSP")
    finite = np.isfinite(got)
    ref_finite = want < 1e300
    assert np.array_equal(finite, np.isfinite(want) & ref_finite)
    assert np.allclose(got[finite], want[finite], rtol=1e-9)
