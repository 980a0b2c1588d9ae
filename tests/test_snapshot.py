"""Fragment snapshot fast path (Serialize/Deserialize analog,
immutable_edgecut_fragment.h:303-376): the second load of a partition
must come from the memory-mapped per-array snapshot and be
array-identical to the built fragment; a rebuilt spool must invalidate
the snapshot."""

import glob
import os

import numpy as np
import pytest

from libgrape_lite_ray import fixtures
from libgrape_lite_ray.graph import oracle
from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
from libgrape_lite_ray.graph.driver import GraphEngine
from libgrape_lite_ray.graph.fragment import Fragment, _SNAP_ARRAYS


def test_snapshot_roundtrip(ray_session, tmp_work):
    n = 200
    src, dst = fixtures.zipf_graph(n=n, m=1500)
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "snap"),
                       4, directed=True)
    f1 = Fragment(1, meta.work_dir, meta.starts, False)
    assert not isinstance(f1.indices, np.memmap)  # built from the spool
    f1._snap_thread.join(30)  # snapshot writes are async now
    snaps = [p for p in glob.glob(os.path.join(meta.work_dir, "snapshot", "part=1-*"))
             if ".tmp-" not in p]
    assert len(snaps) == 1
    f2 = Fragment(1, meta.work_dir, meta.starts, False)
    assert isinstance(f2.indices, np.memmap)  # mapped from the snapshot
    for k in _SNAP_ARRAYS:
        assert np.array_equal(getattr(f1, k), getattr(f2, k)), k
    assert f1.tvnum == f2.tvnum and f1.num_local_edges == f2.num_local_edges

    # engine run on the snapshotted graph still matches the oracle
    eng = GraphEngine(meta)
    try:
        ds, _ = eng.run("pagerank", {"rounds": 10, "damping": 0.85})
        got = ds.to_pandas().sort_values("gid")["pagerank"].to_numpy()
        want = oracle.pagerank(src, dst, n, rounds=10)
        assert np.allclose(got, want, atol=1e-9)
    finally:
        eng.shutdown()


def test_snapshot_invalidated_by_rebuild(ray_session, tmp_work):
    """A different spool (other edges) under the same dir layout must
    not reuse the old snapshot."""
    import shutil

    n = 100
    src, dst = fixtures.er_components()
    d = os.path.join(tmp_work, "inv")
    meta = build_graph(edges_from_numpy(src, dst), d, 2, directed=True)
    f1 = Fragment(0, meta.work_dir, meta.starts, False)
    deg1 = f1.out_degree.copy()
    f1._snap_thread.join(30)  # let the async writer finish before rmtree
    # rebuild with an extra edge: spool files change -> new fingerprint
    shutil.rmtree(d)
    src2 = np.concatenate([src, [0]])
    dst2 = np.concatenate([dst, [50]])
    meta2 = build_graph(edges_from_numpy(src2, dst2), d, 2, directed=True)
    f2 = Fragment(0, meta2.work_dir, meta2.starts, False)
    assert not isinstance(f2.indices, np.memmap)  # fingerprint mismatch -> rebuilt
    assert f2.out_degree.sum() != deg1.sum() or not np.array_equal(f2.out_degree, deg1)
