"""The edge spool is route-only: spool files reach a fragment in no
particular order (uuid-named, one per routed batch), so the build's
CSR writer must sort each slice by (src, dst) and dedup it.  Regression cover
for the round-1 spool-ordering bug (VERDICT.md #1), where a
sorted-spool fast path trusted file order and mis-built the CSR.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from libgrape_lite_ray import fixtures
from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy, write_csr
from libgrape_lite_ray.graph.fragment import Fragment


def _write(d, name, rows):
    src, dst = zip(*rows)
    pq.write_table(
        pa.table({"src_gid": pa.array(src, pa.int64()),
                  "dst_gid": pa.array(dst, pa.int64())}),
        os.path.join(d, name),
    )


@pytest.mark.parametrize("files,v,want,num_edges", [
    # 'aaaa' sorts before 'zzzz' but holds the LATER half of vertex 5's
    # run; (5,8) appears in both files
    ({"aaaa.parquet": [(5, 8), (5, 9)],
      "zzzz.parquet": [(5, 1), (5, 2), (5, 8)]}, 5, [1, 2, 8, 9], 4),
    # in-order files still dedup (3,4) across the file boundary
    ({"aaaa.parquet": [(3, 1), (3, 4)],
      "bbbb.parquet": [(3, 4), (3, 7), (5, 2)]}, 3, [1, 4, 7], 4),
], ids=["out_of_order", "in_order_across_files"])
def test_fragment_sorts_and_dedups_spool(tmp_work, files, v, want, num_edges):
    d = os.path.join(tmp_work, "edges", "part=0")
    os.makedirs(d)
    for name, rows in files.items():
        _write(d, name, rows)
    starts = np.array([0, 10])
    write_csr(tmp_work, 0, starts, False)
    frag = Fragment(0, tmp_work, starts)
    lo, hi = frag.indptr[v], frag.indptr[v + 1]
    assert np.array_equal(frag.indices[lo:hi], want)
    assert frag.out_degree[v] == len(want)
    assert frag.num_local_edges == num_edges


@pytest.mark.parametrize("trial", range(5))
def test_build_spool_globally_sorted_small_blocks(ray_session, tmp_work, trial):
    """Force many tiny blocks (splitting src runs across spool files)
    and assert the fragments' CSRs, concatenated in partition order,
    are the exact deduped edge set globally sorted by (src, dst)."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 4 * 1024  # ~tiny: many blocks
    try:
        n = 120
        src, dst = fixtures.zipf_graph(n=n, m=2000)  # hub-heavy: long src runs
        meta = build_graph(edges_from_numpy(src, dst),
                           os.path.join(tmp_work, f"t{trial}"), 4, directed=True)
    finally:
        ctx.target_max_block_size = old

    # expected deduped edge set in gid space (gid == oid rank; zipf ids
    # are 0..n-1 so gid == oid here)
    want = np.unique(np.stack([src, dst], axis=1), axis=0)
    got_parts = []
    for p in range(meta.num_partitions):
        frag = Fragment(p, meta.work_dir, meta.starts)
        e0, e1 = frag.indptr[:-1], frag.indptr[1:]
        rows = np.repeat(np.arange(frag.ivnum), (e1 - e0)) + frag.lo
        # reconstruct dst gids from local indices
        loc = frag.indices.astype(np.int64)
        dsts = np.where(loc < frag.ivnum, loc + frag.lo,
                        frag.outer_gids[np.maximum(loc - frag.ivnum, 0)])
        got_parts.append(np.stack([rows, dsts], axis=1))
    # partitions are ascending gid ranges: no re-sort needed
    assert np.array_equal(np.concatenate(got_parts), want)
