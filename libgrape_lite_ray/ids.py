"""Vertex-id and partitioning arithmetic.

The reference gives every vertex a dense internal gid and derives the
owning fragment from the id (grape/fragment/id_parser.h:45-55 encodes
fid in the high bits; the default SegmentedPartitioner assigns
contiguous oid ranges, grape/fragment/partitioner.h:88-158).

We combine both ideas: gids are the dense rank of the vertex in
oid-sorted order (0..V-1), and partitions are contiguous gid ranges
described by a small ``starts`` boundary array (P+1 entries).  Because
gid order == oid order, min-gid label propagation (WCC/CDLP) is exactly
min-oid label propagation after the final gid->oid re-attach, matching
the reference's oid-label convention (wcc/wcc.h comp_id = vertex id,
cdlp_context.h label_t = oid_t).

Ownership is pure arithmetic (searchsorted over P+1 ints), so any stage
can route a gid without a lookup table — the property the reference gets
from id bit-encoding.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = [
    "part_of",
    "split_by_part",
    "weighted_partition_starts",
]


def weighted_partition_starts(
    bucket_ends: np.ndarray,
    bucket_weights: np.ndarray,
    num_vertices: int,
    num_partitions: int,
) -> np.ndarray:
    """Degree-aware contiguous ranges (reference Rebalancer analog,
    grape/worker/rebalancer.h:99-196: split so cumulative
    degree+vertex_factor is balanced).

    ``bucket_ends`` (ascending) is the last gid of each bucket of a
    weight histogram over the gid range, and ``bucket_weights[i]`` the
    weight of the gids in bucket i.  Boundaries are chosen so each
    partition holds ~1/P of total weight, snapped to bucket ends.
    int64/float64 inputs are used without a copy (a 2**20-bucket
    histogram stays ~8 MB).
    """
    ends = np.asarray(bucket_ends, dtype=np.int64)
    w = np.asarray(bucket_weights, dtype=np.float64)
    cum = np.cumsum(w)
    total = cum[-1] if len(cum) else 0.0
    starts = [0]
    for p in range(1, num_partitions):
        target = total * p / num_partitions
        i = int(np.searchsorted(cum, target, side="left"))
        if i >= len(ends):
            b = num_vertices
        else:
            b = int(ends[i]) + 1
        b = max(b, starts[-1])  # keep monotone; empty partitions allowed
        starts.append(min(b, num_vertices))
    starts.append(num_vertices)
    return np.asarray(starts, dtype=np.int64)


def part_of(gids: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Owning partition of each gid (vectorized; starts is int64[P+1])."""
    return (np.searchsorted(starts[1:], gids, side="right")).astype(np.int32)


def split_by_part(table: pa.Table, parts: np.ndarray, num_parts: int) -> list[pa.Table]:
    """``table``'s rows as ``num_parts`` tables, table p holding the rows
    with ``parts == p`` in order, or none (of ``table``'s schema): the
    one owner split of the build's route and the result sink."""
    pieces = [table.schema.empty_table()] * num_parts
    for p in np.unique(parts):
        pieces[int(p)] = table.filter(pa.array(parts == p))
    return pieces
