"""MSBFS — 64-way bit-parallel multi-source BFS on the symmetrized
graph (the GAP-benchmark / Then et al. VLDB'15 "more BFSs at once"
kernel; beyond the reference's app set but the same BSP shape as
bfs/bfs.h with a 64-source frontier packed into ONE uint64 per
vertex).

Sources are the ``n_sources`` (<= 64) smallest oids — gids 0..S-1 by
the build's oid-sorted gid assignment — so the run is deterministic
and SQL-reproducible.  Per round: gather the mirror-synced frontier
masks through the CSR, one ``bitwise_or.reduceat`` per fragment ORs
every vertex's neighborhood at once, newly-set bits accumulate
``n_reach`` (how many sources reach the vertex) and ``sum_dist``
(sum of those BFS distances).  Terminates when no vertex gains a bit.

Output is integer-exact — (gid, n_reach, sum_dist) — so the oracle
compare needs no float tolerance; closeness = n_reach / sum_dist is a
trivial post-map for the caller.
"""

from __future__ import annotations

import numpy as np

from .base import VertexProgram

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def _popcount64(x: np.ndarray) -> np.ndarray:
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return ((x * _H01) >> np.uint64(56)).astype(np.int64)


class MSBFS(VertexProgram):
    name = "msbfs"
    state_arrays = ("frontier", "visited", "n_reach", "sum_d")
    state_scalars = ("S",)

    def __init__(self, frag, n_sources: int = 64, **kw):
        super().__init__(frag, **kw)
        if not 1 <= int(n_sources) <= 64:
            raise ValueError("n_sources must be in [1, 64]")
        self.S = int(n_sources)

    def init(self):
        f = self.frag
        gids = f.inner_gids()
        self.frontier = np.zeros(f.ivnum, dtype=np.uint64)
        src = gids < self.S  # sources = the S smallest oids (gids 0..S-1)
        self.frontier[src] = np.uint64(1) << gids[src].astype(np.uint64)
        self.visited = self.frontier.copy()
        self.n_reach = _popcount64(self.visited)
        self.sum_d = np.zeros(f.ivnum, dtype=np.int64)

    def mirror_values(self, rnd: int):
        # masks ride the dense sync as int64 bit-patterns
        return self.frontier.view(np.int64)

    def update(self, rnd: int, outer_vals, msgs, pushes=()) -> int:
        f = self.frag
        ev = self.pull(self.frontier,
                       None if outer_vals is None else outer_vals.view(np.uint64))
        nbr_or = np.zeros(f.ivnum, dtype=np.uint64)
        starts = f.indptr[:-1]
        valid = f.indptr[1:] > starts
        if len(ev):
            nbr_or[valid] = np.bitwise_or.reduceat(ev, starts[valid])
        new = nbr_or & ~self.visited
        pc = _popcount64(new)
        self.n_reach += pc
        self.sum_d += rnd * pc  # round r sets bits at BFS distance r
        self.visited |= new
        self.frontier = new
        return int(np.count_nonzero(new))

    def output(self):
        return {"gid": self.frag.inner_gids(),
                "n_reach": self.n_reach,
                "sum_dist": self.sum_d}

    def load_state(self, arrays, scalars):
        super().load_state(arrays, scalars)
        # older checkpoints hold the masks as int64 bit-patterns
        self.frontier = self.frontier.view(np.uint64)
        self.visited = self.visited.view(np.uint64)
