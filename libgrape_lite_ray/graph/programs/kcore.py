"""KCore — k-core membership by iterative peeling on the symmetrized
graph (beyond the reference's app set, but pure PIE: the same
fixpoint shape as examples/analytical_apps/wcc/wcc.h — peel until no
vertex changes).

Round r: every vertex counts its ALIVE neighbors from the mirror-synced
alive flags (one ``segment_sum`` over the CSR — ParallelEngine-style
dense sweep) and dies if the count is < k.  Kills propagate through
the next round's mirror sync; the driver's zero-active termination
fires on the first round with no kills anywhere (alive flags are then
a fixpoint).  Alive-flag monotonicity guarantees convergence in at
most V rounds (typically ~10 on web graphs).

Run on a ``symmetrize=True`` build (adjacency deduped when unweighted,
so the neighbor count is over DISTINCT neighbors — matching the
DuckDB oracle's distinct undirected edge set).
"""

from __future__ import annotations

import numpy as np

from .base import VertexProgram


class KCore(VertexProgram):
    name = "kcore"
    state_arrays = ("alive",)
    state_scalars = ("k", "done")

    def __init__(self, frag, k: int = 3, **kw):
        super().__init__(frag, **kw)
        self.k = int(k)

    def init(self):
        self.alive = np.ones(self.frag.ivnum, dtype=np.float64)
        self.done = False

    def mirror_values(self, rnd: int):
        return None if self.done else self.alive

    def update(self, rnd: int, outer_vals, msgs, pushes=()) -> int:
        if self.done:
            return 0
        alive_deg = self.frag.segment_sum(self.pull(self.alive, outer_vals))
        kill = (self.alive > 0) & (alive_deg < self.k)
        self.alive[kill] = 0.0
        return int(kill.sum())

    def output(self):
        return {"gid": self.frag.inner_gids(),
                "in_kcore": (self.alive > 0).astype(np.int64)}
