"""PageRank — exact semantics of
examples/analytical_apps/pagerank/pagerank.h:52-219:

- N = total vertices; p = 1/N.
- state stores rank/out_degree (plain rank for dangling vertices).
- per round: ``base = (1-d)/N + d*dangling_sum/N``;
  ``dangling_sum = base * total_dangling``; each vertex pulls the sum of
  its out-neighbors' stored state; new state =
  ``(d*sum + base)/deg`` (deg>0) else ``base``.
- after the final round, multiply by out-degree (pagerank.h:202-214).

Exchange = dense mirror sync of the state array (BatchShuffle,
batch_shuffle_message_manager.h:225-285).  The per-vertex sum uses
reduceat over the locally-complete, gid-sorted adjacency, so results
are bitwise independent of the partition count.
"""

from __future__ import annotations

import numpy as np

from .base import FixedRounds


class PageRank(FixedRounds):
    name = "pagerank"
    state_arrays = ("result",)
    state_scalars = FixedRounds.state_scalars + ("dangling_sum", "total_dangling", "n")

    def __init__(self, frag, rounds: int = 10, damping: float = 0.85, **kw):
        super().__init__(frag, rounds, **kw)
        self.d = float(damping)

    def init(self):
        f = self.frag
        self.n = int(f.starts[-1])
        p = 1.0 / self.n
        deg = f.out_degree
        self.result = np.where(deg > 0, p / np.maximum(deg, 1), p)
        self.queue_global("dangling", int((deg == 0).sum()))

    def set_globals(self, agg: dict):
        self.total_dangling = int(agg.get("dangling", 0))
        self.dangling_sum = (1.0 / self.n) * self.total_dangling

    def mirror_values(self, rnd: int):
        return None if self.done else self.result

    def update(self, rnd: int, outer_vals, msgs, pushes=()) -> int:
        if self.done:
            return 0
        f = self.frag
        base = (1.0 - self.d) / self.n + self.d * self.dangling_sum / self.n
        self.dangling_sum = base * self.total_dangling
        cur = f.segment_sum(self.pull(self.result, outer_vals))
        deg = f.out_degree
        self.result = np.where(deg > 0, (self.d * cur + base) / np.maximum(deg, 1), base)
        if self.tick():
            self.result = np.where(deg > 0, self.result * deg, self.result)
            return 0
        return 1

    def output(self):
        return {"gid": self.frag.inner_gids(), "pagerank": self.result}
