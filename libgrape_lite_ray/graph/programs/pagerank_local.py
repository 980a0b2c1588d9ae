"""PageRankLocal — the competitor-matched PageRank variant
(examples/analytical_apps/pagerank/pagerank_local.h:49-223,
Performance.md:61-67): the convergence condition other systems
(GeminiGraph / Plato) use, revised by the reference to output identical
results.

Semantics (vs the LDBC-style ``pagerank`` program):

- init: ``result[u] = 1/outdeg(u)`` (1.0 when dangling) — no 1/N.
- per round: ``next[u] = (1-d) + d * Σ_{u->v} result[v]``; every round
  except the LAST divides by outdeg (``pagerank_local.h:141-160``
  last_step branch), so the output is the UNdivided rank.
- no dangling-mass redistribution (danglings keep their base value).

Termination: fixed ``rounds`` (reference --pr_mr), plus an optional
``eps`` extension — stop as soon as the global max |Δrank| <= eps
(the delta-threshold convergence the reference matches competitors on;
expressed here through the engine's Σ-active==0 termination, K7).

Exchange = dense mirror sync of the divided state (BatchShuffle,
INSTALL_BATCH_SHUFFLE_WORKER), exactly like ``pagerank``.
"""

from __future__ import annotations

import numpy as np

from .base import FixedRounds


class PageRankLocal(FixedRounds):
    name = "pagerank_local"
    state_arrays = ("result", "rank")

    def __init__(self, frag, rounds: int = 10, damping: float = 0.85,
                 eps: float = 0.0, **kw):
        super().__init__(frag, rounds, **kw)
        self.d = float(damping)
        self.eps = float(eps)

    def init(self):
        deg = self.frag.out_degree
        # stored (exchanged) state is the divided form; `rank` keeps the
        # undivided value so eps-mode can stop at ANY round and still
        # output last_step semantics (divide-all-but-last == output the
        # undivided rank)
        self.result = np.where(deg > 0, 1.0 / np.maximum(deg, 1), 1.0)
        self.rank = self.result.copy()

    def mirror_values(self, rnd: int):
        return None if self.done else self.result

    def update(self, rnd: int, outer_vals, msgs, pushes=()) -> int:
        if self.done:
            return 0
        f = self.frag
        cur = f.segment_sum(self.pull(self.result, outer_vals))
        new_rank = (1.0 - self.d) + self.d * cur
        delta = float(np.abs(new_rank - self.rank).max()) if f.ivnum else 0.0
        self.rank = new_rank
        if self.tick():
            return 0
        deg = f.out_degree
        self.result = np.where(deg > 0, new_rank / np.maximum(deg, 1), new_rank)
        if self.eps > 0 and delta <= self.eps:
            # locally converged: report inactive but KEEP exchanging —
            # termination is only valid when every partition is under
            # eps in the same round (driver's Σ active == 0, K7); a
            # partition must not stop exporting while neighbors still
            # pull its values.
            return 0
        return 1

    def output(self):
        return {"gid": self.frag.inner_gids(), "pagerank": self.rank}
