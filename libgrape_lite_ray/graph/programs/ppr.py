"""Personalized PageRank (random walk with restart) — the PageRank
variant a link-graph pipeline uses for seed-relative relevance
(topic-sensitive ranking, related-page discovery):

    r^{t+1}(v) = (1-d)*e(v) + d * sum_{u -> v} r^t(u) / outdeg(u)

with e(v) = 1/|S| on the seed set S (else 0), r^0 = e, and dangling
mass LEAKING (no redistribution) — the textbook RWR formulation, so
sum(r) <= 1 always and mass stays inside the seed's reachable set.

Unlike this repo's ``PageRank`` (which mirrors pagerank.h's pull
convention), mass here flows along OUT-edges like a real surfer, so
the program uses the engine's dense mirror-PUSH channel
(batch_shuffle_message_manager.h:225-285 push direction): each round
every fragment scatters r(u)/outdeg(u) along its local out-CSR into a
tvnum accumulator (``Fragment.push_sum`` — add.reduceat over per-edge
values gathered in CSC order), ships the outer segment to owners as contiguous
per-owner slices (no gid column), and owners add the received partials
through ``export_lids``.  Edge-cut by src means a vertex's whole
out-adjacency is local, so the local CSR degree IS the global
out-degree — no degree exchange needed.

Fixed-round iteration, exactly reproducible by an unrolled SQL chain —
the driver's ``ppr`` query cross-checks it against DuckDB.
"""

from __future__ import annotations

import numpy as np

from .base import FixedRounds


class PPR(FixedRounds):
    name = "ppr"
    state_arrays = ("rank",)

    def __init__(self, frag, sources=(0,), rounds: int = 10,
                 damping: float = 0.85, weighted: bool = False, **kw):
        super().__init__(frag, rounds, **kw)
        self.sources = np.asarray(sorted(int(s) for s in sources), np.int64)
        if len(self.sources) == 0:
            raise ValueError("ppr needs at least one source gid")
        # an unowned seed's restart mass would vanish and silently scale
        # every rank down
        V = int(frag.starts[-1])
        bad = self.sources[(self.sources < 0) | (self.sources >= V)]
        if len(bad):
            raise ValueError(f"ppr source gids {bad.tolist()} outside [0, {V})")
        self.d = float(damping)
        self.weighted = bool(weighted)
        if self.weighted and frag.edge_w is None:
            raise ValueError("ppr weighted=True requires a weighted graph")

    def _teleport(self) -> np.ndarray:
        """e(v) over this fragment's inner range."""
        f = self.frag
        e = np.zeros(f.ivnum, dtype=np.float64)
        local = self.sources[(self.sources >= f.lo) & (self.sources < f.hi)]
        e[local - f.lo] = 1.0 / len(self.sources)
        return e

    def _scatter(self):
        """Accumulate the per-edge transition mass along the local
        out-CSR into a fresh tvnum buffer (inner targets + outer
        mirrors): r(u)/outdeg(u) per edge, or r(u)*w(e)/W(u) when
        ``weighted`` (edge-weight-proportional transitions — the
        random-walk analog of gnn_sampler's accumulated-weight draws,
        fragment_indices.h:71-97)."""
        f = self.frag
        self.buf = np.zeros(f.tvnum, dtype=np.float64)
        if self.weighted:
            edge_vals = np.asarray(self.rank)[f.src_by_tgt] * self._trans
        else:
            contrib = self.rank / np.maximum(f.out_degree, 1)  # dangling rows: no edges
            edge_vals = contrib[f.src_by_tgt]
        f.push_sum(self.buf, edge_vals)

    def _edge_transitions(self):
        """Cached per-edge transition probabilities w(e)/W(src(e)) in CSC
        order — computed once per fragment load, reused every round.
        W sums each row's weights in CSR order."""
        f = self.frag
        w = np.asarray(f.edge_w, np.float64)
        if len(w) and w.min() < 0:
            raise ValueError("weighted ppr requires non-negative edge weights")
        W = np.bincount(np.asarray(f.src_of_edge, np.int64), weights=w, minlength=f.ivnum)
        return np.asarray(f.w_by_tgt, np.float64) / np.maximum(W[f.src_by_tgt], 1e-300)

    def init(self):
        self.e = self._teleport()
        self.rank = self.e.copy()
        if self.weighted:
            self._trans = self._edge_transitions()
        self._scatter()

    def mirror_push(self, rnd: int):
        return None if self.done else self.buf[self.frag.ivnum:]

    def update(self, rnd: int, outer_vals, msgs, pushes=()) -> int:
        if self.done:
            return 0
        sums = self.sum_pushes(self.buf[: self.frag.ivnum], pushes)
        self.rank = (1.0 - self.d) * self.e + self.d * sums
        if self.tick():
            return 0
        self._scatter()
        return 1

    def output(self):
        return {"gid": self.frag.inner_gids(), "ppr": self.rank}

    def load_state(self, arrays, scalars):
        super().load_state(arrays, scalars)
        self.e = self._teleport()
        if self.weighted:
            self._trans = self._edge_transitions()
        if not self.done:
            self._scatter()
        else:
            self.buf = np.zeros(self.frag.tvnum, dtype=np.float64)
