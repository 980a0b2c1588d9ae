"""HITS hubs & authorities (Kleinberg 1999) — the classic link-graph
dual ranking: a page is a good AUTHORITY when good hubs link to it and
a good HUB when it links to good authorities.

One HITS iteration k over the directed graph:

    a_k(v) = sum_{u -> v} h_{k-1}(u)        (authority: gather in-links)
    h_k(v) = sum_{v -> w} a_k(w)            (hub: gather out-links)

each L1-normalized.  The engine runs one iteration as TWO supersteps
over the two exchange channels:

- odd rounds (a-phase): the previous hub vector is scattered along the
  local out-CSR (``Fragment.push_sum``) and shipped over the dense
  mirror-PUSH channel; owners sum the partials.  RAW hub values travel
  and the receiver divides the aggregated sum by the global hub norm —
  mathematically identical to scattering the normalized vector, but
  the norm is only known one round later (see below).
- even rounds (h-phase): the authority vector syncs to mirrors over
  the dense PULL channel (``mirror_values``) and each vertex reduces
  its out-adjacency (``segment_sum``), divided by the global authority
  norm.

Normalization uses the Communicator channel (``queue_global``/
``set_globals``, grape/communication/communicator.h Sum): each update
queues its local L1 partial, the driver sums the partials in partition
order after the barrier and delivers the global norm before the NEXT
round's update — a one-round-delayed global reduction.
Because normalization is a scalar rescale and HITS is linear, delaying
it changes no final value; it only keeps the floats in range.  One
extra finalize round delivers the last hub norm, so ``rounds``
iterations take 2*rounds+1 supersteps.

The driver's ``hits`` query cross-checks both scores against an
unrolled DuckDB oracle replicating the exact same arithmetic order
(aggregate first, divide the sum).
"""

from __future__ import annotations

import numpy as np

from .base import VertexProgram


class HITS(VertexProgram):
    name = "hits"
    state_arrays = ("a_raw", "h_raw", "a_norm", "h_norm")
    state_scalars = ("step_no", "gl")

    def __init__(self, frag, rounds: int = 8, **kw):
        super().__init__(frag, **kw)
        self.rounds = int(rounds)  # HITS iterations (2*rounds+1 supersteps)
        if self.rounds < 1:
            raise ValueError("hits needs rounds >= 1")

    def _scatter_hub(self):
        """Accumulate the (raw) hub vector along the local out-CSR into
        a fresh tvnum buffer — the a-phase export."""
        f = self.frag
        self.buf = np.zeros(f.tvnum, dtype=np.float64)
        f.push_sum(self.buf, self.h_raw[f.src_by_tgt])

    def init(self):
        f = self.frag
        self.gl: dict = {}
        self.h_raw = np.ones(f.ivnum, dtype=np.float64)  # h_0 = 1 (norm 1-free)
        self.a_raw = np.zeros(f.ivnum, dtype=np.float64)
        self.a_norm = np.zeros(f.ivnum, dtype=np.float64)
        self.h_norm = np.zeros(f.ivnum, dtype=np.float64)
        self._scatter_hub()
        self.step_no = 0

    def set_globals(self, agg: dict):
        self.gl.update(agg)

    def mirror_values(self, rnd: int):
        # h-phase pull export: the raw authority vector of this round
        return self.a_raw if (rnd % 2 == 0 and rnd <= 2 * self.rounds) else None

    def mirror_push(self, rnd: int):
        # a-phase push export: the hub scatter buffer's outer segment
        if rnd % 2 == 1 and rnd <= 2 * self.rounds:
            return self.buf[self.frag.ivnum:]
        return None

    def update(self, rnd: int, outer_vals, msgs, pushes=()) -> int:
        f = self.frag
        last = 2 * self.rounds
        if rnd > last:  # finalize: the last hub norm just arrived
            nh = self.gl.get("nh", 0.0) or 1.0
            self.h_norm = self.h_raw / nh
            self.step_no = rnd
            return 0
        if rnd % 2 == 1:  # a-phase (iteration k = (rnd+1)//2)
            div = 1.0 if rnd == 1 else (self.gl.get("nh", 0.0) or 1.0)
            self.a_raw = self.sum_pushes(self.buf[: f.ivnum], pushes) / div
            self.queue_global("na", float(self.a_raw.sum()))
        else:  # h-phase (iteration k = rnd//2)
            na = self.gl.get("na", 0.0) or 1.0
            self.h_raw = f.segment_sum(self.pull(self.a_raw, outer_vals)) / na
            self.queue_global("nh", float(self.h_raw.sum()))
            self.a_norm = self.a_raw / na  # na is final for this iteration
            if rnd < last:
                self._scatter_hub()
        self.step_no = rnd
        return 1

    def output(self):
        if self.step_no <= 2 * self.rounds:
            import warnings

            warnings.warn(
                f"hits stopped at superstep {self.step_no} before its finalize "
                f"superstep {2 * self.rounds + 1}: hub scores are not final "
                "(raise max_rounds)", RuntimeWarning, stacklevel=2)
        return {"gid": self.frag.inner_gids(),
                "authority": self.a_norm, "hub": self.h_norm}

    def load_state(self, arrays, scalars):
        super().load_state(arrays, scalars)
        # next produce is round step_no+1: odd rounds export the hub
        # scatter, which must be rebuilt from the restored h_raw
        self._scatter_hub()
