"""Degree — per-inner-vertex out-degree of the loaded fragment
(immutable_edgecut_fragment.h GetLocalOutDegree; M6 in SURVEY §2).

Zero supersteps: the CSR row lengths ARE the answer (all out-edges of
an inner vertex are routed to its owner, ev_fragment_loader.h), so the
program terminates at its first update.  Run it on a ``reverse_graph``
build to get IN-degree (LoadStrategy kBothOutIn direction)."""

from __future__ import annotations

import numpy as np

from .base import VertexProgram


class Degree(VertexProgram):
    name = "degree"

    def init(self):
        self.done = True

    def mirror_values(self, rnd: int):
        return None

    def update(self, rnd: int, outer_vals, msgs, pushes=()) -> int:
        return 0

    def output(self):
        return {"gid": self.frag.inner_gids(),
                "degree": self.frag.out_degree.astype(np.int64)}
