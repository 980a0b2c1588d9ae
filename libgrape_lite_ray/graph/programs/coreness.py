"""Coreness (full k-core decomposition) by h-index iteration on the
symmetrized graph — beyond the reference's app set but pure PIE, same
fixpoint shape as wcc.h.

Lü et al. (Nature Comms 2016, "The H-index of a network node and its
relation to degree and coreness"): start every vertex at its degree
and repeatedly replace each value with the H-INDEX of its neighbors'
values (the largest h such that >= h neighbors have value >= h); the
iteration is monotone non-increasing, order-independent (stale mirror
values are safe under BSP), and its fixpoint is exactly the core
number.  A round with zero changes anywhere is therefore a global
fixpoint — the driver's zero-active termination.

Per round: one gather of mirror-synced values through the CSR, one
lexsort per fragment ((vertex, -value) — neighbors ranked descending),
one ``minimum``+``maximum.reduceat`` sweep for all h-indices at once.

Run on a ``symmetrize=True`` build (adjacency deduped when unweighted:
degree == distinct-neighbor count, matching the DuckDB oracle's
distinct undirected edge set)."""

from __future__ import annotations

import numpy as np

from .base import VertexProgram


def _segment_hindex(indptr: np.ndarray, nbr_vals: np.ndarray) -> np.ndarray:
    """Per-segment h-index: max over the desc-sorted neighbor values v_i
    of min(i+1, v_i).  Vectorized for ALL segments at once."""
    n = len(indptr) - 1
    lens = np.diff(indptr)
    if not len(nbr_vals):
        return np.zeros(n, np.int64)
    seg = np.repeat(np.arange(n, dtype=np.int64), lens)
    order = np.lexsort((-nbr_vals, seg))
    v = nbr_vals[order]
    rank = np.arange(len(v), dtype=np.int64) - np.repeat(indptr[:-1], lens) + 1
    cand = np.minimum(rank, v)
    out = np.zeros(n, np.int64)
    valid = lens > 0
    out[valid] = np.maximum.reduceat(cand, indptr[:-1][valid])
    return out


class Coreness(VertexProgram):
    name = "coreness"
    state_arrays = ("c",)

    def init(self):
        self.c = self.frag.out_degree.astype(np.int64)

    def mirror_values(self, rnd: int):
        return self.c

    def update(self, rnd: int, outer_vals, msgs, pushes=()) -> int:
        f = self.frag
        h = _segment_hindex(f.indptr, self.pull(self.c, outer_vals))
        new = np.minimum(self.c, h)
        changed = int((new != self.c).sum())
        self.c = new
        return changed

    def output(self):
        return {"gid": self.frag.inner_gids(), "coreness": self.c}
