"""LCC / triangle counting: exact semantics of
examples/analytical_apps/lcc/lcc.h:50-246 in four supersteps:

1. degree exchange (mirror sync of undirected degree), then
   orientation: every vertex keeps the neighbors with a larger
   (deg, gid) than its own (lcc.h:108-121, the skew guard that bounds
   per-vertex fanout on zipfian graphs);
2. each partition requests the oriented lists of the mirrors that its
   own oriented lists name;
3. owners ship those lists (SendMsgThroughOEdges of msg_vec,
   lcc.h:122-124); the requester counts the wedges that close,
   attributing +1 to all three corners (lcc.h:154-186);
4. mirror triangle-count sum-sync back to owners
   (SyncStateOnOuterVertex, lcc.h:188-199), then
   ``lcc = 2*t / (deg*(deg-1))`` (lcc.h:222-231).

Run on a graph built with ``symmetrize=True`` (undirected).  The wedge
count works in gid space: a block's membership set is its oriented
(v, w gid) pairs, which plays the part of the reference's bitmap of
N+(v), probed through an exact hashed filter (see ``_count_triangles``).
"""

from __future__ import annotations

import numpy as np

from .base import VertexProgram

# Wedge blocks keep every per-wedge temporary cache-resident AND let
# the allocator reuse the same heap pages across blocks (first-touch
# page faults are expensive, especially under lazily-backed VM
# memory, where an 8M-wedge chunk measured 13x slower than small
# chunks for identical work).  Python per-block overhead is ~10us.
_BLOCK_WEDGES = 524_288
# The membership filter: 2**20 one-byte slots (1 MiB, cache-friendly).
_FILTER_BITS = 20
_FIB = np.uint64(0x9E3779B97F4A7C15)


def _slot(keys: np.ndarray) -> np.ndarray:
    """Filter slot of each nonnegative int64 key: the top
    ``_FILTER_BITS`` bits of a multiplicative (Fibonacci) hash."""
    h = keys.view(np.uint64) * _FIB
    h >>= np.uint64(64 - _FILTER_BITS)
    return h.view(np.int64)


def _gather_segments(data: np.ndarray, indptr: np.ndarray, ids: np.ndarray):
    """Concatenate data[indptr[i]:indptr[i+1]] for i in ids; returns
    (gathered, lens)."""
    lens = indptr[ids + 1] - indptr[ids]
    cum = np.cumsum(lens)
    pos = np.repeat(indptr[ids] - (cum - lens), lens)
    pos += np.arange(len(pos))
    return data.take(pos), lens


class LCC(VertexProgram):
    """Stages: 0 degree sync -> 1 adjacency REQUESTS (each partition
    asks owners only for the oriented lists of mirrors that actually
    appear in its oriented neighborhoods — without this, owners ship
    their whole oriented adjacency to every mirror holder, an O(P x E)
    exchange on mirror-dense web graphs) -> 2 adjacency shipping +
    wedge counting -> 3 tricnt sum-sync + coefficients."""

    name = "lcc"
    default_max_rounds = 5

    def init(self):
        f = self.frag
        self.stage = 0
        self.deg_full = np.zeros(f.tvnum, dtype=np.int64)
        self.deg_full[: f.ivnum] = f.out_degree
        self.tricnt = np.zeros(f.tvnum, dtype=np.int64)
        self.requested: dict[int, np.ndarray] = {}
        self.done = False

    # ---------------------------------------------------------- produce
    def mirror_values(self, rnd: int):
        if self.stage == 0:
            return self.frag.out_degree
        return None

    def messages(self, rnd: int) -> dict[int, tuple]:
        f = self.frag
        if self.stage == 1:
            # request oriented lists of the outer vertices we will probe
            out = {}
            outer_needed = np.unique(
                self.o_nbr_local_inner[self.o_nbr_local_inner >= f.ivnum]
            )
            gids = f.outer_gids[outer_needed - f.ivnum]
            owners = f.owner_of(gids)
            for q in np.unique(owners):
                out[int(q)] = (gids[owners == q],)
            return out
        if self.stage == 2:
            # ship oriented adjacency for the vertices each requester asked
            out = {}
            for p, lids in self.requested.items():
                nbr_gids, lens = _gather_segments(self.o_nbr_gid_inner, self.o_indptr, lids)
                u_rep = np.repeat(f.lo + lids, lens)
                out[p] = (u_rep, nbr_gids)
            return out
        if self.stage == 3:
            out = {}
            for q in range(f.num_parts):
                a, b = f.mirror_bounds[q], f.mirror_bounds[q + 1]
                cnt = self.tricnt[f.ivnum + a: f.ivnum + b]
                m = cnt > 0
                if m.any():
                    out[q] = (f.outer_gids[a:b][m], cnt[m])
            return out
        return {}

    # ---------------------------------------------------------- update
    def update(self, rnd: int, outer_vals, msgs, pushes=()) -> int:
        f = self.frag
        if self.stage == 0:
            if outer_vals is not None:
                self.deg_full[f.ivnum:] = outer_vals
            self._orient()
            self.stage = 1
            return 1
        if self.stage == 1:
            # each request arrives tagged with its requester
            self.requested = {q: np.asarray(m[0], dtype=np.int64) - f.lo
                              for q, m in msgs if len(m[0])}
            self.stage = 2
            return 1
        if self.stage == 2:
            self.stage = 3
            self._count_triangles(msgs)
            return 1
        if self.stage == 3:
            if msgs:
                gids = np.concatenate([m[0] for _, m in msgs])
                cnts = np.concatenate([m[1] for _, m in msgs])
                np.add.at(self.tricnt, gids - f.lo, cnts)
            deg = f.out_degree
            t = self.tricnt[: f.ivnum]
            lcc = np.zeros(f.ivnum, dtype=np.float64)
            m = deg >= 2
            lcc[m] = 2.0 * t[m] / (deg[m] * (deg[m] - 1.0))
            self.lcc = lcc
            self.done = True
            self.stage = 4
            return 0
        return 0

    def _orient(self):
        """Keep neighbors with LARGER (deg, gid): lcc.h:108-121's
        orientation.  It caps every oriented list at O(sqrt(m)) (a hub
        keeps only its few larger-degree neighbors), which bounds the
        wedge volume per vertex and per partition on zipfian web graphs.

        One int64 rank per local vertex, ``deg * V + gid``, orders
        vertices exactly as the (deg, gid) pair does (0 <= gid < V), so
        the test is one compare per edge.  The same radix V packs the
        membership keys of ``_count_triangles``; both packings stay
        below ``max(deg + 1, ivnum) * V``, checked once here."""
        f = self.frag
        V = int(f.starts[-1])
        if max(int(self.deg_full.max(initial=0)) + 1, f.ivnum) * V >= 2**63:
            raise OverflowError(f"LCC packs (deg, gid) in int64; V = {V} is too large")
        gid = f.all_gids()
        rank = self.deg_full * V + gid
        keep = rank[f.indices] > rank[f.src_of_edge]
        self.o_nbr_local_inner = f.indices[keep].astype(np.int32)
        self.o_nbr_gid_inner = gid[self.o_nbr_local_inner]
        lens = np.bincount(f.src_of_edge[keep], minlength=f.ivnum)
        self.o_indptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)

    def _count_triangles(self, msgs):
        """Count the wedges (v, u, w) that close, in gid space, grouped
        by the wedge's inner corner v (reference semantics:
        lcc.h:154-186).

        A wedge needs the oriented edges (v, u) and (u, w) and closes a
        triangle iff (v, w) is an oriented edge of v.  The probe
        adjacency of u is its own oriented gid list when u is inner,
        and the received list when u is a mirror: ``o_nbr_gid_inner``
        followed by the received w gids in arrival order, with no
        per-entry translation.  The received u column arrives grouped
        and ascending (owners ship in requested order, which is gid
        order; bundles are applied in source-partition order; outer lids
        are in gid order), so each distinct u gets its outer lid from
        one ``searchsorted`` and its list length from its run length.

        v is walked in blocks of about ``_BLOCK_WEDGES`` wedges; a block
        takes at least one vertex, so a hub with more wedges than that
        overruns the budget on its own.  A block's membership set
        is its oriented pairs packed as ``(v - v0) * V + w_gid``; every
        wedge probes ``(v - v0) * V + w_gid`` for its far corner w.
        A 1 MiB byte table, indexed by a multiplicative hash of the key,
        marks the slots of the members.  A probe equal to a member hashes
        to a marked slot, so the filter has no false negatives; the few
        candidates it passes are confirmed by an exact ``searchsorted``
        against the sorted member keys, so no false positive is counted.
        The counts are therefore exact.  A w that is not local to this
        partition is never a member and is rejected like any other miss.

        Hits (v lid, u lid, w gid) are collected over blocks and added
        by ``_add_hits``.
        """
        f = self.frag
        V = int(f.starts[-1])
        o_lid, o_gid, o_indptr = self.o_nbr_local_inner, self.o_nbr_gid_inner, self.o_indptr
        ru = np.concatenate([np.empty(0, np.int64)] + [np.asarray(m[0], np.int64) for _, m in msgs])
        udeg = np.zeros(f.tvnum, np.int64)
        udeg[: f.ivnum] = np.diff(o_indptr)
        if len(ru):
            step = np.diff(ru)
            if step.min(initial=0) < 0:
                raise RuntimeError("LCC: received u column is not grouped ascending")
            first = np.flatnonzero(np.concatenate([[True], step > 0]))
            udeg[f.ivnum + np.searchsorted(f.outer_gids, ru[first])] = np.diff(
                np.append(first, len(ru)))
        adj = np.concatenate([o_gid] + [np.asarray(m[1], np.int64) for _, m in msgs])
        adj_indptr = np.concatenate([[0], np.cumsum(udeg)])
        # cumulative wedges over oriented edges; a block's count is a difference
        cw = np.concatenate([[0], np.cumsum(udeg[o_lid])])
        cum_wpv = cw[o_indptr[1:]]
        table = np.zeros(1 << _FILTER_BITS, np.uint8)
        hits, pending = [[], [], []], 0
        v0 = 0
        while v0 < f.ivnum:
            v1 = min(int(np.searchsorted(cum_wpv, cw[o_indptr[v0]] + _BLOCK_WEDGES)) + 1,
                     f.ivnum)
            e0, e1 = int(o_indptr[v0]), int(o_indptr[v1])
            if cw[e1] == cw[e0]:
                v0 = v1
                continue
            u = o_lid[e0:e1]
            vbase = np.repeat(np.arange(v1 - v0, dtype=np.int64) * V,
                              np.diff(o_indptr[v0:v1 + 1]))
            bkey = vbase + o_gid[e0:e1]
            bkey.sort()
            slots = _slot(bkey)
            table[slots] = 1
            w, lens = _gather_segments(adj, adj_indptr, u)
            cum = np.cumsum(lens)
            probe = np.repeat(vbase, lens)
            probe += w
            cand = np.flatnonzero(table.take(_slot(probe)))
            pc = probe[cand]
            ins = np.minimum(np.searchsorted(bkey, pc), len(bkey) - 1)
            hit = cand[bkey.take(ins) == pc]
            hits[0].append(probe[hit] // V + v0)
            hits[1].append(u[np.searchsorted(cum, hit, side="right")])
            hits[2].append(w[hit])
            table[slots] = 0
            v0 = v1
            pending += len(hit)
            if pending >= f.tvnum:
                self._add_hits(hits)
                hits, pending = [[], [], []], 0
        self._add_hits(hits)

    def _add_hits(self, hits):
        """+1 to all three corners of the collected hits (v lid, u lid,
        w gid) in one ``bincount``.  Called when the hits reach tvnum,
        which amortizes the tvnum-sized count and bounds their memory
        on triangle-dense graphs, and once at the end."""
        f = self.frag
        if not hits[0]:
            return
        w = np.concatenate(hits[2])
        w_lid = np.where((w >= f.lo) & (w < f.hi), w - f.lo,
                         f.ivnum + np.searchsorted(f.outer_gids, w))
        self.tricnt += np.bincount(
            np.concatenate(hits[0] + hits[1] + [w_lid]), minlength=f.tvnum)

    def output(self):
        return {
            "gid": self.frag.inner_gids(),
            "tricnt": self.tricnt[: self.frag.ivnum],
            "lcc": self.lcc,
        }

    def state_dict(self):
        arrays = {"tricnt": self.tricnt, "deg_full": self.deg_full}
        if self.stage >= 1:
            arrays["o_nbr_local_inner"] = self.o_nbr_local_inner
            arrays["o_nbr_gid_inner"] = self.o_nbr_gid_inner
            arrays["o_indptr"] = self.o_indptr
        if self.requested:
            arrays["req_parts"] = np.concatenate(
                [np.full(len(v), p, dtype=np.int64) for p, v in self.requested.items()]
            )
            arrays["req_lids"] = np.concatenate(list(self.requested.values()))
        if self.done:
            arrays["lcc"] = self.lcc
        return arrays, {"stage": self.stage, "done": bool(self.done)}

    def load_state(self, arrays, scalars):
        self.tricnt = arrays["tricnt"]
        self.deg_full = arrays["deg_full"]
        self.stage = int(scalars["stage"])
        self.done = bool(scalars["done"])
        if self.stage >= 1:
            self.o_nbr_local_inner = arrays["o_nbr_local_inner"]
            self.o_nbr_gid_inner = arrays["o_nbr_gid_inner"]
            self.o_indptr = arrays["o_indptr"]
        self.requested = {}
        if "req_parts" in arrays:
            rp, rl = arrays["req_parts"], arrays["req_lids"]
            for p in np.unique(rp):
                self.requested[int(p)] = rl[rp == p]
        if self.done:
            self.lcc = arrays["lcc"]
