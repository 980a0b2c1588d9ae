"""LCC / triangle counting — exact semantics of
examples/analytical_apps/lcc/lcc.h:50-246 in three supersteps:

1. degree exchange (mirror sync of undirected degree);
2. oriented-adjacency exchange: every vertex keeps neighbors with
   (deg, gid) strictly smaller than its own (lcc.h:108-121 orientation
   — the skew guard that bounds per-vertex fanout on zipfian graphs),
   owners ship the oriented lists of their exported mirrors
   (SendMsgThroughOEdges of msg_vec, lcc.h:122-124); then wedge
   expansion + membership test counts triangles, attributing +1 to all
   three corners (lcc.h:154-186);
3. mirror triangle-count sum-sync back to owners
   (SyncStateOnOuterVertex, lcc.h:188-199), then
   ``lcc = 2*t / (deg*(deg-1))`` (lcc.h:222-231).

Run on a graph built with ``symmetrize=True`` (undirected).  The wedge
expansion is fully vectorized and chunked to bound memory.
"""

from __future__ import annotations

import numpy as np

from .base import VertexProgram

# Wedge blocks keep every per-wedge temporary (and the block's
# membership key array — see _count_triangles) cache-resident AND let
# the allocator reuse the same heap pages across blocks (first-touch
# page faults are expensive — especially under lazily-backed VM
# memory, where an 8M-wedge chunk measured 13x slower than small
# chunks for identical work).  Python per-block overhead is ~10us.
_BLOCK_WEDGES = 524_288


def _gather_segments(data: np.ndarray, indptr: np.ndarray, ids: np.ndarray):
    """Concatenate data[indptr[i]:indptr[i+1]] for i in ids; returns
    (gathered, lens)."""
    lens = (indptr[ids + 1] - indptr[ids]).astype(np.int64)
    total = int(lens.sum())
    if total == 0:
        return data[:0], lens
    starts = np.repeat(indptr[ids], lens)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate([[0], np.cumsum(lens)[:-1]]), lens
    )
    return data[starts + offs], lens


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
                sel = gids[owners == q]
                # second column carries the requester id (payloads are
                # anonymous arrays; the owner needs to know who asked)
                out[int(q)] = (sel, np.full(len(sel), f.part, dtype=np.int64))
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
            self.requested = {}
            for m in msgs:
                if len(m[0]):
                    requester = int(m[1][0])
                    self.requested[requester] = np.asarray(m[0], dtype=np.int64) - f.lo
            self.stage = 2
            return 1
        if self.stage == 2:
            self.stage = 3
            self._count_triangles(msgs)
            return 1
        if self.stage == 3:
            if msgs:
                gids = np.concatenate([m[0] for m in msgs])
                cnts = np.concatenate([m[1] for m in msgs])
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
        """Keep neighbors with LARGER (deg, gid) — lcc.h:108-121's
        orientation.  This caps every oriented list at O(sqrt(m))
        (a hub keeps only its few larger-degree neighbors), which bounds
        wedge volume per vertex AND per partition on zipfian web graphs;
        the keep-smaller direction let mid-degree vertices expand hub
        lists and produced minutes-long wedge phases.

        Processed in bounded chunks: the E-sized gather/compare
        temporaries then reuse the same heap pages instead of
        first-touch-faulting ~10 fresh E-sized arrays (the faults, not
        the compute, dominated this stage)."""
        f = self.frag
        E = f.num_local_edges
        CH = 1 << 18
        keep = np.empty(E, dtype=bool)
        for s in range(0, E, CH):
            e = min(s + CH, E)
            idx = f.indices[s:e]
            src = f.src_of_edge[s:e]
            nd = self.deg_full[idx]
            vd = self.deg_full[src]
            inner = idx < f.ivnum
            nbr_gid = np.empty(e - s, dtype=np.int64)
            nbr_gid[inner] = f.lo + idx[inner]
            out_m = ~inner
            if out_m.any():
                nbr_gid[out_m] = f.outer_gids[idx[out_m] - f.ivnum]
            v_gid = f.lo + src
            keep[s:e] = (nd > vd) | ((nd == vd) & (nbr_gid > v_gid))
        o_src = f.src_of_edge[keep]
        lids = f.indices[keep].astype(np.int32)
        self.o_nbr_local_inner = lids
        inner = lids < f.ivnum
        gidn = np.empty(len(lids), dtype=np.int64)
        gidn[inner] = f.lo + lids[inner]
        out_m = ~inner
        if out_m.any():
            gidn[out_m] = f.outer_gids[lids[out_m] - f.ivnum]
        self.o_nbr_gid_inner = gidn
        lens = np.bincount(o_src, minlength=f.ivnum)
        self.o_indptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)

    def _count_triangles(self, msgs):
        """Wedge counting grouped by the wedge's INNER corner v, with
        per-block in-cache membership probes.

        A wedge (v, u, w) needs the oriented edges (v, u) and (u, w)
        and closes a triangle iff (v, w) is an oriented inner edge.
        The previous kernel enumerated wedges by adjacency ENTRY (u, w)
        and binary-searched every wedge's (v, w) key in the partition's
        FULL sorted oriented-edge array — ~22 DRAM-missing probe steps
        per wedge dominated the stage (~260ns/wedge measured).  This
        kernel instead walks v in blocks of ~512k wedges: the block's
        own oriented edges double as its membership key array, which is
        block-sized (L1/L2-resident), so each probe costs a dozen
        in-cache steps — 3x end-to-end on a 10.4M-wedge web fragment,
        bit-identical counts.  Per-wedge u is not materialized; a hit's
        entry is recovered by a searchsorted over cumulative expansion
        lengths, and v/w come from the probe key itself.

        Adjacency-by-u is unified across sources: inner u -> this
        partition's own oriented CSR (o_indptr/o_nbr), outer u -> the
        received mirror lists, translated once to local ids (non-local
        w dropped: the membership edge (v, w) requires w local, so such
        entries can never close a triangle here) and grouped by u with
        one stable radix argsort.  Reference semantics: lcc.h:154-186.
        """
        f = self.frag
        tv = f.tvnum
        novnum = len(f.outer_gids)
        o_nbr = self.o_nbr_local_inner
        o_indptr = self.o_indptr
        E = len(o_nbr)
        tric = self.tricnt
        n_wedges = 0

        # ---- received mirror lists -> by-u adjacency over outer lids
        ru_parts, rw_parts = [], []
        for m in msgs:
            u_gids = np.asarray(m[0], dtype=np.int64)
            w_gids = np.asarray(m[1], dtype=np.int64)
            if not len(u_gids):
                continue
            # u is one of OUR outer vertices (we requested it): rank in
            # the sorted outer_gids IS its local id - ivnum
            u_loc = np.searchsorted(f.outer_gids, u_gids) + f.ivnum
            # w: keep local only (inner or a known outer)
            w_inner = (w_gids >= f.lo) & (w_gids < f.hi)
            w_loc = np.empty(len(w_gids), dtype=np.int64)
            w_loc[w_inner] = w_gids[w_inner] - f.lo
            om = ~w_inner
            keep = w_inner.copy()
            if novnum and om.any():
                pos = np.minimum(np.searchsorted(f.outer_gids, w_gids[om]),
                                 novnum - 1)
                keep[om] = f.outer_gids[pos] == w_gids[om]
                w_loc[om] = f.ivnum + pos
            if keep.any():
                ru_parts.append(u_loc[keep].astype(np.int32))
                rw_parts.append(w_loc[keep].astype(np.int32))
        if ru_parts:
            ru = np.concatenate(ru_parts)
            rw = np.concatenate(rw_parts)
            order = np.argsort(ru, kind="stable")
            rw = rw[order]
            rcnt = np.bincount(ru.astype(np.int64) - f.ivnum, minlength=tv - f.ivnum)
        else:
            rw = np.empty(0, np.int32)
            rcnt = np.zeros(max(tv - f.ivnum, 0), np.int64)
        del ru_parts, rw_parts

        # unified adjacency: adj_w[adj_indptr[u]:adj_indptr[u+1]] for any
        # local u (inner -> own oriented list, outer -> received list)
        adj_w = np.concatenate([o_nbr, rw]) if len(rw) else o_nbr
        adj_indptr = np.empty(tv + 1, dtype=np.int64)
        adj_indptr[: f.ivnum + 1] = o_indptr
        if tv > f.ivnum:
            adj_indptr[f.ivnum + 1:] = E + np.cumsum(rcnt)
        udeg = np.diff(adj_indptr)

        if E:
            odeg = np.diff(o_indptr)
            # wedges per v drive the block bounds
            wpe = udeg[o_nbr]
            idx = np.minimum(o_indptr[:-1], E - 1)
            wpv = np.add.reduceat(wpe, idx)
            wpv[odeg == 0] = 0
            cum_wpv = np.cumsum(wpv)
            n_wedges = int(cum_wpv[-1])

        if E and n_wedges:
            v0 = 0
            taken = 0
            while v0 < f.ivnum:
                v1 = int(np.searchsorted(cum_wpv, taken + _BLOCK_WEDGES)) + 1
                v1 = min(v1, f.ivnum)
                taken = int(cum_wpv[v1 - 1])
                e0, e1 = int(o_indptr[v0]), int(o_indptr[v1])
                if e0 == e1:
                    v0 = v1
                    continue
                u_ent = o_nbr[e0:e1]
                odeg_b = odeg[v0:v1]
                # per-edge probe base (v - v0) * tv, reused for the
                # membership keys — v itself is never materialized
                vbase = np.repeat(
                    np.arange(v0, v1, dtype=np.int64) - v0, odeg_b) * tv
                bkey = vbase + u_ent
                bkey.sort()
                lens = udeg[u_ent]
                km = lens > 0
                u_k = u_ent[km]
                if len(u_k):
                    lens_k = lens[km]
                    vbase_k = vbase[km]
                    cum_k = np.cumsum(lens_k)
                    total = int(cum_k[-1])
                    starts = adj_indptr[u_k]
                    pos = np.repeat(
                        starts - np.concatenate([[0], cum_k[:-1]]), lens_k
                    ) + np.arange(total, dtype=np.int64)
                    w_w = adj_w[pos]
                    probe = np.repeat(vbase_k, lens_k)
                    probe += w_w
                    ins = np.minimum(np.searchsorted(bkey, probe),
                                     len(bkey) - 1)
                    member = bkey[ins] == probe
                    hit = np.flatnonzero(member)
                    if len(hit):
                        ent = np.searchsorted(cum_k, hit, side="right")
                        v_hit = probe[hit] // tv + v0
                        w_hit = w_w[hit].astype(np.int64)
                        hits = np.concatenate(
                            [v_hit, u_k[ent].astype(np.int64), w_hit])
                        tric += np.bincount(hits, minlength=tv)
                v0 = v1

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
