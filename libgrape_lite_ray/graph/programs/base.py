"""VertexProgram protocol + MinPropagation base.

The contract (driver round r = 1, 2, ...).  A program fills three
channels of round r's exchange:

1. ``mirror_values(r)`` -> inner value array or None.  If not None the
   driver syncs slices to every partition holding mirrors (the
   BatchShuffle dense exchange,
   grape/app/batch_shuffle_app_base.h:29-83).
2. ``mirror_push(r)`` -> outer-segment value array or None: the reverse
   dense channel, one contiguous slice per owner, no gids.
3. ``messages(r)`` -> {dst_part: tuple_of_np_arrays} sparse messages,
   already combined per destination (the combiner the reference applies
   via SyncBuffer aggregators, grape/parallel/sync_buffer.h:53-129).

Then ``update(r, outer_vals, msgs, pushes)`` -> active count.
``outer_vals`` is the assembled outer segment of the synced values
(or None when nothing was synced).  ``msgs`` and ``pushes`` are lists
of ``(source part, payload)`` pairs in ascending source order: a
message payload is the sender's tuple, a push payload the slice for
this owner, aligned with ``frag.export_lids[source]``.  The driver
terminates when the global active total is 0 (zero-pending
termination, grape/parallel/default_message_manager.h:324-350).

Global scalars travel on one channel (grape/communication/communicator.h
Sum): a program queues float partials with ``queue_global`` during
``init`` or ``update``; the driver reduces them in ascending partition
order and hands the aggregate to ``set_globals`` before the next
update (round 1 for partials queued in ``init``, which returns
nothing).  PageRank's dangling count is such an init-time partial.

``FixedRounds`` carries the fixed-round counter; ``state_arrays`` /
``state_scalars`` declare the attributes a checkpoint saves and
restores.
"""

from __future__ import annotations

import numpy as np

from ..fragment import Fragment

__all__ = ["VertexProgram", "FixedRounds", "MinPropagation"]


class VertexProgram:
    name = "base"
    # default rounds cap if caller gives none
    default_max_rounds = 10**9
    # checkpointed attribute names: arrays (one .npy each in the step's
    # array directory) and JSON scalars
    state_arrays: tuple[str, ...] = ()
    state_scalars: tuple[str, ...] = ()

    def __init__(self, frag: Fragment, **params):
        self.frag = frag
        self.params = params
        self._mut_ops: list[tuple] = []
        self._global_partials: dict[str, float] = {}
        self._pull_buf = None

    # per-superstep mutation (grape/app/mutation_context.h add_edge /
    # remove_edge + worker.h:176-187 processMutation) ----------------
    def queue_add_edge(self, src_gid: int, dst_gid: int, w: float = 0.0):
        """Queue an edge add/upsert (gid space) during ``update``; the
        driver routes it to the owner and applies it at the NEXT round's
        barrier, after that round's exchange is consumed."""
        self._mut_ops.append((0, int(src_gid), int(dst_gid), float(w)))

    def queue_del_edge(self, src_gid: int, dst_gid: int):
        self._mut_ops.append((1, int(src_gid), int(dst_gid), 0.0))

    def take_mutations(self):
        """Driver hook: drain queued ops as packed arrays (or None)."""
        if not self._mut_ops:
            return None
        ops = self._mut_ops
        self._mut_ops = []
        a = np.asarray(ops, dtype=np.float64)
        return {"op": a[:, 0].astype(np.int8), "src": a[:, 1].astype(np.int64),
                "dst": a[:, 2].astype(np.int64), "w": a[:, 3]}

    # Communicator scalars (grape/communication/communicator.h Sum,
    # from init and every round) ------------------------------------
    def queue_global(self, key: str, value: float):
        """Queue a float partial during ``init`` or ``update``; the
        driver value-sums partials across ALL fragments in partition
        order after the barrier and delivers the aggregate to every
        program via ``set_globals`` BEFORE the NEXT round's update
        (one-round-delayed global reduction — see
        driver.FragmentHost.step)."""
        self._global_partials[key] = self._global_partials.get(key, 0.0) + float(value)

    def take_globals(self):
        """Driver hook: drain queued global partials (or None)."""
        if not self._global_partials:
            return None
        g = self._global_partials
        self._global_partials = {}
        return g

    def on_mutation(self, old_outer_gids: np.ndarray) -> int:
        """Called after the hosting fragment's CSR was rebuilt by a
        mutation batch.  Remap any tvnum-sized state from the old outer
        layout (``old_outer_gids``) to ``self.frag.outer_gids`` and
        return an extra active count (>0 re-arms a converged program).
        Programs that keep no outer state can return 0."""
        raise NotImplementedError(
            f"program {self.name!r} does not support per-superstep "
            "mutation (no on_mutation state remap)")

    # lifecycle ------------------------------------------------------
    def init(self):
        pass

    def set_globals(self, agg: dict):
        pass

    def mirror_values(self, rnd: int):
        return None

    def mirror_push(self, rnd: int):
        """Dense reverse sync (mirror holder -> owner): return the full
        outer-segment value array to ship as contiguous per-owner
        slices (no gids — the owner applies it through its registered
        export lids), or None to use sparse ``messages`` instead.  The
        BatchShuffle dense exchange
        (batch_shuffle_message_manager.h:225-285) in the push
        direction."""
        return None

    def messages(self, rnd: int) -> dict[int, tuple]:
        return {}

    def update(self, rnd: int, outer_vals, msgs: list[tuple],
               pushes: list[tuple] = ()) -> int:
        """Apply round ``rnd``'s exchange; ``msgs`` and ``pushes`` are
        ``(source part, payload)`` pairs (see the module docstring)."""
        raise NotImplementedError

    def output(self) -> dict[str, np.ndarray]:
        raise NotImplementedError

    # shared kernels -------------------------------------------------
    def pull(self, inner: np.ndarray, outer_vals) -> np.ndarray:
        """Per-edge neighbor values for a dense pull: ``inner`` plus the
        mirror-synced ``outer_vals`` (zeros when no sync arrived)
        assembled into a reused tvnum buffer, gathered in CSR order."""
        f = self.frag
        buf = self._pull_buf
        if buf is None or len(buf) != f.tvnum or buf.dtype != inner.dtype:
            buf = self._pull_buf = np.empty(f.tvnum, dtype=inner.dtype)
        buf[: f.ivnum] = inner
        buf[f.ivnum:] = 0 if outer_vals is None else outer_vals
        return buf[f.indices]

    def sum_pushes(self, inner: np.ndarray, pushes) -> np.ndarray:
        """Owner side of the dense mirror-push channel: a copy of the
        local partials ``inner`` plus every received per-owner slice,
        added through ``export_lids`` in source-partition order."""
        sums = inner.copy()
        for q, vv in pushes:
            sums[self.frag.export_lids[q]] += vv
        return sums

    # checkpointing --------------------------------------------------
    def state_dict(self) -> tuple[dict, dict]:
        """(arrays, scalars) capturing everything across-round: the
        attributes named in ``state_arrays`` / ``state_scalars``."""
        return ({k: getattr(self, k) for k in self.state_arrays},
                {k: getattr(self, k) for k in self.state_scalars})

    def load_state(self, arrays: dict, scalars: dict):
        """Restore the declared attributes; programs with derived data
        override this, call ``super()`` first and rebuild the rest."""
        for k in self.state_arrays:
            setattr(self, k, arrays[k])
        for k in self.state_scalars:
            setattr(self, k, scalars[k])


class FixedRounds(VertexProgram):
    """Base for programs that run exactly ``rounds`` update steps: owns
    the step counter and the ``done`` flag (and checkpoints both)."""

    state_scalars = ("step", "done")

    def __init__(self, frag: Fragment, rounds: int = 10, **params):
        super().__init__(frag, **params)
        self.rounds = int(rounds)
        self.step = 0
        self.done = self.rounds <= 0

    def tick(self) -> bool:
        """Advance the step counter; True (with ``done`` set) when the
        step just taken was the last round."""
        self.step += 1
        self.done = self.step >= self.rounds
        return self.done


class MinPropagation(VertexProgram):
    """Shared engine for WCC / BFS / SSSP: monotone min state propagated
    push-style along out-edges, with per-partition local fixpoint per
    superstep and min-combined mirror messages
    (wcc/wcc.h PropagateLabelPush + sssp/sssp.h relax analog).

    Subclasses define ``_init_vals`` and ``_relax(edge_src_vals)``.
    """

    dtype = np.int64
    inf = np.iinfo(np.int64).max // 2
    # cap per-round local sweeps: long in-partition chains otherwise run
    # O(local diameter) full-edge sweeps inside ONE superstep; the BSP
    # exchange converges globally anyway with bounded, cheaper rounds.
    max_local_iters = 10
    # DENSE sweeps read every edge — at most this many per superstep.
    # Partitions whose labels settle slowly otherwise run up to
    # max_local_iters full-edge sweeps and straggle the whole round
    # (3-4x observed on the 100M-edge web graph); sparse sweeps are
    # frontier-proportional and stay cheap, so they keep the bigger cap.
    max_dense_sweeps = 1
    # when more than this fraction of mirrors changed, exchange via the
    # DENSE mirror-push channel (contiguous value slices, no gids: half
    # the bytes of (gid,val) pairs and a direct vectorized min at the
    # owner) instead of sparse messages — the push/pull density switch
    # applied to the exchange itself
    dense_push_frac = 0.05

    def _init_vals(self) -> np.ndarray:
        raise NotImplementedError

    def _relax(self, src_vals: np.ndarray, edge_idx: np.ndarray | None = None) -> np.ndarray:
        """Per-edge candidate value for the edge's destination.
        ``edge_idx=None`` means all edges in CSR order."""
        return src_vals

    def _relax_csc(self, src_vals: np.ndarray) -> np.ndarray:
        """Dense-sweep relax with per-edge values in CSC (target-sorted)
        order; programs whose relax reads edge data override this to use
        the CSC-permuted copy (e.g. SSSP's ``w_by_tgt``)."""
        return self._relax(src_vals, None)

    def init(self):
        f = self.frag
        self.vals = self._init_vals()  # full length tvnum
        self.pending = np.zeros(f.ovnum, dtype=bool)
        self._dirty = True  # force a first local fixpoint in round 1
        self._resume_frontier = None

    def _local_fixpoint(self, frontier: np.ndarray | None = None):
        """Propagate to a per-partition fixpoint.  Dense sweeps
        (reduceat over all edges) while the frontier is wide, switching
        to frontier-only scatter when it narrows — the reference's
        push/pull density switch (wcc/wcc.h:198-208 rate > 0.1)."""
        f = self.frag
        vals = self.vals
        if frontier is None:
            frontier = np.arange(f.ivnum, dtype=np.int64)
        iters = 0
        dense_left = self.max_dense_sweeps
        # after the first sweep, keep iterating locally only while the
        # sweep is CHEAP (frontier edge mass under ~E/16): on big dense
        # partitions extra mid-width sweeps cost more than the extra BSP
        # round they save (rounds are one dense-push exchange, ~0.3s),
        # while on small graphs the floor keeps the old collapse-local-
        # chains behavior where a round costs more than many sweeps
        cheap_budget = max(f.num_local_edges >> 4, 65536)
        while len(frontier):
            iters += 1
            if iters > self.max_local_iters:
                # leave the rest to later supersteps; re-arm the dirty
                # flag so the next update resumes the local frontier
                self._resume_frontier = frontier
                break
            # switch on the frontier's EDGE mass, not vertex count — a
            # frontier containing one hub can cover most of the edges
            fe = int((f.indptr[frontier + 1] - f.indptr[frontier]).sum())
            if fe * 4 > f.num_local_edges:
                if dense_left <= 0:
                    self._resume_frontier = frontier
                    break
                dense_left -= 1
                ids = f.push_min_track_csc(vals, self._relax_csc(vals[f.src_by_tgt]))
            elif iters > 1 and fe > cheap_budget:
                self._resume_frontier = frontier
                break
            else:
                eidx, lens = f.gather_edges(frontier)
                if len(eidx) == 0:
                    break
                tgts = f.indices[eidx]
                cand = self._relax(vals[np.repeat(frontier, lens)], eidx)
                # sort+reduceat min-combine (np.minimum.at is ~10x slower)
                order = np.argsort(tgts, kind="stable")
                st, sc = tgts[order], cand[order]
                uniq_t, starts_t = np.unique(st, return_index=True)
                mins = np.minimum.reduceat(sc, starts_t)
                mask = mins < vals[uniq_t]
                ids = uniq_t[mask]
                vals[ids] = mins[mask]
            outer = ids[ids >= f.ivnum]
            self.pending[outer - f.ivnum] = True
            frontier = ids[ids < f.ivnum]

    def mirror_push(self, rnd: int):
        f = self.frag
        if f.ovnum and int(self.pending.sum()) >= self.dense_push_frac * f.ovnum:
            self.pending[:] = False
            return self.vals[f.ivnum:]
        return None

    def messages(self, rnd: int) -> dict[int, tuple]:
        f = self.frag
        out = {}
        if self.pending.any():
            for q in range(f.num_parts):
                a, b = f.mirror_bounds[q], f.mirror_bounds[q + 1]
                m = self.pending[a:b]
                if m.any():
                    gids = f.outer_gids[a:b][m]
                    v = self.vals[f.ivnum + a: f.ivnum + b][m]
                    out[q] = (gids, v)
            self.pending[:] = False
        return out

    def update(self, rnd: int, outer_vals, msgs: list[tuple],
               pushes: list[tuple] = ()) -> int:
        f = self.frag
        changed = 0
        frontier = None
        fronts = []
        for q, vv in pushes:
            # dense push: vv aligns with export_lids[q] (the requester's
            # sorted mirror list for us) — one vectorized compare+assign
            lids = f.export_lids[q]
            cur = self.vals[lids]
            m = vv < cur
            if m.any():
                hit = lids[m]
                self.vals[hit] = vv[m]
                fronts.append(hit)
        if msgs:
            gids = np.concatenate([m[0] for _, m in msgs])
            vv = np.concatenate([m[1] for _, m in msgs])
            lids = np.unique(gids - f.lo)
            before = self.vals[lids].copy()
            np.minimum.at(self.vals, gids - f.lo, vv)
            fronts.append(lids[self.vals[lids] < before])
        if fronts:
            frontier = fronts[0] if len(fronts) == 1 else \
                np.unique(np.concatenate(fronts))
            changed = len(frontier)
        resume = self._resume_frontier
        self._resume_frontier = None
        if self._dirty:
            self._dirty = False
            self._local_fixpoint(None)
        elif changed or resume is not None:
            if resume is not None:
                frontier = resume if frontier is None else np.union1d(frontier, resume)
            self._local_fixpoint(frontier)
        leftover = 0 if self._resume_frontier is None else len(self._resume_frontier)
        return changed + int(self.pending.sum()) + leftover

    def on_mutation(self, old_outer_gids: np.ndarray) -> int:
        """Remap min-state onto the rebuilt fragment: inner values are
        lid-stable (the vertex universe is fixed); surviving mirrors
        carry their value over, new mirrors start at inf.  Re-arms a
        full local fixpoint so added edges propagate — for the monotone
        min programs (WCC/BFS/SSSP) continuing after an edge ADD reaches
        the same fixpoint as a fresh run on the mutated graph (deletes
        rebuild topology but never retract already-propagated minima;
        same caveat as the reference's app-defined mutation semantics)."""
        f = self.frag
        old_vals = self.vals
        new_vals = np.full(f.tvnum, self.inf, dtype=self.dtype)
        new_vals[: f.ivnum] = old_vals[: f.ivnum]
        old_outer_gids = np.asarray(old_outer_gids, np.int64)
        if len(old_outer_gids) and f.ovnum:
            pos = np.searchsorted(f.outer_gids, old_outer_gids)
            pos_c = np.minimum(pos, f.ovnum - 1)
            alive = np.asarray(f.outer_gids)[pos_c] == old_outer_gids
            new_vals[f.ivnum + pos_c[alive]] = old_vals[f.ivnum:][alive]
        self.vals = new_vals
        self.pending = np.zeros(f.ovnum, dtype=bool)
        self._dirty = True
        self._resume_frontier = None
        return 1

    def state_dict(self):
        rf = self._resume_frontier
        return (
            {"vals": self.vals, "pending": self.pending,
             "resume_frontier": rf if rf is not None else np.empty(0, np.int64)},
            {"dirty": bool(self._dirty), "has_resume": rf is not None},
        )

    def load_state(self, arrays, scalars):
        self.vals = arrays["vals"]
        self.pending = arrays["pending"].astype(bool)
        self._dirty = bool(scalars.get("dirty", False))
        self._resume_frontier = (
            arrays["resume_frontier"].astype(np.int64)
            if scalars.get("has_resume") else None
        )
