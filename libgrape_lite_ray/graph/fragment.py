"""Fragment: one contiguous-gid-range partition of the graph held as a
CSR block with mirror (outer-vertex) bookkeeping — the Ray-native
analog of grape/fragment/immutable_edgecut_fragment.h:69-301.

Layout (all NumPy, built once per actor from the partitioned Parquet
spool, cf. ImmutableEdgecutFragment::Init):

- inner vertices: gids ``[lo, hi)``; local id = gid - lo.
- ``indptr/indices``: CSR of out-edges of inner vertices; neighbor
  local index < ivnum for inner, else ``ivnum + rank`` in the sorted
  ``outer_gids`` array (ovg2l analog,
  immutable_edgecut_fragment.h:399-411).
- per-vertex neighbor lists are sorted by gid (immutable_csr.h:100-107)
  which also makes float reductions order-stable across partition
  counts.
- ``outer_gids`` sorted ascending; because partitions are contiguous
  gid ranges, mirrors of one owner form a contiguous slice — mirror
  request lists (csr_edgecut_fragment_base.h:228-268 IOEDests analog)
  are free.
- a CSC-style transpose (``src_by_tgt/tgt_starts/tgt_unique``, edges
  grouped by target) built once for vectorized push-style updates
  (np.minimum/add.reduceat over values already in that order).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..ids import part_of

__all__ = ["Fragment", "merge_edge_ops", "save_arrays", "load_arrays",
           "carried_snapshots"]

_SNAP_ARRAYS = ("indices", "indptr", "outer_gids",
                "tgt_starts", "tgt_unique", "out_degree",
                "src_by_tgt", "src_of_edge")


def merge_edge_ops(cur_src, cur_dst, cur_w, op, src, dst, w, V: int):
    """Apply a batch of edge ops to a gid-space edge list, last op wins
    per (src, dst) key: the one merge behind ``mutate_graph`` and the
    per-superstep ``Fragment.apply_edge_mutations``.

    ``op``: int8 codes (0=add/upsert, 1=delete), in arrival order.
    Every current row whose key an op touches is dropped (multi-edge
    weighted keys: a delete drops every copy, an upsert replaces them
    with one row); then each key whose last op is an add appends one
    row with that op's weight.  Returns ``(src, dst, w | None)``: the
    untouched current rows in their order, then the added rows in key
    order.  ``cur_w`` None means an unweighted list."""
    if V > 3_000_000_000:
        raise NotImplementedError("int64 (src*V+dst) keying needs review beyond 3e9 vertices")
    key = np.asarray(src, np.int64) * V + np.asarray(dst, np.int64)
    order = np.argsort(key, kind="stable")
    k_s = key[order]
    last = np.ones(len(k_s), bool)
    last[:-1] = k_s[1:] != k_s[:-1]
    key_f, pick = k_s[last], order[last]
    add = pick[np.asarray(op)[pick] == 0]
    cur_key = cur_src * V + cur_dst
    if len(key_f):
        keep = key_f[np.minimum(np.searchsorted(key_f, cur_key), len(key_f) - 1)] != cur_key
    else:
        keep = np.ones(len(cur_key), bool)
    return (np.concatenate([cur_src[keep], src[add]]),
            np.concatenate([cur_dst[keep], dst[add]]),
            np.concatenate([cur_w[keep], w[add]]) if cur_w is not None else None)


def save_arrays(path: str, arrays: dict, scalars: dict | None = None,
                replace: bool = False) -> None:
    """Write one array directory: ``{name}.npy`` per array, plus
    ``scalars.json`` when ``scalars`` is given, into
    ``<path>.tmp-<pid>`` and renamed to ``path`` in one step, so a torn
    write is never visible.  The one persistence format of CSR
    snapshots and superstep checkpoints (the reference's
    Serialize/Deserialize, immutable_edgecut_fragment.h:303-376).

    An existing ``path`` makes the rename fail (``OSError``): a
    concurrent writer that published first keeps its dir.  With
    ``replace`` the existing dir is removed first (a resumed run
    re-writing a step that has no manifest)."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        os.makedirs(tmp, exist_ok=True)
        for k, v in arrays.items():
            np.save(os.path.join(tmp, f"{k}.npy"), v, allow_pickle=False)
        if scalars is not None:
            with open(os.path.join(tmp, "scalars.json"), "w") as f:
                json.dump(scalars, f)
        if replace:
            shutil.rmtree(path, ignore_errors=True)
        os.rename(tmp, path)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def load_arrays(path: str, mmap: bool = False) -> tuple[dict, dict | None]:
    """Read a ``save_arrays`` directory: ``({name: array}, scalars or
    None)``.  ``mmap`` maps the arrays read-only (file-backed pages
    come from the page cache and are shared across processes); without
    it every array is a private, writable copy."""
    arrays = {}
    for f in sorted(os.listdir(path)):
        if not f.endswith(".npy"):
            continue
        p = os.path.join(path, f)
        try:
            arrays[f[:-4]] = np.load(p, mmap_mode="r" if mmap else None,
                                     allow_pickle=False)
        except ValueError:  # zero-length mmap: plain read
            arrays[f[:-4]] = np.load(p, allow_pickle=False)
    sp = os.path.join(path, "scalars.json")
    if not os.path.exists(sp):
        return arrays, None
    with open(sp) as f:
        return arrays, json.load(f)


def carried_snapshots(src_work: str, dst_work: str, parts) -> list[tuple[str, str]]:
    """``(source dir, target dir)`` of every published CSR snapshot of
    ``parts`` in ``src_work``, for a graph dir whose spool files of those
    partitions are the same (same names and sizes, so the fingerprints
    still match)."""
    return [(d, os.path.join(dst_work, "snapshot", os.path.basename(d)))
            for p in parts
            for d in glob.glob(os.path.join(src_work, "snapshot", f"part={p}-*"))
            if ".tmp-" not in os.path.basename(d)]


class Fragment:
    def __init__(self, part_id: int, work_dir: str, starts: np.ndarray,
                 has_weights: bool = False,
                 vdata_cols: list[str] | None = None):
        self.part = int(part_id)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.num_parts = len(self.starts) - 1
        self.lo = int(self.starts[self.part])
        self.hi = int(self.starts[self.part + 1])
        self.ivnum = self.hi - self.lo
        self.has_weights = has_weights

        files = sorted(glob.glob(os.path.join(work_dir, "edges", f"part={self.part}", "*.parquet")))
        # snapshot fast path (Serialize/Deserialize analog,
        # immutable_edgecut_fragment.h:303-376): the finished CSR +
        # transpose arrays are persisted once per partition, keyed by a
        # fingerprint of the spool file list, and later loads skip the
        # parquet read / sort / unique / transpose build entirely.
        self._snap_path = self._snapshot_path(work_dir, files)
        if self._snap_path and os.path.isdir(self._snap_path):
            if self._load_snapshot():
                self._load_vdata(work_dir, vdata_cols)
                return
            # schema drift (snapshot from an older layout): rebuild
            shutil.rmtree(self._snap_path, ignore_errors=True)
        if files:
            cols = ["src_gid", "dst_gid"] + (["w"] if has_weights else [])
            # use_threads=False: each fragment actor holds a fractional
            # CPU; Arrow's default per-process thread pool (one thread
            # per core, PER ACTOR) oversubscribes the node ~32x and made
            # the parallel load SLOWER than a sequential one
            t = pa.concat_tables([pq.read_table(f, columns=cols, use_threads=False)
                                  for f in files])
            src = t.column("src_gid").to_numpy(zero_copy_only=False).astype(np.int64)
            dst = t.column("dst_gid").to_numpy(zero_copy_only=False).astype(np.int64)
            w = t.column("w").to_numpy(zero_copy_only=False).astype(np.float64) if has_weights else None
        else:
            src = np.empty(0, np.int64)
            dst = np.empty(0, np.int64)
            w = np.empty(0, np.float64) if has_weights else None

        self._finalize(src, dst, w)
        # snapshot write is ASYNC: ~50-100MB of arrays per partition
        # would otherwise serialize into every FIRST load (5s+ across an
        # actor pool).  tmp-dir + atomic rename keeps a torn write
        # invisible — worst case the next load just rebuilds.
        self._snap_thread = threading.Thread(target=self._write_snapshot, daemon=True)
        self._snap_thread.start()
        self._load_vdata(work_dir, vdata_cols)

    # ---------------------------------------------------------- snapshot
    def _snapshot_path(self, work_dir: str, files: list[str]) -> str | None:
        """Snapshot DIRECTORY keyed by a fingerprint of the spool file
        list (names + sizes): any rebuild of the spool changes the
        uuid-named files, so a stale snapshot can never be read for
        fresh data.  One raw ``.npy`` per array so reloads can
        memory-map (``mmap_mode='r'``): file-backed pages come from the
        page cache instead of fresh anonymous memory — on virtualized
        hosts (see memtune) a cold anonymous refault costs ~40us/page,
        so mapping a still-cached snapshot is 10-100x faster than
        np.load-into-heap, and it is shared read-only across processes.
        The reference analog is Serialize/Deserialize
        (immutable_edgecut_fragment.h:303-376)."""
        if not files:
            return None
        h = hashlib.md5()
        for f in files:
            h.update(os.path.basename(f).encode())
            h.update(str(os.path.getsize(f)).encode())
        return os.path.join(work_dir, "snapshot",
                            f"part={self.part}-{h.hexdigest()[:16]}")

    def _write_snapshot(self):
        if self._snap_path is None or os.path.isdir(self._snap_path):
            return
        os.makedirs(os.path.dirname(self._snap_path), exist_ok=True)
        # drop stale snapshots of this partition (older spool versions).
        # Skip ALL in-flight tmp dirs regardless of fingerprint — a
        # concurrent writer for a DIFFERENT fingerprint must not have
        # its tmp dir rmtree'd mid-write; orphans (killed writers) are
        # instead age-gated so they can't accumulate forever.
        for old in glob.glob(os.path.join(
                os.path.dirname(self._snap_path), f"part={self.part}-*")):
            if old == self._snap_path:
                continue
            if ".tmp-" in os.path.basename(old):
                try:  # orphaned tmp of a killed writer: reap after 1h
                    if time.time() - os.path.getmtime(old) < 3600:
                        continue
                except OSError:
                    continue
            shutil.rmtree(old, ignore_errors=True)
        arrays = {k: getattr(self, k) for k in _SNAP_ARRAYS}
        if self.edge_w is not None:
            arrays["edge_w"] = self.edge_w
            arrays["w_by_tgt"] = self.w_by_tgt
        # a torn write is invisible — the next load just rebuilds from
        # the spool.  Fenced: a concurrent reaper removing the tmp dir
        # mid-write must not crash the daemon thread, and a concurrent
        # writer that published first keeps its dir.
        try:
            save_arrays(self._snap_path, arrays)
        except OSError:
            pass

    def _load_snapshot(self) -> bool:
        loaded, _ = load_arrays(self._snap_path, mmap=True)
        if any(k not in loaded for k in _SNAP_ARRAYS):
            return False  # older snapshot layout: rebuild
        for k in _SNAP_ARRAYS:
            setattr(self, k, loaded[k])
        self.edge_w = loaded.get("edge_w")
        self.w_by_tgt = loaded.get("w_by_tgt")
        self.num_local_edges = len(self.indices)
        self.ovnum = len(self.outer_gids)
        self.tvnum = self.ivnum + self.ovnum
        self.mirror_bounds = np.searchsorted(self.outer_gids, self.starts)
        self.export_lids = {}
        # pre-fault every mapped array (one sequential pass each): pages
        # are otherwise faulted lazily DURING the first superstep, which
        # showed up as 5s+ straggler rounds.  Reads come from the page
        # cache (or disk at sequential speed) — never cold anon memory.
        for v in loaded.values():
            np.asarray(v).sum()
        return True

    def _load_vdata(self, work_dir: str, vdata_cols):
        # per-vertex property columns (VDATA,
        # immutable_edgecut_fragment.h:109-114): dense inner arrays now;
        # the outer (mirror) segment is filled by the engine's one-time
        # vdata sync (vdata_full, len tvnum)
        self.vdata: dict[str, np.ndarray] = {}
        self.vdata_full: dict[str, np.ndarray] = {}
        if not vdata_cols:
            return
        vfiles = sorted(glob.glob(os.path.join(
            work_dir, "vdata", f"part={self.part}", "*.parquet")))
        if vfiles:
            vt = pa.concat_tables([pq.read_table(f, columns=["gid"] + list(vdata_cols),
                                                 use_threads=False)
                                   for f in vfiles])
            vg = vt.column("gid").to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            vt, vg = None, np.empty(0, np.int64)
        for c in vdata_cols:
            # dtype-aware (reference VDATA_T is any POD incl. strings,
            # grape/types.h:30-39): string columns load as object
            # arrays with "" for absent vertices; everything numeric
            # stays the float64 dense path
            is_str = (vt is not None
                      and pa.types.is_string(vt.schema.field(c).type))
            if is_str:
                dense = np.full(self.ivnum, "", dtype=object)
                if len(vg):
                    dense[vg - self.lo] = np.asarray(
                        vt.column(c).to_pylist(), dtype=object)
                full = np.full(self.tvnum, "", dtype=object)
            else:
                dense = np.zeros(self.ivnum, dtype=np.float64)
                if vt is not None and len(vg):
                    vals = vt.column(c).to_numpy(zero_copy_only=False)
                    dense[vg - self.lo] = vals.astype(np.float64)
                # until synced, vdata_full has zeros in the outer segment
                full = np.zeros(self.tvnum, dtype=np.float64)
            self.vdata[c] = dense
            full[: self.ivnum] = dense
            self.vdata_full[c] = full

    # ---------------------------------------------------------- CSR build
    def _finalize(self, src: np.ndarray, dst: np.ndarray, w):
        """Build every derived array (CSR, transpose, mirror layout)
        from gid-space edge arrays in any order.  Shared by the spool
        load path and in-place mutation rebuilds
        (``apply_edge_mutations``).

        Sorts by (src, dst) — immutable_csr.h:100-107 neighbour order —
        then dedups unless weighted.  Weighted multi-edges tie-break on
        the weight, so their order (and any float sum over them) does
        not depend on spool file order."""
        if len(src) > 1:
            order = np.lexsort((dst, src) if w is None else (w, dst, src))
            src, dst = src[order], dst[order]
            if w is not None:
                w = w[order]
        if w is None and len(src):
            keep = np.empty(len(src), dtype=bool)
            keep[0] = True
            np.logical_or(src[1:] != src[:-1], dst[1:] != dst[:-1], out=keep[1:])
            src, dst = src[keep], dst[keep]

        self.num_local_edges = len(src)
        inner_mask = (dst >= self.lo) & (dst < self.hi)
        self.outer_gids = np.unique(dst[~inner_mask])
        self.ovnum = len(self.outer_gids)
        self.tvnum = self.ivnum + self.ovnum

        # int32 local indices when they fit: the per-round gathers over
        # these arrays are memory-bandwidth bound — 4-byte indices halve
        # the traffic (int64 fallback for >2B-row partitions)
        idx_t = np.int32 if self.tvnum < 2**31 - 2 and len(dst) < 2**31 - 2 else np.int64
        indices = np.empty(len(dst), dtype=idx_t)
        indices[inner_mask] = dst[inner_mask] - self.lo
        indices[~inner_mask] = self.ivnum + np.searchsorted(self.outer_gids, dst[~inner_mask])
        self.indices = indices
        self.edge_w = w

        rowlens = np.bincount(src - self.lo, minlength=self.ivnum).astype(np.int64)
        self.indptr = np.concatenate([[0], np.cumsum(rowlens)])
        self.out_degree = rowlens  # post-dedup local out-degree (== global:
        # all out-edges of an inner vertex are routed here, ev_fragment_loader.h)
        self.src_of_edge = np.repeat(np.arange(self.ivnum, dtype=idx_t), rowlens)

        # transpose structure for push-style per-destination reductions
        tgt_order = np.argsort(indices, kind="stable").astype(idx_t)
        self.tgt_unique, self.tgt_starts = np.unique(indices[tgt_order], return_index=True)
        # CSC-ordered source ids + weights: a push sweep does ONE gather
        # (vals[src_by_tgt]) instead of gather+permute — the superstep
        # kernels are memory-bandwidth bound, so this is a direct
        # wall-time cut on WCC/SSSP/BFS
        self.src_by_tgt = self.src_of_edge[tgt_order]
        self.w_by_tgt = w[tgt_order] if w is not None else None

        # mirror slices per owner partition (contiguous in outer_gids)
        self.mirror_bounds = np.searchsorted(self.outer_gids, self.starts)
        # incoming mirror requests: requester part -> inner lids to export
        self.export_lids: dict[int, np.ndarray] = {}

    def edge_list(self):
        """Current edges back in gid space: (src, dst, w|None).  The
        inverse of ``_finalize`` — used by in-place mutation rebuilds."""
        idx = np.asarray(self.indices, np.int64)
        src = self.lo + np.asarray(self.src_of_edge, np.int64)
        dst = np.where(idx < self.ivnum, self.lo + idx, 0)
        m = idx >= self.ivnum
        if m.any():
            dst[m] = np.asarray(self.outer_gids, np.int64)[idx[m] - self.ivnum]
        w = np.array(self.edge_w, np.float64) if self.edge_w is not None else None
        return src, dst, w

    def apply_edge_mutations(self, op: np.ndarray, src: np.ndarray,
                             dst: np.ndarray, w: np.ndarray) -> None:
        """Apply a batch of edge ops to this fragment IN MEMORY and
        rebuild the derived arrays — the per-superstep mutation analog
        of grape/fragment/basic_fragment_mutator.h applied by
        Worker::processMutation (grape/worker/worker.h:176-187).

        ``op``: int8 codes (0=add/upsert, 1=delete); src/dst in gid
        space, already routed so every src is inner here; merged by
        ``merge_edge_ops``, as mutate.py merges a spool.  The rebuild is
        in-memory only — snapshots/spool are untouched, so a NEW engine
        on the same work_dir sees the pre-mutation graph (durable
        mutation is mutate_graph's job).
        """
        ns, nd, nw = merge_edge_ops(*self.edge_list(), op, src, dst, w,
                                    int(self.starts[-1]))
        t = getattr(self, "_snap_thread", None)
        if t is not None and t.is_alive():
            t.join()  # writer reads _snap_path; let the PRE-mutation
            # snapshot finish (it matches the spool, so it stays valid)
        self._snap_path = None  # mutated CSR must never shadow the spool
        self._finalize(ns, nd, nw)
        # vdata_full buffers are tvnum-sized: re-seat the inner segment;
        # the engine re-syncs the outer (mirror) segment after the
        # fleet-wide mirror re-registration
        for c, dense in self.vdata.items():
            full = (np.full(self.tvnum, "", dtype=object)
                    if dense.dtype == object
                    else np.zeros(self.tvnum, dtype=dense.dtype))
            full[: self.ivnum] = dense
            self.vdata_full[c] = full

    # ---------------------------------------------------------- id helpers
    def inner_gids(self) -> np.ndarray:
        return np.arange(self.lo, self.hi, dtype=np.int64)

    def all_gids(self) -> np.ndarray:
        return np.concatenate([self.inner_gids(), self.outer_gids])

    def owner_of(self, gids: np.ndarray) -> np.ndarray:
        return part_of(gids, self.starts)

    # ---------------------------------------------------------- mirrors
    def mirror_requests(self) -> dict[int, np.ndarray]:
        """{owner_part: gids we hold as mirrors} (contiguous slices)."""
        out = {}
        for q in range(self.num_parts):
            a, b = self.mirror_bounds[q], self.mirror_bounds[q + 1]
            if b > a:
                out[q] = self.outer_gids[a:b]
        return out

    def register_requests(self, reqs: dict[int, np.ndarray]):
        """Owner side: remember which inner values each requester needs."""
        for requester, gids in reqs.items():
            self.export_lids[int(requester)] = np.asarray(gids, dtype=np.int64) - self.lo

    def place_outer(self, outer: np.ndarray, pairs) -> None:
        """Write each ``(owner part, slice)`` of ``pairs`` into its
        contiguous mirror range of the outer-segment buffer ``outer``
        (len ovnum): the consumer side of the sync channel and the
        vdata sync."""
        for q, vals in pairs:
            outer[self.mirror_bounds[q]: self.mirror_bounds[q + 1]] = vals

    def export_values(self, values: np.ndarray) -> dict[int, np.ndarray]:
        """Dense mirror sync (batch_shuffle_message_manager.h:225-285
        SyncInnerVertices analog): slice inner `values` per requester."""
        return {p: values[lids] for p, lids in self.export_lids.items()}

    # ---------------------------------------------------------- kernels
    def segment_sum(self, edge_vals: np.ndarray) -> np.ndarray:
        """Per-inner-vertex sum of per-edge values in CSR order.

        Uses reduceat with the empty-segment fix so results are bitwise
        identical for any partitioning (each vertex's adjacency is
        complete and sorted locally)."""
        out = np.zeros(self.ivnum, dtype=np.float64)
        if len(edge_vals) == 0:
            return out
        starts = self.indptr[:-1]
        valid = self.indptr[1:] > starts
        # reduceat over NON-EMPTY segment starts only: consecutive valid
        # starts are adjacent in edge space, so each output spans exactly
        # its own segment.  (Clamping empty trailing starts to len-1 —
        # the previous approach — silently truncated the LAST vertex's
        # final edge whenever a later vertex had zero edges.)
        sums = np.add.reduceat(edge_vals, starts[valid])
        out[valid] = sums
        return out

    def push_min_track_csc(self, buf: np.ndarray, edge_vals_csc: np.ndarray) -> np.ndarray:
        """buf[target] = min(buf[target], its in-edges' values) for values
        ALREADY in CSC order; returns the local ids whose value dropped
        (no full-array snapshot+compare per fixpoint sweep)."""
        if len(edge_vals_csc) == 0:
            return np.empty(0, np.int64)
        mins = np.minimum.reduceat(edge_vals_csc, self.tgt_starts)
        cur = buf[self.tgt_unique]
        mask = mins < cur
        ids = self.tgt_unique[mask]
        buf[ids] = mins[mask]
        return ids

    def push_sum(self, buf: np.ndarray, edge_vals_csc: np.ndarray):
        """buf[target] += the sum of its in-edges' values, with the
        values ALREADY in CSC order (e.g. ``vals[src_by_tgt]``)."""
        if len(edge_vals_csc) == 0:
            return
        buf[self.tgt_unique] += np.add.reduceat(edge_vals_csc, self.tgt_starts)

    def gather_edges(self, rows: np.ndarray):
        """Edge indices of the CSR rows in ``rows``; returns
        (edge_idx, lens).  Used by frontier-sparse propagation."""
        lens = (self.indptr[rows + 1] - self.indptr[rows]).astype(np.int64)
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, np.int64), lens
        starts = np.repeat(self.indptr[rows], lens)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(lens)[:-1]]), lens
        )
        return starts + offs, lens
