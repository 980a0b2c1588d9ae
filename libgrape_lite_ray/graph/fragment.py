"""Fragment: one contiguous-gid-range partition of the graph held as a
CSR block with mirror (outer-vertex) bookkeeping — the Ray-native
analog of grape/fragment/immutable_edgecut_fragment.h:69-301.

Layout (all NumPy): the graph build computes it once per partition
from the edges routed to it (``csr_arrays``, cf.
ImmutableEdgecutFragment::Init) and writes it as the array directory
``snapshot/part={p}/`` of the graph dir (``save_arrays``, the
reference's Serialize), the graph dir's one edge store: views and
``mutate_graph`` read it back (``csr_edges``), a fragment load only
memory-maps it.  As the reference serializes only its CSR and
outer-vertex list, the directory stores ``indptr/indices/outer_gids``
(+ ``edge_w``) and a load derives the rest.

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
- ``out_degree`` and ``src_of_edge``: derived from ``indptr`` whenever
  a fragment adopts a CSR (``Fragment._set_csr``).
- a CSC-style transpose (``src_by_tgt/tgt_starts/tgt_unique/w_by_tgt``,
  edges grouped by target) for vectorized push-style updates
  (np.minimum/add.reduceat over values already in that order): built
  on a pushing program's first read, once per adopted CSR.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..ids import part_of

__all__ = ["Fragment", "csr_arrays", "csr_dir", "csr_edges", "csr_num_edges", "load_csr",
           "merge_edge_ops", "save_arrays", "load_arrays"]

# what a CSR directory stores (``edge_w`` only when weighted)
_CSR_STORED = ("indices", "indptr", "outer_gids", "edge_w")
# the CSC transpose, built on its first read (``Fragment.__getattr__``)
_CSC = ("tgt_unique", "tgt_starts", "src_by_tgt", "w_by_tgt")


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


def csr_arrays(src: np.ndarray, dst: np.ndarray, w, lo: int, hi: int) -> dict:
    """The CSR of the inner gids ``[lo, hi)`` from gid-space edge arrays
    in any order, as ``{name: array}``: ``indptr/indices``, the mirror
    gids ``outer_gids`` and, when ``w`` is given, ``edge_w`` — exactly
    what a CSR directory stores.  The build writes it per partition
    (``save_arrays``) and an in-place mutation rebuild
    (``apply_edge_mutations``) adopts it directly, as the reference's
    fragment Init ends its loader; ``Fragment._set_csr`` derives the
    rest.

    Sorts by (src, dst) — immutable_csr.h:100-107 neighbour order —
    then dedups unless weighted.  Weighted multi-edges tie-break on
    the weight, so their order (and any float sum over them) does not
    depend on the input's row order."""
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

    ivnum = hi - lo
    inner_mask = (dst >= lo) & (dst < hi)
    outer_gids = np.unique(dst[~inner_mask])
    tvnum = ivnum + len(outer_gids)

    # int32 local indices when they fit: the per-round gathers over
    # these arrays are memory-bandwidth bound — 4-byte indices halve
    # the traffic (int64 fallback for >2B-row partitions)
    idx_t = np.int32 if tvnum < 2**31 - 2 and len(dst) < 2**31 - 2 else np.int64
    indices = np.empty(len(dst), dtype=idx_t)
    indices[inner_mask] = dst[inner_mask] - lo
    indices[~inner_mask] = ivnum + np.searchsorted(outer_gids, dst[~inner_mask])

    rowlens = np.bincount(src - lo, minlength=ivnum)
    out = {"indices": indices,
           "indptr": np.concatenate([[0], np.cumsum(rowlens, dtype=np.int64)]),
           "outer_gids": outer_gids}
    if w is not None:
        out["edge_w"] = w
    return out


def csr_dir(work_dir: str, p: int) -> str:
    """Partition ``p``'s CSR directory, the graph dir's edge store."""
    return os.path.join(work_dir, "snapshot", f"part={p}")


def csr_num_edges(path: str) -> int:
    """The edge count of the CSR directory ``path``, from its ``indptr``."""
    return int(np.load(os.path.join(path, "indptr.npy"), mmap_mode="r")[-1])


def csr_edges(arrays: dict, lo: int):
    """The one inverse of ``csr_arrays``: a partition's CSR, first gid
    ``lo``, back as gid-space edges ``(src, dst, w | None)`` in CSR
    order, for views, ``mutate_graph`` and in-place mutations."""
    indptr = arrays["indptr"]
    ivnum = len(indptr) - 1
    idx = np.asarray(arrays["indices"], np.int64)
    src = np.repeat(np.arange(lo, lo + ivnum, dtype=np.int64), np.diff(indptr))
    dst = np.where(idx < ivnum, lo + idx, 0)
    m = idx >= ivnum
    if m.any():
        dst[m] = np.asarray(arrays["outer_gids"], np.int64)[idx[m] - ivnum]
    w = arrays.get("edge_w")
    return src, dst, (np.array(w, np.float64) if w is not None else None)


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


def _load_npy(path: str, mmap: bool) -> np.ndarray:
    try:
        return np.load(path, mmap_mode="r" if mmap else None, allow_pickle=False)
    except ValueError:  # zero-length mmap: plain read
        return np.load(path, allow_pickle=False)


def load_arrays(path: str, mmap: bool = False) -> tuple[dict, dict | None]:
    """Read a ``save_arrays`` directory: ``({name: array}, scalars or
    None)``.  ``mmap`` maps the arrays read-only (file-backed pages
    come from the page cache and are shared across processes); without
    it every array is a private, writable copy."""
    arrays = {f[:-4]: _load_npy(os.path.join(path, f), mmap)
              for f in sorted(os.listdir(path)) if f.endswith(".npy")}
    sp = os.path.join(path, "scalars.json")
    if not os.path.exists(sp):
        return arrays, None
    with open(sp) as f:
        return arrays, json.load(f)


def load_csr(path: str) -> dict:
    """Map the stored arrays of the CSR directory ``path`` read-only,
    ignoring any other file (a dir written when the CSR also stored
    its derived arrays)."""
    names = [k for k in _CSR_STORED if os.path.exists(os.path.join(path, f"{k}.npy"))]
    return {k: _load_npy(os.path.join(path, f"{k}.npy"), True) for k in names}


class Fragment:
    def __init__(self, part_id: int, work_dir: str, starts: np.ndarray,
                 vdata_cols: dict | list[str] | None = None):
        self.part = int(part_id)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.num_parts = len(self.starts) - 1
        self.lo = int(self.starts[self.part])
        self.hi = int(self.starts[self.part + 1])
        self.ivnum = self.hi - self.lo

        # the build wrote this partition's CSR (``build.write_csr``); a
        # load maps it read-only: file-backed pages come from the page
        # cache and are shared across processes, where a cold anonymous
        # refault costs ~40us/page on virtualized hosts (see memtune)
        path = csr_dir(work_dir, self.part)
        if not os.path.isdir(path):
            raise FileNotFoundError(
                f"{path}: no CSR of partition {self.part}; the graph dir was built "
                f"before builds wrote one per partition, rebuild it")
        arrays = load_csr(path)
        self._set_csr(arrays)
        # pre-fault every mapped array (one sequential pass each): pages
        # are otherwise faulted lazily DURING the first superstep, which
        # showed up as 5s+ straggler rounds
        for v in arrays.values():
            np.asarray(v).sum()
        self._load_vdata(work_dir, vdata_cols)

    def _set_csr(self, arrays: dict):
        """Adopt a CSR (``csr_arrays`` output or a mapped CSR dir), derive
        the rest from it and drop the CSC of the one it replaces
        (``csr`` keeps the dict for ``csr_edges``)."""
        self.csr = arrays
        for k in _CSR_STORED:  # indices, indptr, outer_gids, edge_w (None unweighted)
            setattr(self, k, arrays.get(k))
        # post-dedup local out-degree (== global: all out-edges of an
        # inner vertex are routed here, ev_fragment_loader.h)
        self.out_degree = np.diff(self.indptr)
        self.src_of_edge = np.repeat(np.arange(self.ivnum, dtype=self.indices.dtype),
                                     self.out_degree)
        for k in _CSC:
            self.__dict__.pop(k, None)
        self.num_local_edges = len(self.indices)
        self.ovnum = len(self.outer_gids)
        self.tvnum = self.ivnum + self.ovnum
        # mirror slices per owner partition (contiguous in outer_gids)
        self.mirror_bounds = np.searchsorted(self.outer_gids, self.starts)
        # incoming mirror requests: requester part -> inner lids to export
        self.export_lids: dict[int, np.ndarray] = {}

    def __getattr__(self, name):
        # only reached for a missing attribute: the first read of a CSC
        # array builds them all (edges grouped by target, each group's
        # first edge at ``tgt_starts``); programs that never push never pay
        if name not in _CSC:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        order = np.argsort(self.indices, kind="stable").astype(self.indices.dtype)
        self.tgt_unique, self.tgt_starts = np.unique(self.indices[order], return_index=True)
        self.src_by_tgt = self.src_of_edge[order]
        self.w_by_tgt = None if self.edge_w is None else self.edge_w[order]
        return getattr(self, name)

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
            # stays the float64 dense path.  The graph meta's type
            # holds in every partition; a dir built before it recorded
            # types falls back to this partition's file
            if isinstance(vdata_cols, dict):
                is_str = vdata_cols[c] in ("string", "large_string")
            else:
                is_str = (vt is not None
                          and pa.types.is_string(vt.schema.field(c).type))
            if is_str:
                dense = np.full(self.ivnum, "", dtype=object)
                if len(vg):
                    dense[vg - self.lo] = np.asarray(
                        vt.column(c).to_pylist(), dtype=object)
            else:
                dense = np.zeros(self.ivnum, dtype=np.float64)
                if vt is not None and len(vg):
                    vals = vt.column(c).to_numpy(zero_copy_only=False)
                    dense[vg - self.lo] = vals.astype(np.float64)
            self.vdata[c] = dense
        self._seat_vdata()

    def _seat_vdata(self):
        """Each ``vdata_full`` buffer (len tvnum) with its ``vdata`` column
        in the inner segment; the outer (mirror) segment holds "" or 0
        until the engine's vdata sync fills it."""
        for c, dense in self.vdata.items():
            full = np.full(self.tvnum, "", object) if dense.dtype == object else np.zeros(self.tvnum)
            full[: self.ivnum] = dense
            self.vdata_full[c] = full

    def apply_edge_mutations(self, op: np.ndarray, src: np.ndarray,
                             dst: np.ndarray, w: np.ndarray) -> None:
        """Apply a batch of edge ops to this fragment IN MEMORY and
        rebuild the derived arrays — the per-superstep mutation analog
        of grape/fragment/basic_fragment_mutator.h applied by
        Worker::processMutation (grape/worker/worker.h:176-187).

        ``op``: int8 codes (0=add/upsert, 1=delete); src/dst in gid
        space, already routed so every src is inner here; merged by
        ``merge_edge_ops``, as mutate.py merges a stored CSR.  The rebuild is
        in-memory only — the graph dir is untouched, so a NEW engine on
        the same work_dir sees the pre-mutation graph (durable mutation
        is mutate_graph's job).
        """
        ns, nd, nw = merge_edge_ops(*csr_edges(self.csr, self.lo), op, src, dst, w,
                                    int(self.starts[-1]))
        self._set_csr(csr_arrays(ns, nd, nw, self.lo, self.hi))
        # tvnum changed: the engine re-syncs the outer segment after the
        # fleet-wide mirror re-registration
        self._seat_vdata()

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
        b = self.mirror_bounds
        return {q: self.outer_gids[b[q]:b[q + 1]] for q in range(self.num_parts) if b[q + 1] > b[q]}

    def register_requests(self, reqs: dict[int, np.ndarray]):
        """Owner side: remember which inner values each requester needs
        (a full re-registration: earlier requests are dropped)."""
        self.export_lids = {int(q): np.asarray(g, np.int64) - self.lo for q, g in reqs.items()}

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
        # its own segment (clamping empty trailing starts would truncate
        # the last non-empty segment)
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
        ends = np.cumsum(lens)
        # edge i of the concatenated rows is indptr[row] + (i - row's first i)
        return np.arange(ends[-1] if len(ends) else 0, dtype=np.int64) + np.repeat(
            self.indptr[rows] - (ends - lens), lens), lens
