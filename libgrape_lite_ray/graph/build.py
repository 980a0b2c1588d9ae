"""Distributed graph build: edge Dataset -> vertex dict + gid space +
partitioned edge spool.

Ray-Data-native replacement for the reference load pipeline
(grape/fragment/ev_fragment_loader.h:71-186 +
basic_fragment_loader.h:83-364): instead of MPI shuffles we use

  1. one pass that emits per-block pre-deduped (oid, degree) endpoint
     partials and pins them; their row count bounds V,
  2. when that bound is within ``_BROADCAST_VERTICES``: ONE Ray task
     merges the partials into the vertex dictionary (gid = rank in oid
     order, so gid order == oid order; see ids.py) and writes it — the
     reference likewise gathers its vertex map in one step,
     basic_fragment_loader.h:221-236.  Above the threshold: one global
     sort of the partials + per-block offsets, reconciled on the driver,
  3. degree-aware contiguous partition boundaries (grape/worker/
     rebalancer.h analog) from ONE gid-bucket histogram of ``deg + 1``
     weight, the same on every path (``_gid_histogram`` ->
     ``_histogram_starts``): the exact per-vertex split up to 2**20
     vertices, boundaries snapped to bucket ends above,
  4. ONE oid->gid translate (``_to_gids``, shared with vertex data):
     `pc.index_in` against the broadcast sorted-oid dictionary, passed
     by object ref, or one Dataset.join per oid column at scale,
  5. a ROUTE-ONLY partitioned Parquet "spool": a map-side split by
     owner, so each fragment actor reads exactly its own edges
     (basic_fragment_loader.h:155-172 edge routing analog) and no
     all-to-all sort runs over the edge set.

The router (``_spool_and_finish``) is the one place that decides edge
direction, like the reference's LoadStrategy (grape/types.h:63-68): a
gid row ``(s, d, w)`` goes forward to owner(s) (``"out"``), reversed as
``(d, s, w)`` to owner(d) (``"in"``), or both ways (``"both"``).  Every
view comes from it: a directed build routes ``"out"``;
``symmetrize=True`` translates the E input rows once and routes
``"both"``; ``reverse_graph`` and the undirected view of a built graph
(``reuse_vertices_from``) re-route the donor's gid spool ``"in"`` or
``"both"`` with the donor's dictionary and starts.

Dense int64 oids (``dense_int_oids=True``) skip 1, 2 and 4: gid == oid,
and the histogram counts the edge endpoints directly.

Each fragment sorts its own slice by (src, dst) and dedups multi-edges
at load (all out-edges of a vertex are colocated), matching
immutable_csr.h:100-107's per-vertex neighbour sort and
mutable_csr.h:313-389's sorted dedup; the CSR snapshot caches the
result.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..ids import part_of, split_by_part, weighted_partition_starts

__all__ = ["GraphMeta", "build_graph", "edges_from_numpy", "attach_oids"]


@dataclass
class GraphMeta:
    """Everything a driver / fragment actor needs to locate the graph."""

    work_dir: str
    num_vertices: int
    num_edges: int  # pre-dedup routed edge count
    num_partitions: int
    starts: np.ndarray  # int64[P+1] contiguous gid range boundaries
    directed: bool
    oid_type: str  # "string" | "int64"
    has_weights: bool = False
    fingerprint: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def spool_dir(self) -> str:
        return os.path.join(self.work_dir, "edges")

    @property
    def vertices_path(self) -> str:
        return os.path.join(self.work_dir, "vertices")

    def _read_dictionary(self, flt) -> pa.Table:
        """The ``(oid, gid)`` rows of ``vertices/`` matching ``flt``.
        The dictionary is oid-sorted, so gid-sorted, and written in
        ``_DICT_ROW_GROUP``-row groups whose min/max statistics are
        disjoint key ranges: groups that cannot match are skipped, and
        the rest are scanned one at a time, so memory follows the rows
        kept, not V."""
        import pyarrow.dataset as pds

        return pds.dataset(self.vertices_path, format="parquet").to_table(
            columns=["oid", "gid"], filter=flt, use_threads=False,
            fragment_scan_options=pds.ParquetFragmentScanOptions(pre_buffer=False))

    def _oid_range(self, lo: int, hi: int) -> pa.Array:
        """The oids of gids ``lo..hi`` (inclusive) in gid order: a
        sorted dictionary's position ``i`` holds gid ``lo + i``."""
        t = self._read_dictionary((pc.field("gid") >= lo) & (pc.field("gid") <= hi))
        if t.num_rows != hi - lo + 1:
            raise ValueError(f"vertex dictionary {self.vertices_path} holds {t.num_rows} "
                             f"rows for the {hi - lo + 1} gids {lo}..{hi}")
        return t.sort_by("gid").column("oid").combine_chunks()

    def _in_universe(self, ids, what: str) -> np.ndarray:
        g = np.asarray(ids, dtype=np.int64)
        if len(g) and (g.min() < 0 or g.max() >= self.num_vertices):
            raise ValueError(f"{what} outside the vertex universe [0, {self.num_vertices})")
        return g

    def oids_of(self, gids) -> pa.Array:
        """gid -> oid for any gids, reading only the dictionary rows of
        ``[min(gids), max(gids)]`` (the global_vertex_map.h:174-209
        GetOid lookup).  Raises ``ValueError`` on a gid outside ``[0, V)``."""
        g = self._in_universe(gids, "gid")
        if self.extra.get("identity_oids"):
            return pa.array(g)
        lo, hi = (int(g.min()), int(g.max())) if len(g) else (0, -1)
        return self._oid_range(lo, hi).take(pa.array(g - lo))

    def gids_of(self, oids) -> np.ndarray:
        """oid -> gid for any oids, reading only the dictionary rows
        that hold them (the GetGid lookup).  Raises ``ValueError`` on an
        oid that is not a vertex."""
        if self.extra.get("identity_oids"):
            return self._in_universe(oids, "oid")
        keys = oids if isinstance(oids, (pa.Array, pa.ChunkedArray)) else pa.array(oids)
        if not len(keys):
            return np.empty(0, np.int64)
        t = self._read_dictionary(pc.field("oid").isin(pc.unique(keys)))
        idx = pc.index_in(keys, value_set=t.column("oid").combine_chunks())
        if idx.null_count:
            raise ValueError("oid not in the vertex dictionary")
        return t.column("gid").take(idx).to_numpy()

    def save(self):
        os.makedirs(self.work_dir, exist_ok=True)
        with open(os.path.join(self.work_dir, "graph_meta.json"), "w") as f:
            json.dump(
                {
                    "num_vertices": self.num_vertices,
                    "num_edges": self.num_edges,
                    "num_partitions": self.num_partitions,
                    "starts": self.starts.tolist(),
                    "directed": self.directed,
                    "oid_type": self.oid_type,
                    "has_weights": self.has_weights,
                    "fingerprint": self.fingerprint,
                    "extra": self.extra,
                },
                f,
            )

    @classmethod
    def load(cls, work_dir: str) -> "GraphMeta":
        with open(os.path.join(work_dir, "graph_meta.json")) as f:
            d = json.load(f)
        d["starts"] = np.asarray(d["starts"], dtype=np.int64)
        return cls(work_dir=work_dir, **d)


def edges_from_numpy(src: np.ndarray, dst: np.ndarray, w: np.ndarray | None = None):
    """Small-fixture helper: numpy edge arrays -> Ray Dataset."""
    import ray.data as rd

    cols = {"src": src, "dst": dst}
    if w is not None:
        cols["w"] = np.asarray(w, dtype=np.float64)
    return rd.from_arrow(pa.table(cols))


def _endpoint_weight_table(edges_ds, copies: int = 1):
    """(oid, cnt) rows: BOTH endpoints weigh 1 per routed copy of an
    edge, so the summed cnt per oid is its total degree in the spool (a
    symmetrized build routes every input row twice: ``copies=2``).
    Total degree is the balance criterion the undirected view needs —
    letting ``reuse_vertices_from`` keep the donor's partition starts
    without a resample — and a sound proxy for directed superstep work
    too (push cost tracks out-degree, ingestion tracks in-degree)."""

    def emit_partial(t: pa.Table) -> pa.Table:
        # pre-aggregate inside the batch (combiner) so the groupby
        # shuffle moves one row per distinct endpoint per block, not
        # two rows per edge
        src = t.column("src").combine_chunks()
        dst = t.column("dst").combine_chunks()
        s_uniq = src.value_counts()
        d_uniq = dst.value_counts()
        oid = pa.concat_arrays([s_uniq.field("values"), d_uniq.field("values")])
        cnt = np.concatenate([
            s_uniq.field("counts").to_numpy(zero_copy_only=False).astype(np.int64),
            d_uniq.field("counts").to_numpy(zero_copy_only=False).astype(np.int64),
        ])
        return pa.table({"oid": oid, "cnt": cnt * copies})

    return edges_ds.select_columns(["src", "dst"]).map_batches(
        emit_partial, batch_format="pyarrow", batch_size=None
    )


def publish_graph_dir(final_dir: str, build) -> GraphMeta:
    """Build a graph dir atomically: ``build(tmp_dir)`` writes into
    ``final_dir.building-<pid>`` and returns its saved meta, which is
    renamed into place only on success.  A crashed build otherwise
    leaves partial uuid-named spool files that a retry silently merges
    with its own — duplicated edges with no error.  An existing
    ``graph_meta.json`` marker is loaded instead of rebuilt."""
    import shutil

    marker = os.path.join(final_dir, "graph_meta.json")
    if os.path.exists(marker):
        return GraphMeta.load(final_dir)
    if os.path.isdir(final_dir):  # partial remains of a crashed build
        shutil.rmtree(final_dir)
    tmp_dir = f"{final_dir}.building-{os.getpid()}"
    if os.path.isdir(tmp_dir):
        shutil.rmtree(tmp_dir)
    os.makedirs(tmp_dir)
    meta = build(tmp_dir)
    try:
        os.rename(tmp_dir, final_dir)
    except OSError:
        # lost a race with a concurrent build of the same graph
        shutil.rmtree(tmp_dir, ignore_errors=True)
        if not os.path.exists(marker):
            raise
    meta.work_dir = final_dir
    return meta


def build_graph(
    edges_ds,
    work_dir: str,
    num_partitions: int,
    *,
    directed: bool = True,
    symmetrize: bool = False,
    weight_col: str | None = None,
    fingerprint: str = "",
    reuse_vertices_from: "GraphMeta | None" = None,
    dense_int_oids: bool = False,
    vdata_ds=None,
    vertices_ds=None,
) -> GraphMeta:
    """Build the on-disk graph layout from an edge Dataset with columns
    ``src``/``dst`` (string or int64 oids) and optional ``weight_col``.

    ``symmetrize=True`` loads every edge in both directions (the
    reference's undirected load, types.h LoadStrategy semantics for the
    undirected apps).  With ``reuse_vertices_from=donor`` (and
    ``edges_ds=None``) it derives the undirected view of an
    already-built graph instead: the donor's gid spool is re-routed
    both ways under the donor's dictionary and partition starts, with
    no extract or translate.  In-edges alone come from
    ``reverse_graph``.

    ``vdata_ds``: optional Dataset of per-vertex properties with an
    ``oid`` column plus one or more numeric value columns (the
    reference's VDATA, basic_fragment_loader.h:300-338).  Rows whose
    oid is not a graph vertex are dropped; graph vertices absent from
    ``vdata_ds`` read as 0.  Mirror vdata is synced once at engine
    start (immutable_edgecut_fragment.h:109-114 mirror vdata analog).

    ``vertices_ds``: optional Dataset with an ``oid`` column declaring
    the vertex universe explicitly (the reference's ``.v`` file,
    ev_fragment_loader.h vfile path): vertices appearing in no edge
    still get gids (isolated, dangling for PageRank), and a later
    ``mutate_graph`` delta may reference them.
    """
    if reuse_vertices_from is not None:
        if not symmetrize:
            raise ValueError("reuse_vertices_from derives the undirected view "
                             "of a built graph; it needs symmetrize=True")
        if edges_ds is not None:
            raise ValueError("reuse_vertices_from symmetrizes the donor's own "
                             "edges; pass edges_ds=None")

    def build(tmp_dir: str) -> GraphMeta:
        if reuse_vertices_from is not None:
            meta = _reroute(reuse_vertices_from, tmp_dir, "both", fingerprint)
        elif dense_int_oids:
            meta = _build_dense_int(edges_ds, tmp_dir, num_partitions, directed,
                                    symmetrize, weight_col, fingerprint)
        else:
            meta = _build_with_dictionary(
                edges_ds, tmp_dir, num_partitions, directed, symmetrize,
                weight_col, fingerprint, vertices_ds)
        if vdata_ds is not None:
            _write_vdata(vdata_ds, meta)
        return meta

    return publish_graph_dir(work_dir, build)


def _build_with_dictionary(edges_ds, work_dir, num_partitions, directed,
                           symmetrize, weight_col, fingerprint,
                           vertices_ds) -> GraphMeta:
    """String (or sparse int) oids: endpoint partials -> vertex
    dictionary + starts -> translate -> route (steps 1-5 above)."""
    import ray

    edges_ds = _prepare_edges(edges_ds, weight_col)
    # coalesce shattered inputs once: every downstream pass (dict sort,
    # translate, spool) pays per-block overhead
    if edges_ds.num_blocks() > 4 * num_partitions:
        edges_ds = edges_ds.repartition(num_partitions).materialize()
    direction = "both" if symmetrize else "out"

    # ---- 1. per-block pre-deduped (oid, cnt) endpoint partials, pinned:
    # their row count bounds V, so it picks the dictionary path
    ep = _endpoint_weight_table(edges_ds, 2 if symmetrize else 1)
    if vertices_ds is not None:
        # explicit universe (vfile): union zero-weight rows so isolated
        # vertices get gids too
        def zero_cnt(t: pa.Table) -> pa.Table:
            return pa.table({"oid": t.column("oid"),
                             "cnt": pa.array(np.zeros(len(t), np.int64))})

        ep = ep.union(vertices_ds.select_columns(["oid"]).map_batches(
            zero_cnt, batch_format="pyarrow", batch_size=None))
    ep = ep.materialize()
    sch = ep.schema()
    oid_pa_type = getattr(sch, "base_schema", sch).field("oid").type
    oid_type = (
        "string"
        if pa.types.is_string(oid_pa_type) or pa.types.is_large_string(oid_pa_type)
        else "int64"
    )

    n_partials = ep.count()
    if n_partials == 0:
        raise ValueError("empty edge input")
    dict_ref = None
    if n_partials <= _BROADCAST_VERTICES:
        # ---- 2-3. small dictionary: ONE task merges the partials,
        # writes vertices/ and computes the starts; the driver keeps
        # only the dictionary's ref for the broadcast translate
        info_ref, dict_ref = ray.remote(num_returns=2)(_merge_dictionary).remote(
            os.path.join(work_dir, "vertices"), num_partitions, _HIST_BUCKETS,
            *ep.to_arrow_refs())
        num_vertices, num_partitions, starts = ray.get(info_ref)
        del ep
    else:
        # ---- 2. large dictionary: ONE global sort of the partials ->
        # within-block run-length dedup with driver-side reconciliation
        # of runs that straddle block boundaries.  (A groupby + sort
        # would be two all-to-all exchanges over the vertex table; the
        # sorted-dedup needs one.)
        vds = ep.sort("oid").materialize()
        del ep

        def _block_uniques(t: pa.Table):
            """(unique oids ascending, summed weights) for a sorted block."""
            oid = t.column("oid").combine_chunks()
            w = t.column("cnt").to_numpy(zero_copy_only=False).astype(np.float64)
            eq = pc.equal(oid.slice(1), oid.slice(0, len(oid) - 1))
            newrun = np.concatenate([[True], ~eq.to_numpy(zero_copy_only=False)])
            starts_i = np.flatnonzero(newrun)
            cw = np.concatenate([[0.0], np.cumsum(w)])
            ends = np.append(starts_i[1:], len(w))
            return oid.take(pa.array(starts_i)), cw[ends] - cw[starts_i]

        def summarize(t: pa.Table) -> pa.Table:
            """(first oid, last oid, rows, distinct oids) of a sorted block;
            an empty block yields no row."""
            oid = t.column("oid")
            n = min(len(t), 1)
            return pa.table({
                "first_oid": oid.slice(0, n), "last_oid": oid.slice(len(t) - n, n),
                "n_rows": pa.array([len(t)] * n, pa.int64()),
                "n_unique": pa.array([pc.count_distinct(oid).as_py()] * n, pa.int64()),
            })

        summaries = vds.map_batches(summarize, batch_format="pyarrow", batch_size=None).take_all()
        summaries.sort(key=lambda r: (r["first_oid"], r["last_oid"]))
        # driver reconciliation: a run spanning two blocks appears as
        # last_oid(i) == first_oid(i+1) — the later block skips its first
        plan: dict = {}
        total = 0
        prev_last = None
        for srow in summaries:
            skip = 1 if (prev_last is not None and srow["first_oid"] == prev_last) else 0
            key = (srow["first_oid"], srow["last_oid"], srow["n_rows"])
            if key in plan:
                raise RuntimeError("ambiguous sorted-block key; vertex dict degenerate")
            plan[key] = (total - skip, skip)
            total += srow["n_unique"] - skip
            prev_last = srow["last_oid"]
        num_vertices = total
        num_partitions = min(num_partitions, max(1, num_vertices))

        # ---- 3. write vertex dict (oid, gid, weight), preserving block order
        def assign_gids(t: pa.Table) -> pa.Table:
            if len(t) == 0:
                return pa.table({"oid": pa.array([], t.column("oid").type),
                                 "gid": pa.array([], pa.int64()),
                                 "weight": pa.array([], pa.float64())})
            u_oid, u_w = _block_uniques(t)
            key = (u_oid[0].as_py(), u_oid[-1].as_py(), len(t))
            off, skip = plan[key]
            if skip:
                u_oid, u_w = u_oid.slice(skip), u_w[skip:]
            gid = np.arange(off + skip, off + skip + len(u_oid), dtype=np.int64)
            return pa.table({"oid": u_oid, "gid": gid, "weight": u_w})

        # pinned once: the write and the starts histogram would each
        # re-run assign_gids over every sorted block
        vtx = vds.map_batches(assign_gids, batch_format="pyarrow", batch_size=None).materialize()
        del vds
        vtx.write_parquet(os.path.join(work_dir, "vertices"), row_group_size=_DICT_ROW_GROUP)
        starts = _dataset_starts(vtx, num_vertices, num_partitions, ["gid"], "weight")

    # ---- 4. translate edges to gid space, 5. route
    meta = GraphMeta(work_dir, int(num_vertices), 0, int(num_partitions),
                     np.asarray(starts, np.int64), directed, oid_type,
                     bool(weight_col), fingerprint)
    edges_gid = _to_gids(edges_ds, meta, {"src": "src_gid", "dst": "dst_gid"}, dict_ref)
    return _spool_and_finish(edges_gid, meta, direction)


def _prepare_edges(edges_ds, weight_col):
    """Project to ``src``/``dst`` (+ ``w``) and pin the projection."""
    from ray.data.dataset import MaterializedDataset

    cols = ["src", "dst"] + ([weight_col] if weight_col else [])
    # the build consumes the edge table more than once (partials, then
    # translate+spool); pin the PROJECTED columns so the upstream
    # pipeline (e.g. html extraction) doesn't re-execute — the object
    # store spills if it exceeds memory.  An input already pinned with
    # exactly these columns (``extract_edges``' output) is used as is.
    if not (isinstance(edges_ds, MaterializedDataset)
            and edges_ds.schema().names == cols and weight_col in (None, "w")):
        edges_ds = edges_ds.select_columns(cols)
        if weight_col and weight_col != "w":
            edges_ds = edges_ds.rename_columns({weight_col: "w"})
        edges_ds = edges_ds.materialize()
    return edges_ds


def _merge_dictionary(vertices_dir: str, num_partitions: int, max_buckets: int,
                      *partials: pa.Table):
    """One task: (oid, cnt) partials -> vertex dictionary (gid = rank in
    oid order, weight = total degree) written to ``vertices_dir``, and
    its histogram starts over ``min(V, max_buckets)`` buckets.  Returns
    ``((V, P, starts), sorted_oids)`` as two objects, so the caller
    fetches only the scalars."""
    # empty blocks can come back from Ray Data with no columns at all
    t = pa.concat_tables([p for p in partials if p.num_rows])
    t = t.group_by("oid").aggregate([("cnt", "sum")])
    t = t.sort_by("oid")
    oids = t.column("oid").combine_chunks()
    V = len(oids)
    vt = pa.table({"oid": oids, "gid": np.arange(V, dtype=np.int64),
                   "weight": t.column("cnt_sum").to_numpy().astype(np.float64)})
    os.makedirs(vertices_dir, exist_ok=True)
    pq.write_table(vt, os.path.join(vertices_dir, "part-0.parquet"),
                   row_group_size=_DICT_ROW_GROUP)
    P = min(num_partitions, max(1, V))
    hist = _gid_histogram(vt, ["gid"], V, min(V, max_buckets), "weight")
    return (V, P, _histogram_starts(hist, V, P)), oids


_HIST_BUCKETS = 1 << 20
# at most this many vertices, oid->gid translates by a broadcast sorted
# dictionary; above it, by hash joins against vertices/
_BROADCAST_VERTICES = 4_000_000
# vertices/ row-group size: a lookup skips the groups whose min/max
# statistics exclude its keys and decodes the rest one at a time.  On a
# 4M-URL dictionary, 16k-row groups made the file 120 MiB (102 MiB with
# the default 1M-row groups) and cut a 1,000-random-key lookup's peak
# Arrow memory from 143 to 4-5 MiB, at the same 0.5 s
_DICT_ROW_GROUP = 1 << 14


def _gid_histogram(t: pa.Table, cols, V: int, B: int, weight: str | None = None) -> np.ndarray:
    """Weights of ``B`` equal-width buckets of the gid range ``[0, V)``
    (gid g falls in bucket ``g * B // V``), summed over the gid columns
    ``cols`` of ``t``: every value weighs 1, or its row's ``weight``."""
    w = None if weight is None else t.column(weight).to_numpy(zero_copy_only=False)
    h = np.zeros(B, np.float64)
    for c in cols:
        g = t.column(c).to_numpy(zero_copy_only=False).astype(np.int64)
        h += np.bincount(g * B // V, weights=w, minlength=B)
    return h


def _dataset_starts(ds, V: int, P: int, cols=("src", "dst"), weight: str | None = None,
                    copies: int = 1) -> np.ndarray:
    """``_histogram_starts`` of the ``_gid_histogram`` of every block of
    ``ds`` weighed ``copies`` times (routed copies per edge, as in
    ``_endpoint_weight_table``): ONE pass, summed on the driver in
    O(B) memory, never O(V)."""
    B = min(V, _HIST_BUCKETS)

    def hist(t: pa.Table) -> pa.Table:
        return pa.table({"hist": pa.ListArray.from_arrays(
            pa.array([0, B], pa.int32()), pa.array(_gid_histogram(t, cols, V, B, weight)))})

    total = np.zeros(B, np.float64)
    for batch in (ds.map_batches(hist, batch_format="pyarrow", batch_size=None)
                  .iter_batches(batch_format="pyarrow", batch_size=None)):
        flat = batch.column("hist").combine_chunks().flatten()
        total += flat.to_numpy().reshape(-1, B).sum(axis=0)
    total *= copies
    return _histogram_starts(total, V, P)


def _histogram_starts(hist: np.ndarray, V: int, P: int) -> np.ndarray:
    """Partition starts from a gid-bucket weight histogram (consumed in
    place): bucket b also weighs its vertex count (the +1 vertex
    factor), and the boundaries fall on bucket ends.  With B == V this
    is exactly the per-vertex ``deg + 1`` split."""
    B = len(hist)
    # bucket b holds gids [ceil(b*V/B), ceil((b+1)*V/B)); in-place
    # arithmetic keeps the driver at a few B-sized arrays
    ends = np.arange(1, B + 1, dtype=np.int64)
    ends *= V
    ends += B - 1
    ends //= B
    hist += ends
    hist[1:] -= ends[:-1]  # + vertices per bucket
    ends -= 1  # last gid of each bucket
    return weighted_partition_starts(ends, hist, V, P)


def _build_dense_int(edges_ds, work_dir, num_partitions, directed, symmetrize,
                     weight_col, fingerprint) -> GraphMeta:
    """Fast path when oids are already dense int64 ids (0..V-1): gid ==
    oid, no dictionary build or translate — one histogram pass for
    boundaries, then route to the spool.  The production path for
    pre-normalized inputs (the reference's int-oid graphs with a dense
    id space)."""
    from ray.data.aggregate import Max, Min

    edges_ds = _prepare_edges(edges_ds, weight_col)
    agg = edges_ds.aggregate(Min("src", alias_name="ns"), Min("dst", alias_name="nd"),
                             Max("src", alias_name="ms"), Max("dst", alias_name="md"))
    if min(agg["ns"], agg["nd"]) < 0:
        raise ValueError("dense_int_oids needs non-negative oids")
    V = int(max(agg["ms"], agg["md"])) + 1
    P = min(num_partitions, max(1, V))
    starts = _dataset_starts(edges_ds, V, P, copies=2 if symmetrize else 1)
    meta = GraphMeta(work_dir, V, 0, P, starts, directed, "int64", bool(weight_col),
                     fingerprint, extra={"identity_oids": True})
    edges_gid = _to_gids(edges_ds, meta, {"src": "src_gid", "dst": "dst_gid"})
    return _spool_and_finish(edges_gid, meta, "both" if symmetrize else "out")


def reverse_graph(meta: GraphMeta) -> GraphMeta:
    """In-edge adjacency without a second graph build (the in-edge half
    of the reference's LoadStrategy ``kBothOutIn``, grape/types.h:63-68,
    immutable_edgecut_fragment.h:79-114): ONE ``"in"`` route pass over
    the built graph's gid spool — no re-extract, no dictionary
    translate, no global sort (fragments sort their slice at load; the
    CSR snapshot caches it).  Built once, cached under
    ``meta.work_dir/rev``.

    Returns a GraphMeta whose fragments' out-CSR is the donor's in-CSR
    and which shares the donor's vertex dictionary, so every program
    runs unchanged along in-edges (in-degree, reverse BFS/reachability,
    the SendMsgThroughIEdges direction).  Partition boundaries reuse
    the donor's (in-degree skew may differ from out-degree skew)."""
    fingerprint = (meta.fingerprint + ":rev") if meta.fingerprint else ""
    return publish_graph_dir(
        os.path.join(meta.work_dir, "rev"),
        lambda tmp_dir: _reroute(meta, tmp_dir, "in", fingerprint,
                                 reversed_of=meta.work_dir))


def _reroute(donor: GraphMeta, work_dir: str, direction: str, fingerprint: str,
             **extra) -> GraphMeta:
    """A view of a built graph from one route pass over its gid spool,
    keeping its dictionary (copied), partition starts and oid mapping."""
    import shutil

    import ray.data as rd

    if donor.extra.get("identity_oids"):
        extra["identity_oids"] = True  # dense-int graphs have no dictionary on disk
    else:
        shutil.copytree(donor.vertices_path, os.path.join(work_dir, "vertices"))
    cols = ["src_gid", "dst_gid"] + (["w"] if donor.has_weights else [])
    meta = GraphMeta(work_dir, donor.num_vertices, 0, donor.num_partitions, donor.starts,
                     donor.directed, donor.oid_type, donor.has_weights, fingerprint,
                     extra=extra)
    return _spool_and_finish(rd.read_parquet(donor.spool_dir, columns=cols), meta, direction)


def _to_gids(ds, meta: GraphMeta, cols: dict, dict_ref=None):
    """The one oid->gid translate, for edges and vertex data: each oid
    column ``c`` of ``cols`` (``{c: gid column}``) becomes its gid
    column.  Gid columns come first in ``cols`` order, then the other
    columns; a row with an oid that is not a vertex is dropped.  The
    route depends on V alone:

    - dense-int graphs: the oid is the gid;
    - up to ``_BROADCAST_VERTICES``: ``pc.index_in`` per batch against
      the sorted oids shared through plasma (``dict_ref``, or read from
      ``vertices/``; position in the sorted dictionary IS the gid).  A
      TASK pool, not an actor pool: ray.get of the plasma-resident
      Arrow dictionary is zero-copy per task, and tasks reach full
      width immediately — the actor pool's 1->N ramp-up serialized the
      first blocks behind one worker (measured 22s -> 8s on the
      16M-edge headline translate at 32 cpus);
    - above it: one hash join per oid column against ``vertices/``
      (the local_vertex_map.h-style scale route)."""
    import ray
    import ray.data as rd

    rest = [c for c in ds.schema().names if c not in cols]
    V = meta.num_vertices
    identity = bool(meta.extra.get("identity_oids"))
    if not identity and V > _BROADCAST_VERTICES:
        v = rd.read_parquet(meta.vertices_path, columns=["oid", "gid"])
        for c, g in cols.items():
            ds = ds.join(v.rename_columns({"oid": c, "gid": g}), join_type="inner",
                         on=(c,), num_partitions=meta.num_partitions)
        return ds.select_columns(list(cols.values()) + rest)
    if not identity and dict_ref is None:
        dict_ref = ray.put(meta._oid_range(0, V - 1))

    def translate(t: pa.Table) -> pa.Table:
        if identity:
            gids = [t.column(c).cast(pa.int64()) for c in cols]
            gids = [pc.if_else(pc.and_(pc.greater_equal(g, 0), pc.less(g, V)), g, None)
                    for g in gids]
        else:
            oids = ray.get(dict_ref)  # zero-copy plasma read
            gids = [pc.index_in(t.column(c), value_set=oids).cast(pa.int64()) for c in cols]
        out = pa.table(dict(zip(cols.values(), gids)) | {c: t.column(c) for c in rest})
        if any(g.null_count for g in gids):
            keep = pc.is_valid(gids[0])
            for g in gids[1:]:
                keep = pc.and_(keep, pc.is_valid(g))
            out = out.filter(keep)
        return out

    return ds.map_batches(translate, batch_format="pyarrow", batch_size=None)


def _spool_and_finish(edges_gid, meta: GraphMeta, direction: str) -> GraphMeta:
    """Route gid rows into the spool, then count them into ``meta`` and
    save it.

    ``direction`` picks the copies each row ``(s, d, w)`` yields:
    ``"out"`` writes it to owner(s), ``"in"`` writes ``(d, s, w)`` to
    owner(d), ``"both"`` writes both (an undirected graph)."""
    # ---- 5. route-only spool: a map-side split by owner with no
    # all-to-all sort network; fragments sort their own slice at load
    # and the CSR snapshot caches the result (the reference likewise
    # routes by owner, basic_fragment_loader.h:155-172, and sorts only
    # per-vertex neighbour lists, immutable_csr.h:100-107)
    spool = meta.spool_dir
    os.makedirs(spool, exist_ok=True)
    starts_list = meta.starts  # closure capture (tiny)
    has_weights = meta.has_weights

    def route_spool(t: pa.Table) -> pa.Table:
        copies = []
        if direction != "in":
            copies.append(t)
        if direction != "out":
            rev = {"src_gid": t.column("dst_gid"), "dst_gid": t.column("src_gid")}
            if has_weights:
                rev["w"] = t.column("w")
            copies.append(pa.table(rev))
        t = pa.concat_tables(copies)
        sg = t.column("src_gid").to_numpy(zero_copy_only=False)
        fid = uuid.uuid4().hex[:12]
        counts = []
        for p, sub in split_by_part(t, part_of(sg, starts_list)):
            pdir = os.path.join(spool, f"part={p}")
            os.makedirs(pdir, exist_ok=True)
            pq.write_table(sub, os.path.join(pdir, f"{fid}_{p}.parquet"))
            counts.append((p, len(sub)))
        return pa.table({"part": pa.array([c[0] for c in counts], pa.int32()),
                         "rows": pa.array([c[1] for c in counts], pa.int64())})

    # large coalesced batches: per-BLOCK routing on a many-block input
    # writes O(blocks x P) tiny parquet files (8k files / 60KB each
    # observed on the 32M-row web graph — file-open overhead then
    # dominates every fragment load); 4M-row batches bound the file
    # count to O(E/4M x P) real files
    stats = edges_gid.map_batches(route_spool, batch_format="pyarrow",
                                  batch_size=4_000_000)
    meta.num_edges = int(sum(r["rows"] for r in stats.take_all()))
    meta.directed = meta.directed and direction != "both"
    meta.save()
    return meta


def _write_vdata(vdata_ds, meta: GraphMeta):
    """Translate a per-vertex property Dataset (oid, cols...) to gid
    space and spool it partitioned by owner under
    ``work_dir/vdata/part={p}/`` (ref basic_fragment_loader.h:300-338
    vertex-data routing).  V-sized, so per-partition files are written
    unsorted; the fragment sorts its own slice at load."""
    cols = [c for c in vdata_ds.schema().names if c != "oid"]
    if not cols:
        raise ValueError("vdata_ds needs at least one value column besides 'oid'")
    starts_list = meta.starts
    vroot = os.path.join(meta.work_dir, "vdata")
    os.makedirs(vroot, exist_ok=True)
    gidded = _to_gids(vdata_ds, meta, {"oid": "gid"})

    def write_vdata(t: pa.Table) -> pa.Table:
        g = t.column("gid").to_numpy(zero_copy_only=False)
        fid = uuid.uuid4().hex[:12]
        counts = []
        for p, sub in split_by_part(t, part_of(g, starts_list)):
            pdir = os.path.join(vroot, f"part={p}")
            os.makedirs(pdir, exist_ok=True)
            pq.write_table(sub, os.path.join(pdir, f"{fid}.parquet"))
            counts.append(p)
        return pa.table({"part": pa.array(counts, pa.int32())})

    gidded.map_batches(write_vdata, batch_format="pyarrow", batch_size=None).materialize()
    meta.extra["vdata_cols"] = cols
    meta.save()


def attach_oids(result, meta: GraphMeta, gid_col: str = "gid", oid_name: str = "oid"):
    """Re-attach original ids to a ``(gid, ...)`` result Table or
    Dataset as column 0 (global_vertex_map.h:174-209 GetOid).  Each
    Table (or Dataset block) reads only the dictionary rows of its gid
    range, so a ``ResultHandle`` partition block reads about V/P rows
    and nothing V-sized lands in one process.  Raises ``ValueError``
    on a gid outside ``[0, V)``."""
    if isinstance(result, pa.Table):
        return result.add_column(0, oid_name, meta.oids_of(result.column(gid_col)))
    return result.map_batches(attach_oids, fn_args=(meta, gid_col, oid_name),
                              batch_format="pyarrow", batch_size=None)
