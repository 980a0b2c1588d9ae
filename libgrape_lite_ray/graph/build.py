"""Distributed graph build: edge Dataset -> vertex dict + gid space +
per-partition CSRs, in place of the reference's MPI load pipeline
(grape/fragment/ev_fragment_loader.h:71-186, basic_fragment_loader.h):

  1. one task per group of edge blocks emits pre-deduped (oid, degree)
     endpoint partials; their row count N bounds V,
  2. the vertex dictionary (gid = rank in oid order, see ids.py) in
     R = ceil(N / ``_ROUTE_ROWS``) oid ranges, local_vertex_map.h's
     partitioned vertex map: one task per range sorts and writes it,
     numbered from the prefix sum of the range counts; with R > 1 the
     partials first hop to their ranges (``_range_dictionary``),
  3. degree-aware contiguous partition starts (rebalancer.h analog)
     from ONE gid-bucket histogram of ``deg + 1`` weight on every path
     (``_gid_histogram`` -> ``_histogram_starts``): the exact
     per-vertex split up to 2**20 vertices, bucket ends above,
  4. ONE oid->gid translate (``_translate``, also for vertex data):
     ``pc.index_in`` against a range's sorted oids, by object ref, in
     the route tasks; with R > 1 each oid column first hops to its
     range's task (``_to_gids``),
  5. a ROUTE-ONLY owner split (basic_fragment_loader.h:155-172): a
     route task returns partition p's rows as its p-th object, as the
     result sink splits its blocks; no sort, nothing written to disk,
  6. one task per partition sorts and dedups its pieces into the
     fragment's CSR (immutable_csr.h:100-107, the fragment Init that
     ends the reference's loader) and writes it as ``snapshot/part={p}/``
     (``write_csr``), an empty partition included: a published graph
     dir's one edge store, which a fragment load only maps.

Every step runs as plain 1-CPU Ray tasks over block refs (groups of at
most ``_ROUTE_ROWS`` rows), like ``sinks.write_dataset_partitioned``:
the calling process only routes refs and holds nothing V-sized, and no
build starts a Ray Data execution.  A route task concatenates its group in
block order, and a CSR task its pieces in group order, so a partition's
rows depend only on the input blocks.  Everything lands in the build's
tmp dir, which ``publish_graph_dir`` renames into place.

The router (``_route_group``) alone decides edge direction, like the
reference's LoadStrategy (grape/types.h:63-68): a gid row ``(s, d, w)``
goes to owner(s) (``"out"``), as ``(d, s, w)`` to owner(d) (``"in"``),
or both.  A directed build routes ``"out"``;
``symmetrize=True`` translates the E input rows once and routes
``"both"``; ``reverse_graph`` and ``reuse_vertices_from`` re-route a
built graph's CSRs (``csr_edges``) ``"in"`` or ``"both"`` under its
dictionary and starts.  Dense int64 oids (``dense_int_oids=True``)
skip 1, 2 and 4.

``meta.extra["build"]`` records the seconds of the partials, dictionary,
route and CSR passes, rows in, rows routed, non-empty pieces routed and
the dictionary ranges R (0 when no dictionary is built).  A null oid
raises ``ValueError`` on every path.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..ids import split_by_part, weighted_partition_starts
from ..sinks import _write_one
from .fragment import csr_arrays, csr_dir, csr_edges, csr_num_edges, load_csr, save_arrays

__all__ = ["GraphMeta", "build_graph", "edges_from_numpy", "attach_oids"]


@dataclass
class GraphMeta:
    """Everything a driver / fragment actor needs to locate the graph."""

    work_dir: str
    num_vertices: int
    # rows routed before the CSR dedup; a view or a mutation routes its
    # donor's stored edges, which are deduped unless weighted
    num_edges: int
    num_partitions: int
    starts: np.ndarray  # int64[P+1] contiguous gid range boundaries
    directed: bool
    oid_type: str  # "string" | "int64"
    has_weights: bool = False
    fingerprint: str = ""
    extra: dict = field(default_factory=dict)

    @property
    def spool_dir(self) -> str:
        """No build writes this dir: rows reach their owners as objects."""
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

    @property
    def vdata_columns(self):
        """What fragments load as vdata: ``{column: Arrow type name}``,
        or the bare names for a graph dir built before the types were
        recorded (the loader then reads each partition's file types),
        or None without vdata."""
        return self.extra.get("vdata_types") or self.extra.get("vdata_cols")

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
        d = {k: v for k, v in vars(self).items() if k != "work_dir"}
        with open(os.path.join(self.work_dir, "graph_meta.json"), "w") as f:
            json.dump(d | {"starts": self.starts.tolist()}, f)

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


# rows per build task (a route group, a dictionary range): groups of 4M
# rows bound the routed pieces to O(E/4M x P), where per-block routing
# made O(blocks x P).  Read at call time, so a test can patch it
_ROUTE_ROWS = 4_000_000
_EDGE_GIDS = {"src": "src_gid", "dst": "dst_gid"}


def _group(items: list, rows: list):
    """``items`` in order, cut into contiguous groups of at most
    ``_ROUTE_ROWS`` rows (a larger item is a group of its own), and the
    total row count."""
    groups, n = [], 0
    for item, r in zip(items, rows):
        if not groups or n + r > _ROUTE_ROWS:
            groups.append([])
            n = 0
        groups[-1].append(item)
        n += r
    return groups, int(sum(rows))


def _block_groups(ds):
    """``_group`` of a Dataset's block refs by their metadata row
    counts.  ``materialize`` runs no executor on a Dataset that is
    already pinned (or built from in-memory blocks), so its refs cost
    no Ray Data execution."""
    blocks = [b for bundle in ds.materialize().iter_internal_ref_bundles()
              for b in bundle.blocks]
    return _group([ref for ref, _ in blocks], [md.num_rows or 0 for _, md in blocks])


def _concat(items) -> pa.Table:
    """One group's rows: its blocks or routed pieces, or whole partitions'
    stored edges (by ``(CSR dir, first gid)``), concatenated in order.
    Empty ones are skipped: they can come with no columns at all."""
    from ray.data.block import BlockAccessor

    ts = [_csr_table(*x) if isinstance(x, tuple) else BlockAccessor.for_block(x).to_arrow()
          for x in items]
    ts = [t for t in ts if t.num_rows]
    return pa.concat_tables(ts) if ts else pa.table({})


def _csr_table(path: str, lo: int) -> pa.Table:
    """A stored CSR's edges as ``src_gid/dst_gid`` (+ ``w``) rows."""
    src, dst, w = csr_edges(load_csr(path), lo)
    return pa.table({"src_gid": src, "dst_gid": dst} | ({} if w is None else {"w": w}))


def _endpoint_partial(cols, copies: int, *blocks):
    """One group's (oid, cnt) rows, deduped inside the group, and their
    count.  Each value of the ``cols`` columns weighs ``copies``: BOTH
    endpoints weigh 1 per routed copy of an edge (``copies=2`` when
    symmetrized; declared vertices weigh 0), so the summed cnt is the
    total degree over the routed rows.  That is the balance the
    undirected view needs (``reuse_vertices_from`` keeps the donor's
    starts) and a sound proxy for directed work (push tracks out-,
    ingestion in-degree)."""
    t = _concat(blocks)
    if not t.num_rows:
        return t, 0
    _check_oids(t, cols)
    uniq = [pc.value_counts(t.column(c)) for c in cols]
    cnt = [u.field("counts").to_numpy(zero_copy_only=False).astype(np.int64) for u in uniq]
    oid = pa.concat_arrays([u.field("values") for u in uniq])
    return pa.table({"oid": oid, "cnt": np.concatenate(cnt) * copies}), len(oid)


def _check_oids(t: pa.Table, cols) -> None:
    """Refuse a null oid: it names no vertex, and no oid range holds it."""
    for c in cols:
        if t.column(c).null_count:
            raise ValueError(f"null oid in column {c!r}")


def publish_graph_dir(final_dir: str, build) -> GraphMeta:
    """Build a graph dir atomically: ``build(tmp_dir)`` writes into
    ``final_dir.building-<pid>`` and returns its saved meta, which is
    renamed into place only on success, so a retry never reads what a
    crashed build left half written.  An existing ``graph_meta.json``
    marker is loaded instead of rebuilt."""
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
    already-built graph instead: the donor's stored edges are re-routed
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
        else:
            meta = _build_from_edges(edges_ds, tmp_dir, num_partitions, directed, symmetrize,
                                     weight_col, fingerprint, vertices_ds, dense_int_oids)
        if vdata_ds is not None:
            _write_vdata(vdata_ds, meta)
        return meta

    return publish_graph_dir(work_dir, build)


def _build_from_edges(edges_ds, work_dir, num_partitions, directed, symmetrize,
                      weight_col, fingerprint, vertices_ds, dense: bool) -> GraphMeta:
    """Endpoint partials -> vertex dictionary + starts -> translate ->
    route (steps 1-5 above).  Dense int64 oids (0..V-1, ``dense``) are
    their own gids: one task wave finds the oid range and one the
    histogram starts, and the route keeps the oids in [0, V)."""
    import ray

    edges_ds = _prepare_edges(edges_ds, weight_col)
    sch = edges_ds.schema()
    src_type = getattr(sch, "base_schema", sch).field("src").type
    oid_type = "string" if src_type in (pa.string(), pa.large_string()) else "int64"
    groups, rows_in = _block_groups(edges_ds)
    copies, t0 = 2 if symmetrize else 1, time.perf_counter()
    # an explicit universe (vfile) adds vertices that may be in no edge
    vgroups = _block_groups(vertices_ds)[0] if vertices_ds is not None else []
    if dense:
        span = ray.remote(_oid_span)
        spans = [s for s in ray.get([span.remote(("src", "dst"), *g) for g in groups]
                                    + [span.remote(("oid",), *g) for g in vgroups]) if s]
        if not spans:
            raise ValueError("empty edge input")
        if min(lo for lo, _ in spans) < 0:
            raise ValueError("dense_int_oids needs non-negative oids")
        V = max(hi for _, hi in spans) + 1
        P = min(num_partitions, max(1, V))
        t1 = time.perf_counter()
        starts, dictionary, R = _dataset_starts(groups, V, P, copies), ([], [(0, V)]), 0
    else:
        # ---- 1. one task per block group emits pre-deduped (oid, cnt)
        # endpoint partials; their row count N bounds V, so it picks the
        # number of dictionary ranges.  Declared vertices add zero-weight
        # rows, so isolated vertices get gids too
        partial = ray.remote(num_returns=2)(_endpoint_partial)
        parts = ([partial.remote(("src", "dst"), copies, *g) for g in groups]
                 + [partial.remote(("oid",), 0, *g) for g in vgroups])
        tables, counts = [p[0] for p in parts], ray.get([p[1] for p in parts])
        if sum(counts) == 0:
            raise ValueError("empty edge input")
        t1 = time.perf_counter()
        # ---- 2-3. the dictionary in R oid ranges, and the starts
        R = -(-sum(counts) // _ROUTE_ROWS)
        V, P, starts, dictionary = _range_dictionary(
            os.path.join(work_dir, "vertices"), num_partitions, R,
            [t for t, n in zip(tables, counts) if n])
        del parts, tables  # consumed: free the partials from plasma
    # ---- 4. translate edges to gid space (in the route tasks, after a
    # hop per oid column when R > 1), 5. route
    meta = GraphMeta(work_dir, V, 0, P, np.asarray(starts, np.int64), directed, oid_type,
                     bool(weight_col), fingerprint, extra={"identity_oids": True} if dense else {})
    return _route_and_finish(meta, "both" if symmetrize else "out",
                             *_to_gids(groups, dictionary, _EDGE_GIDS),
                             partials_s=t1 - t0, dictionary_s=time.perf_counter() - t1,
                             rows_in=rows_in, dict_ranges=R)


def _prepare_edges(edges_ds, weight_col):
    """Project to ``src``/``dst`` (+ ``w``) and pin the projection."""
    from ray.data.dataset import MaterializedDataset

    cols = ["src", "dst"] + ([weight_col] if weight_col else [])
    # the build reads the edge blocks more than once (partials, then
    # translate+route): pin the PROJECTED columns so the upstream
    # pipeline (e.g. html extraction) doesn't re-execute.  An input
    # pinned with exactly these columns (``extract_edges``) is used as is.
    if not (isinstance(edges_ds, MaterializedDataset)
            and edges_ds.schema().names == cols and weight_col in (None, "w")):
        edges_ds = edges_ds.select_columns(cols)
        if weight_col and weight_col != "w":
            edges_ds = edges_ds.rename_columns({weight_col: "w"})
        edges_ds = edges_ds.materialize()
    return edges_ds


def _range_dictionary(vertices_dir: str, num_partitions: int, R: int, partials: list):
    """``(V, P, starts, dictionary)`` (as ``_to_gids`` takes it) of ``R``
    oid ranges cut at every R-th oid of each sorted partial: one task per
    range sums its runs, then each non-empty range is numbered from the
    prefix sum of the counts.  The driver holds R counts and first oids,
    the B-bucket histogram and refs."""
    import ray

    if R > 1:
        sample = ray.remote(_sample_oids)
        splitters = ray.remote(_splitters).remote(R, *[sample.remote(R, t) for t in partials])
        partials = _route([[t] for t in partials], ray.get(splitters), "oid")
    runs = ray.remote(num_returns=2)(_sorted_runs)
    ranges = [runs.remote(*p) for p in (partials if R > 1 else [partials])]
    kept = [(t, info) for (t, _), info in zip(ranges, ray.get([i for _, i in ranges])) if info]
    offs = np.cumsum([0] + [n for _, (_, n) in kept]).tolist()
    V = offs.pop()
    P, B = min(num_partitions, max(1, V)), min(V, _HIST_BUCKETS)
    number = ray.remote(num_returns=2)(_number_runs)
    numbered = [number.remote(vertices_dir, i, off, V, B, t)
                for i, (off, (t, _)) in enumerate(zip(offs, kept))]
    hist = np.zeros(B, np.float64)
    for h, _ in numbered:
        hist += ray.get(h)
    return V, P, _histogram_starts(hist, V, P), (
        [f for _, (f, _) in kept[1:]], [(off, d) for off, (_, d) in zip(offs, numbered)])


def _sample_oids(step: int, partial: pa.Table) -> pa.Array:
    """Every ``step``-th oid of a partial in sort order, its last included."""
    oid = partial.column("oid")
    pos = np.arange(len(oid) - 1, -1, -step)
    return oid.take(pc.sort_indices(oid).take(pos)).combine_chunks()


def _splitters(R: int, *samples) -> pa.Array:
    """The oids that cut the sorted samples into ``R`` equal runs."""
    s = pa.chunked_array(samples)
    return s.take(pc.sort_indices(s)).take(np.arange(1, R) * len(s) // R).combine_chunks()


def _sorted_runs(*blocks):
    """The distinct oids of (oid, cnt) rows in oid order with their summed
    ``cnt``, and ``(first oid, count)``, or None when there is no row."""
    t = _concat(blocks)
    if not t.num_rows:
        return t, None
    t = t.group_by("oid").aggregate([("cnt", "sum")]).sort_by("oid")
    return t, (t.column("oid")[0].as_py(), t.num_rows)


def _number_runs(vertices_dir: str, i: int, off: int, V: int, B: int, runs: pa.Table):
    """Write ``_sorted_runs`` output as dictionary file ``i``: rows
    ``(oid, gid, weight)``, gids from ``off`` on.  Returns their gid
    histogram over ``B`` buckets and their sorted oids."""
    gid = np.arange(off, off + runs.num_rows, dtype=np.int64)
    vt = pa.table({"oid": runs.column("oid"), "gid": gid,
                   "weight": runs.column("cnt_sum").to_numpy().astype(np.float64)})
    os.makedirs(vertices_dir, exist_ok=True)
    pq.write_table(vt, os.path.join(vertices_dir, f"part-{i:06d}.parquet"),
                   row_group_size=_DICT_ROW_GROUP)
    return _gid_histogram(["gid"], V, B, "weight", vt), runs.column("oid").combine_chunks()


_HIST_BUCKETS = 1 << 20
# vertices/ row-group size: a lookup skips the groups whose min/max
# statistics exclude its keys and decodes the rest one at a time.  On a
# 4M-URL dictionary, 16k-row groups made the file 120 MiB (102 MiB with
# the default 1M-row groups) and cut a 1,000-random-key lookup's peak
# Arrow memory from 143 to 4-5 MiB, at the same 0.5 s
_DICT_ROW_GROUP = 1 << 14


def _gid_histogram(cols, V: int, B: int, weight: str | None, *blocks) -> np.ndarray:
    """Weights of ``B`` equal-width buckets of the gid range ``[0, V)``
    (gid g falls in bucket ``g * B // V``), summed over the gid columns
    ``cols`` of the ``blocks``: every value weighs 1, or its row's
    ``weight``."""
    t = _concat(blocks)
    h = np.zeros(B, np.float64)
    if not t.num_rows:
        return h
    w = None if weight is None else t.column(weight).to_numpy(zero_copy_only=False)
    for c in cols:
        g = t.column(c).to_numpy(zero_copy_only=False).astype(np.int64)
        h += np.bincount(g * B // V, weights=w, minlength=B)
    return h


def _dataset_starts(groups, V: int, P: int, copies: int = 1) -> np.ndarray:
    """``_histogram_starts`` of the ``_gid_histogram`` of every edge
    block of the ``_block_groups`` ``groups`` weighed ``copies`` times
    (routed copies per edge, as in ``_endpoint_partial``): ONE task per
    block group, summed here in O(B) memory, never O(V)."""
    import ray

    B = min(V, _HIST_BUCKETS)
    hist = ray.remote(_gid_histogram)
    total = np.zeros(B, np.float64)
    for ref in [hist.remote(("src", "dst"), V, B, None, *g) for g in groups]:
        total += ray.get(ref)
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


def _oid_span(cols, *blocks):
    """``(min, max)`` over the ``cols`` oids of one block group, or None
    when it holds no row."""
    t = _concat(blocks)
    if not t.num_rows:
        return None
    _check_oids(t, cols)
    mm = [pc.min_max(t.column(c)) for c in cols]
    return min(m["min"].as_py() for m in mm), max(m["max"].as_py() for m in mm)


def reverse_graph(meta: GraphMeta) -> GraphMeta:
    """In-edge adjacency without a second graph build (the in-edge half
    of the reference's LoadStrategy ``kBothOutIn``, grape/types.h:63-68,
    immutable_edgecut_fragment.h:79-114): ONE ``"in"`` route pass over
    the built graph's per-partition CSRs — no re-extract, no dictionary
    translate, no global sort (each partition's CSR task sorts its
    slice).  Built once, cached under ``meta.work_dir/rev``.

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
    """A view of a built graph from one route pass over its partitions'
    CSRs, grouped by their edge counts, keeping its dictionary
    (hard-linked), partition starts and oid mapping."""
    t0 = time.perf_counter()
    if donor.extra.get("identity_oids"):
        extra["identity_oids"] = True  # dense-int graphs have no dictionary on disk
    else:
        link_tree(donor.vertices_path, os.path.join(work_dir, "vertices"))
    dirs = [(csr_dir(donor.work_dir, p), int(donor.starts[p])) for p in range(donor.num_partitions)]
    groups, rows_in = _group(dirs, [csr_num_edges(d) for d, _ in dirs])
    meta = GraphMeta(work_dir, donor.num_vertices, 0, donor.num_partitions, donor.starts,
                     donor.directed, donor.oid_type, donor.has_weights, fingerprint,
                     extra=extra)
    return _route_and_finish(meta, direction, groups, partials_s=0.0, dict_ranges=0,
                             dictionary_s=time.perf_counter() - t0, rows_in=rows_in)


def _translate(t: pa.Table, cols: dict, first_gid: int, oids) -> pa.Table:
    """The one oid->gid translate: each oid column ``c`` of ``cols``
    (``{c: gid column}``) becomes its gid column, by ``pc.index_in``
    against a dictionary range's sorted ``oids`` (the position plus
    ``first_gid`` IS the gid) or, for dense ints (``oids`` the vertex
    count V), by keeping the oid in ``[0, V)``.  Gid columns come first,
    then the rest; a row whose oid is not a vertex is dropped."""
    _check_oids(t, cols)
    if isinstance(oids, int):
        gids = [pc.if_else(pc.and_(pc.greater_equal(g, 0), pc.less(g, oids)), g, None)
                for g in (t.column(c).cast(pa.int64()) for c in cols)]
    else:
        gids = [pc.add(pc.index_in(t.column(c), value_set=oids).cast(pa.int64()), first_gid)
                for c in cols]
    rest = {c: t.column(c) for c in t.column_names if c not in cols}
    out = pa.table(dict(zip(cols.values(), gids)) | rest)
    if any(g.null_count for g in gids):
        out = out.filter(functools.reduce(pc.and_, map(pc.is_valid, gids)))
    return out


def _to_gids(groups, dictionary, cols: dict):
    """``(groups, ranges, cols)`` for ``_route``, whose tasks
    ``_translate`` each group's oid columns ``cols`` against its range.
    ``dictionary`` is ``(splitters, ranges)``: the first oid of each
    range but the first, and each range's ``(first gid, sorted oids
    ref)``, or ``(0, V)`` for dense ints.  With several ranges each
    column first hops to its ranges' tasks, which translate it."""
    splitters, ranges = dictionary
    if not splitters:
        return groups, ranges * len(groups), cols
    splitters, dicts, done = pa.array(splitters), None, {}
    for c in reversed(cols):  # _translate puts gid columns first
        groups = _route(groups, splitters, c, "out", dicts, done)
        dicts, done = ranges, {c: cols[c]}
    return groups, dicts, done


def _stored_dictionary(meta: GraphMeta):
    """``_to_gids``' dictionary of a built graph, one ``vertices/`` file
    (an oid range, in gid order) per read task."""
    import ray

    if meta.extra.get("identity_oids"):
        return [], [(0, meta.num_vertices)]
    read = ray.remote(num_returns=2)(_read_range)
    refs = [read.remote(os.path.join(meta.vertices_path, f))
            for f in sorted(os.listdir(meta.vertices_path))]
    firsts = ray.get([f for f, _ in refs])  # (first gid, first oid) per range
    return [oid for _, oid in firsts[1:]], [(g, oids) for (g, _), (_, oids) in zip(firsts, refs)]


def _read_range(path: str):
    t = pq.read_table(path, columns=["oid", "gid"])
    return (t["gid"][0].as_py(), t["oid"][0].as_py()), t["oid"].combine_chunks()


def _range_of(t: pa.Table, key: str, splitters) -> np.ndarray:
    """How many ``splitters`` sort at or before each value of column
    ``key`` in Arrow's order (for strings, a vectorized binary search):
    an oid's dictionary range, or a gid's owner under the inner starts."""
    _check_oids(t, [key])
    x, k = t.column(key), len(splitters)
    if pa.types.is_integer(x.type):
        return np.searchsorted(np.asarray(splitters, np.int64), x.to_numpy(), side="right")
    lo, hi = np.zeros(len(x), np.int64), np.full(len(x), k, np.int64)
    while (go := lo < hi).any():
        mid = (lo + hi) // 2
        le = pc.less_equal(splitters.take(np.minimum(mid, k - 1)), x).to_numpy(
            zero_copy_only=False)
        lo = np.where(go & le, mid + 1, lo)
        hi = np.where(go & ~le, mid, hi)
    return lo


def _route_group(splitters, key: str, direction: str, cols, first_gid: int, oids, *items):
    """One route task: a group's rows (``_translate``d first when
    ``cols`` names oid columns), split by ``_range_of`` their column
    ``key``; piece r is return value r (bare when there is one)."""
    t = _concat(items)
    if t.num_rows and cols:
        t = _translate(t, cols, first_gid, oids)
    if t.num_rows and direction != "out":
        rev = pa.table({"src_gid": t.column("dst_gid"), "dst_gid": t.column("src_gid")}
                       | ({"w": t.column("w")} if "w" in t.column_names else {}))
        t = pa.concat_tables(([t] if direction == "both" else []) + [rev])
    pieces = split_by_part(t, _range_of(t, key, splitters) if t.num_rows else [],
                           len(splitters) + 1)
    return pieces if len(pieces) > 1 else pieces[0]


def _route(groups, splitters, key: str, direction: str = "out", dicts=None, cols=None) -> list:
    """``_route_group`` over every group (block refs or CSR dirs), each
    with its dictionary range from ``dicts`` (see ``_to_gids``), as
    1-CPU tasks (half-CPU ones make Ray start and kill extra workers on
    every call).  Returns each piece's refs in group order once every
    route task is done."""
    import ray

    n = len(splitters) + 1
    route = ray.remote(num_returns=n)(_route_group)
    pieces = [route.remote(splitters, key, direction, cols, *d, *g)
              for g, d in zip(groups, dicts or [(0, None)] * len(groups))]
    if n == 1:  # one return value comes back as a bare ref
        pieces = [[r] for r in pieces]
    refs = [r for g in pieces for r in g]
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    return [[g[p] for g in pieces] for p in range(n)]


def _route_and_finish(meta: GraphMeta, direction: str, groups, dicts=None, cols=None,
                      **record) -> GraphMeta:
    """Route the groups (with a ``_to_gids`` translate, or a donor's
    CSR dirs) to their owners and write every partition's CSR from its
    pieces, then count the rows into ``meta``, record the build in
    ``meta.extra["build"]`` and save it.

    ``direction`` picks the copies each row ``(s, d, w)`` yields:
    ``"out"`` sends it to owner(s), ``"in"`` sends ``(d, s, w)`` to
    owner(d), ``"both"`` sends both (an undirected graph)."""
    import ray

    # ---- 5. route only: a map-side split by owner, no sort
    t0 = time.perf_counter()
    pieces = _route(groups, meta.starts[1:-1], "src_gid", direction, dicts, cols)
    # ---- 6. one task per partition sorts its pieces into the CSR
    t1 = time.perf_counter()
    csr = ray.remote(write_csr)
    done = ray.get([csr.remote(meta.work_dir, p, meta.starts, meta.has_weights, *pieces[p])
                    for p in range(meta.num_partitions)])
    meta.num_edges = int(sum(rows for rows, _ in done))
    meta.directed = meta.directed and direction != "both"
    meta.extra["build"] = record | {"route_s": t1 - t0,
                                    "csr_s": time.perf_counter() - t1,
                                    "rows_routed": meta.num_edges,
                                    "route_pieces": int(sum(n for _, n in done))}
    meta.save()
    return meta


def save_csr(work_dir: str, p: int, starts, src, dst, w) -> None:
    """Write partition ``p``'s ``csr_arrays`` of the given edges as the
    array directory ``snapshot/part={p}/`` that its fragment maps."""
    save_arrays(csr_dir(work_dir, p),
                csr_arrays(src, dst, w, int(starts[p]), int(starts[p + 1])))


def write_csr(work_dir: str, p: int, starts, has_weights: bool, *pieces) -> tuple[int, int]:
    """Partition ``p``'s CSR from its routed pieces (``save_csr``), an
    empty one when no piece has a row.  Returns ``(rows, non-empty
    pieces)``."""
    t = _concat(pieces)

    def col(c, dtype):
        return np.asarray(t.column(c) if t.num_rows else [], dtype)

    save_csr(work_dir, p, starts, col("src_gid", np.int64), col("dst_gid", np.int64),
             col("w", np.float64) if has_weights else None)
    return t.num_rows, sum(x.num_rows > 0 for x in pieces)


def link_tree(src_dir: str, dst_dir: str) -> None:
    """Hard-link every file of the flat directory ``src_dir`` into
    ``dst_dir``: how a derived graph dir carries what it shares with
    its source (dictionary, untouched partitions) without a copy."""
    os.makedirs(dst_dir, exist_ok=True)
    for f in os.listdir(src_dir):
        os.link(os.path.join(src_dir, f), os.path.join(dst_dir, f))


def _write_vdata(vdata_ds, meta: GraphMeta):
    """Translate a per-vertex property Dataset (oid, cols...) to gid
    space and route it to its owners, then commit each partition's rows
    as ``work_dir/vdata/part={p}/`` (ref basic_fragment_loader.h:300-338
    vertex-data routing).  V-sized, so the rows are written unsorted;
    the fragment sorts its own slice at load."""
    import ray

    cols = [c for c in vdata_ds.schema().names if c != "oid"]
    if not cols:
        raise ValueError("vdata_ds needs at least one value column besides 'oid'")
    groups, dicts, key = _to_gids(_block_groups(vdata_ds)[0], _stored_dictionary(meta),
                                  {"oid": "gid"})
    pieces = _route(groups, meta.starts[1:-1], "gid", "out", dicts, key)
    commit = ray.remote(_commit_vdata)
    written = ray.get([commit.remote(os.path.join(meta.work_dir, "vdata", f"part={p}"),
                                     *pieces[p]) for p in range(meta.num_partitions)])
    meta.extra["vdata_cols"] = cols
    # the written Arrow types, for the partitions that got no row (and
    # so no file); with no row anywhere every column loads as zeros
    types = next(filter(None, written), None)
    if types:
        meta.extra["vdata_types"] = {c: types[c] for c in cols}
    meta.save()


def _commit_vdata(pdir: str, *pieces) -> dict | None:
    """``sinks._write_one`` of the pieces with rows, and the written
    ``{column: Arrow type name}``; no file and None if none has one."""
    pieces = [t for t in pieces if t.num_rows]
    if not pieces:
        return None
    _write_one(pdir, *pieces)
    return {f.name: str(f.type) for f in pieces[0].schema}


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
