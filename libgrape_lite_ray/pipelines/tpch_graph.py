"""Derived graph over the driver's TPC-H-ish testdata.

The correctness harness (driver + DuckDB oracle) runs over tables
``lineitem`` etc.; graph algorithms need an edge table, so we derive a
deterministic one that ANSI SQL can reproduce exactly:

    src = l_orderkey % 2000
    dst = (l_partkey * 7 + l_suppkey) % 2000      (src != dst, DISTINCT)

(an arbitrary but fixed mod-graph with hubs, cycles and triangles).
The weighted variant adds ``w = MIN(l_quantity)`` per (src, dst).

Graph builds are cached per (sf_dir, variant) under /tmp so the many
``queries()`` entries share one build.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..graph.build import GraphMeta, attach_oids, build_graph
from ..graph.driver import GraphEngine

__all__ = ["derived_edges", "graph_meta_for", "run_graph_query", "K_VERTS"]

K_VERTS = 2000
_CACHE_ROOT = "/tmp/lgr_cache"


def derived_edges(sf_dir: str, weighted: bool = False):
    """Ray Dataset of the derived edge table (src, dst [, w])."""
    import ray.data as rd

    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_quantity"],
    )

    def make(t: pa.Table) -> pa.Table:
        ok = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pk = t.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        sk = t.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        src = ok % K_VERTS
        dst = (pk * 7 + sk) % K_VERTS
        keep = src != dst
        cols = {"src": src[keep], "dst": dst[keep]}
        if weighted:
            cols["w"] = t.column("l_quantity").to_numpy(zero_copy_only=False).astype(np.float64)[keep]
        return pa.table(cols)

    edges = ds.map_batches(make, batch_format="pyarrow", batch_size=None)
    if weighted:
        # w = min(l_quantity) per distinct (src, dst)
        from ray.data.aggregate import Min

        return edges.groupby(["src", "dst"]).aggregate(Min("w", alias_name="w"))
    return edges


def derived_vdata(sf_dir: str):
    """Per-vertex property table (oid, val): val = number of orders
    whose o_orderkey maps to the vertex (integer, so engine and SQL sums
    agree exactly)."""
    import ray.data as rd
    from ray.data.aggregate import Count

    ds = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey"])

    def make(t: pa.Table) -> pa.Table:
        ok = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"oid": ok % K_VERTS})

    return (ds.map_batches(make, batch_format="pyarrow", batch_size=None)
            .groupby("oid").aggregate(Count(alias_name="val")))


def derived_vdata_str(sf_dir: str):
    """Per-vertex STRING property (oid, tag): tag = o_orderpriority of
    the max o_orderkey mapping to the vertex — deterministic, data-
    driven, and reproducible in ANSI SQL (ROW_NUMBER window)."""
    import ray.data as rd

    ds = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                         columns=["o_orderkey", "o_orderpriority"])

    def make(t: pa.Table) -> pa.Table:
        ok = t.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"oid": ok % K_VERTS, "okey": ok,
                         "tag": t.column("o_orderpriority")})

    from ..ops._shard import sharded_map_groups

    def keep_max(t: pa.Table) -> pa.Table:
        # vectorized arg-max-okey per oid: lexsort (oid, okey), the
        # LAST row of each oid-run wins — one call per shard, not one
        # pandas frame per vertex
        oid = t.column("oid").to_numpy(zero_copy_only=False)
        okey = t.column("okey").to_numpy(zero_copy_only=False)
        order = np.lexsort((okey, oid))
        oid_s = oid[order]
        last = np.flatnonzero(np.r_[oid_s[1:] != oid_s[:-1], True])
        return (t.select(["oid", "tag"])
                .take(pa.array(order[last], pa.int64())))

    return sharded_map_groups(
        ds.map_batches(make, batch_format="pyarrow", batch_size=None),
        ["oid"], keep_max)


def _cache_dir(sf_dir: str, variant: str) -> str:
    li = os.path.join(sf_dir, "lineitem.parquet")
    tag = hashlib.md5(f"{os.path.abspath(sf_dir)}|{os.path.getmtime(li)}|{variant}|v3".encode()).hexdigest()[:16]
    return os.path.join(_CACHE_ROOT, tag)


def graph_meta_for(sf_dir: str, variant: str = "directed", num_partitions: int = 4) -> GraphMeta:
    """Build (or load cached) derived graph. variant:
    directed | undirected | weighted | vdata (directed + per-vertex
    order-count property) | vdata_str (directed + per-vertex STRING
    tag property) | reversed (in-edge direction of the
    directed graph, one route-only transpose of its stored CSRs — see
    build.reverse_graph)."""
    if variant == "reversed":
        from ..graph.build import reverse_graph

        return reverse_graph(graph_meta_for(sf_dir, "directed", num_partitions))
    d = _cache_dir(sf_dir, f"{variant}-P{num_partitions}")
    marker = os.path.join(d, "graph_meta.json")
    if os.path.exists(marker):
        return GraphMeta.load(d)
    weighted = variant == "weighted"
    edges = derived_edges(sf_dir, weighted=weighted)
    return build_graph(
        edges, d, num_partitions,
        directed=variant != "undirected",
        symmetrize=variant == "undirected",
        weight_col="w" if weighted else None,
        fingerprint=os.path.basename(d),
        vdata_ds=(derived_vdata(sf_dir) if variant == "vdata"
                  else derived_vdata_str(sf_dir) if variant == "vdata_str"
                  else None),
    )


def run_graph_query(sf_dir: str, program: str, params: dict | None = None,
                    variant: str = "directed", num_partitions: int = 4,
                    max_oracle_rounds: int | None = None) -> pa.Table:
    """Build/load the derived graph, run `program`, re-attach oids.
    Returns a pyarrow Table with an `oid` int64 column first.

    ``max_oracle_rounds``: when the paired SQL oracle is a fixed-depth
    unroll, pass its depth — the engine runs to convergence, so if its
    measured round count reaches the oracle's unroll the oracle would
    silently under-iterate at this scale factor and the comparison
    would be meaningless; fail loudly here instead."""
    meta = graph_meta_for(sf_dir, variant, num_partitions)
    eng = GraphEngine(meta)
    try:
        ds, metrics = eng.run(program, params or {})
        if max_oracle_rounds is not None and metrics.get("rounds", 0) >= max_oracle_rounds:
            raise AssertionError(
                f"{program}: engine needed {metrics['rounds']} rounds but the SQL "
                f"oracle unrolls only {max_oracle_rounds} — raise the oracle depth "
                f"for this scale factor before trusting the comparison"
            )
        tbl = ds.to_arrow()
    finally:
        eng.shutdown()
    tbl = attach_oids(tbl, meta)
    return tbl.drop_columns(["gid"])
