"""Flagship web pipeline: pages parquet -> link extraction -> graph
build -> analytics (the north_star shape: Common-Crawl-style corpus to
hyperlink-graph scores).

Extraction is fused into the Parquet read: one Ray Data task per file
reads its pages and runs the extractor on them, so the `html` column
(MBs/row) never reaches the object store; only the edge table does.
``extract_edges`` is the shared first stage: extract ONCE, then derive
both the directed and the symmetrized graph from the same edge table.
"""

from __future__ import annotations

import os

from ..extract import extract_edges_batch
from ..graph.build import GraphMeta, build_graph
from ..graph.driver import GraphEngine

__all__ = ["extract_edges", "pages_to_graph", "run_web_analytics"]


def extract_edges(pages_ds):
    """pages -> the pinned (src, dst) url edge Dataset, so graph builds
    reuse it without re-running extraction.  Ray Data fuses the read
    with this map only if it does not split the read's blocks, a split
    it sizes at plan time from the global ``DataContext`` (not
    ``pages_ds.context``).  Under a block floor of 1 only its memory and
    2x-CPUs rules split the read, so each file is read and extracted in
    one task; a caller's filter, limit or map stays in the plan."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    floor, ctx.read_op_min_num_blocks = ctx.read_op_min_num_blocks, 1
    try:
        return pages_ds.map_batches(extract_edges_batch, batch_format="pyarrow").materialize()
    finally:
        ctx.read_op_min_num_blocks = floor


def pages_to_graph(pages_ds, work_dir: str, num_partitions: int,
                   symmetrize: bool = False, fingerprint: str = "") -> GraphMeta:
    edges = extract_edges(pages_ds)
    return build_graph(
        edges, work_dir, num_partitions,
        directed=not symmetrize, symmetrize=symmetrize,
        fingerprint=fingerprint,
    )


def run_web_analytics(pages_ds, work_dir: str, num_partitions: int = 4,
                      pr_rounds: int = 10):
    """pages -> {pagerank, wcc} result Datasets (gid space) + metas."""
    edges = extract_edges(pages_ds)
    meta_d = build_graph(edges, os.path.join(work_dir, "directed"), num_partitions)
    del edges  # free the blocks: the undirected view reads the donor's CSRs
    eng = GraphEngine(meta_d)
    pr_ds, pr_metrics = eng.run("pagerank", {"rounds": pr_rounds})
    pr_tbl = pr_ds.to_pandas()
    eng.shutdown()

    meta_u = build_graph(None, os.path.join(work_dir, "undirected"),
                         num_partitions, directed=False, symmetrize=True,
                         reuse_vertices_from=meta_d)
    eng = GraphEngine(meta_u)
    wcc_ds, wcc_metrics = eng.run("wcc")
    wcc_tbl = wcc_ds.to_pandas()
    eng.shutdown()
    return {
        "pagerank": (pr_tbl, meta_d, pr_metrics),
        "wcc": (wcc_tbl, meta_u, wcc_metrics),
    }
