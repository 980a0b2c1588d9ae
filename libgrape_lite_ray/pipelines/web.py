"""Flagship web pipeline: pages parquet -> link extraction -> graph
build -> analytics (the north_star shape: Common-Crawl-style corpus to
hyperlink-graph scores).

Extraction never carries the `html` column past the extractor stage
(project-early; html can be MBs/row) and runs as a task-pool
map_batches over zero-copy Arrow batches.  ``extract_edges`` is the
shared first stage: extract ONCE, then derive both the directed and the
symmetrized graph from the same edge table.
"""

from __future__ import annotations

import os

from ..extract import extract_edges_batch
from ..graph.build import GraphMeta, build_graph
from ..graph.driver import GraphEngine

__all__ = ["extract_edges", "pages_to_graph", "run_web_analytics"]

# pages per extract batch, so per edge block; the build groups blocks
# up to 4M rows per task, so the block count no longer costs it a pass
EXTRACT_BATCH_PAGES = 4096


def extract_edges(pages_ds, materialize: bool = True):
    """pages -> (src, dst) url edge Dataset.  ``materialize=True`` pins
    the (small relative to html) edge table so multiple graph builds
    reuse it without re-running extraction; at full corpus scale write
    it to Parquet instead and read it back.

    Extraction is stateless, so it runs as elastic TASKS (scales with
    available CPUs; actor pools ramp lazily and under-use big nodes).
    """
    edges = pages_ds.map_batches(extract_edges_batch, batch_format="pyarrow",
                                 batch_size=EXTRACT_BATCH_PAGES)
    return edges.materialize() if materialize else edges


def pages_to_graph(pages_ds, work_dir: str, num_partitions: int,
                   symmetrize: bool = False, fingerprint: str = "") -> GraphMeta:
    edges = extract_edges(pages_ds, materialize=False)
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
