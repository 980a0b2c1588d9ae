"""libgrape_lite_ray — a Ray-Data-native link-graph analytics engine.

A from-scratch reimplementation of the query / data-processing
capabilities of libgrape-lite (reference snapshot at /root/reference)
on top of Ray Data:

- ingest: `ray.data.read_parquet` over a Common-Crawl-style pages table
  ``(url, warc_ts, html, text, lang)``; link extraction as a zero-copy
  Arrow `map_batches` stage (`libgrape_lite_ray.extract`).
- graph build: vertex dictionary + dense gid assignment + degree-aware
  contiguous (segmented) partitioning, mirroring the reference's
  SegmentedPartitioner + Rebalancer
  (grape/fragment/partitioner.h, grape/worker/rebalancer.h) —
  `libgrape_lite_ray.graph.build`.
- compute: a BSP superstep driver over a pool of fragment actors, each
  holding a CSR block (grape/fragment/immutable_edgecut_fragment.h
  analog) — `libgrape_lite_ray.graph.driver` / `.fragment`.
- programs: PageRank, WCC, CDLP, LCC/triangles, BFS, SSSP with the
  reference's exact semantics — `libgrape_lite_ray.graph.programs`.
- dataset ops: dedup / text analysis / ANN / windows over plain
  Datasets — `libgrape_lite_ray.ops`.

No code is ported from the reference; file:line citations in
docstrings point at the semantics being matched.
"""

__version__ = "0.1.0"

# NOTE: the malloc tuning (memtune.keep_heap_resident) is deliberately
# NOT applied at import time in user-owned processes — that would
# ratchet RSS to high-water mark in every process that merely imports
# the library (user drivers, test runners).  It IS applied at import
# inside RAY WORKER processes (memtune.in_ray_worker): a worker
# importing this library is about to run our batch UDFs or host
# fragments, whose per-batch and per-round temporaries are exactly the
# allocation churn the tuning exists for — and map_batches lambdas have
# no stable per-process init hook.  A user process that wants it
# (bench.py, scripts/kernel_bench.py) calls it explicitly.
from . import memtune as _memtune

if _memtune.in_ray_worker():
    _memtune.keep_heap_resident()
