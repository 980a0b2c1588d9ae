"""``ray job submit`` entrypoint — the cluster-run shape of the north
rule (reference: ``mpirun ./run_app --application=pagerank ...``,
``examples/analytical_apps/run_app.cc`` flag surface).

    ray job submit --working-dir . -- \\
        python -m libgrape_lite_ray.run \\
        --corpus /data/pages --algo pagerank --params '{"rounds": 10}' \\
        --work-dir /data/graph --out /data/scores \\
        --num-partitions 128 --checkpoint-every 2 --resume

Input is either ``--corpus`` (web-pages parquet: url/html columns, the
link-extraction front end runs first) or ``--edges`` (a (src, dst[, w])
parquet edge table).  The graph build is cached under ``--work-dir``
(content marker), per-superstep checkpoints land in
``<work-dir>/ckpt`` when ``--checkpoint-every`` is set, and
``--resume`` both resumes a mid-algorithm checkpoint AND skips output
partitions already committed by a killed run (``sinks.py`` atomic
``part=K`` dirs) — the "killed ``ray job submit`` run resumes
mid-algorithm" clause.  Prints ONE JSON line of run metrics.

This module owns a Ray session only when none is initialised (the
graft driver / pytest session fixture keep owning theirs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(prog="libgrape_lite_ray.run")
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--corpus", help="web-pages parquet (url/html) — link extraction runs first")
    src.add_argument("--edges", help="(src, dst[, w]) parquet edge table")
    ap.add_argument("--algo", default="pagerank",
                    help="program name from graph.programs.PROGRAMS")
    ap.add_argument("--params", default="{}", help="program params as JSON")
    ap.add_argument("--work-dir", required=True,
                    help="graph build + checkpoint directory (reused across runs)")
    ap.add_argument("--out", required=True,
                    help="output directory (resumable part=K parquet)")
    ap.add_argument("--num-partitions", type=int, default=8)
    ap.add_argument("--num-hosts", type=int, default=None,
                    help="fragment hosts (default: one per partition, capped by CPUs)")
    ap.add_argument("--symmetrize", action="store_true",
                    help="build the undirected (symmetrized) graph")
    ap.add_argument("--weight-col", default=None)
    ap.add_argument("--max-rounds", type=int, default=10**9)
    ap.add_argument("--checkpoint-every", type=int, default=0)
    ap.add_argument("--resume", action="store_true")
    args = ap.parse_args(argv)

    import ray

    owns_ray = not ray.is_initialized()
    if owns_ray:  # a real `ray job submit` connects to the cluster
        ray.init(address=os.environ.get("RAY_ADDRESS", "auto"),
                 ignore_reinit_error=True)

    import ray.data as rd

    from .graph.build import attach_oids, build_graph
    from .graph.driver import GraphEngine
    from .sinks import write_dataset_partitioned

    try:
        if args.corpus:
            from .pipelines.web import extract_edges

            pages = rd.read_parquet(args.corpus, columns=["url", "html"])
            edges_ds = extract_edges(pages)
        else:
            cols = ["src", "dst"] + ([args.weight_col] if args.weight_col else [])
            edges_ds = rd.read_parquet(args.edges, columns=cols)

        meta = build_graph(
            edges_ds, os.path.join(args.work_dir, "graph"),
            args.num_partitions, directed=not args.symmetrize,
            symmetrize=args.symmetrize, weight_col=args.weight_col,
        )
        eng = GraphEngine(meta, num_hosts=args.num_hosts) \
            if args.num_hosts else GraphEngine(meta)
        try:
            res, metrics = eng.run(
                args.algo, json.loads(args.params),
                max_rounds=args.max_rounds,
                ckpt_dir=os.path.join(args.work_dir, "ckpt"),
                checkpoint_every=args.checkpoint_every,
                resume=args.resume,
            )
            # oid first: the sink buckets rows by a hash of column 0
            out_ds = attach_oids(res.to_dataset(), meta).drop_columns(["gid"])
            sink = write_dataset_partitioned(
                out_ds, args.out, meta.num_partitions, resume=args.resume)
        finally:
            eng.shutdown()
        summary = {"algo": metrics.get("program", args.algo),
                   "rounds": metrics.get("rounds"),
                   "resumed_from": metrics.get("resumed_from"),
                   "vertices": meta.num_vertices,
                   "partitions": meta.num_partitions,
                   "out": args.out, **sink}
        print(json.dumps(summary))
        return summary
    finally:
        if owns_ray:
            ray.shutdown()


if __name__ == "__main__":
    main(sys.argv[1:])
