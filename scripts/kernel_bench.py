#!/usr/bin/env python
"""Kernel microbenchmark: run one vertex program over a built graph's
fragments in this process, with no Ray actors and no object store, and
print the CPU seconds each partition's ``update`` takes per round.

This sizes a program's superstep kernels apart from the driver
barrier and actor scheduling.  One in-process ``FragmentHost`` hosts
every partition, so the engine's own exchange (the same packing, the
same mirror registration, the same ascending source-partition
delivery) runs on local dicts and never touches the object store.
Programs that read vertex data columns are not supported (no vdata
sync runs).

Usage:
    python scripts/kernel_bench.py GRAPH_DIR PROGRAM [--params JSON] [--reps N]

The script applies the fragment actors' malloc tuning
(``memtune.keep_heap_resident``) to its own process first.
``GRAPH_DIR`` is a directory written by ``build_graph`` (it holds
``graph_meta.json``); run ``lcc`` on one built with ``symmetrize=True``.
Prints one JSON line per rep: ``update_cpu_s[r][p]`` is partition p's
update CPU seconds in round r+1, ``pack_cpu_s[r]`` the CPU seconds of
packing round r+1's exchange over all partitions.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from libgrape_lite_ray.graph.build import GraphMeta  # noqa: E402
from libgrape_lite_ray.graph.driver import FragmentHost, _reduce_globals  # noqa: E402
from libgrape_lite_ray.memtune import keep_heap_resident  # noqa: E402


def load_host(meta: GraphMeta) -> FragmentHost:
    """One FragmentHost holding every partition (so no payload is ever
    ``ray.put``), with the mirror export lists registered by the
    engine's load-time exchange.  A host built outside a Ray worker
    starts no heap prewarm."""
    P = meta.num_partitions
    host = FragmentHost(0, range(P), np.zeros(P, np.int64), meta.work_dir,
                        meta.starts.tolist())
    host.produce("mirror")
    host.receive("mirror", [])
    return host


def run_once(host: FragmentHost, program: str, params: dict, max_rounds: int) -> dict:
    glob = _reduce_globals([host.init_program(program, params)])
    update_cpu, pack_cpu = [], []
    for r in range(1, max_rounds + 1):
        t0 = time.process_time()
        host.produce(r)
        pack_cpu.append(round(time.process_time() - t0, 4))
        pairs = host._gather_pairs(r, [])
        active, row = 0, []
        for p in host.parts:
            if glob:
                host.programs[p].set_globals(glob)
            t0 = time.process_time()
            active += host._apply_one(p, r, pairs)
            row.append(round(time.process_time() - t0, 4))
        update_cpu.append(row)
        glob = _reduce_globals([host._harvest_globals()])
        if active == 0:
            break
    return {"program": program, "partitions": len(host.parts), "rounds": len(update_cpu),
            "update_cpu_s": update_cpu, "pack_cpu_s": pack_cpu,
            "update_total_cpu_s": round(sum(map(sum, update_cpu)), 4)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("graph_dir")
    ap.add_argument("program")
    ap.add_argument("--params", default="{}", help="program parameters as JSON")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--max-rounds", type=int, default=100)
    a = ap.parse_args()
    keep_heap_resident()  # the malloc tuning every fragment actor runs with
    host = load_host(GraphMeta.load(a.graph_dir))
    for _ in range(a.reps):
        print(json.dumps(run_once(host, a.program, json.loads(a.params), a.max_rounds)),
              flush=True)


if __name__ == "__main__":
    main()
