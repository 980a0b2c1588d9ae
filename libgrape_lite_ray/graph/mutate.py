"""Delta mutation: rebuild only the partitions a batch of edge ops
touches (the Ray-native analog of grape/fragment/ev_fragment_mutator.h
+ mutable_csr.h applied as a batch, tested by the reference's
mutable_fragment_tests, misc/app_tests.sh:119-181).

Ops (the reference's ``.e.mutable_delta`` text format):
  ``a src dst [w]`` add (upsert), ``d src dst`` delete,
  ``u src dst w``  update weight (upsert).

Semantics are state-setting per (src, dst) key with last-op-wins, so a
delta batch applies as: resolve the final op per key, drop current rows
whose key is touched, append the keys whose final op is add/update.
The vertex universe is fixed (the reference's tests mutate edges under
a fixed vfile); an op naming an unknown oid raises.

Only partitions owning a touched src are rewritten: one task reads the
partition's stored CSR back as edges (``csr_edges``), merges the ops
into them and writes the new CSR (``build.save_csr``); every other
partition's CSR directory is hard-linked into the new graph directory.
Mutation cost is O(edges of touched partitions), not O(E).
"""

from __future__ import annotations

import dataclasses
import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..ids import part_of
from .build import GraphMeta, link_tree, publish_graph_dir, save_csr
from .fragment import csr_dir, csr_edges, csr_num_edges, load_csr, merge_edge_ops

__all__ = ["mutate_graph", "load_delta_file", "parse_delta_lines"]


def parse_delta_lines(lines) -> pa.Table:
    """Parse ``op src dst [w]`` delta lines (the reference's
    ``.e.mutable_delta`` text format, also the record format of the
    gnn_sampler Kafka stream, examples/gnn_sampler/util.h ParseOneLine
    analog).  Blank lines and ``#`` comments are skipped."""
    ops, srcs, dsts, ws = [], [], [], []
    for line in lines:
        p = line.split()
        if not p or p[0].startswith("#"):
            continue
        ops.append(p[0])
        srcs.append(int(p[1]))
        dsts.append(int(p[2]))
        ws.append(float(p[3]) if len(p) > 3 else 0.0)
    return pa.table({"op": pa.array(ops, pa.string()),
                     "src": pa.array(srcs, pa.int64()),
                     "dst": pa.array(dsts, pa.int64()),
                     "w": pa.array(ws, pa.float64())})


def load_delta_file(path: str) -> pa.Table:
    """Parse the reference's ``.e.mutable_delta`` text format."""
    with open(path) as f:
        return parse_delta_lines(f)


def _mutate_partition(work_dir: str, p: int, out_dir: str, starts,
                      op: np.ndarray, src: np.ndarray, dst: np.ndarray,
                      w: np.ndarray) -> int:
    """Merge one partition's stored edges with its ops
    (``merge_edge_ops``, in arrival order) and write their CSR into
    ``out_dir``; returns the merged edge count."""
    cur = csr_edges(load_csr(csr_dir(work_dir, p)), int(starts[p]))
    ns, nd, nw = merge_edge_ops(*cur, op, src, dst, w, int(starts[-1]))
    save_csr(out_dir, p, starts, ns, nd, nw)
    return len(ns)


def mutate_graph(meta: GraphMeta, delta: pa.Table, out_dir: str) -> GraphMeta:
    """Apply a delta batch to a built graph, producing a new graph dir.

    ``delta`` columns: op (a|d|u), src, dst, optional w (oid space).
    Undirected (symmetrized) graphs apply each op in both directions.
    Any other op raises ``ValueError`` rather than pass for an upsert.
    """
    bad = sorted(set(map(str, pc.unique(delta.column("op")).to_pylist())) - {"a", "d", "u"})
    if bad:
        raise ValueError(f"delta op {bad[0]!r} is not one of a, d, u")
    return publish_graph_dir(out_dir, lambda work: _apply_delta(meta, delta, work))


def _apply_delta(meta: GraphMeta, delta: pa.Table, work: str) -> GraphMeta:
    import ray

    n = delta.num_rows
    # one dictionary lookup for both endpoints
    g = meta.gids_of(pa.chunked_array(delta.column("src").chunks + delta.column("dst").chunks,
                                      delta.column("src").type))
    sg, dg = g[:n], g[n:]
    op = (np.asarray(delta.column("op").to_pylist()) == "d").astype(np.int8)
    w = (delta.column("w").to_numpy(zero_copy_only=False).astype(np.float64)
         if "w" in delta.column_names else np.zeros(n))
    if not meta.directed:
        sg, dg = np.concatenate([sg, dg]), np.concatenate([dg, sg])
        op = np.concatenate([op, op])
        w = np.concatenate([w, w])

    # split the ops by owner, keeping their order (last op wins)
    owners = part_of(sg, meta.starts)
    mut = ray.remote(_mutate_partition)
    futs = {}
    for p in np.unique(owners):
        m = owners == p
        futs[int(p)] = mut.remote(meta.work_dir, int(p), work, meta.starts,
                                  op[m], sg[m], dg[m], w[m])

    # hard-link what the delta leaves as is: untouched partitions' CSR,
    # the vertex dictionary and the vdata
    keep = [p for p in range(meta.num_partitions) if p not in futs]
    links = [(csr_dir(meta.work_dir, p), csr_dir(work, p)) for p in keep]
    if not meta.extra.get("identity_oids") and os.path.isdir(meta.vertices_path):
        links.append((meta.vertices_path, os.path.join(work, "vertices")))
    links += [(d, os.path.join(work, "vdata", os.path.basename(d)))
              for d in glob.glob(os.path.join(meta.work_dir, "vdata", "part=*"))]
    for sdir, ddir in links:
        link_tree(sdir, ddir)
    num_edges = (sum(csr_num_edges(csr_dir(work, p)) for p in keep)
                 + sum(ray.get(list(futs.values()))))
    new_meta = dataclasses.replace(
        meta, work_dir=work, num_edges=int(num_edges), starts=meta.starts.copy(),
        fingerprint=f"{meta.fingerprint}+delta" if meta.fingerprint else "",
        # the base graph's build record does not describe this one
        extra={k: v for k, v in meta.extra.items() if k != "build"})
    new_meta.save()
    return new_meta
