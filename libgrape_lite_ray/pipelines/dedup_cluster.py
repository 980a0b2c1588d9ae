"""Near-duplicate CLUSTERING: verified pair graph -> WCC -> canonical
per-doc cluster ids (the keep-one-per-cluster corpus dedup step).

``minhash_lsh_pairs`` finds verified near-dup PAIRS; deciding which
docs are interchangeable needs their transitive closure.  This
pipeline feeds the pair Dataset straight into the graph engine (the
reference's WCC, examples/analytical_apps/wcc/wcc.h, run over the pair
graph) and hash-joins the component labels back to the full corpus:

    cluster(doc) = min doc_id of its near-dup component
                   (its own id when it has no verified near-dup)

Scale shape: the WCC graph holds ONLY docs appearing in >=1 verified
pair — at 10^12 docs with any realistic dup rate that subgraph is
orders of magnitude smaller than the corpus.  Nothing corpus-sized
lands on the driver: pairs stay a Dataset end-to-end, labels re-attach
through per-partition dictionary reads (``GraphMeta.oids_of``), and
the final corpus join is a broadcast scan or, above
``_BROADCAST_ROWS``, a distributed hash join keyed on the doc id.
Consume with ``write_parquet`` (or the resumable
``sinks.write_dataset_partitioned``) at scale.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa

__all__ = ["dedup_clusters", "dedup_keep"]

# label / drop-set rows up to which the corpus pass reads one
# plasma-shared sorted array instead of running a hash join
_BROADCAST_ROWS = 50_000_000


def dedup_clusters(docs_ds, work_dir: str, *, text_col: str = "text",
                   key: str = "doc_id", mode: str = "fast",
                   threshold: float = 0.7, num_partitions: int | None = None,
                   pairs_ds=None, **pair_kw):
    """-> Dataset (key, cluster): one row per doc, ``cluster`` = min
    doc id of its near-dup component (itself when unpaired).

    ``pairs_ds``: pre-computed (a, b[, ...]) near-dup pair Dataset (any
    of the pair ops — MinHash, SimHash, n-gram, embedding — or a
    parquet of pairs from an earlier run); default runs
    ``minhash_lsh_pairs(mode=mode, threshold=threshold, **pair_kw)``.
    ``work_dir``: where the pair graph's fragment layout is built
    (cached by content marker, see build_graph).
    """
    import pyarrow.compute as pc

    from ..graph.build import build_graph
    from ..graph.driver import GraphEngine
    from ..ops.dedup import _join_parts, minhash_lsh_pairs

    if pairs_ds is None:
        pairs_ds = minhash_lsh_pairs(docs_ds, text_col=text_col, key=key,
                                     mode=mode, threshold=threshold, **pair_kw)

    def as_edges(t: pa.Table) -> pa.Table:
        return pa.table({"src": t.column("a").cast(pa.int64()),
                         "dst": t.column("b").cast(pa.int64())})

    # materialized: small by definition (the dup subset), reused by the
    # emptiness gate + the build; stays sharded in the object store
    edges = pairs_ds.map_batches(as_edges, batch_format="pyarrow",
                                 batch_size=None).materialize()
    keys_ds = docs_ds.select_columns([key])

    def _own(t: pa.Table) -> pa.Table:
        return t.append_column("cluster", t.column(key).cast(pa.int64()))

    if edges.count() == 0:  # no near-dups: every doc is its own cluster
        return keys_ds.map_batches(_own, batch_format="pyarrow",
                                   batch_size=None)

    P = num_partitions or min(8, _join_parts())
    meta = build_graph(edges, work_dir, P, directed=False, symmetrize=True)
    eng = GraphEngine(meta)
    try:
        res, _ = eng.run("wcc")
        # gid -> oid for the vertex AND its component label (comp is a
        # gid; gids are oid-sorted ranks, so min gid == min oid): one
        # dictionary read per partition block, of its gid range
        def to_labels(t: pa.Table) -> pa.Table:
            n = t.num_rows
            oids = meta.oids_of(pa.chunked_array(
                t.column("gid").chunks + t.column("comp").chunks, pa.int64()))
            return pa.table({key: oids.slice(0, n).cast(pa.int64()),
                             "cluster": oids.slice(n).cast(pa.int64())})

        labels = (res.to_dataset()
                  .map_batches(to_labels, batch_format="pyarrow",
                               batch_size=None)
                  .materialize())  # consume before the engine goes away
    finally:
        eng.shutdown()

    # Re-attach to the corpus.  The label table covers ONLY the dup
    # subset; when it fits the broadcast gate (as in ops/dedup.py
    # _candidate_payload) one plasma-shared sorted array turns the
    # corpus-sized left_outer hash join into a plain scan with a
    # vectorized searchsorted lookup — no shuffle at all.  Above the
    # gate (a dup subset that big means the corpus is ~all dups) the
    # distributed hash join is the fallback.
    if labels.count() <= _BROADCAST_ROWS:
        import numpy as np
        import ray

        empty = pa.table({key: pa.array([], pa.int64()),
                          "cluster": pa.array([], pa.int64())})
        # normalize per-block column order / drop 0-row stray-schema
        # blocks (a union'd typed anchor can differ) before the concat
        parts = [t.select([key, "cluster"])
                 for t in ray.get(labels.to_arrow_refs()) if t.num_rows]
        lt = pa.concat_tables(parts) if parts else empty
        lk = lt.column(key).to_numpy()
        order = np.argsort(lk)
        lab_ref = ray.put((lk[order], lt.column("cluster").to_numpy()[order]))

        def fill_bcast(t: pa.Table) -> pa.Table:
            lk_s, cl_s = ray.get(lab_ref)  # zero-copy plasma read
            ks = t.column(key).cast(pa.int64()).to_numpy()
            cl = ks.copy()  # default: own cluster
            if lk_s.size:
                pos = np.searchsorted(lk_s, ks)
                pos[pos == lk_s.size] = 0
                hit = lk_s[pos] == ks
                cl[hit] = cl_s[pos[hit]]
            return pa.table({key: t.column(key),
                             "cluster": pa.array(cl, pa.int64())})

        return keys_ds.map_batches(fill_bcast, batch_format="pyarrow",
                                   batch_size=None)

    out = keys_ds.join(labels, "left_outer",
                       num_partitions=_join_parts(), on=(key,))

    def fill(t: pa.Table) -> pa.Table:
        cl = pc.coalesce(t.column("cluster").cast(pa.int64()),
                         t.column(key).cast(pa.int64()))
        return pa.table({key: t.column(key), "cluster": cl})

    return out.map_batches(fill, batch_format="pyarrow", batch_size=None)


def dedup_keep(docs_ds, clusters_ds, key: str = "doc_id"):
    """Filter the corpus to its cluster representatives — one doc per
    near-dup cluster (the doc whose id IS the cluster id).

    Keyed on the DROP-set (docs whose cluster is some other doc),
    which is bounded by the dup subset — tiny relative to the corpus —
    rather than the representative set (≈ the whole corpus): under the
    broadcast gate the corpus is filtered by one plasma-shared sorted
    NOT-IN array (scan, no shuffle); above it a left_anti hash join
    against the small side.  Full rows (text and all) pass through
    only for survivors either way."""
    import pyarrow.compute as pc

    from ..ops.dedup import _join_parts

    def drops(t: pa.Table) -> pa.Table:
        drop = pc.invert(pc.equal(t.column("cluster").cast(pa.int64()),
                                  t.column(key).cast(pa.int64())))
        return t.filter(drop).select([key])

    drop_ds = clusters_ds.map_batches(drops, batch_format="pyarrow",
                                      batch_size=None).materialize()
    n_drop = drop_ds.count()
    if n_drop == 0:
        return docs_ds
    if n_drop <= _BROADCAST_ROWS:
        import numpy as np
        import ray

        dparts = [t.select([key])
                  for t in ray.get(drop_ds.to_arrow_refs()) if t.num_rows]
        dt = pa.concat_tables(dparts)  # n_drop > 0 => non-empty
        drop_ref = ray.put(np.sort(dt.column(key).to_numpy()))

        def keep(t: pa.Table) -> pa.Table:
            dk = ray.get(drop_ref)  # zero-copy plasma read
            ks = t.column(key).cast(pa.int64()).to_numpy()
            if not dk.size:
                return t
            pos = np.searchsorted(dk, ks)
            pos[pos == dk.size] = 0
            return t.filter(pa.array(dk[pos] != ks))

        return docs_ds.map_batches(keep, batch_format="pyarrow",
                                   batch_size=None)

    return docs_ds.join(drop_ds, "left_anti",
                        num_partitions=_join_parts(), on=(key,))


def cluster_cache_dir(sf_dir: str, tag: str = "minhash-md5") -> str:
    """Deterministic pair-graph build dir for a given corpus + pair
    config (mirrors pipelines.tpch_graph._cache_dir)."""
    doc = os.path.join(sf_dir, "documents.parquet")
    h = hashlib.md5(
        f"{os.path.abspath(sf_dir)}|{os.path.getmtime(doc)}|{tag}|v2".encode()
    ).hexdigest()[:16]
    return os.path.join("/tmp/lgr_cache", f"dedupc-{h}")
