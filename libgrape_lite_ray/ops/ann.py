"""Approximate-nearest-neighbor search over an embedding column
(``list<float>``).

- ``brute_topk``: exact cosine top-k.  The query matrix is broadcast
  once (``ray.put``); each batch does one numpy matmul and emits only
  its local top-k candidates (k rows per query per batch — the partial
  top-k combiner), and a final tiny reduce picks the global top-k.
  This is the baseline and the verification oracle.
- ``lsh_topk``: random-hyperplane LSH bucketing as the scale path:
  candidates are restricted to probes' buckets, then re-ranked exactly.
  Recall < 1 by design; parameters documented.
- ``ivf_topk``: inverted-file (IVF) variant — spherical k-means
  centroids trained on a bounded sample, every vector assigned to its
  nearest list in a distributed stage, queries probe the ``n_probe``
  nearest lists and re-rank exactly.  The centroid matrix is the only
  broadcast state (n_lists x dim floats), so the index scales to any
  corpus size; recall is tunable via n_probe.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["brute_topk", "lsh_topk", "ivf_topk", "cosine_neardup_exact"]


def _batch_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch.column(col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(m, axis=1, keepdims=True)
    nrm[nrm == 0] = 1.0
    return m / nrm


def _fetch_query_vecs(emb_ds, q_set: set, key: str, col: str) -> dict[int, np.ndarray]:
    """Pushed-down distributed filter for the query rows (a `pc.is_in`
    inside map_batches); only the handful of query vectors ever reach
    the driver — never the corpus."""
    import pyarrow.compute as pc

    q_arr = pa.array(sorted(q_set), pa.int64())

    def pick(b: pa.Table) -> pa.Table:
        m = pc.is_in(b.column(key).cast(pa.int64()), value_set=q_arr)
        return b.filter(m)

    hits = emb_ds.map_batches(pick, batch_format="pyarrow", batch_size=4096)
    q_vecs: dict[int, np.ndarray] = {}
    for b in hits.iter_batches(batch_format="pyarrow", batch_size=4096):
        if len(b) == 0:
            continue
        ids = b.column(key).to_numpy(zero_copy_only=False)
        m = _batch_matrix(b, col)
        for i, v in enumerate(ids):
            q_vecs[int(v)] = m[i]
    return q_vecs


def brute_topk(emb_ds, query_ids: list[int], k: int = 10,
               key: str = "vec_id", col: str = "embedding") -> pa.Table:
    """Exact cosine top-k per query (self excluded).  Returns
    (query_id, neighbor_id, rank) with rank 1..k ordered by
    (similarity desc, neighbor_id asc)."""
    import ray

    q_set = set(int(q) for q in query_ids)
    q_vecs = _fetch_query_vecs(emb_ds, q_set, key, col)
    qids = sorted(q_vecs)
    Q = _normalize(np.stack([q_vecs[q] for q in qids]))
    q_ref = ray.put(Q)

    # task pool: the broadcast query matrix is a zero-copy plasma read
    # per task, and tasks reach full width immediately (no actor-pool
    # 1->N ramp)
    def partial_topk(b: pa.Table) -> pa.Table:
            Q = ray.get(q_ref)
            ids = b.column(key).to_numpy(zero_copy_only=False).astype(np.int64)
            M = _normalize(_batch_matrix(b, col))
            sims = Q @ M.T  # (nq, nb)
            nq, nb = sims.shape
            # mask self-matches BEFORE the partial top-k: a query row can
            # appear MORE than once in the input (lsh/ivf candidate ∪
            # query-row union), and each occurrence would eat a slot
            sims[np.equal.outer(np.asarray(qids, np.int64), ids)] = -np.inf
            # mask duplicate NEIGHBOR rows within the batch too (same
            # union can duplicate any candidate): two occurrences of one
            # id would occupy two of the k partial slots and silently
            # displace the batch's true k-th neighbor from the final
            # exact top-k.  Keep the first occurrence per id.
            if nb > 1:
                _, first_idx = np.unique(ids, return_index=True)
                if len(first_idx) < nb:
                    dup = np.ones(nb, dtype=bool)
                    dup[first_idx] = False
                    sims[:, dup] = -np.inf
            kk = min(k, nb)
            part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
            out_q, out_n, out_s = [], [], []
            for qi in range(nq):
                cols = part[qi][np.isfinite(sims[qi, part[qi]])]
                out_q.extend([qids[qi]] * len(cols))
                out_n.extend(ids[cols].tolist())
                out_s.extend(sims[qi, cols].tolist())
            return pa.table({"query_id": pa.array(out_q, pa.int64()),
                             "neighbor_id": pa.array(out_n, pa.int64()),
                             "sim": pa.array(out_s, pa.float64())})

    cand = emb_ds.map_batches(partial_topk, batch_format="pyarrow",
                              batch_size=4096).to_pandas()
    cand = cand[cand["query_id"] != cand["neighbor_id"]]
    # a candidate may appear twice (duplicate input rows, or lsh_topk's
    # bucket∪query union) — keep its best sim so it can't occupy two of
    # the k ranks and push out the true k-th neighbor
    cand = cand.sort_values("sim", ascending=False).drop_duplicates(
        ["query_id", "neighbor_id"])
    cand = cand.sort_values(["query_id", "sim", "neighbor_id"],
                            ascending=[True, False, True])
    top = cand.groupby("query_id", sort=True).head(k).copy()
    top["rank"] = top.groupby("query_id").cumcount() + 1
    return pa.table({
        "query_id": pa.array(top["query_id"].to_numpy(), pa.int64()),
        "neighbor_id": pa.array(top["neighbor_id"].to_numpy(), pa.int64()),
        "rank": pa.array(top["rank"].to_numpy(), pa.int64()),
    })


def cosine_neardup_exact(emb_ds, threshold: float = 0.45,
                         key: str = "vec_id", col: str = "embedding") -> pa.Table:
    """EXACT embedding-cosine near-dup pairs (cos >= threshold, a < b).

    Verification baseline (O(n^2) similarities): the normalized matrix
    is broadcast once (ray.put) and every batch computes its rows
    against it — one matmul per batch, distributed over the corpus.
    The broadcast side is the whole embedding table, so this is for
    corpora that fit one worker's memory; the scale path is
    ``dedup.embedding_neardup_pairs`` (LSH-bucketed)."""
    import ray

    ids_all, mats = [], []
    for b in emb_ds.iter_batches(batch_format="pyarrow", batch_size=8192):
        ids_all.append(b.column(key).to_numpy(zero_copy_only=False).astype(np.int64))
        mats.append(_batch_matrix(b, col))
    ids_all = np.concatenate(ids_all)
    M_all = _normalize(np.concatenate(mats, axis=0))
    ref = ray.put((ids_all, M_all))

    def pair_emit(b: pa.Table) -> pa.Table:
            c_ids, c_M = ray.get(ref)  # zero-copy plasma read per task
            bid = b.column(key).to_numpy(zero_copy_only=False).astype(np.int64)
            Mb = _normalize(_batch_matrix(b, col))
            sims = Mb @ c_M.T
            hit = (sims >= threshold) & (bid[:, None] < c_ids[None, :])
            i, j = np.nonzero(hit)
            return pa.table({"a": pa.array(bid[i], pa.int64()),
                             "b": pa.array(c_ids[j], pa.int64()),
                             "cos": pa.array(np.round(sims[i, j], 8), pa.float64())})

    out = emb_ds.map_batches(pair_emit, batch_format="pyarrow",
                             batch_size=2048)
    batches = list(out.iter_batches(batch_format="pyarrow", batch_size=10**6))
    empty = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                      "cos": pa.array([], pa.float64())})
    if not batches:
        return empty
    t = pa.concat_tables(batches)
    order = pa.compute.sort_indices(t, sort_keys=[("a", "ascending"), ("b", "ascending")])
    return t.take(order)


def lsh_topk(emb_ds, query_ids: list[int], k: int = 10, n_planes: int = 12,
             n_tables: int = 4, seed: int = 42,
             key: str = "vec_id", col: str = "embedding") -> pa.Table:
    """LSH-bucketed ANN: random hyperplane sign buckets per table;
    candidates = union of the query's buckets, re-ranked exactly.
    Same output schema as brute_topk (approximate recall)."""
    import ray

    first = next(iter(emb_ds.iter_batches(batch_format="pyarrow", batch_size=8)))
    dim = _batch_matrix(first, col).shape[1]
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((n_tables, n_planes, dim))
    p_ref = ray.put(planes)

    q_set = set(int(q) for q in query_ids)
    q_vecs = _fetch_query_vecs(emb_ds, q_set, key, col)
    qids = sorted(q_vecs)
    Q = np.stack([q_vecs[q] for q in qids])
    # pack each table's sign pattern into one integer; the allowed set
    # becomes a sorted int array so the batch filter is one np.isin
    pow2 = (1 << np.arange(n_planes)).astype(np.int64)
    allowed = set()
    for t in range(n_tables):
        codes = ((Q @ planes[t].T) > 0).astype(np.int64) @ pow2
        for c in codes:
            allowed.add((t << np.int64(48)) | int(c))
    allowed_arr = np.asarray(sorted(allowed), dtype=np.int64)
    codes_ref = ray.put(allowed_arr)

    def bucket_filter(b: pa.Table) -> pa.Table:
        planes_l = ray.get(p_ref)
        allowed_l = ray.get(codes_ref)
        pow2_l = (1 << np.arange(planes_l.shape[1])).astype(np.int64)
        M = _batch_matrix(b, col)
        keep = np.zeros(len(b), dtype=bool)
        for t in range(planes_l.shape[0]):
            codes = ((M @ planes_l[t].T) > 0).astype(np.int64) @ pow2_l
            tagged = (np.int64(t) << np.int64(48)) | codes
            keep |= np.isin(tagged, allowed_l, assume_unique=False)
        return b.filter(pa.array(keep))

    cand_ds = emb_ds.map_batches(bucket_filter, batch_format="pyarrow",
                                 batch_size=4096)
    return brute_topk(cand_ds.union(
        emb_ds.map_batches(
            lambda b: b.filter(pa.array(np.isin(b.column(key).to_numpy(zero_copy_only=False), list(q_set)))),
            batch_format="pyarrow", batch_size=None)
    ), query_ids, k, key, col)


def _train_centroids(sample: np.ndarray, n_lists: int, iters: int,
                     seed: int) -> np.ndarray:
    """Spherical k-means on a (normalized) sample matrix — the IVF
    coarse quantizer.  Runs on the driver: the sample is bounded
    (``sample_size`` rows), never the corpus."""
    rng = np.random.default_rng(seed)
    n = len(sample)
    n_lists = min(n_lists, n)
    cent = sample[rng.choice(n, size=n_lists, replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(sample @ cent.T, axis=1)
        for c in range(n_lists):
            m = assign == c
            if m.any():
                v = sample[m].sum(axis=0)
                nrm = np.linalg.norm(v)
                if nrm > 0:
                    cent[c] = v / nrm
    return cent


def ivf_topk(emb_ds, query_ids: list[int], k: int = 10, n_lists: int = 32,
             n_probe: int = 4, sample_size: int = 8192, kmeans_iters: int = 5,
             seed: int = 42, key: str = "vec_id", col: str = "embedding") -> pa.Table:
    """IVF ANN: train ``n_lists`` spherical-k-means centroids on a
    bounded sample, assign every corpus vector to its nearest centroid
    inside ``map_batches`` (broadcast centroid matrix, one matmul per
    batch), keep only rows whose list is among each query's ``n_probe``
    closest lists, and re-rank the surviving candidates exactly with
    ``brute_topk``.  Same output schema as brute_topk.

    At scale the assignment would be computed once and persisted as a
    partition column (``list_id``) so repeated queries prune at the
    read; here the filter fuses into the scan."""
    import ray

    q_set = set(int(q) for q in query_ids)
    # bounded training sample (deterministic: first sample_size rows)
    samp = []
    got = 0
    for b in emb_ds.iter_batches(batch_format="pyarrow", batch_size=4096):
        samp.append(_batch_matrix(b, col))
        got += len(b)
        if got >= sample_size:
            break
    sample = _normalize(np.concatenate(samp, axis=0)[:sample_size])
    cent = _train_centroids(sample, n_lists, kmeans_iters, seed)
    c_ref = ray.put(cent)

    q_vecs = _fetch_query_vecs(emb_ds, q_set, key, col)
    Q = _normalize(np.stack([q_vecs[q] for q in sorted(q_vecs)]))
    npb = min(n_probe, len(cent))
    probe = np.argpartition(-(Q @ cent.T), npb - 1, axis=1)[:, :npb]
    allowed = np.unique(probe)
    a_ref = ray.put(allowed)

    def list_filter(b: pa.Table) -> pa.Table:
        cent_l = ray.get(c_ref)
        allowed_l = ray.get(a_ref)
        M = _normalize(_batch_matrix(b, col))
        assign = np.argmax(M @ cent_l.T, axis=1)
        return b.filter(pa.array(np.isin(assign, allowed_l)))

    cand_ds = emb_ds.map_batches(list_filter, batch_format="pyarrow",
                                 batch_size=4096)
    return brute_topk(cand_ds.union(
        emb_ds.map_batches(
            lambda b: b.filter(pa.array(np.isin(b.column(key).to_numpy(zero_copy_only=False), list(q_set)))),
            batch_format="pyarrow", batch_size=None)
    ), query_ids, k, key, col)
