"""Near-dup clustering: pair graph -> WCC -> canonical cluster ids.
Transitivity (A~B, B~C => one cluster) is the point — pairs alone
can't decide keep-one-per-cluster."""

import pyarrow as pa


def _docs(n: int):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array([f"doc number {i} body" for i in range(n)]),
    }))


def test_clusters_from_injected_pairs(ray_session, tmp_work):
    import ray.data as rd

    from libgrape_lite_ray.pipelines.dedup_cluster import dedup_clusters

    pairs = rd.from_arrow(pa.table({
        "a": pa.array([1, 2, 7], pa.int64()),
        "b": pa.array([2, 3, 8], pa.int64()),
        "jaccard": pa.array([0.9, 0.8, 0.95], pa.float64()),
    }))
    out = dedup_clusters(_docs(10), f"{tmp_work}/pg", pairs_ds=pairs) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    # chain 1-2-3 collapses transitively; 7-8 separate; rest self
    assert out["cluster"].tolist() == [0, 1, 1, 1, 4, 5, 6, 7, 7, 9]


def test_clusters_no_pairs(ray_session, tmp_work):
    import ray.data as rd

    from libgrape_lite_ray.pipelines.dedup_cluster import dedup_clusters

    pairs = rd.from_arrow(pa.table({
        "a": pa.array([], pa.int64()),
        "b": pa.array([], pa.int64()),
    }))
    out = dedup_clusters(_docs(5), f"{tmp_work}/pg0", pairs_ds=pairs) \
        .to_pandas().sort_values("doc_id")
    assert out["cluster"].tolist() == [0, 1, 2, 3, 4]


def test_dedup_keep(ray_session, tmp_work):
    import ray.data as rd

    from libgrape_lite_ray.pipelines.dedup_cluster import (dedup_clusters,
                                                           dedup_keep)

    pairs = rd.from_arrow(pa.table({
        "a": pa.array([1, 2], pa.int64()),
        "b": pa.array([2, 3], pa.int64()),
    }))
    docs = _docs(6)
    clusters = dedup_clusters(docs, f"{tmp_work}/pgk", pairs_ds=pairs)
    kept = dedup_keep(docs, clusters).to_pandas().sort_values("doc_id")
    assert kept["doc_id"].tolist() == [0, 1, 4, 5]   # 2,3 fold into 1
    assert "text" in kept.columns                     # full rows survive


def test_clusters_end_to_end_minhash(ray_session, tmp_work):
    """Real MinHash pairs: three exact copies + one unrelated doc."""
    import ray.data as rd

    from libgrape_lite_ray.pipelines.dedup_cluster import dedup_clusters

    dup = "the quick brown fox jumps over the lazy dog again and again"
    docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
        "text": pa.array([dup, dup, dup,
                          "completely different content with other words here"]),
    }))
    out = dedup_clusters(docs, f"{tmp_work}/pg2", mode="md5") \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["cluster"].tolist() == [10, 10, 10, 13]


def test_keep_and_label_join_fallback_match_broadcast(ray_session, tmp_work, monkeypatch):
    """``_BROADCAST_ROWS = 0`` forces the distributed-join routes;
    results must equal the broadcast routes bit-for-bit."""
    import ray.data as rd

    from libgrape_lite_ray.pipelines import dedup_cluster
    from libgrape_lite_ray.pipelines.dedup_cluster import (dedup_clusters,
                                                           dedup_keep)

    pairs = rd.from_arrow(pa.table({
        "a": pa.array([1, 2, 7], pa.int64()),
        "b": pa.array([2, 3, 8], pa.int64()),
    }))
    docs = _docs(10)
    cl_b = dedup_clusters(docs, f"{tmp_work}/pgb", pairs_ds=pairs)
    kb = dedup_keep(docs, cl_b).to_pandas().sort_values("doc_id")
    monkeypatch.setattr(dedup_cluster, "_BROADCAST_ROWS", 0)
    cl_j = dedup_clusters(docs, f"{tmp_work}/pgj", pairs_ds=pairs)
    pb = cl_b.to_pandas().sort_values("doc_id").reset_index(drop=True)
    pj = cl_j.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert pb.equals(pj)

    kj = dedup_keep(docs, cl_b).to_pandas().sort_values("doc_id")
    assert kb["doc_id"].tolist() == kj["doc_id"].tolist() == [0, 1, 4, 5, 6, 7, 9]
