"""VDATA (per-vertex property) columns: build-time translate + routing,
one-time mirror sync, program access — across partition counts and oid
types (ref basic_fragment_loader.h:300-338 vertex-data load)."""

import os

import numpy as np
import pyarrow as pa
import pytest

from libgrape_lite_ray import fixtures
from libgrape_lite_ray.graph.build import attach_oids, build_graph, edges_from_numpy
from libgrape_lite_ray.graph.driver import GraphEngine


def _nbr_sum_oracle(src, dst, vals, n):
    """sum of val(dst) over distinct out-edges per src."""
    e = np.unique(np.stack([src, dst], axis=1), axis=0)
    out = np.zeros(n, dtype=np.float64)
    np.add.at(out, e[:, 0], vals[e[:, 1]])
    return out


@pytest.mark.parametrize("P", [1, 4])
def test_vdata_sum_int_oids(ray_session, tmp_work, P):
    import ray.data as rd

    n = 200
    src, dst = fixtures.zipf_graph(n=n, m=1500)
    rng = np.random.default_rng(5)
    vals = rng.integers(0, 100, size=n).astype(np.float64)
    # leave some vertices out of the vdata table (must read as 0)
    present = rng.random(n) > 0.2
    vals_sparse = np.where(present, vals, 0.0)
    vds = rd.from_arrow(pa.table({
        "oid": pa.array(np.flatnonzero(present), pa.int64()),
        "val": pa.array(vals[present], pa.float64()),
    }))
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, f"vd{P}"),
                       P, directed=True, vdata_ds=vds)
    assert meta.extra.get("vdata_cols") == ["val"]
    eng = GraphEngine(meta)
    try:
        ds, _ = eng.run("vdata_sum", {"col": "val"})
        df = ds.to_pandas().sort_values("gid")
        want = _nbr_sum_oracle(src, dst, vals_sparse, n)
        assert np.allclose(df["nbr_val_sum"].to_numpy(), want, atol=1e-9)
    finally:
        eng.shutdown()


def test_vdata_sum_string_oids(ray_session, tmp_work):
    """String-oid graph with vdata keyed by the same string oids."""
    import ray.data as rd

    src, dst = fixtures.er_components()
    n = 100

    def u(i):
        return f"https://v{i:04d}.example/"

    ds = rd.from_arrow(pa.table({
        "src": pa.array([u(i) for i in src], pa.string()),
        "dst": pa.array([u(i) for i in dst], pa.string()),
    }))
    vals = np.arange(n, dtype=np.float64) * 2.0 + 1.0
    vds = rd.from_arrow(pa.table({
        "oid": pa.array([u(i) for i in range(n)], pa.string()),
        "val": pa.array(vals, pa.float64()),
    }))
    meta = build_graph(ds, os.path.join(tmp_work, "vstr"), 3,
                       directed=True, vdata_ds=vds)
    eng = GraphEngine(meta)
    try:
        out, _ = eng.run("vdata_sum", {"col": "val"})
        tbl = out.to_arrow()
        tbl = attach_oids(tbl, meta)
        df = tbl.to_pandas()
        # zero-padded urls sort like ints so gid == int id
        by_gid = df.sort_values("gid")
        want = _nbr_sum_oracle(src, dst, vals, n)
        assert np.allclose(by_gid["nbr_val_sum"].to_numpy(), want, atol=1e-9)
    finally:
        eng.shutdown()


def _match_oracle(src, dst, tags, n):
    """count of out-neighbors (distinct edges) with equal string tag."""
    e = np.unique(np.stack([src, dst], axis=1), axis=0)
    out = np.zeros(n, dtype=np.int64)
    hit = tags[e[:, 0]] == tags[e[:, 1]]
    np.add.at(out, e[:, 0][hit], 1)
    return out


@pytest.mark.parametrize("P", [1, 4])
def test_string_vdata_int_oids(ray_session, tmp_work, P):
    """STRING vdata (grape/types.h:30-39 any-POD VDATA_T): per-vertex
    lang tag carried through translate -> route -> mirror sync ->
    vdata_match_count, with absent vertices reading as ''."""
    import ray.data as rd

    n = 200
    src, dst = fixtures.zipf_graph(n=n, m=1500)
    rng = np.random.default_rng(9)
    langs = np.array(["en", "de", "fr", ""], dtype=object)
    tags = langs[rng.integers(0, 3, n)]
    present = rng.random(n) > 0.2
    tags_eff = np.where(present, tags, "")
    vds = rd.from_arrow(pa.table({
        "oid": pa.array(np.flatnonzero(present), pa.int64()),
        "lang": pa.array(list(tags[present]), pa.string()),
    }))
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, f"vs{P}"),
                       P, directed=True, vdata_ds=vds)
    eng = GraphEngine(meta)
    try:
        ds, _ = eng.run("vdata_match_count", {"col": "lang"})
        df = ds.to_pandas().sort_values("gid")
        want = _match_oracle(src, dst, tags_eff, n)
        assert np.array_equal(df["match_count"].to_numpy(), want)
    finally:
        eng.shutdown()


def test_string_vdata_string_oids(ray_session, tmp_work):
    import ray.data as rd

    src, dst = fixtures.er_components()
    n = 100

    def u(i):
        return f"https://v{i:04d}.example/"

    ds = rd.from_arrow(pa.table({
        "src": pa.array([u(i) for i in src], pa.string()),
        "dst": pa.array([u(i) for i in dst], pa.string()),
    }))
    tags = np.array(["a", "b"], dtype=object)[np.arange(n) % 2]
    vds = rd.from_arrow(pa.table({
        "oid": pa.array([u(i) for i in range(n)], pa.string()),
        "lang": pa.array(list(tags), pa.string()),
    }))
    meta = build_graph(ds, os.path.join(tmp_work, "vsstr"), 3,
                       directed=True, vdata_ds=vds)
    eng = GraphEngine(meta)
    try:
        out, _ = eng.run("vdata_match_count", {"col": "lang"})
        df = out.to_pandas().sort_values("gid")
        want = _match_oracle(src, dst, tags, n)
        assert np.array_equal(df["match_count"].to_numpy(), want)
    finally:
        eng.shutdown()
