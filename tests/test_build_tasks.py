"""The build runs as plain Ray tasks over the edge Dataset's block refs:
no build starts a Ray Data execution, with one dictionary range or with
several (a small ``_ROUTE_ROWS`` forces R > 1), a shattered input builds
the same graph as a one-block one, two builds from one Dataset publish
the same CSR bytes, and every build records its passes, the CSR pass
included, and its dictionary ranges in ``meta.extra["build"]``."""

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import libgrape_lite_ray.graph.build as build
from libgrape_lite_ray.graph.build import (
    GraphMeta,
    build_graph,
    edges_from_numpy,
    reverse_graph,
)
from libgrape_lite_ray.graph.fragment import csr_dir, csr_num_edges

P = 4


def _edge_table(m=6000, n=800, seed=3) -> pa.Table:
    rng = np.random.default_rng(seed)
    src = np.minimum(rng.zipf(1.7, m) - 1, n - 1)
    dst = rng.integers(0, n, m)
    names = np.array([f"https://s{(i * 31) % 17}.example/{i}" for i in range(n)])
    return pa.table({"src": pa.array(names[src]), "dst": pa.array(names[dst])})


def _blocks(t: pa.Table, k: int):
    import ray.data as rd

    step = -(-t.num_rows // k)
    return rd.from_arrow([t.slice(i, step) for i in range(0, t.num_rows, step)])


def _csr_files(meta: GraphMeta) -> dict:
    """``{path relative to snapshot/: bytes}`` of every partition's CSR."""
    root = os.path.join(meta.work_dir, "snapshot")
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            with open(os.path.join(dirpath, f), "rb") as fh:
                out[os.path.relpath(os.path.join(dirpath, f), root)] = fh.read()
    return out


def _vertices(meta: GraphMeta) -> pa.Table:
    return pq.read_table(meta.vertices_path).sort_by("gid")


@pytest.fixture()
def executions(monkeypatch):
    """Counts the Ray Data executors created (every execution makes one)."""
    from ray.data._internal.plan import ExecutionPlan

    made = []
    create = ExecutionPlan.create_executor

    def counting(self):
        made.append(self)
        return create(self)

    monkeypatch.setattr(ExecutionPlan, "create_executor", counting)
    return made


def test_small_builds_start_no_ray_data_execution(ray_session, tmp_work, executions,
                                                   monkeypatch):
    import ray.data as rd

    t = _edge_table()
    edges = _blocks(t, 8)
    d = build_graph(edges, os.path.join(tmp_work, "d"), P)
    u = build_graph(None, os.path.join(tmp_work, "u"), P, directed=False, symmetrize=True,
                    reuse_vertices_from=d)
    r = reverse_graph(d)
    rng = np.random.default_rng(2)
    x = build_graph(edges_from_numpy(rng.integers(0, 300, 2000), rng.integers(0, 300, 2000)),
                    os.path.join(tmp_work, "x"), P, dense_int_oids=True)
    # several dictionary ranges, with vertex data: still plain tasks
    monkeypatch.setattr(build, "_ROUTE_ROWS", 500)
    vdata = rd.from_arrow(pa.table({"oid": t.column("src"), "x": np.ones(t.num_rows)}))
    m = build_graph(edges, os.path.join(tmp_work, "m"), P, vdata_ds=vdata)
    assert executions == []
    assert d.extra["build"]["dict_ranges"] == 1 and m.extra["build"]["dict_ranges"] > 1
    assert _vertices(m).equals(_vertices(d)) and _csr_files(m) == _csr_files(d)
    # the views route the donor's stored edges: one per distinct pair
    distinct = len(set(zip(t.column("src").to_pylist(), t.column("dst").to_pylist())))
    assert d.num_edges == t.num_rows
    assert u.num_edges == 2 * r.num_edges == 2 * distinct
    assert x.num_edges == 2000


def test_shattered_input_builds_the_same_graph(ray_session, tmp_work):
    t = _edge_table()
    one = build_graph(_blocks(t, 1), os.path.join(tmp_work, "one"), P)
    shattered = _blocks(t, 64)
    assert shattered.num_blocks() == 64
    many = build_graph(shattered, os.path.join(tmp_work, "many"), P)

    assert _vertices(one).equals(_vertices(many))
    assert np.array_equal(one.starts, many.starts)
    assert _csr_files(one) == _csr_files(many)
    # groups of up to _ROUTE_ROWS rows: at most one non-empty piece per
    # group and partition
    max_groups = math.ceil(t.num_rows / build._ROUTE_ROWS)
    assert many.extra["build"]["route_pieces"] <= P * max_groups


def test_csr_bytes_reproducible(ray_session, tmp_work):
    """Two builds from one materialized Dataset (and the undirected
    views derived from them) publish byte-identical CSR directories,
    names included."""
    edges = _blocks(_edge_table(), 8).materialize()
    metas = []
    for i in range(2):
        d = build_graph(edges, os.path.join(tmp_work, f"d{i}"), P)
        metas += [d, build_graph(None, os.path.join(tmp_work, f"u{i}"), P, directed=False,
                                 symmetrize=True, reuse_vertices_from=d)]

    for a, b in (metas[0::2], metas[1::2]):
        files = _csr_files(a)
        assert len(files) > P and files == _csr_files(b)


def test_build_record(ray_session, tmp_work):
    meta = build_graph(_blocks(_edge_table(), 4), os.path.join(tmp_work, "g"), P)
    rec = GraphMeta.load(meta.work_dir).extra["build"]
    assert set(rec) == {"partials_s", "dictionary_s", "route_s", "csr_s", "rows_in",
                        "rows_routed", "route_pieces", "dict_ranges"}
    assert rec["dict_ranges"] == 1
    assert rec["rows_routed"] == meta.num_edges
    assert rec["rows_in"] == 6000
    # one route group: one piece per partition it routed rows to
    assert rec["route_pieces"] == sum(csr_num_edges(csr_dir(meta.work_dir, p)) > 0
                                     for p in range(P))
    assert all(rec[k] >= 0 for k in ("partials_s", "dictionary_s", "route_s", "csr_s"))
