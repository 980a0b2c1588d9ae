"""The vertex dictionary as an index: ``GraphMeta.oids_of`` / ``gids_of``
read only the ``vertices/`` rows they need, ``attach_oids`` serves a
Table and a Dataset with one range read per block, ``mutate_graph``
looks its delta up without loading the dictionary, and ``_to_gids``'
range hop translates vertex data like its one-range route."""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from libgrape_lite_ray import fixtures
from libgrape_lite_ray.graph.build import GraphMeta, attach_oids, build_graph, edges_from_numpy
from libgrape_lite_ray.graph.driver import GraphEngine
from libgrape_lite_ray.graph.fragment import csr_dir, csr_edges, load_arrays

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _u(i):
    return f"https://v{i:04d}.example/"


def _string_graph(tmp_work, sub="g", P=3):
    import ray.data as rd

    src, dst = fixtures.er_components()
    ds = rd.from_arrow(pa.table({"src": pa.array([_u(i) for i in src], pa.string()),
                                 "dst": pa.array([_u(i) for i in dst], pa.string())}))
    return build_graph(ds, os.path.join(tmp_work, sub), P, symmetrize=True)


def test_lookups_read_exact_rows_across_row_groups(ray_session, tmp_work):
    meta = _string_graph(tmp_work)
    V = meta.num_vertices
    # zero-padded urls sort like ints, so gid i is _u(i)
    want = np.array([_u(i) for i in range(V)], dtype=object)
    # rewrite the dictionary in 7-row groups so ranges straddle groups
    (path,) = [os.path.join(meta.vertices_path, f) for f in os.listdir(meta.vertices_path)]
    pq.write_table(pq.read_table(path), path, row_group_size=7)
    assert pq.ParquetFile(path).metadata.num_row_groups > 10

    rng = np.random.default_rng(3)
    for g in [rng.integers(0, V, 40), np.array([V - 1, 0, 5, 5]), np.arange(13, 29), []]:
        g = np.asarray(g, np.int64)
        assert meta.oids_of(g).to_pylist() == list(want[g])
        assert np.array_equal(meta.gids_of(list(want[g])), g)
    assert meta.oids_of(np.array([], np.int64)).type == pa.string()

    for bad in ([-1], [V], [0, V + 3]):
        with pytest.raises(ValueError, match="outside the vertex universe"):
            meta.oids_of(bad)
    with pytest.raises(ValueError, match="not in the vertex dictionary"):
        meta.gids_of([_u(3), "https://absent.example/"])


def test_dense_int_lookups_are_identity_with_range_check(ray_session, tmp_work):
    src, dst = fixtures.zipf_graph(n=50, m=200)
    meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "d"), 2,
                       dense_int_oids=True)
    V = meta.num_vertices
    g = np.array([3, 0, V - 1], np.int64)
    assert meta.oids_of(g).to_pylist() == [3, 0, V - 1]
    assert np.array_equal(meta.gids_of(pa.array(g)), g)
    with pytest.raises(ValueError, match="outside the vertex universe"):
        meta.oids_of([V])
    with pytest.raises(ValueError, match="outside the vertex universe"):
        meta.gids_of([-2])


def test_dense_int_negative_oid_raises(ray_session, tmp_work):
    """A negative oid has no dense gid; the build refuses it up front
    instead of failing inside the histogram pass."""
    with pytest.raises(ValueError, match="non-negative"):
        build_graph(edges_from_numpy(np.array([0, -3, 2]), np.array([1, 2, 0])),
                    os.path.join(tmp_work, "neg"), 2, dense_int_oids=True)


@pytest.mark.parametrize("kind", ["string", "dense"])
def test_attach_oids_raises_on_out_of_range_gid(ray_session, tmp_work, kind):
    """Both forms refuse a gid outside [0, V); a join-based attach
    would silently drop the row."""
    import ray.data as rd

    if kind == "string":
        meta = _string_graph(tmp_work)
    else:
        src, dst = fixtures.zipf_graph(n=50, m=200)
        meta = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "d"), 2,
                           dense_int_oids=True)
    V = meta.num_vertices
    good = pa.table({"gid": pa.array([0, V - 1], pa.int64()), "x": [1.0, 2.0]})
    assert attach_oids(good, meta).column_names == ["oid", "gid", "x"]
    assert attach_oids(rd.from_arrow(good), meta).take_all()[1]["gid"] == V - 1
    bad = pa.table({"gid": pa.array([0, V], pa.int64()), "x": [1.0, 2.0]})
    with pytest.raises(ValueError, match="outside the vertex universe"):
        attach_oids(bad, meta)
    with pytest.raises(Exception, match="outside the vertex universe"):
        attach_oids(rd.from_arrow(bad), meta).materialize()


def test_vdata_join_route_matches_broadcast(ray_session, tmp_work, monkeypatch):
    """Vertex data through ``_to_gids``' range hop (a small
    ``_ROUTE_ROWS`` forces R >= 3 dictionary ranges): an oid that is not
    a vertex is dropped, a vertex without a row reads 0, and the result
    equals the one-range route's."""
    import ray.data as rd

    import libgrape_lite_ray.graph.build as build

    src, dst = fixtures.er_components()
    edges = rd.from_arrow(pa.table({"src": pa.array([_u(i) for i in src], pa.string()),
                                    "dst": pa.array([_u(i) for i in dst], pa.string())}))
    keep = [i for i in range(100) if i % 7]
    vds = rd.from_arrow(pa.table({
        "oid": pa.array([_u(i) for i in keep] + ["https://absent.example/"], pa.string()),
        "val": pa.array([float(i) for i in keep] + [1e9], pa.float64())}))
    vals = np.array([float(i) if i % 7 else 0.0 for i in range(100)])
    e = np.unique(np.stack([src, dst], axis=1), axis=0)
    want = np.zeros(100)
    np.add.at(want, e[:, 0], vals[e[:, 1]])

    got = []
    for sub in ("b", "j"):
        if sub == "j":
            monkeypatch.setattr(build, "_ROUTE_ROWS", 60)
        meta = build_graph(edges, os.path.join(tmp_work, sub), 3, vdata_ds=vds)
        assert (meta.extra["build"]["dict_ranges"] >= 3) == (sub == "j")
        eng = GraphEngine(meta)
        try:
            out, _ = eng.run("vdata_sum", {"col": "val"})
            got.append(out.to_pandas().sort_values("gid")["nbr_val_sum"].to_numpy())
        finally:
            eng.shutdown()
    assert np.allclose(got[0], want, atol=1e-9)
    assert np.array_equal(got[0], got[1])


_MUTATE = """
import json, sys
import pyarrow as pa, pyarrow.parquet as pq, ray
ray.init(address=sys.argv[1], logging_level="ERROR", log_to_driver=False)
from libgrape_lite_ray.graph.build import GraphMeta
from libgrape_lite_ray.graph.mutate import mutate_graph
meta = mutate_graph(GraphMeta.load(sys.argv[2]), pq.read_table(sys.argv[3]), sys.argv[4])
print(json.dumps({"max_memory": pa.default_memory_pool().max_memory(),
                  "num_edges": meta.num_edges}))
"""


def test_mutate_driver_memory_stays_below_the_dictionary(ray_session, tmp_work):
    """A 1k-row delta on a 1M-vertex string-oid graph: the mutating
    driver's Arrow allocations stay far below the dictionary's size
    (reading and gid-sorting the whole dictionary costs about three
    times its size)."""
    import ray
    import ray.data as rd

    V, n_edges = 1_000_000, 2_000

    def names(t: pa.Table) -> pa.Table:
        return pa.table({"oid": pa.array([f"https://site{i % 997}.example/page/{i}"
                                          for i in t.column("id").to_pylist()], pa.string())})

    # the universe is declared; a few edges keep the build cheap
    vertices = rd.range(V, override_num_blocks=4).map_batches(
        names, batch_format="pyarrow", batch_size=None)
    rng = np.random.default_rng(1)
    src, dst = rng.integers(0, V, n_edges), rng.integers(0, V, n_edges)
    edges = rd.from_arrow(names(pa.table({"id": src})).rename_columns(["src"]).append_column(
        "dst", names(pa.table({"id": dst})).column("oid")))
    meta = build_graph(edges, os.path.join(tmp_work, "big"), 4, vertices_ds=vertices)
    assert meta.num_vertices == V
    dict_bytes = pq.read_table(meta.vertices_path, columns=["oid", "gid"]).nbytes

    # 1,000 ops on random vertices (every row group is touched): 500
    # adds of new edges and 500 deletes of existing ones
    ids = rng.integers(0, V, 1_000)
    d_src = np.concatenate([ids[:500], src[:500]])
    d_dst = np.concatenate([ids[500:], dst[:500]])
    delta = pa.table({"op": pa.array(["a"] * 500 + ["d"] * 500),
                      "src": names(pa.table({"id": d_src})).column("oid"),
                      "dst": names(pa.table({"id": d_dst})).column("oid"),
                      "w": pa.array(np.zeros(1_000))})
    delta_path = os.path.join(tmp_work, "delta.parquet")
    pq.write_table(delta, delta_path)
    out = subprocess.run(
        [sys.executable, "-c", _MUTATE, ray.get_runtime_context().gcs_address,
         meta.work_dir, delta_path, os.path.join(tmp_work, "mutated")],
        cwd=_ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-3000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["max_memory"] < dict_bytes / 4, (res["max_memory"], dict_bytes)

    def pairs(s, d):
        return set(zip(s.tolist(), d.tolist()))

    # adds first, then deletes: the last op per edge wins
    dels = pairs(src[:500], dst[:500])
    want = (pairs(src, dst) - dels) | (pairs(ids[:500], ids[500:]) - dels)
    w_src, w_dst = (np.array(c) for c in zip(*sorted(want)))
    want_gids = pairs(meta.gids_of(names(pa.table({"id": w_src})).column("oid")),
                      meta.gids_of(names(pa.table({"id": w_dst})).column("oid")))
    mutated = GraphMeta.load(os.path.join(tmp_work, "mutated"))
    m_src, m_dst = (np.concatenate(x) for x in zip(*(
        csr_edges(load_arrays(csr_dir(mutated.work_dir, p))[0], int(mutated.starts[p]))[:2]
        for p in range(mutated.num_partitions))))
    assert len(m_src) == res["num_edges"]
    assert pairs(m_src, m_dst) == want_gids
