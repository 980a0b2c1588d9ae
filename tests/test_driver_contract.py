"""Driver-contract guards: every oracle has a query, names are unique,
and the module exposes the three entry points the graft driver calls
(static); engine-backed queries run and match their SQL oracle."""

import importlib.util
import os

import pytest


def _load():
    p = os.path.join(os.path.dirname(__file__), "..", "__ray_entry__.py")
    spec = importlib.util.spec_from_file_location("_entry_contract", p)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def test_contract_surface():
    m = _load()
    assert callable(m.entry)
    q = m.queries()
    o = m.oracle_sql()
    assert q and all(callable(f) for f in q.values())
    # every oracle key must be a runnable query (the driver joins on it)
    missing = set(o) - set(q)
    assert not missing, f"oracles without queries: {missing}"
    # oracles are non-empty SQL strings
    assert all(isinstance(s, str) and "SELECT" in s.upper() for s in o.values())


def _same(got, want) -> bool:
    """The driver's comparison: same rows after sorting by every
    column; float columns within 1e-9, the rest exactly equal."""
    import numpy as np

    cols = sorted(got.columns)
    if sorted(want.columns) != cols or len(got) != len(want):
        return False
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].sort_values(cols).reset_index(drop=True)
    return all(np.allclose(a[c], b[c], atol=1e-9) if a[c].dtype.kind == "f"
               else (a[c].values == b[c].values).all() for c in cols)


@pytest.mark.parametrize("name", ["pagerank", "wcc", "in_degree", "sample_multihop"])
def test_engine_queries_match_oracle(ray_session, tmp_path, monkeypatch, name):
    """Engine-backed queries run end to end on a small synthetic
    ``lineitem`` and match their DuckDB oracle over the same file."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from libgrape_lite_ray.pipelines import tpch_graph

    monkeypatch.setattr(tpch_graph, "_CACHE_ROOT", str(tmp_path / "cache"))
    rng = np.random.default_rng(7)
    n = 600
    pq.write_table(pa.table({
        "l_orderkey": rng.integers(0, 400, n),
        "l_partkey": rng.integers(1, 200, n),
        "l_suppkey": rng.integers(1, 10, n),
        "l_quantity": rng.integers(1, 50, n).astype(np.float64),
    }), tmp_path / "lineitem.parquet")
    m = _load()
    got = m.queries()[name](str(tmp_path))
    got = got.to_pandas() if hasattr(got, "to_pandas") else got
    con = duckdb.connect()
    con.sql(f"CREATE VIEW lineitem AS SELECT * FROM read_parquet('{tmp_path}/lineitem.parquet')")
    want = con.sql(m.oracle_sql()[name]).df()
    assert len(got) > 0 and _same(got, want)
