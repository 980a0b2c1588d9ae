"""`python -m libgrape_lite_ray.run` job entrypoint (ray-job-submit
shape): build -> run -> resumable partitioned output, in-process main()
(the pytest session owns Ray; main() must not re-init)."""

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _edges_parquet(path):
    rng = np.random.default_rng(7)
    src = rng.integers(0, 50, 400).astype(np.int64)
    dst = rng.integers(0, 50, 400).astype(np.int64)
    m = src != dst
    pq.write_table(pa.table({"src": pa.array(src[m]), "dst": pa.array(dst[m])}),
                   path)


def _read_out(out_dir):
    return pa.concat_tables([
        pq.read_table(f)
        for f in sorted(glob.glob(os.path.join(out_dir, "part=*", "data.parquet")))])


def test_run_cli_end_to_end_and_resume(ray_session, tmp_work, capsys):
    from libgrape_lite_ray.run import main

    ep = f"{tmp_work}/edges.parquet"
    _edges_parquet(ep)
    out = f"{tmp_work}/scores"
    argv = ["--edges", ep, "--algo", "pagerank",
            "--params", '{"rounds": 5}',
            "--work-dir", f"{tmp_work}/wd", "--out", out,
            "--num-partitions", "3"]
    s1 = main(argv)
    assert s1["rounds"] == 5 and s1["written"] >= 1
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["algo"] == "pagerank"
    t1 = _read_out(out)
    assert t1.num_rows == s1["vertices"]
    assert set(t1.column_names) >= {"oid"}

    # resume: all output partitions already committed -> all skipped,
    # result identical on disk
    s2 = main(argv + ["--resume"])
    assert s2["written"] == 0 and s2["skipped"] == s1["written"]
    t2 = _read_out(out)
    assert t1.equals(t2)


def test_run_cli_corpus_mode(ray_session, tmp_work):
    from libgrape_lite_ray.fixtures import pages_table

    from libgrape_lite_ray.run import main

    pages = pages_table(60, n_sites=6, seed=3)
    pp = f"{tmp_work}/pages.parquet"
    pq.write_table(pages, pp)
    out = f"{tmp_work}/wcc_out"
    s = main(["--corpus", pp, "--algo", "wcc", "--symmetrize",
              "--work-dir", f"{tmp_work}/wd2", "--out", out,
              "--num-partitions", "2"])
    assert s["written"] >= 1 and s["vertices"] > 0
    t = _read_out(out)
    assert t.num_rows == s["vertices"]
    # the sink buckets rows by column 0: the oid, not the component
    assert t.column_names[0] == "oid"
    rows = [pq.read_metadata(f).num_rows
            for f in glob.glob(os.path.join(out, "part=*", "data.parquet"))]
    assert sum(n > 0 for n in rows) > 1, rows


def test_run_cli_mid_algorithm_resume(ray_session, tmp_work):
    """Kill-at-round-3 (max_rounds) then --resume: final scores equal
    an uninterrupted run bit-for-bit."""
    from libgrape_lite_ray.run import main

    ep = f"{tmp_work}/edges2.parquet"
    _edges_parquet(ep)
    base = ["--edges", ep, "--algo", "pagerank", "--params",
            '{"rounds": 6}', "--num-partitions", "3"]

    full = main(base + ["--work-dir", f"{tmp_work}/wf",
                        "--out", f"{tmp_work}/full"])
    assert full["rounds"] == 6

    # "killed" run: stops after 3 rounds, checkpointing every round
    part = main(base + ["--work-dir", f"{tmp_work}/wk",
                        "--out", f"{tmp_work}/part1",
                        "--checkpoint-every", "1", "--max-rounds", "3"])
    assert part["rounds"] == 3
    # resume from the checkpoint, run to completion
    res = main(base + ["--work-dir", f"{tmp_work}/wk",
                       "--out", f"{tmp_work}/part2",
                       "--checkpoint-every", "1", "--resume"])
    assert res["resumed_from"] == 3 and res["rounds"] == 6

    t_full = _read_out(f"{tmp_work}/full").sort_by("oid")
    t_res = _read_out(f"{tmp_work}/part2").sort_by("oid")
    assert t_full.equals(t_res)


def test_run_cli_hits_and_ppr(ray_session, tmp_work):
    """The round-5 programs work through the job entrypoint unchanged
    (registry-driven --algo): HITS emits both score columns, PPR
    restarts from its seed set."""
    from libgrape_lite_ray.run import main

    ep = f"{tmp_work}/edges.parquet"
    _edges_parquet(ep)
    s = main(["--edges", ep, "--algo", "hits", "--params", '{"rounds": 3}',
              "--work-dir", f"{tmp_work}/wd", "--out", f"{tmp_work}/hits",
              "--num-partitions", "3"])
    t = _read_out(f"{tmp_work}/hits")
    assert set(t.column_names) >= {"oid", "authority", "hub"}
    assert s["rounds"] == 2 * 3 + 1
    a = np.asarray(t.column("authority"))
    np.testing.assert_allclose(a.sum(), 1.0, rtol=1e-9)

    s = main(["--edges", ep, "--algo", "ppr",
              "--params", '{"sources": [0, 1], "rounds": 6}',
              "--work-dir", f"{tmp_work}/wd", "--out", f"{tmp_work}/ppr",
              "--num-partitions", "3"])
    t = _read_out(f"{tmp_work}/ppr")
    assert set(t.column_names) >= {"oid", "ppr"}
    p = np.asarray(t.column("ppr"))
    assert p.sum() <= 1.0 + 1e-9 and p.max() > 0
