"""Tiny-scale runs of every workload, end to end, through the CLI."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from conftest import BENCH, ROOT

WORKLOADS = ("web_cold", "engine")


def _run(cwd, workload, trace, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    p = _run(ROOT, workload, trace)
    assert p.returncode == 0, p.stderr[-4000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 3
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in res["metrics"].values())
    if trace:
        cov = res["metrics"]["trace.layer_coverage"]["value"]
        assert 0.95 <= cov <= 1.0
    else:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = _run(tmp_path, "web_cold", 0, timeout=60)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
