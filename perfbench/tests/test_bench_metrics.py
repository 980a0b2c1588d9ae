"""Every metric BENCHMARK.json names is emitted, with the same unit."""

import json
import os

import run
from conftest import ROOT


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def test_end_to_end_metrics_declared_with_units():
    assert _declared("end_to_end") == run.END_TO_END


def test_per_layer_metrics_declared_with_units():
    assert _declared("per_layer") == run.PER_LAYER


def test_layer_metrics_cover_every_layer():
    layers = {"extract", "build", "load", "fragment", "pagerank", "wcc", "cdlp", "lcc",
              "baseline", "result", "ckpt", "resume", "sink", "host", "setup", "shape", "trace"}
    assert {name.split(".")[0] for name in run.PER_LAYER} - {"failed_ratio"} == layers
    for prog in ("pagerank", "wcc", "cdlp", "lcc"):
        for k in ("s", "rounds", "apply_s", "pack_s", "barrier_s", "sent_per_round",
                  "exchange_mb_computed"):
            assert f"{prog}.{k}" in run.PER_LAYER
