"""Streaming micro-batch loop (run_sampler.cc driver-loop analog):
apply successive deltas through mutate_graph on a warm actor pool and
assert the final state equals a from-scratch full build."""

import os

import numpy as np
import pyarrow as pa
import pytest

from libgrape_lite_ray import fixtures
from libgrape_lite_ray.graph import oracle
from libgrape_lite_ray.graph.build import build_graph, edges_from_numpy
from libgrape_lite_ray.streaming import MicroBatchLoop, table_source


def _delta(ops, srcs, dsts):
    return pa.table({"op": pa.array(ops, pa.string()),
                     "src": pa.array(srcs, pa.int64()),
                     "dst": pa.array(dsts, pa.int64()),
                     "w": pa.array(np.zeros(len(ops)))})


def test_micro_batch_wcc_converges_to_full(ray_session, tmp_work):
    """er_components has two components; stream in bridge edges one
    micro-batch at a time and watch WCC merge them."""
    src, dst = fixtures.er_components()
    n = 100
    base = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "base"),
                       3, symmetrize=True)
    loop = MicroBatchLoop(base, "wcc", {}, os.path.join(tmp_work, "stream"))
    try:
        # batch 1: an edge inside component 0 (no merge)
        r1, m1 = loop.step(_delta(["a"], [0], [7]))
        comp1 = r1.to_pandas().sort_values("gid")["comp"].to_numpy()
        assert len(np.unique(comp1)) == 2
        # batch 2: bridge the components -> single component
        r2, m2 = loop.step(_delta(["a"], [0], [99]))
        comp2 = r2.to_pandas().sort_values("gid")["comp"].to_numpy()
        assert len(np.unique(comp2)) == 1
        # equivalence with a full build of base + both deltas; a
        # mutation counts its stored (deduped) edges, both directions
        s3 = np.concatenate([src, [0, 0]])
        d3 = np.concatenate([dst, [7, 99]])
        stored = np.unique(np.stack([np.append(s3, d3), np.append(d3, s3)], 1), axis=0)
        assert m2["generation"] == 2 and m2["num_edges"] == len(stored)
        want = oracle.wcc(s3, d3, n)
        assert np.array_equal(comp2, want)
    finally:
        loop.shutdown()


def test_micro_batch_delete_splits_component(ray_session, tmp_work):
    """Deleting the only bridge re-splits the graph (delete path)."""
    src, dst = fixtures.er_components()
    s0 = np.concatenate([src, [0]])
    d0 = np.concatenate([dst, [99]])
    base = build_graph(edges_from_numpy(s0, d0), os.path.join(tmp_work, "base"),
                       3, symmetrize=True)
    loop = MicroBatchLoop(base, "wcc", {}, os.path.join(tmp_work, "stream"))
    try:
        r, _ = loop.step(_delta(["d"], [0], [99]))
        comp = r.to_pandas().sort_values("gid")["comp"].to_numpy()
        want = oracle.wcc(src, dst, 100)
        assert np.array_equal(comp, want)
        assert len(np.unique(comp)) == 2
    finally:
        loop.shutdown()


class _FakeMsg:
    def __init__(self, value, err=None):
        self._v = value
        self._e = err

    def error(self):
        return self._e

    def value(self):
        return self._v


class _FakeConsumer:
    """Duck-typed confluent-kafka Consumer: a scripted sequence of poll
    results (None = empty poll window)."""

    def __init__(self, polls):
        self._polls = list(polls)
        self.subscribed = None
        self.closed = False

    def subscribe(self, topics):
        self.subscribed = list(topics)

    def poll(self, timeout):
        return self._polls.pop(0) if self._polls else None

    def close(self):
        self.closed = True


def test_kafka_source_poll_loop():
    """kafka_source drives the poll loop against an injected consumer
    (kafka_consumer.h:31-104 shape): batches split on empty polls,
    bytes decoded, errored records skipped, comments ignored."""
    from libgrape_lite_ray.streaming import kafka_source

    polls = [
        _FakeMsg(b"a 0 7"), _FakeMsg("a 1 8 2.5"),
        _FakeMsg(b"", err="boom"),       # errored record: skipped
        _FakeMsg("# comment"), None,      # -> end of batch 1
        _FakeMsg(b"d 0 7"), None,         # -> batch 2
    ]
    fc = _FakeConsumer(polls)
    batches = list(kafka_source("deltas", consumer=fc, stop_on_idle=True))
    assert fc.subscribed == ["deltas"] and fc.closed
    assert len(batches) == 2
    b1, b2 = batches
    assert b1.column("op").to_pylist() == ["a", "a"]
    assert b1.column("src").to_pylist() == [0, 1]
    assert b1.column("w").to_pylist() == [0.0, 2.5]
    assert b2.column("op").to_pylist() == ["d"]


def test_kafka_source_batch_cap():
    """poll_batch bounds a micro-batch even when the stream never goes
    idle inside the window."""
    from libgrape_lite_ray.streaming import kafka_source

    polls = [_FakeMsg(f"a {i} {i+1}") for i in range(5)] + [None]
    fc = _FakeConsumer(polls)
    batches = list(kafka_source("t", consumer=fc, poll_batch=2,
                                stop_on_idle=True))
    assert [len(b) for b in batches] == [2, 2, 1]


def test_kafka_source_end_to_end_microbatch(ray_session, tmp_work):
    """Full pipe: fake-Kafka deltas -> MicroBatchLoop -> WCC merge (the
    run_sampler.cc:89-140 loop with the consumer injected)."""
    from libgrape_lite_ray.streaming import MicroBatchLoop, kafka_source

    src, dst = fixtures.er_components()
    base = build_graph(edges_from_numpy(src, dst), os.path.join(tmp_work, "kb"),
                       3, symmetrize=True)
    polls = [_FakeMsg(b"a 0 7"), None, _FakeMsg(b"a 0 99"), None]
    fc = _FakeConsumer(polls)
    loop = MicroBatchLoop(base, "wcc", {}, os.path.join(tmp_work, "kstream"))
    try:
        comps = []
        for res, m in loop.run(kafka_source("deltas", consumer=fc,
                                            stop_on_idle=True)):
            comps.append(res.to_pandas().sort_values("gid")["comp"].to_numpy())
        assert len(comps) == 2
        assert len(np.unique(comps[0])) == 2   # intra-component edge
        assert len(np.unique(comps[1])) == 1   # bridge merges all
    finally:
        loop.shutdown()
