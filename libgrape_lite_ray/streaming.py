"""Streaming micro-batch loop — the executable analog of the
reference's GNN-sampler driver (examples/gnn_sampler/run_sampler.cc:
89-140: Kafka consume -> extend fragment -> run query -> emit).

Kafka itself is not available in this environment, so the SOURCE is an
abstraction: any iterator of delta pyarrow Tables (op/src/dst[/w] rows,
the ``.e.mutable_delta`` schema).  ``kafka_source`` is provided as an
import-gated stub documenting the consumer shape
(kafka_consumer.h:31-104); ``file_source`` replays delta files;
``table_source`` wraps in-memory batches.

Each micro-batch:
1. ``mutate_graph`` applies the delta (only touched partitions
   rewrite their CSR; untouched partitions' CSR directories are
   hard-linked);
2. the engine reloads into the SAME warm actor pool
   (``reuse_engine``), so per-batch cost is proportional to the delta,
   not the graph;
3. the configured program runs and its result is handed to ``emit``.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa

from .graph.build import GraphMeta
from .graph.driver import GraphEngine
from .graph.mutate import load_delta_file, mutate_graph

__all__ = ["MicroBatchLoop", "file_source", "table_source", "kafka_source"]


def table_source(tables):
    """Wrap an iterable of delta pyarrow Tables."""
    yield from tables


def file_source(paths):
    """Replay ``.e.mutable_delta``-format files, one micro-batch each."""
    for p in paths:
        yield load_delta_file(p)


def kafka_source(topic: str, brokers: str | None = None,
                 poll_batch: int = 10_000, consumer=None,
                 poll_timeout_s: float = 1.0, stop_on_idle: bool = False):
    """Kafka consumer source (run_sampler.cc:88-104 / kafka_consumer.h:
    31-104 analog): poll up to ``poll_batch`` records per micro-batch,
    parse each record value as an ``op src dst [w]`` delta line, yield
    one pyarrow Table per batch.

    ``consumer`` may be any duck-typed object with the confluent-kafka
    Consumer surface (``subscribe([topic])``, ``poll(timeout) -> msg``
    with ``msg.error()``/``msg.value()``, ``close()``) — injected for
    tests and for alternative clients.  When None, a real
    confluent-kafka Consumer is constructed (import-gated: the client
    library is not shipped in every environment).

    ``stop_on_idle=True`` ends the stream at the first empty poll window
    (batch replays); the default keeps polling forever like the
    reference's sampler daemon loop.
    """
    from .graph.mutate import parse_delta_lines

    if consumer is None:  # pragma: no cover - needs a live broker
        try:
            from confluent_kafka import Consumer
        except ImportError as e:
            raise NotImplementedError(
                "Kafka client not available in this environment; pass a "
                "duck-typed `consumer`, or use file_source/table_source"
            ) from e
        consumer = Consumer({
            "bootstrap.servers": brokers,
            "group.id": "lgr-sampler",
            "auto.offset.reset": "earliest",
            "enable.auto.commit": True,
        })
    consumer.subscribe([topic])
    try:
        while True:
            lines: list[str] = []
            while len(lines) < poll_batch:
                msg = consumer.poll(poll_timeout_s)
                if msg is None:
                    break  # poll window drained
                err = msg.error() if hasattr(msg, "error") else None
                if err:
                    continue  # transient consumer error: skip record
                v = msg.value()
                lines.append(v.decode() if isinstance(v, (bytes, bytearray)) else v)
            if not lines:
                if stop_on_idle:
                    return
                continue
            yield parse_delta_lines(lines)
    finally:
        consumer.close()


class MicroBatchLoop:
    """Drive a program over a stream of graph deltas.

    >>> loop = MicroBatchLoop(base_meta, "pagerank", {"rounds": 5}, work)
    >>> for result, metrics in loop.run(file_source(paths)): ...
    """

    def __init__(self, base_meta: GraphMeta, program: str, params: dict,
                 work_root: str, keep_generations: int = 2):
        self.meta = base_meta
        self.program = program
        self.params = dict(params or {})
        self.work_root = work_root
        self.keep_generations = max(1, int(keep_generations))
        self.generation = 0
        self._engine: GraphEngine | None = None
        self._dirs: list[str] = []
        os.makedirs(work_root, exist_ok=True)

    def step(self, delta: pa.Table):
        """Apply one delta micro-batch and run the program; returns
        (ResultHandle, metrics)."""
        self.generation += 1
        out_dir = os.path.join(self.work_root, f"gen={self.generation}")
        self.meta = mutate_graph(self.meta, delta, out_dir)
        self._dirs.append(out_dir)
        self._engine = GraphEngine(self.meta, reuse_engine=self._engine)
        result, metrics = self._engine.run(self.program, self.params)
        metrics["generation"] = self.generation
        metrics["num_edges"] = self.meta.num_edges
        # bound disk usage: old generations are hard-link forests, but
        # their rewritten partitions are real bytes
        while len(self._dirs) > self.keep_generations:
            old = self._dirs.pop(0)
            shutil.rmtree(old, ignore_errors=True)
        return result, metrics

    def run(self, source):
        """Generator over (result, metrics) per micro-batch.  Results
        must be consumed (or copied) before the next step reloads the
        engine."""
        for delta in source:
            yield self.step(delta)

    def shutdown(self):
        if self._engine is not None:
            self._engine.shutdown()
            self._engine = None
