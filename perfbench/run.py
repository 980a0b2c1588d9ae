#!/usr/bin/env python3
"""Graph-job benchmark for libgrape_lite_ray.

Runs one workload closed loop (one op at a time) through the library's
public calls, checks every op's output against a golden result, and
prints one line per metric, then one JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (job_cpu_ref,
setup_s, peak_rss_gb); with ``--trace 1`` they are the per-layer ones,
from spans recorded around each layer call.

An op's cost, ``job_cpu_ref``, is the CPU seconds the machine spent
during the op (the benchmark process and every process Ray runs for it),
divided by the CPU seconds of a fixed reference kernel run just before
and just after the op.  On a
shared virtual host the wall time of the same op swung by half from run
to run, and its CPU time by a sixth, with the other guests' load; the
ratio stays within a few percent.  The wall and CPU
seconds are printed as text lines, and the traced run holds the wall
time of every layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload web_cold --seed 1 --seconds 6 --trace 0

Inputs, goldens, graphs and Ray's session files live under
``.bench_data/`` and ``.bench_ray/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

OP_TIMEOUT_S = 90  # an op running longer counts as failed
MIN_OPS = 3  # ops per run, even when the window closes earlier
RUN_BUDGET_S = 150  # no op starts after this much wall time in the process
SETTLE_MAX_S = 3.0
OBJECT_STORE_BYTES = 512 << 20
# AF_UNIX socket paths are capped at 107 bytes; Ray appends ~63 to its temp dir
RAY_TEMP_MAX_LEN = 44

END_TO_END = {"job_cpu_ref": "x", "setup_s": "s", "peak_rss_gb": "GiB"}

_SUPERSTEP = ("s", "rounds", "apply_s", "pack_s", "barrier_s", "sent_per_round",
              "exchange_mb_computed")
PER_LAYER = {
    "extract.s": "s", "extract.pages_per_s": "pages/s", "extract.edges_out": "count",
    "build.directed_s": "s", "build.undirected_s": "s", "build.vertices": "count",
    "build.spool_files": "count", "build.spool_mb": "MB",
    "load.directed_s": "s", "load.undirected_s": "s", "load.snapshot_s": "s",
    "fragment.snapshot_bytes_per_edge": "B/edge",
    **{f"{p}.{k}": ("count" if k in ("rounds", "sent_per_round") else
                    "MB" if k == "exchange_mb_computed" else "s")
       for p in ("pagerank", "wcc", "cdlp", "lcc") for k in _SUPERSTEP},
    "baseline.numpy_pagerank_s": "s",
    "result.fetch_s": "s",
    "ckpt.run_s": "s", "ckpt.mb_per_round": "MB", "ckpt.files": "count",
    "resume.s": "s", "resume.rounds": "count",
    "sink.s": "s", "sink.mb": "MB",
    "host.nproc": "count", "host.loadavg_before": "load", "host.loadavg_after": "load",
    "host.mem_available_gb": "GiB", "host.membw_copy_gbps": "GB/s",
    "host.settle_s": "s", "host.steal_frac": "ratio", "host.ref_cpu_s": "s",
    "setup.ray_init_s": "s",
    "shape.logical_cpus": "count", "shape.partitions": "count", "shape.hosts": "count",
    "trace.job_s": "s", "trace.job_cpu_s": "s", "trace.layer_sum_s": "s",
    "trace.layer_coverage": "ratio",
    "failed_ratio": "ratio",
}


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (tests use a tiny scale)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def import_library():
    """Import libgrape_lite_ray from this checkout, never from elsewhere."""
    sys.path.insert(0, ROOT)
    try:
        import libgrape_lite_ray
    except ImportError as e:
        raise SystemExit(f"perfbench: libgrape_lite_ray is not importable from {ROOT}: {e}")
    pkg = os.path.dirname(os.path.abspath(libgrape_lite_ray.__file__))
    if os.path.dirname(pkg) != ROOT:
        raise SystemExit(f"perfbench: libgrape_lite_ray was imported from {pkg}, not {ROOT}")


def init_ray(logical_cpus: int):
    # Ray's worker processes import the library and the goldens too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, HERE, os.environ.get("PYTHONPATH")) if p)
    import logging

    import ray

    temp = os.path.join(ROOT, ".bench_ray")
    kw = {}
    if len(temp) <= RAY_TEMP_MAX_LEN:
        kw["_temp_dir"] = temp
    else:
        print(f"perfbench: {temp} is too long for Ray's sockets; using Ray's default "
              "temp dir", file=sys.stderr)
    ray.init(address="local", num_cpus=logical_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, **kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray(hostinfo):
    import ray

    ray.shutdown()
    me = os.getpid()
    deadline = time.perf_counter() + 20
    while hostinfo.descendants(me) and time.perf_counter() < deadline:
        time.sleep(0.1)
    for pid in hostinfo.descendants(me):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while hostinfo.descendants(me) and time.perf_counter() < deadline + 10:
        time.sleep(0.1)
    hostinfo.reap_children()


def mark(t_start: float, phase: str):
    print(f"perfbench: {phase} done at +{time.perf_counter() - t_start:.1f} s",
          file=sys.stderr, flush=True)


def run_op(wl, tr, op_id: int):
    """One op: (start, end, CPU seconds, reference CPU seconds, result,
    peak GiB) or raises.  The timeout alarm covers the op only.  The
    reference kernel runs just before and just after the op, the memory
    peaks are reset before the clock starts and read after it stops, and
    the golden check runs last."""
    import hostinfo

    ref = hostinfo.ref_cpu_s()
    base = hostinfo.start_peaks(os.getpid())
    tr.op_id = op_id
    c0 = hostinfo.busy_cpu_s()
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        with tr.span("op"):
            t0 = time.perf_counter()
            res = wl.op()
            t1 = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    cpu = hostinfo.busy_cpu_s() - c0
    peak = hostinfo.peak_gb(os.getpid(), base)
    ref = (ref + hostinfo.ref_cpu_s()) / 2
    wl.check(res)
    return t0, t1, cpu, ref, res, peak


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    import_library()
    import hostinfo
    from tracing import Tracer, duration, layer_seconds
    from workloads import HOSTS, PARTITIONS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    data_dir = os.path.join(ROOT, ".bench_data")
    os.makedirs(data_dir, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    nproc = hostinfo.effective_cpus()
    logical_cpus = max(2, nproc)
    traced = bool(args.trace)
    tr = Tracer(traced)
    host = {"host.nproc": nproc, "host.mem_available_gb": hostinfo.mem_available_gb(),
            "shape.logical_cpus": logical_cpus, "shape.partitions": PARTITIONS,
            "shape.hosts": HOSTS}

    # Ray's start-up is outside the library and swings by a second or two
    # from one start to the next, so it is reported but kept out of setup_s
    t0 = time.perf_counter()
    init_ray(logical_cpus)
    host["setup.ray_init_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    import libgrape_lite_ray.graph.driver  # noqa: F401  (the layers' imports)
    import libgrape_lite_ray.pipelines.web  # noqa: F401
    import libgrape_lite_ray.sinks  # noqa: F401
    import_s = time.perf_counter() - t0
    mark(t_start, "ray.init")

    wl = WORKLOADS[args.workload](data_dir, args.seed, tr, args.scale)
    times, cpus, refs, edges, peaks, op_stats, coverage = [], [], [], [], [], [], []
    attempted = failed = 0
    try:
        wl.prepare()
        mark(t_start, "prepare")
        reps = wl.setup()
        mark(t_start, "setup")
        setup_s = import_s + statistics.median(reps)
        # untimed warm-up op: first-touch costs and the page cache
        try:
            run_op(wl, tr, 0)
        except Exception:
            attempted += 1
            failed += 1
            print(f"perfbench: warm-up op failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            wl.recover()
        mark(t_start, "warm-up op")
        host["host.settle_s"] = hostinfo.settle(SETTLE_MAX_S)
        host["host.loadavg_before"] = hostinfo.loadavg1()
        ticks = hostinfo.cpu_ticks()
        t_end = time.perf_counter() + args.seconds
        while (attempted < MIN_OPS or time.perf_counter() < t_end) \
                and time.perf_counter() - t_start < RUN_BUDGET_S:
            attempted += 1
            try:
                t0, t1, cpu, ref, res, peak = run_op(wl, tr, attempted)
            except Exception:
                failed += 1
                print(f"perfbench: op {attempted} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
                wl.recover()
                continue
            print(f"perfbench: op {attempted}: {t1 - t0:.3f} s wall, {cpu:.2f} s CPU, "
                  f"reference {ref:.4f} s CPU", file=sys.stderr, flush=True)
            times.append(t1 - t0)
            cpus.append(cpu)
            refs.append(ref)
            edges.append(wl.op_edges(res))
            peaks.append(peak)
            if not traced:
                continue
            spans = tr.op_spans(attempted)
            layers = layer_seconds(spans)
            op_span = next(s for s in spans if s["name"] == "op")
            coverage.append((duration(op_span), sum(layers.values())))
            op_stats.append(wl.op_stats(res, spans))
        host["host.loadavg_after"] = hostinfo.loadavg1()
        host["host.steal_frac"] = hostinfo.steal_frac(ticks)
        if refs:
            host["host.ref_cpu_s"] = statistics.median(refs)
        mark(t_start, f"{attempted} measured ops")
        if traced:
            run_stats = wl.run_stats()
            host["host.membw_copy_gbps"] = hostinfo.membw_copy_gbps(ROOT)
    finally:
        try:
            wl.close()
        finally:
            stop_ray(hostinfo)
    mark(t_start, "shutdown")
    if not times:
        print("perfbench: every op failed", file=sys.stderr)
        return 1

    if traced:
        metrics = {k: 0.0 for k in PER_LAYER}
        for k in {k for st in op_stats for k in st}:
            metrics[k] = statistics.median(st[k] for st in op_stats if k in st)
        metrics.update(run_stats)
        metrics.update(host)
        metrics["trace.job_s"] = statistics.median(times)
        metrics["trace.job_cpu_s"] = statistics.median(cpus)
        metrics["trace.layer_sum_s"] = statistics.median(c[1] for c in coverage)
        metrics["trace.layer_coverage"] = statistics.median(c[1] / c[0] for c in coverage)
        metrics["failed_ratio"] = failed / attempted
        units = PER_LAYER
        tr.write(os.path.join(data_dir, f"trace-{args.workload}-s{args.seed}.jsonl"))
    else:
        metrics = {"job_cpu_ref": statistics.median(c / r for c, r in zip(cpus, refs)),
                   "setup_s": setup_s, "peak_rss_gb": statistics.median(peaks)}
        units = END_TO_END
        for k, v in sorted(host.items()):
            print(f"{k:>34} {v:.6g} {PER_LAYER[k]}")
        print(f"{'failed_ratio':>34} {failed / attempted:.6g} ratio")
        print(f"{'ops':>34} {len(times)} count")
        print(f"{'job_s':>34} {statistics.median(times):.6g} s (wall)")
        print(f"{'job_cpu_s':>34} {statistics.median(cpus):.6g} s (CPU)")
        print(f"{'edges_per_s':>34} "
              f"{statistics.median(e / t for e, t in zip(edges, times)):.6g} edges/s (wall)")
    for k, v in metrics.items():
        print(f"{k:>34} {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
