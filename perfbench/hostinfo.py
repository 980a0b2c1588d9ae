"""Host facts, the settle gate and process memory, all read from /proc."""

from __future__ import annotations

import json
import mmap
import os
import subprocess
import sys
import time

# the settle gate's CPU-idle sample
SETTLE_WINDOW_S = 0.5
SETTLE_IDLE_FRAC = 0.8


def effective_cpus() -> int:
    """CPUs this process may run on.  ``nproc`` can print fewer: it
    honours OMP_NUM_THREADS."""
    return len(os.sched_getaffinity(0))


def loadavg1() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def mem_available_gb() -> float:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 2**20
    raise RuntimeError("MemAvailable missing from /proc/meminfo")


def cpu_ticks() -> list[int]:
    """The summed ``cpu`` line of /proc/stat: user, nice, system, idle,
    iowait, irq, softirq, steal, ..."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_frac(since: list[int]) -> float:
    """Share of CPU time since ``since`` that the hypervisor gave to
    other guests: a slow run on a shared host shows here."""
    d = [b - a for a, b in zip(since, cpu_ticks())]
    return d[7] / sum(d) if sum(d) else 0.0


def busy_cpu_s() -> float:
    """CPU seconds the machine's CPUs have run anything so far: user,
    nice, system, irq and softirq time.  Every process of the benchmark
    counts, Ray workers that exit too.  Time the hypervisor gave to other
    guests (steal) and idle time do not."""
    t = cpu_ticks()
    return (t[0] + t[1] + t[2] + t[5] + t[6]) / os.sysconf("SC_CLK_TCK")


def _cpu_busy_idle() -> tuple[int, int]:
    fields = cpu_ticks()
    idle = fields[3] + fields[4]  # idle + iowait
    return sum(fields) - idle, idle


def settle(max_wait_s: float) -> float:
    """Block until one ``SETTLE_WINDOW_S`` sample of /proc/stat shows the
    CPUs at least ``SETTLE_IDLE_FRAC`` idle, or ``max_wait_s`` passed; returns the
    seconds waited.  The 1-minute loadavg decays over minutes and the
    run's own set-up keeps it high, so the gate samples CPU idle time
    instead and loadavg is only recorded."""
    t0 = time.perf_counter()
    while True:
        b0, i0 = _cpu_busy_idle()
        time.sleep(SETTLE_WINDOW_S)
        b1, i1 = _cpu_busy_idle()
        total = (b1 - b0) + (i1 - i0)
        if total and (i1 - i0) / total >= SETTLE_IDLE_FRAC:
            break
        if time.perf_counter() - t0 >= max_wait_s:
            break
    return time.perf_counter() - t0


def membw_copy_gbps(root: str) -> float:
    """One-worker streaming-copy bandwidth from ``scripts/membw.py``."""
    p = subprocess.run([sys.executable, os.path.join(root, "scripts", "membw.py"), "1"],
                       capture_output=True, text=True, check=True, timeout=120)
    return float(json.loads(p.stdout.strip().splitlines()[-1])["copy_gbps"])


def _children() -> dict[int, list[int]]:
    """ppid -> pids of live (not zombie) processes."""
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                # the command name may hold spaces: state and ppid follow its ")"
                state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, IndexError, ValueError):
            continue
        if state != "Z":
            kids.setdefault(int(ppid), []).append(int(d))
    return kids


def reap_children():
    """Collect the exit status of every ended child process."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def descendants(pid: int) -> list[int]:
    """Live descendant processes of ``pid``."""
    kids = _children()
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        for c in kids.get(p, []):
            out.append(c)
            todo.append(c)
    return out


def _status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field):
                return int(line.split()[1])
    return 0


def job_pids(pid: int) -> dict[int, bool]:
    """``pid`` and its Ray worker processes, each mapped to whether it
    holds an actor (pooled workers show as ``ray::IDLE`` between tasks).
    Ray's own daemons are left out."""
    out = {pid: False}
    for p in descendants(pid):
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue  # exited meanwhile
        if cmd.startswith(b"ray::"):
            out[p] = not cmd.startswith(b"ray::IDLE")
    return out


def start_peaks(pid: int) -> dict[int, int]:
    """Reset the VmHWM of ``pid`` and its Ray workers to their current
    RSS; returns that RSS in KiB of each process that holds no actor."""
    base = {}
    for p, actor in job_pids(pid).items():
        try:
            with open(f"/proc/{p}/clear_refs", "w") as f:
                f.write("5")
            if not actor:
                base[p] = _status_kb(p, "VmRSS:")
        except OSError:
            continue  # exited meanwhile
    return base


def peak_gb(pid: int, base: dict[int, int]) -> float:
    """Peak memory since ``start_peaks`` of ``pid`` and its Ray workers,
    in GiB: the whole VmHWM of each actor and of each worker started
    since, and for the other processes only the rise of VmHWM over their
    RSS at the start.  Those may hold memory of untimed work, such as
    the benchmark process after making inputs or a pooled worker after
    a task, and how many pooled workers are alive varies from run to
    run."""
    total_kb = 0
    for p in job_pids(pid):
        try:
            total_kb += max(0, _status_kb(p, "VmHWM:") - base.get(p, 0))
        except OSError:
            continue
    return total_kb / 2**20


REF_VALUES = 1 << 21  # 16 MiB int64 arrays, past the caches
REF_REPS = 2
_ref_arrays: list = []


def _anon_array(n: int):
    """n int64 in a fresh anonymous mapping.  NumPy asks for huge pages on
    its own large arrays, and whether it gets them varies from run to run;
    a gather over 16 MiB ran 1.7x slower without them.  This mapping
    always has small pages."""
    import numpy as np

    return np.frombuffer(mmap.mmap(-1, n * 8), dtype=np.int64)


def ref_cpu_s() -> float:
    """CPU seconds of a fixed, memory-bound reference kernel in this
    thread: NumPy gathers, sorts, counts and scans over 2M int64 values,
    as the ops' kernels do.  Its inputs are the same on every call and
    every run, and it allocates no memory of its size while it runs."""
    import numpy as np

    if not _ref_arrays:
        rng = np.random.default_rng(0)
        _ref_arrays.extend(_anon_array(REF_VALUES) for _ in range(4))
        a, perm, _, _ = _ref_arrays
        a[:] = rng.integers(0, 1 << 20, REF_VALUES)
        perm[:] = rng.permutation(REF_VALUES)
    a, perm, b, c = _ref_arrays
    t0 = time.thread_time()
    for _ in range(REF_REPS):
        np.take(a, perm, out=b)
        b.sort()
        np.bitwise_and(a, 0xFFFF, out=c)
        np.bincount(c)
        np.cumsum(a, out=c)
    return time.thread_time() - t0
