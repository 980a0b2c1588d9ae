"""Keep freed heap memory process-resident.

Virtualized hosts with virtio *free page reporting* (visible as "Free
page reporting enabled" in dmesg) hand every page the guest kernel
frees back to the hypervisor; re-faulting such a page later costs
~40us (~25 MB/s of fresh memory) instead of a normal minor fault.
Glibc's default malloc serves every large (>=128 KiB) allocation from
a fresh ``mmap`` and ``munmap``s it on free, so a NumPy-heavy
superstep loop (new temp arrays every round) runs an
allocate->report->cold-refault treadmill that measured 20-100x slower
than DRAM on this class of host.

``keep_heap_resident()`` turns the treadmill off for the calling
process: all allocations come from the sbrk heap (``M_MMAP_MAX=0``)
and the heap never shrinks (``M_TRIM_THRESHOLD=INT_MAX``), so freed
pages stay mapped, stay host-backed, and are reused at DRAM speed.
The cost is that process RSS stays at its high-water mark — the right
trade for long-lived fragment actors and batch workers whose peak
working set is bounded by design (CSR shards + per-round temps).

This is also the correct configuration on real multi-node clusters
with memory ballooning, and harmless elsewhere (steady-state RSS of a
superstep engine is its peak anyway).
"""

from __future__ import annotations

import ctypes
import os
import warnings

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_MMAP_MAX = -4

_done = False


def in_ray_worker() -> bool:
    """True inside a Ray worker process (a task's or an actor's), whose
    raylet sets ``RAY_RAYLET_PID``; False in a driver or any other user
    process.  Only Ray workers get the resident heap at import and the
    fragment hosts' heap prewarm: a user process keeps its own heap."""
    return bool(os.environ.get("RAY_RAYLET_PID"))


def keep_heap_resident() -> bool:
    """Apply the malloc tuning to the current process (idempotent).

    Returns True if the tuning was applied (or already active)."""
    global _done
    if _done:
        return True
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        ok = (libc.mallopt(_M_TRIM_THRESHOLD, ctypes.c_int(2**31 - 1))
              and libc.mallopt(_M_MMAP_THRESHOLD, ctypes.c_int(2**31 - 1))
              and libc.mallopt(_M_MMAP_MAX, ctypes.c_int(0)))
        _done = bool(ok)
        return _done
    except Exception:  # non-glibc platform: nothing to tune
        return False


def available_memory() -> int:
    """Bytes of currently-available system memory (MemAvailable), with
    a conservative 4 GiB fallback when /proc is absent.  Used to size
    per-actor resident-heap caps so a fleet of fragment hosts cannot
    collectively ratchet the machine into OOM."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import psutil

        return int(psutil.virtual_memory().available)
    except Exception:
        return 4 << 30


def prewarm_heap_async(nbytes: int, cap: int = 2 << 30,
                       deadline_s: float | None = None):
    """Pre-fault ~nbytes of heap in a background thread.

    On free-page-reporting hosts (see module docstring) the FIRST touch
    of an anonymous page can cost 40us+ (measured 5-250 MB/s of fresh
    memory vs ~10 GB/s warm).  With ``keep_heap_resident`` active, the
    pages this touches are never given back, so every later NumPy
    temporary of the superstep kernels carves from an already-resident
    arena at DRAM speed instead of fault-stalling inside the timed
    barrier (where one straggling partition delays all).  The fill
    releases the GIL, so the thread overlaps fragment load / earlier
    programs.  No-op when nbytes <= 0.

    Bails out after ``deadline_s`` seconds (default from
    ``LGR_PREWARM_DEADLINE_S``, 120): when the host's fault path is in
    a pathological regime (single-digit MB/s observed) a partial
    prewarm still helps proportionally and the caller must not stall.
    """
    import threading
    import time as _time

    n = int(min(max(nbytes, 0), cap))
    if n <= 0:
        return None
    if deadline_s is None:
        deadline_s = float(os.environ.get("LGR_PREWARM_DEADLINE_S", "120"))

    def _touch():
        try:
            import numpy as _np

            a = _np.empty(n, _np.uint8)
            t_end = _time.monotonic() + deadline_s
            step = 16 << 20
            for off in range(0, n, step):
                a[off: off + step].fill(1)
                if _time.monotonic() > t_end:
                    break
            del a
        except MemoryError:
            pass

    t = threading.Thread(target=_touch, daemon=True)
    t.start()
    return t


def free_plasma(refs) -> None:
    """Release ``refs`` from this node's object store now, instead of
    at the (async) distributed ref GC.  Best-effort: on failure the
    normal GC still applies."""
    try:
        from ray._private.internal_api import free

        with warnings.catch_warnings():  # Ray marks the call deprecated
            warnings.simplefilter("ignore", DeprecationWarning)
            free(refs, local_only=True)
    except Exception:
        pass


def prewarm_plasma(gb: float, chunk_mb: int = 512, parallel: int = 8,
                   deadline_s: float | None = None) -> float:
    """Pre-fault ~gb GiB of the Ray object store, then free it.

    The plasma arena is carved from /dev/shm lazily; on free-page-
    reporting hosts the first touch of each arena page crawls (measured
    0.08-0.4 GB/s), while re-used arena pages write at 15-24 GB/s.  The
    store's allocator keeps freed regions mapped, so paying the fault
    cost once up front (untimed) takes it out of every later
    ``ray.put``/Dataset block of the measured pipeline.  Touches from
    ``parallel`` remote tasks to overlap fault latency.  Returns the
    seconds spent.  Requires an initialized Ray; no-op for gb <= 0."""
    import time as _time

    if gb <= 0:
        return 0.0
    import numpy as _np
    import ray as _ray

    t0 = _time.perf_counter()
    if deadline_s is None:
        deadline_s = float(os.environ.get("LGR_PREWARM_DEADLINE_S", "120"))
    n_chunks = max(1, int(gb * 1024 / chunk_mb))

    @_ray.remote(num_cpus=0)
    def _fill(k: int, mb: int, t_end: float):
        # np.zeros reads map the shared zero page (cheap); the plasma
        # write side is what faults the arena.  Deadline-bounded: a
        # partial prewarm still helps and the caller must not stall
        # when the host fault path is pathological.
        out = []
        for _ in range(k):
            if _time.monotonic() > t_end:
                break
            out.append(_ray.put(_np.zeros(mb << 20, _np.uint8)))
        return out

    t_end = _time.monotonic() + deadline_s
    per = max(1, n_chunks // max(parallel, 1))
    futs = [_fill.remote(per, chunk_mb, t_end) for _ in range(max(parallel, 1))]
    refs = [r for sub in _ray.get(futs) for r in sub]
    free_plasma(refs)
    del refs, futs
    return _time.perf_counter() - t0
