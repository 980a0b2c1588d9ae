"""Superstep driver: the Ray-native analog of grape/worker/worker.h:87-133.

One long-lived actor (``FragmentHost``) hosts one or more partitions'
CSR fragments and running programs.  Every fragment-to-fragment
transfer goes through one exchange (the reference's single
``InArchive``/``OutArchive`` format, grape/serialization/in_archive.h):

- a fragment's outgoing data is ``{dest part: {channel: array | tuple
  of arrays}}``; ``_pack`` turns it into one bundle (per channel:
  destination ids, offsets, concatenated columns) and ``_unpack``
  gives one destination its slices;
- a host packs all its fragments into one payload, ``ray.put`` only
  when some destination lives on another host (co-hosted fragments
  read the local payload, no object-store hop);
- the driver routes payload refs host to host (``GraphEngine._route``),
  never the data, and frees them after the consuming barrier;
- a receiver gets every channel as ``(source partition, payload)``
  pairs in ascending source order, so results are bitwise the same at
  any ``num_hosts``.

The load-time phases use it: mirror registration (``mirror``: each
fragment sends every owner the gids it mirrors) and the vertex-data
sync (``vdata``: owners send the requesters their columns).  So does
every round: ``sync`` (dense owner -> mirror values), ``push`` (dense
mirror -> owner partials) and ``msgs`` (sparse combined messages).

A round: ``step(r)`` on every host applies round r's exchange
(program.update), returns the active count, and produces round r+1 in
the same call.  The run terminates when the active total is 0
(default_message_manager.h:324-350) or the round cap is hit.

Checkpoint/resume (north_rule): every ``checkpoint_every`` rounds each
actor writes its program state as one array directory
``ckpt_dir/step={r}/part={p}/`` (``{name}.npy`` per state array plus
``scalars.json``: ``fragment.save_arrays``, the format in which the
build writes each partition's CSR).  A restarted job's fragments only
map those published CSRs, so a resume reads nothing a run wrote but
its step.  The driver writes ``MANIFEST.json`` last (atomicity marker) with lineage
(fingerprint, algorithm, params, per-round metrics) and the graph
layout (V and a digest of the partition starts).  ``resume=True``
restarts from the newest complete step, and refuses a step written
on a different layout.  Steps written before this format
(``part={p}.parquet`` with every array zero-padded to one length, plus
``part={p}.json``) still restore.  Reference analog:
Serialize/Deserialize (immutable_edgecut_fragment.h:303-376), extended
to per-superstep granularity.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..memtune import free_plasma, in_ray_worker
from .build import GraphMeta
from .fragment import Fragment, load_arrays, save_arrays

__all__ = ["FragmentHost", "GraphEngine", "ResultHandle"]


def _starts_digest(starts) -> str:
    """Short digest of a partition layout, recorded in every manifest."""
    return hashlib.sha256(np.asarray(starts, np.int64).tobytes()).hexdigest()[:16]


def _reduce_globals(harvests) -> dict | None:
    """The one global-scalar reduction (Communicator Sum): merge the
    partition-keyed partials of every host's ``_harvest_globals`` and
    value-sum them in ascending partition order, so the aggregate is
    bitwise independent of how partitions are grouped onto hosts.
    Serves init, every round and the mutation-apply round."""
    by_part: dict = {}
    for h in harvests:
        by_part.update(h or {})
    agg: dict = {}
    for p in sorted(by_part):
        for k, v in by_part[p].items():
            agg[k] = agg.get(k, 0.0) + float(v)
    return agg or None


def _pack(slices: dict) -> dict | None:
    """One exchange bundle from ``{dest part: {channel: array | tuple of
    arrays}}``: per channel, its destination ids ascending, row offsets
    and each column's per-destination slices concatenated, so a
    consumer deserializes a few flat arrays (zero-copy from plasma)
    instead of O(P) small objects.  A channel reaches exactly the
    destinations that name it, zero-length slices included.  None when
    nothing is sent."""
    by_ch: dict = {}
    for q in sorted(slices):
        for ch, v in slices[q].items():
            by_ch.setdefault(ch, []).append((q, v))
    bundle = {}
    for ch, items in by_ch.items():
        tup = isinstance(items[0][1], tuple)
        cols = [v if tup else (v,) for _, v in items]
        bundle[ch] = (np.asarray([q for q, _ in items], np.int32),
                      np.concatenate([[0], np.cumsum([len(c[0]) for c in cols])]).astype(np.int64),
                      [np.concatenate([c[j] for c in cols]) for j in range(len(cols[0]))],
                      tup)
    return bundle or None


def _unpack(bundle: dict, part: int) -> dict:
    """``{channel: payload}`` of the slices ``bundle`` holds for
    ``part``: a tuple of column slices for a tuple channel, else one
    array.  Channels with no slice for ``part`` are absent."""
    out = {}
    for ch, (dests, offs, cols, tup) in bundle.items():
        i = int(np.searchsorted(dests, part))
        if i < len(dests) and dests[i] == part:
            sl = slice(offs[i], offs[i + 1])
            out[ch] = tuple(c[sl] for c in cols) if tup else cols[0][sl]
    return out


def _free_bundles(outs):
    """Eagerly release consumed exchange payloads from plasma.

    The per-round ray.puts otherwise outlive their single
    consumption by one-to-many rounds (distributed ref GC is
    async), so the store keeps allocating FRESH pages — and on
    hosts with virtio free-page reporting a fresh plasma page
    faults at ~25 MB/s (see memtune).  Freeing right after the
    consuming barrier lets the store's allocator hand the same
    warm pages to the next round: measured 10x on the exchange
    round (70ms vs 600ms for a 435MB/round all-to-all at P=32).
    Safe because every consumer finished inside the barrier and
    no program retains views into incoming bundles past
    update() (audited; LCC concatenates what it keeps), and the
    load-time phases copy what they receive.
    """
    refs = [o["ref"] for o in outs if o.get("ref") is not None]
    if refs:
        free_plasma(refs)


class ResultHandle:
    """Distributed per-vertex result: one Arrow table ref per partition.

    Stays in the object store until consumed; ``to_dataset()`` wraps it
    as a Ray Dataset for distributed sinks (write_parquet etc.),
    ``to_arrow()``/``to_pandas()`` do one batched fetch (results are
    V-sized, far smaller than edges).  NOTE: refs are owned by the
    engine's actors — consume before ``engine.shutdown()``.
    """

    def __init__(self, refs):
        self.refs = list(refs)

    def to_arrow(self) -> pa.Table:
        import ray

        return pa.concat_tables(ray.get(self.refs))

    def to_pandas(self):
        return self.to_arrow().to_pandas()

    def to_dataset(self):
        """One block per partition, no copy: ``sinks.write_dataset_partitioned``'s input."""
        import ray.data as rd

        return rd.from_arrow_refs(self.refs)


class FragmentHost:
    """Actor body: one or more fragments + their programs + exchange
    endpoints.

    Hosting SEVERAL fragments per actor (``GraphEngine(num_hosts=H)``
    with H < P) keeps the LOGICAL partitioning fixed across parallelism
    levels — the cluster-size criterion compares the same sharded job —
    while shrinking the fixed per-round cost that dominates at low
    parallelism: one actor call + one ray.put per HOST per round
    instead of per partition (a bare 32-actor barrier costs ~20-35ms on
    this box), and co-hosted fragments consume each other's exchange
    in-process with no object-store hop.  This is the reference's
    process-per-node / threads-per-core shape (worker.h one worker per
    MPI rank hosting the whole local fragment set).
    """

    def __init__(self, host_id: int, part_ids, host_of, work_dir: str, starts,
                 vdata_cols=None):
        # no heap tuning here: importing the package applies it in every
        # Ray worker, actors included (see memtune), and a host built in
        # a user process must leave that process's heap alone
        self._bind(host_id, part_ids, host_of, work_dir, starts, vdata_cols)

    def _bind(self, host_id, part_ids, host_of, work_dir, starts, vdata_cols):
        self.host_id = int(host_id)
        self.parts = [int(p) for p in part_ids]
        self.host_of = np.asarray(host_of, np.int64)
        st = np.asarray(starts, np.int64)
        self.frags = {p: Fragment(p, work_dir, st, vdata_cols)
                      for p in self.parts}
        self.programs: dict[int, object] = {}
        self._own_payload: dict = {}  # exchange key -> own payload
        # intra-host parallelism over co-hosted fragments (the
        # reference's threads-per-worker): NumPy kernels release the
        # GIL, so apply/pack for 4 fragments in one actor overlap well
        if len(self.parts) > 1 and getattr(self, "_pool", None) is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=min(len(self.parts), 8))
        elif len(self.parts) <= 1:
            self._pool = None
        if in_ray_worker():
            self._prewarm()

    def _prewarm(self):
        """Background-fault the heap the program kernels will use —
        sized for the hungriest (LCC wedge machinery ~24B/edge) plus a
        per-vertex base.  Overlaps registration/earlier programs; with
        keep_heap_resident the pages are then reused at DRAM speed
        instead of fault-stalling inside timed superstep barriers.

        The per-actor cap is memory-aware: keep_heap_resident never
        returns these pages, so with H co-scheduled hosts the fleet
        retains H x cap at its high-water mark forever.  Cap each actor
        at a fair share of ~35% of currently-available memory (and the
        absolute 2 GiB ceiling) so 32 hosts on a small box cannot
        ratchet the machine into OOM."""
        from ..memtune import available_memory, prewarm_heap_async

        nbytes = sum(24 * f.num_local_edges + 16 * f.tvnum
                     for f in self.frags.values()) + (64 << 20)
        n_hosts = max(1, len(np.unique(self.host_of)))
        fair = int(available_memory() * 0.35) // n_hosts
        self._prewarm_t = prewarm_heap_async(nbytes, cap=min(2 << 30, fair))

    def join_prewarm(self) -> bool:
        """Block until the heap prewarm finished (harness hook: callers
        that time individual programs can absorb the one-time fault
        cost between stages instead of inside the first timed run)."""
        t = getattr(self, "_prewarm_t", None)
        if t is not None:
            t.join()
            self._prewarm_t = None
        return True

    def reload(self, host_id: int, part_ids, host_of, work_dir: str, starts,
               vdata_cols=None):
        """Rebind this actor to another built graph — reusing a warm
        actor pool skips process spawn + imports (~5s for 32 actors)."""
        self._bind(host_id, part_ids, host_of, work_dir, starts, vdata_cols)
        return True

    # ------------------------------------------------------------ exchange
    def _outgoing(self, part: int, key) -> dict:
        """One fragment's ``{dest: {channel: array | tuple}}`` for the
        exchange ``key``: a load-time phase or a round number."""
        f = self.frags[part]
        if key == "mirror":  # the gids this fragment mirrors, per owner
            return {q: {"mirror": g} for q, g in f.mirror_requests().items()}
        if key == "vdata":  # every vdata column, per requester (the dense
            # BatchShuffle exchange applied to VDATA at load,
            # basic_fragment_loader.h:300-338)
            return {q: {"vdata": tuple(a[lids] for a in f.vdata.values())}
                    for q, lids in f.export_lids.items()} if f.vdata else {}
        prog = self.programs[part]
        out: dict = {}
        mv = prog.mirror_values(key)
        if mv is not None:
            for q, vals in f.export_values(mv).items():
                out.setdefault(q, {})["sync"] = vals
        # dense mirror-push (mirror holder -> owner): the outer segment
        # is contiguous per owner (mirror_bounds), so the per-owner
        # payload is a zero-copy slice with NO gid column
        pv = prog.mirror_push(key)
        if pv is not None:
            for q, (a, b) in enumerate(zip(f.mirror_bounds[:-1], f.mirror_bounds[1:])):
                if b > a:
                    out.setdefault(q, {})["push"] = pv[a:b]
        for q, payload in prog.messages(key).items():
            out.setdefault(q, {})["msgs"] = tuple(np.asarray(c) for c in payload)
        return out

    def _received(self, part: int, pairs) -> dict:
        """``{channel: [(source part, payload), ...]}`` for ``part``, in
        the ascending source order of ``pairs``."""
        got: dict = {}
        for q, bundle in pairs:
            for ch, payload in _unpack(bundle, part).items():
                got.setdefault(ch, []).append((q, payload))
        return got

    def produce(self, key):
        """Pack every hosted fragment's exchange ``key`` into ONE host
        payload: one ray.put per host, and only when some destination
        lives on another host — co-hosted consumers read the local
        payload directly (no object-store hop)."""
        import ray

        def pack(p):
            return _pack(self._outgoing(p, key))

        t0 = time.perf_counter()
        packed = (list(self._pool.map(pack, self.parts)) if self._pool is not None
                  else [pack(p) for p in self.parts])
        parts, bundles, dests, sent = [], [], set(), 0
        for p, bundle in zip(self.parts, packed):
            if bundle is not None:
                parts.append(p)
                bundles.append(bundle)
                for d, offs, _, _ in bundle.values():
                    dests.update(d.tolist())
                    sent += int(offs[-1])
        payload = {"parts": parts, "bundles": bundles}
        self._own_payload[key] = payload
        remote = any(self.host_of[d] != self.host_id for d in dests)
        return {"ref": ray.put(payload) if remote else None, "dests": sorted(dests),
                "sent": sent, "produce_s": time.perf_counter() - t0}

    def _gather_pairs(self, key, incoming: list):
        """incoming = remote host payload refs; plus this host's own
        payload for ``key`` (kept local, never ray.put when all dests
        are co-hosted).  Returns (source partition, bundle) pairs in
        ascending source-partition order, so programs add received
        partials in the same order at every ``num_hosts``."""
        import ray

        payloads = list(ray.get(incoming)) if incoming else []
        own = self._own_payload.pop(key, None)
        if own is not None:
            payloads.append(own)
        return sorted(((q, b) for pl in payloads
                       for q, b in zip(pl["parts"], pl["bundles"])),
                      key=lambda qb: qb[0])

    def receive(self, phase: str, incoming: list):
        """Consumer side of a load-time phase.  ``mirror`` is always a
        FULL re-registration: every requester's list arrives, so stale
        export entries (a requester whose mirror set shrank after a
        mutation) are dropped.  ``vdata`` fills the outer segment of
        every vdata_full column."""
        pairs = self._gather_pairs(phase, incoming)
        for p in self.parts:
            f = self.frags[p]
            got = self._received(p, pairs).get(phase, [])
            if phase == "mirror":
                f.register_requests(dict(got))
            else:
                for j, c in enumerate(f.vdata):
                    f.place_outer(f.vdata_full[c][f.ivnum:], [(q, cols[j]) for q, cols in got])
        return True

    def edge_count(self) -> int:
        return int(sum(f.num_local_edges for f in self.frags.values()))

    def warmup_put(self):
        """First-touch the object-store arena with an export-sized
        buffer — the first real superstep otherwise pays the page-fault
        cost of mapping plasma memory (seconds at 32 actors)."""
        import ray

        n = max(8, sum(sum(len(v) for v in f.export_lids.values())
                       for f in self.frags.values()))
        # the Arrow table warms the per-actor Arrow serializer path the
        # result output() uses; the array warms the exchange path
        ray.put(pa.table({"x": np.zeros(4)}))
        return ray.put(np.zeros(n))

    def warmup_get(self, refs):
        import ray

        return sum(int(a[0]) for a in ray.get(refs))

    def _program_cls(self, name):
        """Registry lookup by name, or a VertexProgram CLASS shipped
        directly (cloudpickled by Ray) — the user-extension surface for
        programs not in the PROGRAMS registry (SURVEY §2.10)."""
        if isinstance(name, str):
            from . import programs

            return programs.PROGRAMS[name]
        return name

    def init_program(self, name, params: dict):
        """Construct and ``init`` every hosted fragment's program;
        returns the global partials queued during ``init`` (see
        ``_harvest_globals``), which the driver reduces and delivers to
        round 1."""
        self._own_payload.clear()
        cls = self._program_cls(name)
        for p in self.parts:
            self.programs[p] = cls(self.frags[p], **params)
            self.programs[p].init()
        return self._harvest_globals()

    def _apply_one(self, part: int, rnd: int, pairs) -> int:
        f = self.frags[part]
        got = self._received(part, pairs)
        outer_vals = None
        if "sync" in got:
            outer_vals = np.zeros(f.ovnum, dtype=got["sync"][0][1].dtype)
            f.place_outer(outer_vals, got["sync"])
        return self.programs[part].update(rnd, outer_vals, got.get("msgs", []),
                                          got.get("push", []))

    def _apply_all(self, rnd: int, pairs) -> int:
        if self._pool is not None:
            futs = [self._pool.submit(self._apply_one, p, rnd, pairs)
                    for p in self.parts]
            return sum(f.result() for f in futs)
        return sum(self._apply_one(p, rnd, pairs) for p in self.parts)

    def step(self, rnd: int, incoming: list, ckpt_dir: str | None = None,
             muts_in: dict | None = None, globals_in: dict | None = None):
        """Fused superstep: consume round `rnd`, then produce round
        `rnd`+1 — one RPC barrier per round instead of two (the
        reference overlaps the same way: FinishARound posts sends while
        the next StartARound ingests, worker.h:87-133).

        ``muts_in`` (per-superstep mutation, worker.h:176-187): edge
        ops queued in round ``rnd``-1 and routed by the driver.  They
        apply AFTER this round's exchange is consumed (so every
        in-flight payload was produced and consumed on the same
        topology); the step then skips produce — the driver re-registers
        mirrors across the fleet before asking for round ``rnd``+1.

        ``globals_in`` (Communicator scalars,
        grape/communication/communicator.h Sum over rounds): the
        partition-order sum of every program's ``take_globals()``
        partials from round ``rnd``-1 (from ``init`` when ``rnd`` is 1),
        delivered via ``set_globals`` BEFORE this round's update — a
        one-round-delayed global reduction (HITS normalizes with it;
        PageRank reads its dangling count in round 1).
        """
        t0 = time.perf_counter()
        if globals_in:
            for prog in self.programs.values():
                prog.set_globals(globals_in)
        pairs = self._gather_pairs(rnd, incoming)
        active = self._apply_all(rnd, pairs)
        t1 = time.perf_counter()
        if muts_in is not None:
            active += self.apply_mutations(muts_in)
            # harvest ops queued THIS round too (by update above or by
            # on_mutation hooks) — otherwise a mutation-apply round
            # defers them an extra round and max_rounds can drop them
            return {"active": int(active), "ref": None, "dests": [],
                    "sent": 0, "mut_applied": True,
                    "muts": self._harvest_mutations(),
                    "globals": self._harvest_globals(),
                    "step_s": time.perf_counter() - t0,
                    "apply_s": t1 - t0, "pack_s": 0.0}
        if ckpt_dir:
            self.checkpoint(ckpt_dir, rnd)
        glob_out = self._harvest_globals()
        out = self.produce(rnd + 1)
        return {"active": int(active), "ref": out["ref"], "dests": out["dests"],
                "sent": out["sent"], "muts": self._harvest_mutations(),
                "globals": glob_out, "step_s": time.perf_counter() - t0,
                "apply_s": t1 - t0, "pack_s": out["produce_s"]}

    def _harvest_globals(self):
        """Drain the global-scalar partials the hosted programs queued
        (Communicator Sum analog), keyed by partition: {part: {key:
        value}} or None.  No per-host pre-sum — the driver's
        ``_reduce_globals`` sums them in partition order."""
        g = {p: prog.take_globals() for p, prog in self.programs.items()
             if hasattr(prog, "take_globals")}
        return {p: v for p, v in g.items() if v} or None

    def _harvest_mutations(self):
        """Collect edge ops the hosted programs queued during this
        round's update (MutationContext add_edge/remove_edge analog,
        grape/app/mutation_context.h:79-133).  Returns one packed dict
        of gid-space arrays or None."""
        packs = []
        for prog in self.programs.values():
            m = prog.take_mutations() if hasattr(prog, "take_mutations") else None
            if m is not None:
                packs.append(m)
        if not packs:
            return None
        return {k: np.concatenate([p[k] for p in packs])
                for k in ("op", "src", "dst", "w")}

    def apply_mutations(self, muts: dict) -> int:
        """Apply routed edge ops to the local fragments (CSR rebuild
        in-actor) and remap each program's state onto the new layout.
        Returns extra active count from the programs' ``on_mutation``
        hooks (a converged program re-arms itself when new edges can
        change its fixpoint)."""
        part = np.asarray(muts["part"], np.int64)
        extra = 0
        for p in self.parts:
            m = part == p
            if not m.any():
                continue
            f = self.frags[p]
            old_outer = np.asarray(f.outer_gids, np.int64).copy()
            f.apply_edge_mutations(
                np.asarray(muts["op"], np.int8)[m],
                np.asarray(muts["src"], np.int64)[m],
                np.asarray(muts["dst"], np.int64)[m],
                np.asarray(muts["w"], np.float64)[m],
            )
            prog = self.programs.get(p)
            if prog is not None:
                extra += int(prog.on_mutation(old_outer))
        return extra

    def output_part(self, part: int):
        return pa.table(self.programs[part].output())

    # ---------------------------------------------------------- checkpoint
    def checkpoint(self, ckpt_dir: str, rnd: int):
        step_dir = os.path.join(ckpt_dir, f"step={rnd}")
        os.makedirs(step_dir, exist_ok=True)
        for p in self.parts:
            # replace: a resumed run re-writes steps left without a manifest
            save_arrays(os.path.join(step_dir, f"part={p}"), *self.programs[p].state_dict(),
                        replace=True)
        return True

    def restore(self, name, params: dict, ckpt_dir: str, rnd: int):
        self._own_payload.clear()
        cls = self._program_cls(name)
        step_dir = os.path.join(ckpt_dir, f"step={rnd}")
        for p in self.parts:
            prog = cls(self.frags[p], **params)
            self.programs[p] = prog
            pdir = os.path.join(step_dir, f"part={p}")
            if os.path.isdir(pdir):
                prog.load_state(*load_arrays(pdir))
            else:
                prog.load_state(*_legacy_state(step_dir, p))
        return True


def _legacy_state(step_dir: str, part: int) -> tuple[dict, dict]:
    """Read a step written before the array-directory format: every
    array zero-padded to one length in ``part={p}.parquet``, the true
    lengths and the scalars in ``part={p}.json``."""
    with open(os.path.join(step_dir, f"part={part}.json")) as f:
        side = json.load(f)
    t = pq.read_table(os.path.join(step_dir, f"part={part}.parquet"))
    # writable copies (Arrow->NumPy views are read-only)
    return ({k: np.array(t.column(k).to_numpy(zero_copy_only=False)[:n])
             for k, n in side["lens"].items()}, side["scalars"])


class GraphEngine:
    """Owns the fragment actor pool for one built graph.

    ``num_hosts`` (default: one host per partition) groups the P
    logical fragments onto H actor processes — same sharded job at
    every parallelism level, but per-round fixed costs (actor calls,
    ray.puts, barrier size) scale with H, not P.  Size H to the
    parallelism actually available (bench: min(P, num_cpus))."""

    def __init__(self, meta: GraphMeta, num_cpus_per_actor: float = 0.5,
                 reuse_engine: "GraphEngine | None" = None,
                 num_hosts: int | None = None):
        # fractional default so the fragment pool can never reserve every
        # CPU and starve Dataset read/consume stages into a scheduling
        # deadlock (actors block dataset tasks which the driver waits on)
        import ray

        self.meta = meta
        P = meta.num_partitions
        H = max(1, min(int(num_hosts) if num_hosts else P, P))
        self.num_hosts = H
        self.groups = groups = [list(map(int, g)) for g in np.array_split(np.arange(P), H)]
        self.host_of = host_of = np.repeat(np.arange(H, dtype=np.int64), [len(g) for g in groups])
        vdata_cols = meta.vdata_columns
        if (reuse_engine is not None and len(reuse_engine.actors) == H
                and reuse_engine.groups == groups):
            # adopt the warm pool (ownership transfers; the donor engine
            # must not be used afterwards)
            self.actors = reuse_engine.actors
            reuse_engine.actors = []
            ray.get([
                a.reload.remote(h, groups[h], host_of, meta.work_dir,
                                meta.starts.tolist(), vdata_cols)
                for h, a in enumerate(self.actors)
            ])
        else:
            if reuse_engine is not None:
                reuse_engine.shutdown()
            Host = ray.remote(num_cpus=num_cpus_per_actor)(FragmentHost)
            self.actors = [
                Host.remote(h, groups[h], host_of, meta.work_dir,
                            meta.starts.tolist(), vdata_cols)
                for h in range(H)
            ]
        self._vdata_cols = vdata_cols
        self._wire_mirrors()
        # prime plasma client connections between every actor pair once
        # (the first cross-actor object exchange otherwise costs seconds
        # on the first algorithm round)
        refs = ray.get([a.warmup_put.remote() for a in self.actors])
        ray.get([a.warmup_get.remote(refs) for a in self.actors])

    def _host(self, part: int):
        return self.actors[self.host_of[part]]

    def _wire_mirrors(self):
        """Mirror registration (csr_edgecut_fragment_base.h dest lists:
        every owner learns which of its vertices each partition
        mirrors), then the mirror vdata sync over the new export lists.
        Runs at engine start and after every per-superstep mutation
        round (mutated fragments may request a different mirror set).
        Each phase is one produce and one receive call per host."""
        import ray

        for phase in ("mirror", "vdata") if self._vdata_cols else ("mirror",):
            prod = ray.get([a.produce.remote(phase) for a in self.actors])
            incoming, _ = self._route(prod)
            ray.get([a.receive.remote(phase, incoming[h]) for h, a in enumerate(self.actors)])
            _free_bundles(prod)

    def _route(self, prod):
        """Host-level routing of one exchange's ``produce`` results:
        host h2 receives h1's payload ref iff some destination partition
        of h1 lives on h2 (co-hosted destinations consume the local
        payload, no ref).  Returns (refs per host, total rows sent)."""
        incoming: list[list] = [[] for _ in self.actors]
        for h, out in enumerate(prod):
            if out["ref"] is None:
                continue
            for h2 in sorted({int(self.host_of[p]) for p in out["dests"]} - {h}):
                incoming[h2].append(out["ref"])
        return incoming, sum(out["sent"] for out in prod)

    def wait_prewarm(self):
        """Block until every fragment actor's background heap prewarm
        finished (see FragmentHost._prewarm) — lets a benchmark absorb
        the one-time page-fault cost outside its timed windows."""
        import ray

        ray.get([a.join_prewarm.remote() for a in self.actors])

    def _route_mutations(self, packs: list, H: int):
        """Pack queued gid-space edge ops into one routed dict per host
        (owner of src = part_of(src)); symmetrized graphs apply each op
        in both directions, like mutate.py.  Returns a list of dicts
        (or None) indexed by host."""
        from ..ids import part_of

        cat = {k: np.concatenate([np.asarray(p[k]) for p in packs])
               for k in ("op", "src", "dst", "w")}
        op = cat["op"].astype(np.int8)
        src = cat["src"].astype(np.int64)
        dst = cat["dst"].astype(np.int64)
        w = cat["w"].astype(np.float64)
        V = int(self.meta.num_vertices)
        if len(src) and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= V):
            raise ValueError("mutation gid outside vertex universe")
        if not self.meta.directed:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            op = np.concatenate([op, op])
            w = np.concatenate([w, w])
        part = part_of(src, self.meta.starts)
        host = self.host_of[part]
        out: list[dict | None] = []
        for h in range(H):
            m = host == h
            out.append({"part": part[m], "op": op[m], "src": src[m],
                        "dst": dst[m], "w": w[m]} if m.any() else None)
        return out

    def run(
        self,
        program: str,
        params: dict | None = None,
        max_rounds: int = 10**9,
        ckpt_dir: str | None = None,
        checkpoint_every: int = 0,
        resume: bool = False,
        mutation_schedule: dict | None = None,
    ):
        """Run a program to termination; returns (result Dataset of
        per-inner-vertex outputs in gid space, run metrics dict).

        ``mutation_schedule``: {round: ops} of driver-injected edge
        mutations — ops is a dict of gid-space arrays ``op`` (0=add/
        upsert, 1=delete), ``src``, ``dst``, ``w``.  Ops scheduled for
        round r behave exactly like ops a program queued during round
        r's update: they apply at the r+1 barrier, after round r+1's
        exchange is consumed (worker.h:176-187 processMutation timing).
        Mutations are in-memory for this engine's lifetime; checkpoint
        durability of the mutated topology is mutate_graph's job, so
        checkpointing is skipped on the round a mutation applies.
        """
        import ray

        params = dict(params or {})
        P = self.meta.num_partitions
        H = self.num_hosts
        metrics = {"rounds": 0, "round_log": [],
                   "program": program if isinstance(program, str)
                   else getattr(program, "name", program.__name__)}
        r0 = 1
        resumed_from = None
        glob_next: dict | None = None  # round-r-1 Communicator aggregate
        if resume and ckpt_dir:
            step = self._latest_step(ckpt_dir, metrics["program"])
            if step is not None:
                ray.get([a.restore.remote(program, params, ckpt_dir, step) for a in self.actors])
                r0 = step + 1
                resumed_from = step
                # re-seed the in-flight global aggregate the killed run
                # had summed after round `step`'s barrier (manifest is
                # written post-barrier, so it carries exactly what the
                # uninterrupted run would deliver to round step+1)
                with open(self._manifest_path(ckpt_dir, step)) as f:
                    glob_next = json.load(f).get("globals_in_next") or None
        if resumed_from is None:
            glob_next = _reduce_globals(
                ray.get([a.init_program.remote(program, params) for a in self.actors]))
        metrics["resumed_from"] = resumed_from

        t_start = time.perf_counter()
        # fused-step loop: produce(r0) once, then one RPC barrier per
        # round (consume r + produce r+1 in the same actor call)
        prod = ray.get([a.produce.remote(r0) for a in self.actors])
        r = r0 - 1
        last_ckpt = None
        schedule = {int(k): v for k, v in (mutation_schedule or {}).items()}
        staged: list | None = None  # routed muts, applied at round r
        mutated = False  # once true, checkpoints stop: the mutated
        # topology lives only in-actor, so a restored run could not
        # rebuild fragments matching the saved state (use mutate_graph
        # for durable topology changes)
        for r in range(r0, max_rounds + 1):
            incoming, sent = self._route(prod)
            do_ckpt = bool(ckpt_dir and checkpoint_every and r % checkpoint_every == 0
                           and staged is None and not mutated)
            res = ray.get(
                [a.step.remote(r, incoming[h], ckpt_dir if do_ckpt else None,
                               staged[h] if staged is not None else None,
                               glob_next)
                 for h, a in enumerate(self.actors)]
            )
            glob_next = _reduce_globals([x["globals"] for x in res])
            _free_bundles(prod)  # round-r bundles: consumed by the barrier above
            mut_applied = staged is not None
            mutated = mutated or mut_applied
            staged = None
            if mut_applied:
                # topology changed: rebuild the fleet's mirror wiring,
                # then produce round r+1 fresh on the new layout
                self._wire_mirrors()
                prod2 = ray.get([a.produce.remote(r + 1) for a in self.actors])
                for x, y in zip(res, prod2):
                    x["ref"], x["dests"], x["sent"] = y["ref"], y["dests"], y["sent"]
            # harvest program-queued ops + driver-injected schedule for
            # this round; both apply at the r+1 barrier
            packs = [x["muts"] for x in res if x.get("muts") is not None]
            if r in schedule:
                packs.append(schedule.pop(r))
            if packs:
                staged = self._route_mutations(packs, H)
            active = sum(x["active"] for x in res)
            if staged is not None:
                active = max(active, 1)  # keep the loop alive to apply
            step_ts = [x["step_s"] for x in res]
            metrics["round_log"].append({
                "round": r, "active": int(active), "sent": int(sent),
                "step_max_s": round(max(step_ts), 4),
                "step_med_s": round(sorted(step_ts)[len(step_ts) // 2], 4),
                "apply_max_s": round(max(x["apply_s"] for x in res), 4),
                "pack_max_s": round(max(x["pack_s"] for x in res), 4),
            })
            metrics["rounds"] = r
            if do_ckpt:
                self._write_manifest(ckpt_dir, metrics["program"], params, r, metrics,
                                     converged=active == 0, globals_in_next=glob_next)
                last_ckpt = r
            if active == 0:
                if ckpt_dir and checkpoint_every and last_ckpt != r and not mutated:
                    ray.get([a.checkpoint.remote(ckpt_dir, r) for a in self.actors])
                    self._write_manifest(ckpt_dir, metrics["program"], params, r, metrics,
                                         converged=True, globals_in_next=glob_next)
                _free_bundles(res)  # round r+1 exchange: never consumed
                break
            prod = res  # each step returned the round r+1 exchange
        else:
            _free_bundles(prod)  # max_rounds hit: last exchange unconsumed
        if staged is not None or schedule:
            pending = sorted(schedule.keys())
            warnings.warn(
                "run() exited with unapplied mutations: "
                + ("routed ops staged for the next round; " if staged is not None else "")
                + (f"mutation_schedule entries for rounds {pending} never reached; "
                   if pending else "")
                + "raise max_rounds or schedule earlier rounds",
                RuntimeWarning, stacklevel=2,
            )
        metrics["wall_s"] = time.perf_counter() - t_start
        metrics["supersteps_per_s"] = (
            (metrics["rounds"] - (r0 - 1)) / metrics["wall_s"] if metrics["wall_s"] > 0 else 0.0
        )
        out_refs = [self._host(p).output_part.remote(p) for p in range(P)]
        return ResultHandle(out_refs), metrics

    # ---------------------------------------------------------- checkpoints
    def _manifest_path(self, ckpt_dir: str, rnd: int) -> str:
        return os.path.join(ckpt_dir, f"step={rnd}", "MANIFEST.json")

    def _write_manifest(self, ckpt_dir, program, params, rnd, metrics, converged,
                        globals_in_next: dict | None = None):
        m = {
            "algorithm": program,
            "params": {k: v for k, v in params.items()},
            "round": rnd,
            "num_partitions": self.meta.num_partitions,
            "fingerprint": self.meta.fingerprint,
            "num_vertices": self.meta.num_vertices,
            "starts_digest": _starts_digest(self.meta.starts),
            "converged": bool(converged),
            "round_log": metrics["round_log"][-1:],
            # in-flight Communicator aggregate (summed post-barrier):
            # resume feeds it to round rnd+1 exactly like the live run
            "globals_in_next": globals_in_next,
        }
        path = self._manifest_path(ckpt_dir, rnd)
        with open(path + ".tmp", "w") as f:
            json.dump(m, f)
        os.replace(path + ".tmp", path)

    def _latest_step(self, ckpt_dir: str, program: str):
        if not os.path.isdir(ckpt_dir):
            return None
        V, digest = self.meta.num_vertices, _starts_digest(self.meta.starts)
        best = None
        for d in os.listdir(ckpt_dir):
            if not d.startswith("step="):
                continue
            mp = os.path.join(ckpt_dir, d, "MANIFEST.json")
            if not os.path.exists(mp):
                continue  # incomplete step (no manifest) — ignore
            with open(mp) as f:
                m = json.load(f)
            if m["algorithm"] != program or m["num_partitions"] != self.meta.num_partitions:
                continue
            if m["fingerprint"] != self.meta.fingerprint:
                continue
            # a manifest without the digest predates it: V alone decides
            if (m.get("num_vertices", V) != V
                    or m.get("starts_digest", digest) != digest):
                raise ValueError(
                    f"checkpoint {mp} was written on a different graph layout "
                    f"(V={m.get('num_vertices')}, starts digest "
                    f"{m.get('starts_digest')}) than the loaded graph (V={V}, "
                    f"starts digest {digest}, starts {self.meta.starts.tolist()})")
            step = int(m["round"])
            if best is None or step > best:
                best = step
        return best

    def shutdown(self):
        import ray

        for a in self.actors:
            ray.kill(a)
        self.actors = []
