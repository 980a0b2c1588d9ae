"""The benchmark's two workloads.

Each workload makes its inputs and goldens from the seed (``prepare``,
untimed), builds what stays loaded between ops (``setup``, whose timed
repetitions feed ``setup_s``), and then runs ops, one at a time.  Every
op's output is compared with the golden (``check``).  Calls into the
library's layers are wrapped in tracer spans named after the layer.
"""

from __future__ import annotations

import glob
import os
import shutil
import time

import numpy as np
import pyarrow.parquet as pq

import goldens
from tracing import Tracer, layer_seconds

# Deployment shape: P logical partitions on H fragment hosts.  With H=1
# co-hosted fragments hand payloads over in-process and the ray.put
# exchange path never runs.
PARTITIONS = 4
HOSTS = 2
# Fragment actors hold a quarter CPU each so Ray Data tasks, which take
# a whole CPU, always find one beside the live actors.
ACTOR_CPUS = 0.25

WEB_PAGES = 30_000
WEB_SITES = 16
WEB_RICHNESS = 3
ENGINE_VERTICES = 200_000
ENGINE_EDGES = 2_000_000
PR_ROUNDS = 10
CDLP_ROUNDS = 10
CUT_ROUNDS = 5  # the checkpointed run is cut here to stand in for a kill
SETUP_REPS = 3
GOLDEN_TASKS = 4
SNAPSHOT_WAIT_S = 30.0  # for the background CSR snapshot writes

PARAMS = {"pagerank": {"rounds": PR_ROUNDS}, "wcc": {}, "cdlp": {"rounds": CDLP_ROUNDS},
          "lcc": {}}


class OutputMismatch(Exception):
    pass


def dir_stats(path: str, pattern: str = "**/*") -> tuple[int, int]:
    """(regular file count, total bytes) under ``path``."""
    files = [f for f in glob.glob(os.path.join(path, pattern), recursive=True)
             if os.path.isfile(f)]
    return len(files), sum(os.path.getsize(f) for f in files)


def superstep_stats(name: str, runs: list[dict]) -> dict[str, float]:
    """Per-program superstep metrics from run()'s returned metrics."""
    log = [r for m in runs for r in m["round_log"]]
    rounds = len(log)
    wall = sum(m["wall_s"] for m in runs)
    sent = sum(r["sent"] for r in log)
    return {
        f"{name}.s": wall,
        f"{name}.rounds": rounds,
        f"{name}.apply_s": sum(r["apply_max_s"] for r in log),
        f"{name}.pack_s": sum(r["pack_max_s"] for r in log),
        f"{name}.barrier_s": wall - sum(r["step_max_s"] for r in log),
        f"{name}.sent_per_round": sent / rounds if rounds else 0,
        # computed, not measured: 8 bytes per sent value
        f"{name}.exchange_mb_computed": sent * 8 / 1e6,
    }


def by_gid(table, col: str) -> np.ndarray:
    gid = table.column("gid").to_numpy()
    vals = table.column(col).to_numpy()
    if len(gid) > 1 and not bool((gid[1:] > gid[:-1]).all()):
        vals = vals[np.argsort(gid, kind="stable")]
    return vals


def compare(out: dict, golden, n: int):
    """Raise OutputMismatch unless every program output equals its
    golden: PageRank and LCC to rtol 1e-6, the rest exactly."""
    bad = []
    for prog, table in out.items():
        if table.num_rows != n:
            bad.append(f"{prog}: {table.num_rows} rows, want {n}")
            continue
        if prog == "pagerank":
            ok = np.allclose(by_gid(table, "pagerank"), golden["pagerank"], rtol=1e-6, atol=0)
        elif prog == "wcc":
            ok = np.array_equal(by_gid(table, "comp"), golden["wcc"])
        elif prog == "cdlp":
            ok = np.array_equal(by_gid(table, "label"), golden["cdlp"])
        else:
            ok = (np.array_equal(by_gid(table, "tricnt"), golden["tricnt"])
                  and np.allclose(by_gid(table, "lcc"), golden["lcc"], rtol=1e-6, atol=0))
        if not ok:
            bad.append(f"{prog}: values differ from the golden")
    if bad:
        raise OutputMismatch("; ".join(bad))


def compute_goldens(src, dst, n: int) -> dict[str, np.ndarray]:
    g = {"pagerank": goldens.pagerank(src, dst, n, rounds=PR_ROUNDS),
         "wcc": goldens.wcc(src, dst, n),
         "cdlp": goldens.cdlp(src, dst, n, rounds=CDLP_ROUNDS)}
    g["tricnt"], g["lcc"] = goldens.triangles_lcc(src, dst, n)
    return g


def cached_goldens(path: str, make) -> dict[str, np.ndarray]:
    """Load goldens from ``path`` (.npz), or compute and store them."""
    if os.path.exists(path):
        with np.load(path, allow_pickle=False) as z:
            return {k: z[k] for k in z.files}
    g = make()
    tmp = path + ".tmp.npz"
    np.savez(tmp, **g)
    os.replace(tmp, path)
    return g


class Workload:
    name = ""

    def __init__(self, data_dir: str, seed: int, tracer: Tracer, scale: float = 1.0):
        self.data_dir = data_dir
        self.seed = seed
        self.tr = tracer
        self.scale = scale
        self.engines: list = []  # live engines, shut down on close/recover
        self.graph_dir = ""  # deleted on close

    def prepare(self):
        """Untimed: inputs and goldens."""

    def load_engines(self):
        """Construct the engines that stay loaded across ops."""
        raise NotImplementedError

    def setup(self) -> list[float]:
        """Construct the engines SETUP_REPS times, keeping the last; the
        seconds of each construction."""
        reps = []
        for i in range(SETUP_REPS):
            if i:
                self.shutdown_engines()
            t0 = time.perf_counter()
            self.load_engines()
            reps.append(time.perf_counter() - t0)
        return reps

    def op(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict):
        raise NotImplementedError

    def op_edges(self, out: dict) -> int:
        raise NotImplementedError

    def op_stats(self, out: dict, spans: list[dict]) -> dict[str, float]:
        """Per-layer values of one traced op."""
        return {}

    def run_stats(self) -> dict[str, float]:
        """Per-layer values measured once per traced run, on the
        workload's directed graph ``meta_d`` with edges ``src``/``dst``."""
        from libgrape_lite_ray.graph import oracle

        st = {"fragment.snapshot_bytes_per_edge": snapshot_bytes_per_edge(self.meta_d)}
        t0 = time.perf_counter()
        oracle.pagerank(self.src, self.dst, self.n, rounds=PR_ROUNDS)
        st["baseline.numpy_pagerank_s"] = time.perf_counter() - t0
        return st

    def recover(self):
        """Restore the between-op state after a failed op."""
        self.shutdown_engines()
        self.load_engines()

    def shutdown_engines(self):
        for eng in self.engines:
            eng.shutdown()
        self.engines = []

    def close(self):
        self.shutdown_engines()
        if self.graph_dir:
            shutil.rmtree(self.graph_dir, ignore_errors=True)

    # -- helpers
    def engine(self, meta, reuse=None):
        from libgrape_lite_ray.graph.driver import GraphEngine

        eng = GraphEngine(meta, num_cpus_per_actor=ACTOR_CPUS, reuse_engine=reuse,
                          num_hosts=HOSTS)
        if reuse is not None and reuse in self.engines:
            self.engines.remove(reuse)
        self.engines.append(eng)
        return eng

    def write_snapshots(self, metas):
        """Load each graph cold once, so that its CSR snapshot exists."""
        eng = None
        for meta in metas:
            eng = self.engine(meta, reuse=eng)
            if len(wait_snapshots(meta)) < meta.num_partitions:
                raise RuntimeError(f"CSR snapshots of {meta.work_dir} not written")
        self.shutdown_engines()

    def run_program(self, eng, name: str, out: dict, metrics: dict):
        with self.tr.span(f"superstep.{name}"):
            handle, m = eng.run(name, PARAMS[name])
        with self.tr.span("result.fetch"):
            out[name] = handle.to_arrow()
        metrics.setdefault(name, []).append(m)


def web_goldens(pages_dir: str) -> dict[str, np.ndarray]:
    """The corpus's edges, as dense ids, and its goldens.  It runs as a
    Ray task, so the benchmark process never holds the corpus, whether
    or not the goldens are cached."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    pages = pq.read_table(pages_dir, columns=["url", "html"])
    # the parser is pure Python: split the corpus over Ray tasks
    web_edges = ray.remote(goldens.web_edges)
    step = -(-pages.num_rows // GOLDEN_TASKS)
    parts = ray.get([web_edges.remote(pages.column("url")[i:i + step].to_pylist(),
                                      pages.column("html")[i:i + step].to_pylist())
                     for i in range(0, pages.num_rows, step)])
    src = [u for part in parts for u in part[0]]
    dst = [u for part in parts for u in part[1]]
    oids = pa.array(sorted(set(src) | set(dst)), pa.string())
    s = np.asarray(pc.index_in(pa.array(src), value_set=oids), np.int64)
    d = np.asarray(pc.index_in(pa.array(dst), value_set=oids), np.int64)
    g = compute_goldens(s, d, len(oids))
    g.update(src=s, dst=d, n=np.int64(len(oids)))
    return g


class WebCold(Workload):
    name = "web_cold"

    def prepare(self):
        import ray
        import ray.data as rd

        from libgrape_lite_ray import fixtures
        from libgrape_lite_ray.graph.build import build_graph
        from libgrape_lite_ray.pipelines.web import extract_edges

        self.n_pages = max(200, int(WEB_PAGES * self.scale))
        self.pages_dir = os.path.join(
            self.data_dir, f"pages-{self.n_pages}-r{WEB_RICHNESS}-s{self.seed}")
        if not os.path.exists(os.path.join(self.pages_dir, "_DONE")):
            shutil.rmtree(self.pages_dir, ignore_errors=True)
            fixtures.generate_pages(self.pages_dir, self.n_pages, WEB_SITES, seed=self.seed,
                                    richness=WEB_RICHNESS)
            open(os.path.join(self.pages_dir, "_DONE"), "w").close()
        self.golden = cached_goldens(
            os.path.join(self.data_dir, f"golden-{self.name}-{self.n_pages}-s{self.seed}.npz"),
            lambda: ray.get(ray.remote(web_goldens).remote(self.pages_dir)))
        self.n = int(self.golden["n"])
        self.src, self.dst = self.golden["src"], self.golden["dst"]
        self.graph_dir = os.path.join(self.data_dir, f"graph-{self.name}-s{self.seed}")
        # a graph for set-up to load; the first op deletes it
        shutil.rmtree(self.graph_dir, ignore_errors=True)
        self.meta_d = build_graph(
            extract_edges(rd.read_parquet(self.pages_dir, columns=["url", "html"])),
            os.path.join(self.graph_dir, "directed"), PARTITIONS)
        self.write_snapshots([self.meta_d])

    def load_engines(self):
        # the fragment actor pool the ops reuse
        self.engine(self.meta_d).wait_prewarm()

    def op(self) -> dict:
        import ray.data as rd

        from libgrape_lite_ray.graph.build import build_graph
        from libgrape_lite_ray.pipelines.web import extract_edges

        tr = self.tr
        out: dict = {}
        metrics: dict = {}
        with tr.span("cleanup"):
            shutil.rmtree(self.graph_dir, ignore_errors=True)
        with tr.span("extract"):
            pages = rd.read_parquet(self.pages_dir, columns=["url", "html"])
            edges = extract_edges(pages)
            edges_out = edges.count()
        with tr.span("build.directed"):
            meta_d = self.meta_d = build_graph(edges, os.path.join(self.graph_dir, "directed"),
                                               PARTITIONS)
        del edges, pages  # release the extract output before the CSR loads
        # the actor pool stays up between ops; every op's fragments load
        # cold, from the spool its own build just wrote
        with tr.span("load.directed"):
            eng = self.engine(meta_d, reuse=self.engines[0])
        self.run_program(eng, "pagerank", out, metrics)
        with tr.span("build.undirected"):
            meta_u = build_graph(None, os.path.join(self.graph_dir, "undirected"),
                                 PARTITIONS, directed=False, symmetrize=True,
                                 reuse_vertices_from=meta_d)
        with tr.span("load.undirected"):
            eng = self.engine(meta_u, reuse=eng)
        for name in ("wcc", "cdlp", "lcc"):
            self.run_program(eng, name, out, metrics)
        return {"tables": out, "metrics": metrics, "edges_out": edges_out, "meta_d": meta_d}

    def check(self, res: dict):
        want = len(self.golden["src"])
        if res["edges_out"] != want:
            raise OutputMismatch(f"extract: {res['edges_out']} edges, want {want}")
        if res["meta_d"].num_vertices != self.n:
            raise OutputMismatch(f"build: {res['meta_d'].num_vertices} vertices, want {self.n}")
        compare(res["tables"], self.golden, self.n)

    def op_edges(self, res: dict) -> int:
        return int(res["meta_d"].num_edges)

    def op_stats(self, res: dict, spans: list[dict]) -> dict[str, float]:
        secs = layer_seconds(spans)
        meta_d = res["meta_d"]
        files, nbytes = dir_stats(meta_d.spool_dir)
        st = {
            "extract.s": secs["extract"],
            "extract.pages_per_s": self.n_pages / secs["extract"],
            "extract.edges_out": res["edges_out"],
            "build.directed_s": secs["build.directed"],
            "build.undirected_s": secs["build.undirected"],
            "build.vertices": meta_d.num_vertices,
            "build.spool_files": files,
            "build.spool_mb": nbytes / 1e6,
            "load.directed_s": secs["load.directed"],
            "load.undirected_s": secs["load.undirected"],
            "result.fetch_s": secs["result.fetch"],
        }
        for name, runs in res["metrics"].items():
            st.update(superstep_stats(name, runs))
        return st



def wait_snapshots(meta) -> list[str]:
    """The per-partition CSR snapshot dirs, once all are written (the
    fragment writes them on a background thread after a cold load)."""
    t_end = time.perf_counter() + SNAPSHOT_WAIT_S
    while True:
        snaps = [d for d in glob.glob(os.path.join(meta.work_dir, "snapshot", "part=*"))
                 if ".tmp-" not in os.path.basename(d)]
        if len(snaps) >= meta.num_partitions or time.perf_counter() > t_end:
            return snaps
        time.sleep(0.05)


def snapshot_bytes_per_edge(meta) -> float:
    nbytes = sum(dir_stats(d, "*.npy")[1] for d in wait_snapshots(meta))
    return nbytes / max(meta.num_edges, 1)


class Engine(Workload):
    """A dense-int engine graph, directed and symmetrized, built and
    snapshotted in prepare.  Both engines stay loaded between ops.

    One op is the warm superstep suite and then the killed-and-resumed
    PageRank job on the same directed graph.  Each part alone was too
    short for a steady op on a shared host: the resumed job alone, at
    about 0.7 s, spread twice as much from run to run as the suite."""

    name = "engine"

    def prepare(self):
        import pyarrow as pa
        import ray

        from libgrape_lite_ray import fixtures
        from libgrape_lite_ray.graph.build import build_graph

        v = max(1000, int(ENGINE_VERTICES * self.scale))
        e = max(10_000, int(ENGINE_EDGES * self.scale))
        self.graph_dir = os.path.join(self.data_dir, f"graph-{self.name}-{v}-{e}-s{self.seed}")
        shutil.rmtree(self.graph_dir, ignore_errors=True)
        edges = fixtures.big_engine_edges(v, e, seed=self.seed).materialize()
        self.meta_d = build_graph(edges, os.path.join(self.graph_dir, "directed"), PARTITIONS,
                                  dense_int_oids=True)
        tbl = pa.concat_tables(ray.get(edges.to_arrow_refs()))
        del edges
        self.src = tbl.column("src").to_numpy()
        self.dst = tbl.column("dst").to_numpy()
        self.n = self.meta_d.num_vertices
        self.meta_u = build_graph(None, os.path.join(self.graph_dir, "undirected"),
                                  PARTITIONS, directed=False, symmetrize=True,
                                  reuse_vertices_from=self.meta_d)
        self.write_snapshots([self.meta_d, self.meta_u])
        self.golden = cached_goldens(
            os.path.join(self.data_dir, f"golden-{self.name}-{v}-{e}-s{self.seed}.npz"),
            lambda: compute_goldens(self.src, self.dst, self.n))
        self.ckpt_dir = os.path.join(self.graph_dir, "ckpt")
        self.sink_dir = os.path.join(self.graph_dir, "sink")

    def load_engines(self):
        self.eng_d = self.engine(self.meta_d)
        self.eng_u = self.engine(self.meta_u)
        self.eng_d.wait_prewarm()
        self.eng_u.wait_prewarm()

    def op(self) -> dict:
        from libgrape_lite_ray import sinks

        tr = self.tr
        out: dict = {}
        metrics: dict = {}
        self.run_program(self.eng_d, "pagerank", out, metrics)
        for name in ("wcc", "cdlp", "lcc"):
            self.run_program(self.eng_u, name, out, metrics)
        # the killed-and-resumed job
        params = PARAMS["pagerank"]
        with tr.span("cleanup"):
            shutil.rmtree(self.ckpt_dir, ignore_errors=True)
            shutil.rmtree(self.sink_dir, ignore_errors=True)
        with tr.span("ckpt.run"):
            self.eng_d.run("pagerank", params, max_rounds=CUT_ROUNDS,
                           ckpt_dir=self.ckpt_dir, checkpoint_every=1)
        # the restarted job: a fresh engine over the same actors, from
        # the CSR snapshot
        with tr.span("load.snapshot"):
            self.eng_d = self.engine(self.meta_d, reuse=self.eng_d)
        with tr.span("resume"):
            handle, m_res = self.eng_d.run("pagerank", params, ckpt_dir=self.ckpt_dir,
                                           checkpoint_every=1, resume=True)
        with tr.span("sink"):
            written = sinks.write_dataset_partitioned(handle.to_dataset(), self.sink_dir,
                                                      PARTITIONS)
        return {"tables": out, "metrics": metrics, "resume": m_res,
                "sink_rows": written["rows"]}

    def check(self, res: dict):
        compare(res["tables"], self.golden, self.n)
        m = res["resume"]
        if m["resumed_from"] != CUT_ROUNDS or m["rounds"] != PR_ROUNDS:
            raise OutputMismatch(f"resume: from {m['resumed_from']} to {m['rounds']}, "
                                 f"want {CUT_ROUNDS} to {PR_ROUNDS}")
        if res["sink_rows"] != self.n:
            raise OutputMismatch(f"sink: {res['sink_rows']} rows written, want {self.n}")
        table = pq.read_table(sorted(glob.glob(
            os.path.join(self.sink_dir, "part=*", "data.parquet"))))
        # the op's own uninterrupted run is the reference, bit for bit
        if not np.array_equal(by_gid(table, "pagerank"),
                              by_gid(res["tables"]["pagerank"], "pagerank")):
            raise OutputMismatch("resumed PageRank differs from the uninterrupted run")

    def op_edges(self, res: dict) -> int:
        m = res["metrics"]
        # the resumed job runs PR_ROUNDS rounds in all: CUT_ROUNDS, then the rest
        return ((m["pagerank"][0]["rounds"] + PR_ROUNDS) * self.meta_d.num_edges
                + sum(m[p][0]["rounds"] for p in ("wcc", "cdlp", "lcc")) * self.meta_u.num_edges)

    def op_stats(self, res: dict, spans: list[dict]) -> dict[str, float]:
        secs = layer_seconds(spans)
        files, nbytes = dir_stats(self.ckpt_dir)
        steps = len(glob.glob(os.path.join(self.ckpt_dir, "step=*")))
        m = res["resume"]
        st = {
            "result.fetch_s": secs["result.fetch"],
            "ckpt.run_s": secs["ckpt.run"],
            "ckpt.mb_per_round": nbytes / 1e6 / max(steps, 1),
            "ckpt.files": files,
            "resume.s": secs["resume"],
            "resume.rounds": m["rounds"] - m["resumed_from"],
            "sink.s": secs["sink"],
            "sink.mb": dir_stats(self.sink_dir)[1] / 1e6,
            "load.snapshot_s": secs["load.snapshot"],
        }
        # the superstep figures are the uninterrupted runs'
        for name, runs in res["metrics"].items():
            st.update(superstep_stats(name, runs))
        return st


WORKLOADS = {w.name: w for w in (WebCold, Engine)}
