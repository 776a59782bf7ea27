"""The benchmark's three workloads: sim_single, fig6a_grid and serve_mixed.

Each workload builds its inputs from the seed, sets up (timed apart from
the measured phase), runs its measured phase for a wall-clock budget, and
checks every output it produces.  ``traced_pass`` runs one fixed unit of
the same work, with or without the layer proxies of :mod:`tracing`, so a
traced and an untraced pass can be compared call for call.
"""

from __future__ import annotations

import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import repro.exec as rexec
import repro.obs as obs
from repro.bebop import BlockDVTAGEConfig
from repro.eval import runner
from repro.exec import (
    ResultCache,
    baseline_job,
    bebop_job,
    instr_vp_job,
    run_job,
    stats_to_dict,
)
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread
from repro.workloads.suite import all_workload_names

from hostspeed import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: Trace length (µ-ops, warmup included) of sim_single and fig6a_grid.
UOPS = 16_000

perf = time.perf_counter


def warmup_for(uops: int) -> int:
    """Statistics start after the first third of the trace."""
    return uops // 3


# ---------------------------------------------------------------------------
# Cells and their expected statistics.
# ---------------------------------------------------------------------------

SIM_TRACES = ("gcc", "swim")
SIM_CONFIGS = ("baseline", "dvtage", "bebop")

#: Fig 6a geometries: (npred, base entries, tagged entries).
GRID = tuple(
    (npred, base, tagged)
    for npred in (4, 6, 8)
    for base, tagged in ((1024, 128), (2048, 256))
)
GRID_WORKLOAD = "gcc"


def grid_label(npred: int, base: int, tagged: int) -> str:
    return f"{npred}p {base // 1024}K+6x{tagged}"


def sim_specs(uops: int) -> dict:
    """The sim_single cells as JobSpecs, keyed ``<trace>/<config>``."""
    w = warmup_for(uops)
    specs = {}
    for wl in SIM_TRACES:
        specs[f"{wl}/baseline"] = baseline_job(wl, uops, w)
        specs[f"{wl}/dvtage"] = instr_vp_job(wl, "d-vtage", uops, w)
        specs[f"{wl}/bebop"] = bebop_job(wl, uops=uops, warmup=w)
    return specs


def grid_specs(uops: int) -> dict:
    return {
        grid_label(*g): bebop_job(
            GRID_WORKLOAD,
            config=BlockDVTAGEConfig(npred=g[0], base_entries=g[1],
                                     tagged_entries=g[2]),
            uops=uops, warmup=warmup_for(uops),
        )
        for g in GRID
    }


def capture(uops: int) -> dict:
    """Expected stats of every sim_single and fig6a_grid cell.

    Computed one cell at a time through the serial ``run_job`` path, so
    the grid's batched results are checked against the unbatched walk.
    """
    return {
        "uops": uops,
        "warmup": warmup_for(uops),
        "sim_single": {k: stats_to_dict(run_job(s))
                       for k, s in sim_specs(uops).items()},
        "fig6a_grid": {k: stats_to_dict(run_job(s))
                       for k, s in grid_specs(uops).items()},
    }


def expected_stats(uops: int) -> dict:
    """The stored expected stats.

    Never recomputed here: that would check the program under test
    against itself.
    """
    data = json.loads(EXPECTED.read_text())
    if data["uops"] != uops:
        raise ValueError(f"{EXPECTED} holds {data['uops']}-µop cells, "
                         f"not {uops}")
    return data


# ---------------------------------------------------------------------------
# Results.
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One measured operation: a cell, a grid pass or a request."""

    key: str
    seconds: float
    cells: int
    uops: int
    failed: int
    stats: list = field(default_factory=list)   # SimStats, for parity checks
    kind: str = ""                              # serve_mixed: hit or miss
    scale: float = 1.0                          # host-speed scale, hostspeed.py


@dataclass
class Measured:
    ops: list
    wall: float
    scaled_wall: float        # wall, scaled for host speed like each op
    kernel_s: list            # the host-speed kernel's times
    rounds: bool = False      # ops repeat in whole rounds of identical work
    peak_rss_mb: float | None = None


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def _op_span(tracer):
    """The benchmark's own span around one operation, when tracing."""
    return tracer.span("bench.op") if tracer is not None else nullcontext()


def fresh_dir(name: str) -> Path:
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# sim_single and fig6a_grid: rounds of simulation.
# ---------------------------------------------------------------------------

class _Rounds:
    """A workload measured in whole rounds of identical work.

    ``uops`` and ``expected`` are for the self-tests, which inject their
    own expected stats; the benchmark runs the stored ones.
    """

    name = ""

    def __init__(self, seed: int, uops: int = UOPS, expected=None) -> None:
        self.uops = uops
        self.warmup = warmup_for(uops)
        self.expected = (expected if expected is not None
                         else expected_stats(uops))[self.name]

    def close(self) -> None:
        shutil.rmtree(WORK / f"{self.name}-{os.getpid()}", ignore_errors=True)

    def _check(self, key: str, stats) -> int:
        return int(stats_to_dict(stats) != self.expected[key])

    def measure(self, seconds: float) -> Measured:
        ops = []
        clock = Clock()
        start = perf()
        while not ops or perf() - start < seconds:
            ops.extend(self.round(clock=clock))
        wall = perf() - start
        return Measured(ops, wall, sum(op.seconds * op.scale for op in ops),
                        clock.samples, rounds=True)

    def traced_pass(self, tracer=None) -> tuple[float, list]:
        """Trace generation plus one round; ``tracer`` spans each op."""
        t0 = perf()
        self.setup()
        ops = self.round(tracer)
        return perf() - t0, ops


class SimSingle(_Rounds):
    """Three configs, run serially through ``repro.eval.runner``."""

    name = "sim_single"

    def setup(self) -> None:
        runner.clear_trace_cache()
        self.traces = {wl: runner.get_trace(wl, self.uops)
                       for wl in SIM_TRACES}

    def _run(self, wl: str, config: str):
        trace = self.traces[wl]
        if config == "baseline":
            return runner.run_baseline(trace, self.warmup)
        if config == "dvtage":
            return runner.run_instr_vp(
                trace, runner.make_instr_predictor("d-vtage"), self.warmup)
        return runner.run_bebop_eole(trace, runner.make_bebop_engine(),
                                     self.warmup)

    def round(self, tracer=None, clock=None) -> list[Op]:
        ops = []
        for wl in SIM_TRACES:
            for config in SIM_CONFIGS:
                key = f"{wl}/{config}"
                t0 = perf()
                with _op_span(tracer):
                    stats = self._run(wl, config)
                dt = perf() - t0
                scale = clock.scale() if clock else 1.0
                ops.append(Op(key, dt, 1, self.uops, self._check(key, stats),
                              [stats], scale=scale))
        return ops


class Fig6aGrid(_Rounds):
    """The six Fig 6a geometries, batched through ``repro.exec``."""

    name = "fig6a_grid"

    def setup(self) -> None:
        runner.clear_trace_cache()
        runner.get_trace(GRID_WORKLOAD, self.uops)
        self.specs = grid_specs(self.uops)

    def _pass(self, root: Path):
        rexec.configure(batch=True, cache=ResultCache(root=root))
        try:
            return rexec.run_specs(list(self.specs.values()), label="fig6a")
        finally:
            rexec.reset()

    def round(self, tracer=None, clock=None) -> list[Op]:
        root = fresh_dir(self.name)
        t0 = perf()
        with _op_span(tracer):
            results = self._pass(root)
        dt = perf() - t0
        scale = clock.scale() if clock else 1.0
        shutil.rmtree(root, ignore_errors=True)
        failed = sum(self._check(k, s) for k, s in zip(self.specs, results))
        n = len(self.specs)
        return [Op("grid", dt, n, n * self.uops, failed, list(results),
                   scale=scale)]


# ---------------------------------------------------------------------------
# serve_mixed: a closed-loop request mix against a sweep server.
# ---------------------------------------------------------------------------

#: The traffic mix of ``examples/serve_loadgen.py``, the repository's own
#: load generator for the service: every request is a single-cell
#: ``/v1/submit``, reads ask for one of 16 pre-filled 2K-µop baseline
#: cells, and one request in MISS_EVERY (loadgen's COLD_EVERY) asks for a
#: never-seen cell.  Each block of MISS_EVERY requests holds exactly one
#: such miss, at a seeded position.
N_HIT = 16
HIT_UOPS = 2_000
MISS_EVERY = 20
#: Never-seen cells are drawn from workload x trace length in this range,
#: around loadgen's 2K µops, so the seed can pick thousands of them.
MISS_UOPS = range(1_500, 2_500, 8)
MAX_BLOCKS = 4_000
CLIENTS = 2
#: The measured phase sends load in windows of this many seconds, with the
#: host-speed kernel run between them while the server is idle.
WINDOW_S = 1.0
#: Requests of one traced (or untraced reference) pass.
TRACE_REQUESTS = 1_000
#: Misses recomputed directly after the measured phase and compared.
VERIFY_MISSES = 40


class ServeMixed:
    """``python -m repro.serve --jobs 1`` under a seeded read/write mix."""

    name = "serve_mixed"

    def __init__(self, seed: int, blocks: int = MAX_BLOCKS) -> None:
        names = all_workload_names()
        self.hit_specs = [
            baseline_job(wl, HIT_UOPS, HIT_UOPS // 4) for wl in names[:N_HIT]
        ]
        rng = random.Random(seed)
        pool = [(wl, u) for wl in names for u in MISS_UOPS]
        sequence = []
        for wl, u in rng.sample(pool, blocks):
            block = [("hit", rng.choice(self.hit_specs))
                     for _ in range(MISS_EVERY - 1)]
            block.append(("miss", baseline_job(wl, u, u // 4)))
            rng.shuffle(block)
            sequence.extend(block)
        self.sequence = sequence
        self.verify_rng = random.Random(seed + 1)
        self.hit_stats: dict = {}
        self.proc = None
        self.root = None
        self.server_hwm_mb = None

    # -- setup: fresh cache root, pre-fill, server start ---------------------

    def _prefill(self, root: Path) -> None:
        runner.clear_trace_cache()
        cache = ResultCache(root=root)
        for spec in self.hit_specs:
            stats = run_job(spec)
            cache.put(spec, stats)
            self.hit_stats[spec.digest()] = stats

    def setup(self) -> None:
        self.root = fresh_dir(self.name)
        self._prefill(self.root)
        self.proc, self.url = _start_server(self.root)

    def close(self) -> None:
        if self.proc is not None:
            self.server_hwm_mb = _stop_server(self.proc)
            self.proc = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    # -- the measured phase ------------------------------------------------

    def measure(self, seconds: float) -> Measured:
        ops, wall, scaled_wall = [], 0.0, 0.0
        clock = Clock()
        end = perf() + seconds
        while len(ops) < len(self.sequence):
            records, w_wall, _ = _load(self.url, self.sequence, len(ops),
                                       len(self.sequence),
                                       min(perf() + WINDOW_S, end))
            if not records:
                break
            scale = clock.scale()
            ops.extend(self._ops(records, scale))
            wall += w_wall
            scaled_wall += w_wall * scale
        misses = [op for op in ops if op.kind == "miss" and not op.failed]
        for op in self.verify_rng.sample(misses,
                                         min(VERIFY_MISSES, len(misses))):
            op.failed = self._verify_direct(op)
        self.close()
        return Measured(ops, wall, scaled_wall, clock.samples,
                        peak_rss_mb=self.server_hwm_mb)

    def _verify_direct(self, op: Op) -> int:
        spec = self.sequence[int(op.key)][1]
        return int(op.stats[0] != run_job(spec))

    def _ops(self, records, scale: float = 1.0) -> list[Op]:
        ops = []
        for i, kind, dt, answer, err in records:
            spec = self.sequence[i][1]
            if err is not None:
                bad = 1
            elif kind == "hit":
                stats, source = answer
                bad = int(source != "cache"
                          or stats != self.hit_stats[spec.digest()])
            else:
                bad = int(answer[1] != "computed")
            ops.append(Op(str(i), dt, 1, spec.uops if kind == "miss" else 0,
                          bad, [answer[0]] if answer else [], kind, scale))
        return ops

    # -- traced passes: the server in-process --------------------------------

    def traced_pass(self, tracer=None) -> tuple[float, list]:
        if not self.hit_stats:
            self._prefill(fresh_dir(self.name))
        root = fresh_dir(self.name)
        cache = ResultCache(root=root)
        for spec in self.hit_specs:
            cache.put(spec, self.hit_stats[spec.digest()])
        was_on = obs.enabled()
        obs.enable()     # as ``python -m repro.serve`` does by default
        srv = ServerThread(cache=ResultCache(root=root), jobs=1)
        waits = _instrument_server(srv.server, tracer) if tracer else None
        srv.start()
        try:
            clock = time.pthread_getcpuclockid(srv._thread.ident)
            cpu0 = time.clock_gettime(clock)
            records, wall, load_s = _load(srv.url, self.sequence, 0,
                                          TRACE_REQUESTS, None)
            loop_cpu = time.clock_gettime(clock) - cpu0
        finally:
            srv.stop()
            if not was_on:
                obs.disable()
            shutil.rmtree(root, ignore_errors=True)
        if tracer is not None:
            # What the traced run reports beside the proxies' spans.
            self.probe = {"loop_cpu_s": loop_cpu, "load_s": load_s,
                          "miss_waits": waits, "dedup": srv.server.dedup}
        return wall, self._ops(records)


def _instrument_server(server, tracer) -> list[float]:
    """Time miss queueing and job execution inside one in-process server.

    A miss's wait is the time from its hand-off to the runner queue to the
    start of its ``run_job``; the returned list collects them.
    """
    arrivals: dict[str, float] = {}
    waits: list[float] = []
    inner = server._queue

    class ArrivalQueue:
        def put(self, item):
            if item is not None:
                arrivals[item[0]] = perf()
            inner.put(item)

        def get(self, *args, **kwargs):
            return inner.get(*args, **kwargs)

        def get_nowait(self):
            return inner.get_nowait()

    timed = tracer.proxy("exec.run_job", run_job, record=True)

    def job(spec):
        arrived = arrivals.pop(spec.digest(), None)
        if arrived is not None:
            waits.append(perf() - arrived)
        return timed(spec)

    server._queue = ArrivalQueue()
    server.scheduler.job_fn = job
    return waits


def _load(url: str, sequence, start: int, stop: int, deadline):
    """Closed loop: CLIENTS threads, each one keep-alive connection.

    Each client sends its next request only after the previous answer
    arrived.  Requests are taken in sequence order from ``start`` until
    ``stop`` or, when given, ``deadline`` (checked before each send) is
    reached.  Returns
    the records in sequence order, the wall time, and the clients' summed
    busy time.
    """
    lock = threading.Lock()
    cursor = iter(range(start, stop))
    records: list = []
    spans: list[float] = []
    errors: list[BaseException] = []

    def client() -> None:
        t_start = perf()
        try:
            with ServeClient(url, timeout=120.0) as conn:
                while deadline is None or perf() < deadline:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        break
                    kind, spec = sequence[i]
                    t0 = perf()
                    try:
                        answer, err = conn.submit_with_source(spec), None
                    except Exception as exc:      # counted as failed
                        answer, err = None, exc
                    records.append((i, kind, perf() - t0, answer, err))
        except BaseException as exc:              # re-raised below
            errors.append(exc)
        finally:
            spans.append(perf() - t_start)

    threads = [threading.Thread(target=client, name=f"load-{k}")
               for k in range(CLIENTS)]
    start = perf()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = perf() - start
    if errors:
        raise errors[0]
    records.sort(key=lambda r: r[0])
    return records, wall, sum(spans)


def _start_server(root: Path):
    """Start ``python -m repro.serve`` on an ephemeral port; (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--jobs", "1", "--port", "0",
         "--cache-dir", str(root)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    deadline = perf() + 60.0
    while True:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - perf()))
        line = proc.stdout.readline() if ready else ""
        if "listening on " in line:
            url = line.split("listening on ", 1)[1].split()[0]
            return proc, url
        if not line:
            _stop_server(proc)
            raise RuntimeError("sweep server did not start")


def _stop_server(proc) -> float | None:
    """Stop the server (SIGTERM, then kill); returns its peak RSS in MB.

    Not SIGINT: a shell that starts the benchmark in the background leaves
    SIGINT ignored, and the server inherits that.
    """
    hwm = None
    try:
        with open(f"/proc/{proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    hwm = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    return hwm


WORKLOADS = {cls.name: cls for cls in (SimSingle, Fig6aGrid, ServeMixed)}
