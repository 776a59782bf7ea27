"""Timing proxies around the simulator's layers, installed from outside.

The benchmark never edits ``src/``: a traced run replaces public functions
and methods of each layer with proxies that time every call, then puts the
originals back.  Each proxy pushes a frame on a per-thread stack, so a
layer's *self* time (its duration minus the part its timed children
cover) falls out exactly, and the spans of one thread always nest.

Counts and times accumulate per thread in memory; the low-frequency spans
(one per simulated cell, scheduler batch, grid pass or request) are also
kept as individual events and written out once, as a Chrome trace, when
the run ends.  High-frequency spans (branch predictor, history, memory,
value predictor calls) are aggregated only: keeping one record per call
would cost more than the call.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import defaultdict

import repro.batch
import repro.predictors
from repro.batch import dispatch
from repro.bebop.engine import BeBoPEngine
from repro.bebop.predictor import BlockDVTAGE
from repro.branch.btb import BranchTargetBuffer
from repro.branch.tage import TAGEBranchPredictor
from repro.common.history import FoldedHistorySet
from repro.eval import runner as eval_runner
from repro.exec.cache import ResultCache
from repro.exec.scheduler import Scheduler
from repro.pipeline.caches import MemoryHierarchy
from repro.pipeline.core import PipelineModel
from repro.pipeline.vp import InstructionVPAdapter
from repro.serve import protocol
from repro.serve.client import ServeClient

perf = time.perf_counter


class _ThreadAcc:
    """One thread's span stack and accumulators."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: list[float] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.top = 0.0              # summed duration of depth-0 spans
        self.events: list[tuple] = []


class Tracer:
    """Per-thread span accounting for one traced run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_ThreadAcc] = []
        self.op_layers: list[dict[str, float]] = []
        self.origin = perf()

    def acc(self) -> _ThreadAcc:
        try:
            return self._local.acc
        except AttributeError:
            acc = _ThreadAcc(threading.current_thread().name)
            with self._lock:
                self.threads.append(acc)
            self._local.acc = acc
            return acc

    def proxy(self, name: str, fn, record: bool = False):
        """``fn`` wrapped in a span called ``name``.

        ``record`` keeps one event per call for the exported trace; leave
        it off for anything called per µ-op.
        """
        get = self.acc

        def traced(*args, **kwargs):
            acc = get()
            stack = acc.stack
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                acc.total[name] += dt
                acc.self[name] += dt - child
                acc.calls[name] += 1
                if stack:
                    stack[-1] += dt
                else:
                    acc.top += dt
                if record:
                    acc.events.append((name, t0, dt))

        # Not functools.wraps: some targets are classes, whose __dict__
        # must not be merged into a function's.
        functools.update_wrapper(traced, fn, updated=())
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A recorded span around one operation of the benchmark itself.

        Also appends to :attr:`op_layers` the self time and calls each
        span name gained on this thread while the operation ran.
        """
        acc = self.acc()
        before = dict(acc.self)
        before_calls = dict(acc.calls)
        stack = acc.stack
        stack.append(0.0)
        t0 = perf()
        try:
            yield
        finally:
            dt = perf() - t0
            child = stack.pop()
            acc.total[name] += dt
            acc.self[name] += dt - child
            acc.calls[name] += 1
            if stack:
                stack[-1] += dt
            else:
                acc.top += dt
            acc.events.append((name, t0, dt))
            self.op_layers.append({
                "self_s": {k: v - before.get(k, 0.0)
                           for k, v in acc.self.items()
                           if v != before.get(k, 0.0)},
                "calls": {k: v - before_calls.get(k, 0)
                          for k, v in acc.calls.items()
                          if v != before_calls.get(k, 0)},
            })

    # -- reading the accumulators -----------------------------------------

    def merged(self, threads=None) -> tuple[dict, dict, dict]:
        """(total, self, calls) summed over ``threads`` (default: all)."""
        total: dict[str, float] = defaultdict(float)
        self_: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for acc in self.threads if threads is None else threads:
            for k, v in acc.total.items():
                total[k] += v
            for k, v in acc.self.items():
                self_[k] += v
            for k, v in acc.calls.items():
                calls[k] += v
        return total, self_, calls

    def thread(self, name: str) -> list[_ThreadAcc]:
        return [acc for acc in self.threads if acc.name == name]

    def chrome_trace(self) -> dict:
        """Recorded spans as Chrome ``trace_event`` JSON, for Perfetto."""
        events = []
        for tid, acc in enumerate(self.threads):
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": acc.name}})
            for name, t0, dt in acc.events:
                events.append({
                    "name": name, "ph": "X", "pid": 1, "tid": tid,
                    "ts": round((t0 - self.origin) * 1e6, 3),
                    "dur": round(dt * 1e6, 3),
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def wrapper_cost_ns(calls: int = 200_000, repeats: int = 5) -> float:
    """Median cost, in ns, of one proxy call around an empty function.

    Measured against the bare call in the same run, so each layer's
    call count times this figure is the timer's share of its parent's
    self time.
    """

    def noop():
        return None

    traced = Tracer().proxy("noop", noop)
    samples = []
    for _ in range(repeats):
        t0 = perf()
        for _ in range(calls):
            traced()
        t1 = perf()
        for _ in range(calls):
            noop()
        t2 = perf()
        samples.append(((t1 - t0) - (t2 - t1)) / calls * 1e9)
    samples.sort()
    return samples[len(samples) // 2]


# ---------------------------------------------------------------------------
# The layer map: which public functions each layer's proxies wrap.
# ---------------------------------------------------------------------------

def _targets():
    """(owner, attribute, span name, record, counter) for every proxy."""
    targets = [
        (eval_runner, "build_workload", "workloads.gen", True, None),
        (TAGEBranchPredictor, "predict", "branch.predict", False, None),
        (TAGEBranchPredictor, "train", "branch.train", False, None),
        (BranchTargetBuffer, "lookup", "branch.btb", False, None),
        (BranchTargetBuffer, "install", "branch.btb", False, None),
        (FoldedHistorySet, "state", "history.op", False, None),
        (FoldedHistorySet, "push_outcome", "history.op", False, None),
        (FoldedHistorySet, "push_path", "history.op", False, None),
        (MemoryHierarchy, "ifetch_latency", "pipeline.memory", False, None),
        (MemoryHierarchy, "load_latency", "pipeline.memory", False, None),
        (PipelineModel, "run", "pipeline.run", True, None),
        (BeBoPEngine, "fetch_group", "bebop.engine", False,
         "bebop.fetch_groups"),
        (BeBoPEngine, "vp_squash", "bebop.engine", False, "bebop.squashes"),
        (BeBoPEngine, "branch_squash", "bebop.engine", False,
         "bebop.squashes"),
        (repro.batch, "run_batched_group", "batch.group", True, None),
        (dispatch, "precompute_front_end", "batch.precompute", True, None),
        (dispatch, "build_variant_tables", "batch.tables", True, None),
        (dispatch, "DVTAGESlotGeometry", "batch.tables", True, None),
        (dispatch, "run_fused_variant", "batch.walk", True, "batch.variants"),
        (Scheduler, "run", "exec.sched", True, None),
        (ServeClient, "submit_with_source", "serve.client", True, None),
    ]
    for method in ("result_uop", "commit_uop", "finish_group"):
        targets.append((BeBoPEngine, method, "bebop.engine", False, None))
    for method in ("read", "compose", "update", "is_confident"):
        targets.append((BlockDVTAGE, method, "bebop.predictor", False, None))
    for method in ("fetch_group", "result_uop", "commit_uop", "finish_group",
                   "vp_squash", "branch_squash"):
        targets.append((InstructionVPAdapter, method, "predictors.adapter",
                        False, None))
    for cls in _subclasses(repro.predictors.ValuePredictor):
        for method in ("predict", "train", "squash"):
            if method in cls.__dict__:
                targets.append((cls, method, f"predictors.{method}", False,
                                None))
    for fn in ("encode_submit", "encode_sweep", "encode_result",
               "encode_sweep_results"):
        targets.append((protocol, fn, "serve.encode", False, None))
    for fn in ("parse_json", "decode_submit", "decode_sweep", "decode_result",
               "decode_sweep_results"):
        targets.append((protocol, fn, "serve.decode", False, None))
    return targets


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Every layer proxy installed for the duration of the block."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    try:
        for owner, attr, name, record, counter in _targets():
            traced = tracer.proxy(name, getattr(owner, attr), record)
            if counter is not None:
                traced = _counting(tracer, counter, traced)
            patch(owner, attr, traced)

        gen = tracer.proxy("workloads.gen", eval_runner.generate_trace, True)

        def generate_trace(*args, **kwargs):
            trace = gen(*args, **kwargs)
            tracer.acc().calls["workloads.uops_generated"] += len(trace.uops)
            return trace

        patch(eval_runner, "generate_trace", generate_trace)
        for attr in ("get", "get_blob"):
            timed = tracer.proxy("exec.cache_get", getattr(ResultCache, attr))
            patch(ResultCache, attr, _cache_get(tracer, timed))
        patch(ResultCache, "put",
              tracer.proxy("exec.cache_put", ResultCache.put))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _counting(tracer: Tracer, counter: str, traced):
    def counted(*args, **kwargs):
        tracer.acc().calls[counter] += 1
        return traced(*args, **kwargs)

    return counted


def _cache_get(tracer: Tracer, traced):
    def get(*args, **kwargs):
        result = traced(*args, **kwargs)
        acc = tracer.acc()
        acc.calls["exec.cache_hits" if result is not None
                  else "exec.cache_misses"] += 1
        return result

    return get
