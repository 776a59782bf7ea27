"""Shared machinery for running experiment configurations.

The paper simulates 50M warmup + 100M measured instructions per Simpoint
slice; at Python speed we default to 120K µ-ops with a 40K warmup, which is
where predictor confidence (FPC needs a couple hundred correct predictions
per entry) has visibly converged for every workload class.  All experiment
entry points accept ``uops``/``warmup`` overrides so the benches can run
smaller and EXPERIMENTS.md runs larger.

Traces come from :func:`get_trace`.  A workload's trace generator is
deterministic, so its first n µ-ops are the same at every trace length: a
length that is not cached is cut from a longer cached trace of the same
workload, and only generated when none is cached (DESIGN.md §12).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import repro.obs as obs
from repro.bebop import (
    BeBoPEngine,
    BlockDVTAGE,
    BlockDVTAGEConfig,
    RecoveryPolicy,
    SpeculativeWindow,
)
from repro.obs import Probes
from repro.pipeline import (
    BASELINE_6_60,
    PipelineModel,
    SimStats,
    baseline_vp_6_60,
    eole_4_60,
)
from repro.pipeline.vp import InstructionVPAdapter
from repro.predictors import (
    DVTAGEPredictor,
    LastValuePredictor,
    TwoDeltaStridePredictor,
    ValuePredictor,
    VTAGE2DStrideHybrid,
    VTAGEPredictor,
)
from repro.workloads import Trace, build_workload, generate_trace
from repro.workloads.suite import all_workload_names

DEFAULT_TRACE_UOPS = 120_000
DEFAULT_WARMUP_UOPS = 40_000

#: Generated traces keyed by (workload, requested uop count).  Traces are
#: deterministic, so recomputing an evicted one is pure wall-clock, never a
#: correctness issue.  Only generated traces are stored: a length cut from a
#: longer trace is rebuilt on each request, and the cached shorter traces of
#: a workload hold prefixes of its longest one's µ-op list.  LRU-bounded:
#: one full-suite pass at a single scale fits, but a multi-scale run
#: (36 workloads × several uop counts) does not grow without limit.
_TRACE_CACHE: OrderedDict[tuple[str, int], Trace] = OrderedDict()
_TRACE_CACHE_LIMIT = 48


@dataclass(frozen=True)
class RunSpec:
    """Common knobs of one experiment run."""

    uops: int = DEFAULT_TRACE_UOPS
    warmup: int = DEFAULT_WARMUP_UOPS
    workloads: tuple[str, ...] | None = None   # None = the full suite

    def names(self) -> tuple[str, ...]:
        return self.workloads if self.workloads is not None else all_workload_names()


def get_trace(name: str, uops: int = DEFAULT_TRACE_UOPS) -> Trace:
    """The dynamic trace ``generate_trace`` gives workload ``name`` at ``uops``.

    An exact (workload, uops) hit returns the cached object.  Otherwise, if
    a cached trace of the workload has more than ``uops`` µ-ops, the result
    is cut from it (a new :class:`Trace`, not cached; the source becomes
    most recent).  Only when no such trace is cached is the trace generated
    and stored, and every cached shorter trace of the workload is pointed at
    the new trace's µ-op prefix, which holds the same µ-ops.
    """
    key = (name, uops)
    cached = _TRACE_CACHE.get(key)
    if cached is not None:
        _TRACE_CACHE.move_to_end(key)
        return cached
    longest = max((k for k in _TRACE_CACHE if k[0] == name),
                  key=lambda k: len(_TRACE_CACHE[k].uops), default=None)
    if longest is not None and len(_TRACE_CACHE[longest].uops) > uops:
        _TRACE_CACHE.move_to_end(longest)
        obs.counter("workloads/trace/sliced").inc()
        return _prefix(_TRACE_CACHE[longest], uops)
    kernel = build_workload(name)
    trace = generate_trace(kernel.program, uops, name=name, init_mem=kernel.init_mem)
    obs.counter("workloads/trace/generated").inc()
    for (other_name, _), short in _TRACE_CACHE.items():
        if other_name == name and len(short.uops) < len(trace.uops):
            short.uops = trace.uops[:len(short.uops)]
    _TRACE_CACHE[key] = trace
    while len(_TRACE_CACHE) > _TRACE_CACHE_LIMIT:
        _TRACE_CACHE.popitem(last=False)
    return trace


def _prefix(source: Trace, uops: int) -> Trace:
    """The trace a fresh run of ``source``'s generator for ``uops`` gives.

    ``source`` must hold more than ``uops`` µ-ops.  The generator stops only
    between instructions, so the cut is the end of the instruction holding
    µ-op ``uops - 1``: the first last µ-op at or after that index.
    """
    uops_list = source.uops
    cut = max(uops, 0)
    if cut:
        while not uops_list[cut - 1].is_last_uop:
            cut += 1
    head = uops_list[:cut]
    return Trace(name=source.name, program=source.program, uops=head,
                 inst_count=sum(u.is_last_uop for u in head))


def clear_trace_cache() -> None:
    _TRACE_CACHE.clear()


def set_trace_cache_limit(limit: int) -> None:
    """Change the LRU bound (evicting immediately if now over it)."""
    global _TRACE_CACHE_LIMIT
    if limit < 1:
        raise ValueError(f"trace cache limit must be >= 1, got {limit}")
    _TRACE_CACHE_LIMIT = limit
    while len(_TRACE_CACHE) > _TRACE_CACHE_LIMIT:
        _TRACE_CACHE.popitem(last=False)


def make_instr_predictor(kind: str, **overrides: object) -> ValuePredictor:
    """Instruction-based predictor by Fig 5a name."""
    factories = {
        "lvp": LastValuePredictor,
        "2d-stride": TwoDeltaStridePredictor,
        "vtage": VTAGEPredictor,
        "vtage-2d-stride": VTAGE2DStrideHybrid,
        "d-vtage": DVTAGEPredictor,
    }
    try:
        factory = factories[kind]
    except KeyError:
        raise ValueError(
            f"unknown predictor kind {kind!r}; known: {', '.join(factories)}"
        ) from None
    return factory(**overrides)  # type: ignore[arg-type]


def make_bebop_engine(
    config: BlockDVTAGEConfig | None = None,
    window: int | None = 32,
    policy: RecoveryPolicy = RecoveryPolicy.DNRDNR,
) -> BeBoPEngine:
    """A BeBoP engine: block D-VTAGE + speculative window + policy.

    ``window`` follows Fig 7b's convention: ``None`` = infinite, ``0`` = no
    speculative window at all.
    """
    return BeBoPEngine(BlockDVTAGE(config), SpeculativeWindow(window), policy)


def run_baseline(
    trace: Trace, warmup: int = DEFAULT_WARMUP_UOPS, probes: Probes | None = None
) -> SimStats:
    """Baseline_6_60: no value prediction.

    ``probes`` (here and in the other runners) is an optional
    :class:`~repro.obs.Probes` bundle of passive observers — CPI stack,
    timeline recorder, per-PC attribution, bank telemetry — that ride the
    run; ``None`` keeps the model on its uninstrumented path.
    """
    return PipelineModel(BASELINE_6_60).run(trace, warmup, probes)


def run_instr_vp(
    trace: Trace,
    predictor: ValuePredictor,
    warmup: int = DEFAULT_WARMUP_UOPS,
    probes: Probes | None = None,
) -> SimStats:
    """Baseline_VP_6_60 with an instruction-based predictor."""
    model = PipelineModel(baseline_vp_6_60(), InstructionVPAdapter(predictor))
    return model.run(trace, warmup, probes)


def run_eole_instr_vp(
    trace: Trace,
    predictor: ValuePredictor,
    warmup: int = DEFAULT_WARMUP_UOPS,
    probes: Probes | None = None,
) -> SimStats:
    """EOLE_4_60 with an instruction-based predictor (Fig 5b)."""
    model = PipelineModel(eole_4_60(), InstructionVPAdapter(predictor))
    return model.run(trace, warmup, probes)


def run_bebop_eole(
    trace: Trace,
    engine: BeBoPEngine,
    warmup: int = DEFAULT_WARMUP_UOPS,
    probes: Probes | None = None,
) -> SimStats:
    """EOLE_4_60 with block-based (BeBoP) value prediction."""
    model = PipelineModel(eole_4_60(), engine)
    return model.run(trace, warmup, probes)
