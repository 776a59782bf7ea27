"""Experiment cells as plain, picklable data.

A :class:`JobSpec` names one (workload × configuration) simulation cell —
the unit every Section VI sweep decomposes into.  Specs are frozen,
hashable and built from plain data only (strings, ints, tuples), so they

* pickle cleanly to :mod:`concurrent.futures` worker processes,
* admit a stable content digest for the on-disk result cache, and
* reconstruct their predictor/engine *inside* the worker, which keeps the
  expensive mutable simulator state out of the inter-process channel.

``run_job`` is the single pure entry point: spec in, :class:`SimStats`
out.  It is a top-level function precisely so ``ProcessPoolExecutor`` can
pickle a reference to it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass

from repro.bebop import BlockDVTAGEConfig, RecoveryPolicy
from repro.pipeline import SimStats
from repro.eval.runner import (
    DEFAULT_TRACE_UOPS,
    DEFAULT_WARMUP_UOPS,
    get_trace,
    make_bebop_engine,
    make_instr_predictor,
    run_baseline,
    run_bebop_eole,
    run_eole_instr_vp,
    run_instr_vp,
)

#: Schema version of the JobSpec encoding itself; bump when the meaning of
#: the fields changes so old digests cannot collide with new ones.
SPEC_SCHEMA = 1

#: Pipelines a job may run on (Table I names).
PIPELINES = ("baseline_6_60", "baseline_vp_6_60", "eole_4_60")


@dataclass(frozen=True)
class JobSpec:
    """One simulation cell, described entirely by plain data.

    ``engine`` is a tagged tuple:

    * ``("none",)`` — no value prediction (baseline core);
    * ``("instr", kind)`` — instruction-based predictor by Fig 5a name;
    * ``("bebop", config_items, window, policy)`` — block-based BeBoP
      engine, where ``config_items`` is the sorted ``(field, value)``
      tuple-of-pairs form of a :class:`BlockDVTAGEConfig`, ``window``
      follows Fig 7b's convention (``None`` = infinite, ``0`` = no
      window) and ``policy`` is a :class:`RecoveryPolicy` value string.
    """

    workload: str
    uops: int = DEFAULT_TRACE_UOPS
    warmup: int = DEFAULT_WARMUP_UOPS
    pipeline: str = "baseline_6_60"
    engine: tuple = ("none",)

    def __post_init__(self) -> None:
        if self.pipeline not in PIPELINES:
            raise ValueError(
                f"unknown pipeline {self.pipeline!r}; known: {', '.join(PIPELINES)}"
            )
        if not self.engine or self.engine[0] not in ("none", "instr", "bebop"):
            raise ValueError(f"malformed engine description: {self.engine!r}")

    # -- encoding ---------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready plain-dict form (tuples become lists)."""
        return {
            "schema": SPEC_SCHEMA,
            "workload": self.workload,
            "uops": self.uops,
            "warmup": self.warmup,
            "pipeline": self.pipeline,
            "engine": _jsonable(self.engine),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Inverse of :meth:`as_dict`.

        Keys other than the fields are ignored: ``schema``, and the
        table-storage backend name that specs written by older builds
        carry (it never entered the digest).
        """
        return cls(
            workload=data["workload"],
            uops=data["uops"],
            warmup=data["warmup"],
            pipeline=data["pipeline"],
            engine=_tupled(data["engine"]),
        )

    def digest(self) -> str:
        """Stable content digest: equal specs ⇔ equal digests."""
        blob = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable tag for progress/error messages."""
        engine = self.engine[0] if self.engine[0] != "instr" else self.engine[1]
        return f"{self.workload}/{self.pipeline}/{engine}@{self.uops}"


def _jsonable(value):
    """Tuples → lists, recursively (JSON has no tuple type)."""
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _tupled(value):
    """Lists → tuples, recursively (the inverse of :func:`_jsonable`)."""
    if isinstance(value, (tuple, list)):
        return tuple(_tupled(v) for v in value)
    return value


# ---------------------------------------------------------------------------
# Spec builders — the vocabulary experiments.py sweeps are written in.
# ---------------------------------------------------------------------------

def baseline_job(
    workload: str,
    uops: int = DEFAULT_TRACE_UOPS,
    warmup: int = DEFAULT_WARMUP_UOPS,
) -> JobSpec:
    """Baseline_6_60: no value prediction."""
    return JobSpec(workload=workload, uops=uops, warmup=warmup)


def instr_vp_job(
    workload: str,
    kind: str,
    uops: int = DEFAULT_TRACE_UOPS,
    warmup: int = DEFAULT_WARMUP_UOPS,
    eole: bool = False,
) -> JobSpec:
    """Instruction-based predictor on Baseline_VP_6_60 (or EOLE_4_60)."""
    return JobSpec(
        workload=workload,
        uops=uops,
        warmup=warmup,
        pipeline="eole_4_60" if eole else "baseline_vp_6_60",
        engine=("instr", kind),
    )


def bebop_job(
    workload: str,
    config: BlockDVTAGEConfig | None = None,
    window: int | None = 32,
    policy: RecoveryPolicy = RecoveryPolicy.DNRDNR,
    uops: int = DEFAULT_TRACE_UOPS,
    warmup: int = DEFAULT_WARMUP_UOPS,
) -> JobSpec:
    """Block-based BeBoP engine on EOLE_4_60."""
    if config is None:
        config = BlockDVTAGEConfig()
    items = tuple(sorted(
        (f.name, getattr(config, f.name)) for f in dataclasses.fields(config)
    ))
    return JobSpec(
        workload=workload,
        uops=uops,
        warmup=warmup,
        pipeline="eole_4_60",
        engine=("bebop", items, window, policy.value),
    )


# ---------------------------------------------------------------------------
# Execution + result (de)serialisation.
# ---------------------------------------------------------------------------

def run_job(spec: JobSpec) -> SimStats:
    """Execute one cell: rebuild the engine from plain data and simulate.

    Pure with respect to the spec (traces are deterministic, predictors are
    constructed fresh per call), so results are cacheable by digest and
    identical whether computed serially, in a worker, or read back from the
    on-disk cache.
    """
    trace = get_trace(spec.workload, spec.uops)
    tag = spec.engine[0]
    if tag == "none":
        return run_baseline(trace, spec.warmup)
    if tag == "instr":
        predictor = make_instr_predictor(spec.engine[1])
        if spec.pipeline == "eole_4_60":
            return run_eole_instr_vp(trace, predictor, spec.warmup)
        return run_instr_vp(trace, predictor, spec.warmup)
    # tag == "bebop"
    _, items, window, policy = spec.engine
    config = BlockDVTAGEConfig(**dict(items))
    engine = make_bebop_engine(config, window=window,
                               policy=RecoveryPolicy(policy))
    return run_bebop_eole(trace, engine, spec.warmup)


def run_job_observed(fn, spec: JobSpec) -> tuple[SimStats, dict]:
    """Execute ``fn(spec)`` under a fresh per-job metrics registry.

    The worker-process side of metric collection: pool workers are reused
    across jobs, so each job records into its own scoped registry whose
    flat snapshot travels back with the result and is merged into the
    parent's registry by the scheduler (``registry.merge`` sums counters,
    keeping parallel totals equal to serial totals).  Top-level and
    picklable for ``ProcessPoolExecutor``, like :func:`run_job`.
    """
    import repro.obs as obs

    reg = obs.MetricsRegistry(enabled=True)
    with obs.scoped_registry(reg):
        t0 = time.perf_counter()
        result = fn(spec)
        reg.counter("exec/job/count").inc()
        reg.counter("exec/job/seconds").inc(time.perf_counter() - t0)
    return result, reg.snapshot()


def stats_to_dict(stats: SimStats) -> dict:
    """JSON-ready form of a :class:`SimStats` (exact float round-trip)."""
    return dataclasses.asdict(stats)


def stats_from_dict(data: dict) -> SimStats:
    fields = {f.name for f in dataclasses.fields(SimStats)}
    return SimStats(**{k: v for k, v in data.items() if k in fields})
