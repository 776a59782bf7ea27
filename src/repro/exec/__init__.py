"""Parallel experiment execution with on-disk result caching.

Section VI of the paper is a grid of independent (workload × config)
simulation cells; this package is the layer that executes that grid:

* :mod:`repro.exec.jobs` — :class:`JobSpec`, the frozen plain-data
  description of one cell, its content digest, and :func:`run_job`;
* :mod:`repro.exec.scheduler` — :class:`Scheduler`, process-pool fan-out
  with deterministic sharding, per-job timeout + bounded retry, and
  ordered collection (parallel output ≡ serial output);
* :mod:`repro.exec.cache` — :class:`ResultCache`, content-addressed JSON
  blobs under ``~/.cache/repro-bebop/`` keyed by digest + code version;
* :mod:`repro.exec.progress` — :class:`ProgressMeter`, the live
  ``[done/total]`` line and throughput accounting.

:func:`configure` installs a process-wide default scheduler that
:func:`run_specs` — the entry point :mod:`repro.eval.experiments` fans
out through — dispatches to.  The default is serial and uncached, i.e.
exactly the semantics the sweeps had before this layer existed.

Resilience (crash-safe checkpoint/resume via a
:class:`~repro.chaos.RunJournal`, deterministic fault injection via a
:class:`~repro.chaos.FaultPlan`, cache-blob integrity checking) lives in
:mod:`repro.chaos` and threads into this layer through the ``journal=``
and ``chaos=`` hooks of :func:`configure` / :class:`Scheduler` /
:class:`ResultCache`.
"""

from __future__ import annotations

from typing import Sequence

from repro.pipeline import SimStats
from repro.exec.cache import (
    CACHE_ENV,
    CACHE_ENV_SHARED,
    CODE_VERSION,
    ResultCache,
    default_cache_root,
    payload_checksum,
)
from repro.exec.jobs import (
    JobSpec,
    baseline_job,
    bebop_job,
    instr_vp_job,
    run_job,
    run_job_observed,
    stats_from_dict,
    stats_to_dict,
)
from repro.exec.progress import ProgressMeter
from repro.exec.scheduler import (
    JobError,
    JobTimeoutError,
    LocalPoolBackend,
    Scheduler,
    SchedulerBackend,
    shard,
)

_default_scheduler = Scheduler()


def configure(
    jobs: int = 1,
    cache: ResultCache | None = None,
    timeout: float | None = None,
    retries: int = 1,
    progress: ProgressMeter | None = None,
    chaos=None,
    journal=None,
    batch: bool = False,
    backend=None,
) -> Scheduler:
    """Install (and return) the process-wide default scheduler.

    ``chaos`` (a :class:`repro.chaos.FaultPlan`) and ``journal`` (a
    :class:`repro.chaos.RunJournal`) switch every subsequent sweep into
    fault-injected and/or crash-safe-resumable execution; both default to
    ``None`` — the zero-overhead path.  ``batch=True`` runs batchable
    shared-front-end groups (BeBoP variant sweeps over one workload —
    :mod:`repro.batch`) in one trace pass each, bit-identically.
    ``backend`` (a :class:`SchedulerBackend`) swaps where pending cells
    execute — ``None`` keeps the historical local serial/pool path; a
    :class:`repro.serve.ServeBackend` sends them to a sweep server, which
    computes them on its pool or leases them to its workers.
    """
    global _default_scheduler
    _default_scheduler = Scheduler(
        jobs=jobs, cache=cache, timeout=timeout, retries=retries,
        progress=progress, chaos=chaos, journal=journal, batch=batch,
        backend=backend,
    )
    return _default_scheduler


def current_scheduler() -> Scheduler:
    """The scheduler :func:`run_specs` currently dispatches to."""
    return _default_scheduler


def reset() -> None:
    """Back to the serial, uncached default (tests use this)."""
    global _default_scheduler
    _default_scheduler = Scheduler()


def run_specs(specs: Sequence[JobSpec], label: str = "") -> list[SimStats]:
    """Execute cells through the configured scheduler, in spec order."""
    return _default_scheduler.run(specs, label=label)


__all__ = [
    "CACHE_ENV",
    "CACHE_ENV_SHARED",
    "CODE_VERSION",
    "JobError",
    "JobSpec",
    "JobTimeoutError",
    "LocalPoolBackend",
    "ProgressMeter",
    "ResultCache",
    "Scheduler",
    "SchedulerBackend",
    "baseline_job",
    "bebop_job",
    "configure",
    "current_scheduler",
    "default_cache_root",
    "instr_vp_job",
    "payload_checksum",
    "reset",
    "run_job",
    "run_job_observed",
    "run_specs",
    "shard",
    "stats_from_dict",
    "stats_to_dict",
]
