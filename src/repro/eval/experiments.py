"""One entry point per table/figure of the paper's Section VI.

Every function returns an :class:`~repro.eval.result.ExperimentResult` —
the rows (dicts keyed by workload / configuration, exactly what these
functions returned before the typed API) plus the :class:`RunSpec`
provenance, a column presentation order, and execution metadata (elapsed
time, cache hit/miss deltas).  ``ExperimentResult`` implements the full
read-only mapping protocol over its rows and compares equal to the plain
dict, so existing subscripting and assertions keep working.  Speedups are
IPC ratios on identical traces; aggregates use the geometric mean like
the paper.

Execution is delegated to :mod:`repro.exec`: each sweep is decomposed into
a flat list of :class:`~repro.exec.JobSpec` cells and fanned out through
:func:`repro.exec.run_specs`, so one ``repro.exec.configure(...)`` call
switches the whole module between serial, parallel and cached execution
without changing any result (results are collected in spec order and each
cell is a pure function of its spec).
"""

from __future__ import annotations

import time

from repro.bebop import BlockDVTAGEConfig, RecoveryPolicy
from repro.obs import CPIStackCollector, Probes
from repro.pipeline.stats import gmean
from repro.storage import TABLE_III, TableIIIConfig, breakdown
from repro.eval.result import ExperimentResult
from repro.eval.runner import RunSpec


def _exec():
    """The :mod:`repro.exec` API, imported lazily.

    ``repro.exec.jobs`` imports :mod:`repro.eval.runner`; importing
    ``repro.exec`` at this module's load time would therefore cycle
    through ``repro.eval.__init__`` when ``repro.exec`` is imported
    first.  Deferring to call time breaks the cycle in both directions.
    """
    import repro.exec as exec_api
    return exec_api

#: Experiment ids the driver can run/skip, in report order.
KNOWN_EXPERIMENTS = (
    "table2",
    "table3",
    "fig5a",
    "fig5b",
    "fig6a",
    "fig6b",
    "partial_strides",
    "fig7a",
    "fig7b",
    "fig8",
    "cpi_stack",
    "provenance",
    "h2p",
)

#: Fig 5a predictor line-up, in the paper's legend order.
FIG5A_PREDICTORS = ("2d-stride", "vtage", "vtage-2d-stride", "d-vtage")

#: Fig 6a entry geometries: (npred, base entries, tagged entries).
FIG6A_GEOMETRIES = (
    (4, 1024, 128),
    (6, 1024, 128),
    (8, 1024, 128),
    (4, 2048, 256),
    (6, 2048, 256),
    (8, 2048, 256),
)

#: Fig 6b geometries at npred=6: (base entries, tagged entries).
FIG6B_GEOMETRIES = (
    (512, 128),
    (1024, 128),
    (2048, 128),
    (512, 256),
    (1024, 256),
    (2048, 256),
)

#: §VI-B(a) partial stride widths.
PARTIAL_STRIDE_BITS = (64, 32, 16, 8)

#: Fig 7b speculative window sizes (None = infinite, 0 = no window).
FIG7B_WINDOW_SIZES = (None, 64, 56, 48, 32, 16, 0)

#: Table III / Fig 8 final configurations.
FIG8_CONFIGS = {
    "Small_4p": (BlockDVTAGEConfig(npred=4, base_entries=256, tagged_entries=128,
                                   stride_bits=8), 32),
    "Small_6p": (BlockDVTAGEConfig(npred=6, base_entries=128, tagged_entries=128,
                                   stride_bits=8), 32),
    "Medium": (BlockDVTAGEConfig(npred=6, base_entries=256, tagged_entries=256,
                                 stride_bits=8), 32),
    "Large": (BlockDVTAGEConfig(npred=6, base_entries=512, tagged_entries=256,
                                stride_bits=16), 56),
}


def validate_experiment_ids(ids) -> None:
    """Reject unknown experiment ids (typos would silently run everything)."""
    unknown = sorted(set(ids) - set(KNOWN_EXPERIMENTS))
    if unknown:
        raise ValueError(
            f"unknown experiment id(s): {', '.join(unknown)}; "
            f"known: {', '.join(KNOWN_EXPERIMENTS)}"
        )


def _ipcs(jobs, label: str = "") -> list[float]:
    """Fan a flat job list out through the scheduler; IPCs in job order."""
    return [stats.ipc for stats in _exec().run_specs(jobs, label=label)]


def _meta_start() -> dict:
    """Baseline readings for :func:`_meta_finish`'s deltas."""
    sched = _exec().current_scheduler()
    cache = sched.cache
    journal = sched.journal
    return {
        "t0": time.perf_counter(),
        "hits": cache.hits if cache is not None else 0,
        "misses": cache.misses if cache is not None else 0,
        "journal_hits": journal.hits if journal is not None else 0,
        "journal_records": journal.appended if journal is not None else 0,
    }


def _meta_finish(start: dict) -> dict:
    """Execution metadata for an :class:`ExperimentResult`: wall-clock,
    worker count, — when a result cache is attached — how much of this
    sweep was answered from disk, — when a run journal is attached (the
    crash-safe resume mode of :mod:`repro.chaos`) — how much was resumed
    from a previous interrupted run vs freshly checkpointed, and — when
    observability is on — the registry snapshot as of this experiment's
    completion.  Meta never participates in result equality."""
    import repro.obs as obs

    sched = _exec().current_scheduler()
    meta = {
        "elapsed_seconds": time.perf_counter() - start["t0"],
        "jobs": sched.jobs,
    }
    if sched.cache is not None:
        meta["cache_hits"] = sched.cache.hits - start["hits"]
        meta["cache_misses"] = sched.cache.misses - start["misses"]
    if sched.journal is not None:
        meta["journal_resumed"] = sched.journal.hits - start["journal_hits"]
        meta["journal_recorded"] = (
            sched.journal.appended - start["journal_records"]
        )
    if obs.enabled():
        meta["metrics"] = obs.registry().snapshot()
    return meta


def _baselines(spec: RunSpec) -> dict[str, float]:
    """Baseline_6_60 IPC per workload."""
    names = spec.names()
    jobs = [_exec().baseline_job(n, spec.uops, spec.warmup) for n in names]
    return dict(zip(names, _ipcs(jobs, "baselines")))


def aggregate(speedups: dict[str, float]) -> dict[str, float]:
    """The paper's box-plot summary: gmean plus min and max."""
    values = list(speedups.values())
    return {"gmean": gmean(values), "min": min(values), "max": max(values)}


# ---------------------------------------------------------------------------
# Table II — baseline IPC per benchmark.
# ---------------------------------------------------------------------------

def table2_ipc(spec: RunSpec = RunSpec()) -> ExperimentResult:
    """Per-workload baseline IPC next to the paper's Table II IPC."""
    from repro.workloads.suite import get_spec

    start = _meta_start()
    names = spec.names()
    ipcs = _baselines(spec)
    rows = {
        name: {"ipc": ipcs[name], "paper_ipc": get_spec(name).paper_ipc}
        for name in names
    }
    return ExperimentResult("table2", rows, columns=("ipc", "paper_ipc"),
                            spec=spec, meta=_meta_finish(start))


# ---------------------------------------------------------------------------
# Fig 5a — instruction-based predictors over Baseline_6_60.
# ---------------------------------------------------------------------------

def fig5a(spec: RunSpec = RunSpec()) -> ExperimentResult:
    """Speedup of each predictor over Baseline_6_60, per workload."""
    start = _meta_start()
    names = spec.names()
    base = _baselines(spec)
    jobs = [
        _exec().instr_vp_job(name, kind, spec.uops, spec.warmup)
        for kind in FIG5A_PREDICTORS
        for name in names
    ]
    ipcs = iter(_ipcs(jobs, "fig5a"))
    out: dict[str, dict[str, float]] = {name: {} for name in names}
    for kind in FIG5A_PREDICTORS:
        for name in names:
            out[name][kind] = next(ipcs) / base[name]
    return ExperimentResult("fig5a", out, columns=FIG5A_PREDICTORS,
                            spec=spec, meta=_meta_finish(start))


# ---------------------------------------------------------------------------
# Fig 5b — EOLE_4_60 over Baseline_VP_6_60 (both with instr D-VTAGE).
# ---------------------------------------------------------------------------

def fig5b(spec: RunSpec = RunSpec()) -> ExperimentResult:
    """EOLE at issue-4 should preserve Baseline_VP_6_60 performance."""
    start = _meta_start()
    names = spec.names()
    jobs = [_exec().instr_vp_job(n, "d-vtage", spec.uops, spec.warmup)
            for n in names]
    jobs += [_exec().instr_vp_job(n, "d-vtage", spec.uops, spec.warmup, eole=True)
             for n in names]
    ipcs = _ipcs(jobs, "fig5b")
    vp6, eole4 = ipcs[: len(names)], ipcs[len(names):]
    rows = {name: eole4[i] / vp6[i] for i, name in enumerate(names)}
    return ExperimentResult("fig5b", rows, spec=spec,
                            meta=_meta_finish(start))


# ---------------------------------------------------------------------------
# Fig 6 — BeBoP geometry sweeps (speedup over EOLE_4_60 without... the paper
# normalises to the idealistic EOLE_4_60 with instruction-based D-VTAGE).
# ---------------------------------------------------------------------------

def _eole_reference(spec: RunSpec) -> dict[str, float]:
    """EOLE_4_60 with idealistic instruction-based D-VTAGE (the Fig 6/7
    normalisation baseline)."""
    names = spec.names()
    jobs = [_exec().instr_vp_job(n, "d-vtage", spec.uops, spec.warmup, eole=True)
            for n in names]
    return dict(zip(names, _ipcs(jobs, "eole-reference")))


def _bebop_sweep(
    spec: RunSpec,
    cells: list[tuple[str, BlockDVTAGEConfig, int | None, RecoveryPolicy]],
    label: str,
) -> dict[str, dict[str, float]]:
    """Shared Fig 6/7 shape: {config label: {workload: speedup over EOLE}}.

    ``cells`` is one (label, config, window, policy) per swept configuration;
    the whole (configuration × workload) grid goes out as a single batch.
    """
    names = spec.names()
    reference = _eole_reference(spec)
    jobs = [
        _exec().bebop_job(name, config, window, policy, spec.uops, spec.warmup)
        for _, config, window, policy in cells
        for name in names
    ]
    ipcs = iter(_ipcs(jobs, label))
    out: dict[str, dict[str, float]] = {}
    for row_label, *_ in cells:
        out[row_label] = {name: next(ipcs) / reference[name] for name in names}
    return out


def fig6a(spec: RunSpec = RunSpec()) -> ExperimentResult:
    """Npred / table-size sweep: {config label: {workload: speedup}}."""
    start = _meta_start()
    cells = []
    for npred, base_entries, tagged_entries in FIG6A_GEOMETRIES:
        label = f"{npred}p {base_entries // 1024}K+6x{tagged_entries}"
        config = BlockDVTAGEConfig(
            npred=npred, base_entries=base_entries, tagged_entries=tagged_entries
        )
        cells.append((label, config, None, RecoveryPolicy.DNRDNR))
    rows = _bebop_sweep(spec, cells, "fig6a")
    return ExperimentResult("fig6a", rows, columns=spec.names(),
                            spec=spec, meta=_meta_finish(start))


def fig6b(spec: RunSpec = RunSpec()) -> ExperimentResult:
    """Base-size vs tagged-size sweep at 6 predictions per entry."""
    start = _meta_start()
    cells = []
    for base_entries, tagged_entries in FIG6B_GEOMETRIES:
        base_label = f"{base_entries // 1024}K" if base_entries >= 1024 else str(base_entries)
        label = f"{base_label}+6x{tagged_entries}"
        config = BlockDVTAGEConfig(
            npred=6, base_entries=base_entries, tagged_entries=tagged_entries
        )
        cells.append((label, config, None, RecoveryPolicy.DNRDNR))
    rows = _bebop_sweep(spec, cells, "fig6b")
    return ExperimentResult("fig6b", rows, columns=spec.names(),
                            spec=spec, meta=_meta_finish(start))


# ---------------------------------------------------------------------------
# §VI-B(a) — partial strides.
# ---------------------------------------------------------------------------

def partial_strides(spec: RunSpec = RunSpec()) -> ExperimentResult:
    """Stride width sweep: speedup over the EOLE reference + storage."""
    start = _meta_start()
    cells = [
        (str(bits), BlockDVTAGEConfig(stride_bits=bits), None,
         RecoveryPolicy.DNRDNR)
        for bits in PARTIAL_STRIDE_BITS
    ]
    sweeps = _bebop_sweep(spec, cells, "partial-strides")
    out: dict[int, dict[str, object]] = {}
    for bits in PARTIAL_STRIDE_BITS:
        speedups = sweeps[str(bits)]
        storage = breakdown(
            TableIIIConfig(
                name=f"stride{bits}",
                base_entries=2048,
                tagged_entries=256,
                components=6,
                spec_window_entries=0,
                stride_bits=bits,
                npred=6,
                paper_kb=0.0,
            )
        )
        out[bits] = {
            "speedups": speedups,
            "aggregate": aggregate(speedups),
            "storage_kb": storage.total_kb,
        }
    return ExperimentResult("partial_strides", out, spec=spec,
                            meta=_meta_finish(start))


# ---------------------------------------------------------------------------
# Fig 7a — recovery policies; Fig 7b — window sizes.
# ---------------------------------------------------------------------------

def fig7a(spec: RunSpec = RunSpec()) -> ExperimentResult:
    """Recovery-policy sweep with an infinite speculative window."""
    start = _meta_start()
    cells = [
        (policy.value, BlockDVTAGEConfig(), None, policy)
        for policy in (RecoveryPolicy.IDEAL, RecoveryPolicy.REPRED,
                       RecoveryPolicy.DNRDNR, RecoveryPolicy.DNRR)
    ]
    rows = _bebop_sweep(spec, cells, "fig7a")
    return ExperimentResult("fig7a", rows, columns=spec.names(),
                            spec=spec, meta=_meta_finish(start))


def fig7b(spec: RunSpec = RunSpec()) -> ExperimentResult:
    """Speculative-window size sweep under the DnRDnR policy."""
    start = _meta_start()
    cells = []
    for size in FIG7B_WINDOW_SIZES:
        label = "inf" if size is None else ("none" if size == 0 else str(size))
        cells.append((label, BlockDVTAGEConfig(), size, RecoveryPolicy.DNRDNR))
    rows = _bebop_sweep(spec, cells, "fig7b")
    return ExperimentResult("fig7b", rows, columns=spec.names(),
                            spec=spec, meta=_meta_finish(start))


# ---------------------------------------------------------------------------
# Table III — storage budgets; Fig 8 — final configurations.
# ---------------------------------------------------------------------------

def table3_storage() -> ExperimentResult:
    """Computed vs published storage of the four final configurations."""
    start = _meta_start()
    out = {}
    for config in TABLE_III:
        b = breakdown(config)
        out[config.name] = {
            "computed_kb": b.total_kb,
            "paper_kb": config.paper_kb,
            "lvt_kb": b.lvt_bits / 8 / 1000,
            "vt0_kb": b.vt0_bits / 8 / 1000,
            "tagged_kb": b.tagged_bits / 8 / 1000,
            "window_kb": b.window_bits / 8 / 1000,
        }
    return ExperimentResult(
        "table3", out,
        columns=("computed_kb", "paper_kb", "lvt_kb", "vt0_kb",
                 "tagged_kb", "window_kb"),
        meta=_meta_finish(start),
    )


def fig8(spec: RunSpec = RunSpec()) -> ExperimentResult:
    """Final configurations over Baseline_6_60, plus the two references.

    Rows are {config label: {workload: speedup over Baseline_6_60}} for
    Baseline_VP_6_60, EOLE_4_60 (both idealistic instruction-based D-VTAGE)
    and the four Table III block-based configurations.
    """
    start = _meta_start()
    names = spec.names()
    base = _baselines(spec)

    jobs = [_exec().instr_vp_job(n, "d-vtage", spec.uops, spec.warmup)
            for n in names]
    jobs += [_exec().instr_vp_job(n, "d-vtage", spec.uops, spec.warmup, eole=True)
             for n in names]
    for config, window in FIG8_CONFIGS.values():
        jobs += [
            _exec().bebop_job(n, config, window, RecoveryPolicy.DNRDNR,
                              spec.uops, spec.warmup)
            for n in names
        ]
    ipcs = iter(_ipcs(jobs, "fig8"))

    out: dict[str, dict[str, float]] = {}
    for label in ("Baseline_VP_6_60", "EOLE_4_60", *FIG8_CONFIGS):
        out[label] = {name: next(ipcs) / base[name] for name in names}
    return ExperimentResult(
        "fig8", out,
        columns=("Baseline_VP_6_60", "EOLE_4_60", *FIG8_CONFIGS),
        spec=spec, meta=_meta_finish(start),
    )


# ---------------------------------------------------------------------------
# CPI stacks — where do the cycles go (repro.obs observability layer)?
# ---------------------------------------------------------------------------

#: Pipeline configurations the CPI-stack experiment breaks down.
CPI_STACK_CONFIGS = ("Baseline_6_60", "EOLE_4_60_BeBoP")


def cpi_stack(spec: RunSpec = RunSpec()) -> ExperimentResult:
    """Cycle attribution per (workload × configuration).

    Rows are ``{workload: {config: CPIStack}}`` for the no-VP baseline and
    the BeBoP default configuration on EOLE_4_60.  Runs in-process (not
    through :mod:`repro.exec`): the collector rides along with the
    simulation and is not part of the cacheable :class:`SimStats` result.
    Every stack's components sum exactly to the run's ``cycles`` —
    :meth:`CPIStack.check` raises otherwise.
    """
    from repro.eval.runner import (
        get_trace,
        make_bebop_engine,
        run_baseline,
        run_bebop_eole,
    )

    start = _meta_start()
    rows: dict[str, dict[str, object]] = {}
    for name in spec.names():
        trace = get_trace(name, spec.uops)
        stacks: dict[str, object] = {}

        collector = CPIStackCollector()
        run_baseline(trace, spec.warmup, probes=Probes(cpi=collector))
        collector.stack.config = "Baseline_6_60"
        stacks["Baseline_6_60"] = collector.stack

        collector = CPIStackCollector()
        run_bebop_eole(trace, make_bebop_engine(), spec.warmup,
                       probes=Probes(cpi=collector))
        collector.stack.config = "EOLE_4_60_BeBoP"
        stacks["EOLE_4_60_BeBoP"] = collector.stack

        rows[name] = stacks
    return ExperimentResult("cpi_stack", rows, columns=CPI_STACK_CONFIGS,
                            spec=spec, meta=_meta_finish(start))


# ---------------------------------------------------------------------------
# Prediction provenance — which component predicted, from what last value,
# and what each recovery policy's squashes cost (repro.obs.timeline).
# ---------------------------------------------------------------------------

#: Recovery policies whose squash costs the provenance experiment compares.
PROVENANCE_POLICIES = (RecoveryPolicy.IDEAL, RecoveryPolicy.REPRED,
                       RecoveryPolicy.DNRDNR, RecoveryPolicy.DNRR)


def provenance(spec: RunSpec = RunSpec()) -> ExperimentResult:
    """Prediction-provenance analytics per workload (BeBoP on EOLE_4_60).

    Rows are ``{workload: {components, window, attribution, predictions,
    squash_cost}}``: per-D-VTAGE-component prediction share and accuracy,
    the speculative-window hit / LVT / cold breakdown of prediction
    anchors, byte-tag attribution outcomes (all under the paper's default
    DnRDnR policy), plus one squash-cost summary (count / mean / max and a
    power-of-two histogram) per §IV-A recovery policy.  Like ``cpi_stack``
    this runs in-process: the :class:`~repro.obs.TimelineRecorder` rides
    along with the simulation and cannot cross the executor's process
    boundary.
    """
    from repro.eval.runner import get_trace, make_bebop_engine, run_bebop_eole
    from repro.obs import TimelineRecorder

    start = _meta_start()
    rows: dict[str, dict[str, object]] = {}
    for name in spec.names():
        trace = get_trace(name, spec.uops)
        squash_cost: dict[str, dict] = {}
        summary: dict = {}
        for policy in PROVENANCE_POLICIES:
            rec = TimelineRecorder()
            run_bebop_eole(
                trace, make_bebop_engine(policy=policy), spec.warmup,
                probes=Probes(recorder=rec),
            )
            squash_cost[policy.value] = rec.squash_cost_summary()
            if policy is RecoveryPolicy.DNRDNR:
                summary = rec.provenance_summary()
        row: dict[str, object] = dict(summary)
        row["squash_cost"] = squash_cost
        rows[name] = row
    return ExperimentResult(
        "provenance", rows,
        columns=("components", "window", "attribution", "predictions",
                 "squash_cost"),
        spec=spec, meta=_meta_finish(start),
    )


# ---------------------------------------------------------------------------
# H2P attribution — which static PCs own the recovery cycles
# (repro.obs.attrib / repro.obs.banks observability layer)?
# ---------------------------------------------------------------------------

#: Top-k cut-offs the h2p experiment/report states per-PC shares for.
H2P_SHARES = (1, 5, 10)


def h2p(spec: RunSpec = RunSpec(), top_k: int = 32,
        bank_interval: int | None = None) -> ExperimentResult:
    """Hard-to-predict PC attribution (BeBoP on EOLE_4_60, DnRDnR).

    Charges every ``vp_squash`` / ``branch_redirect`` recovery cycle of
    the CPI stack to the static PC of the mispredicting µ-op and ranks
    the worst offenders.  Rows are ``{workload: {category, stack,
    attribution[, banks]}}``: the workload's suite category (workload
    class), the run's :class:`~repro.obs.CPIStack` (so reports can state
    what fraction of those components the top PCs own — per-PC cycles
    sum exactly to ``vp_squash + branch_redirect``), the
    :meth:`~repro.obs.PCAttribution.summary` roll-up, and — when
    ``bank_interval`` is given — :class:`~repro.obs.BankTelemetry`
    occupancy/utility snapshots on that µ-op cadence.  The H2P
    concentration kernel ``h2p_hard`` is appended when the spec does not
    already name it.  Like ``cpi_stack`` this runs in-process: the
    collectors ride along with the simulation and are not part of the
    cacheable :class:`SimStats` result.
    """
    from repro.eval.runner import get_trace, make_bebop_engine, run_bebop_eole
    from repro.obs import BankTelemetry, PCAttribution
    from repro.workloads.suite import get_spec

    start = _meta_start()
    names = spec.names()
    if "h2p_hard" not in names:
        names = (*names, "h2p_hard")
    rows: dict[str, dict[str, object]] = {}
    for name in names:
        trace = get_trace(name, spec.uops)
        collector = CPIStackCollector()
        attrib = PCAttribution(top_k=top_k)
        banks = (BankTelemetry(interval=bank_interval)
                 if bank_interval is not None else None)
        run_bebop_eole(trace, make_bebop_engine(), spec.warmup,
                       probes=Probes(cpi=collector, attrib=attrib, banks=banks))
        collector.stack.config = "EOLE_4_60_BeBoP"
        collector.stack.check()
        row: dict[str, object] = {
            "category": get_spec(name).category,
            "stack": collector.stack,
            "attribution": attrib.summary(top=top_k, shares=H2P_SHARES),
        }
        if banks is not None:
            row["banks"] = banks.summary()
        rows[name] = row
    return ExperimentResult(
        "h2p", rows, columns=("category", "stack", "attribution", "banks"),
        spec=spec, meta=_meta_finish(start),
    )
