"""Simulator core throughput: simulated µ-ops per wall-clock second.

Unlike the per-figure benches (which time paper-figure *regeneration*),
these time the simulation inner loop itself on the three hot configuration
shapes of the paper: the plain baseline core, instruction-based D-VTAGE
(Fig 5a's main subject) and the full BeBoP + EOLE stack (Fig 8 / Table 2).

Each test reports the µops/sec it measured and asserts a conservative
throughput floor (an order of magnitude below current hosts) so a
catastrophic inner-loop regression fails loudly even without the timeline
diff.  The wall seconds land in ``BENCH_timeline.json`` under
``core_throughput::...`` — the perf-guard CI job diffs them against the
committed trajectory (``examples/perf_guard.py``).
"""

import time

from conftest import run_once

from repro.eval.runner import (
    get_trace,
    make_bebop_engine,
    make_instr_predictor,
    run_baseline,
    run_bebop_eole,
    run_instr_vp,
)

#: gcc is the control-dependent workload: hardest on the history/index
#: machinery the folded-history optimisation targets.
WORKLOAD = "gcc"
UOPS = 60_000
WARMUP = 20_000

#: Conservative floors in simulated µops per wall second; current hosts do
#: 70K+ (baseline) and 27K+ (BeBoP).  Only a
#: catastrophic (~10x) regression trips these — finer regressions are
#: caught by the timeline perf guard.
MIN_UOPS_PER_SEC = {
    "baseline": 7_000,
    "d-vtage": 4_000,
    "bebop-eole": 2_500,
}


def _throughput(benchmark, fn, *args):
    trace = get_trace(WORKLOAD, UOPS)
    t0 = time.perf_counter()
    stats = run_once(benchmark, fn, trace, *args)
    wall = time.perf_counter() - t0
    uops_per_sec = UOPS / wall
    print(f"\n{UOPS} µops in {wall:.2f}s -> {uops_per_sec:,.0f} µops/sec")
    return stats, uops_per_sec


def test_throughput_baseline(benchmark):
    stats, ups = _throughput(benchmark, run_baseline, WARMUP)
    assert UOPS - WARMUP - 8 <= stats.uops <= UOPS - WARMUP
    assert ups > MIN_UOPS_PER_SEC["baseline"]


def test_throughput_dvtage(benchmark):
    stats, ups = _throughput(
        benchmark, run_instr_vp, make_instr_predictor("d-vtage"), WARMUP
    )
    assert UOPS - WARMUP - 8 <= stats.uops <= UOPS - WARMUP
    assert ups > MIN_UOPS_PER_SEC["d-vtage"]


def test_throughput_bebop_eole(benchmark):
    stats, ups = _throughput(
        benchmark, run_bebop_eole, make_bebop_engine(), WARMUP
    )
    assert UOPS - WARMUP - 8 <= stats.uops <= UOPS - WARMUP
    assert ups > MIN_UOPS_PER_SEC["bebop-eole"]
