"""Batched multi-variant sweeps: the Fig 6a grid in one trace pass.

Unlike the per-figure benches (which time a figure's *regeneration*
through the scheduler/cache stack), these time the batched execution
strategy itself: the six Fig 6a predictor geometries on one workload,
run once per variant through the serial ``run_job`` path and once as a
single :func:`repro.batch.run_batched_group` call sharing the front end.

The two tests land as separate ``wall_seconds`` entries in
``BENCH_timeline.json`` (``batch_fig6a::test_bench_fig6a_grid_serial`` /
``..._batched``), so the committed trajectory carries the speedup ratio
— the perf-guard CI job asserts the batched entry keeps its advantage
over the serial one (``examples/perf_guard.py --min-batch-speedup``) on
top of the ordinary per-entry wall-time diff.

Both tests run on a warm trace (module fixture) so neither pays trace
synthesis: the ratio is pure execution strategy.  The batched test also
re-asserts bit-identity against the serial stats gathered in the same
session — redundant with ``tests/test_batch_parity.py``, but free here,
and it keeps the speedup number honest (a fast-but-wrong batch fails).
"""

import dataclasses
import time

import pytest
from conftest import run_once

from repro.batch import run_batched_group
from repro.bebop import BlockDVTAGEConfig
from repro.eval.runner import get_trace
from repro.exec.jobs import bebop_job, run_job

#: gcc is the control-dependent workload: hardest on the shared front
#: end (branch/history machinery) the batch amortises.
WORKLOAD = "gcc"
UOPS = 60_000
WARMUP = 20_000

#: The six Fig 6a predictor geometries: Npred x table size.
GRID = [
    BlockDVTAGEConfig(npred=npred, base_entries=base, tagged_entries=tagged)
    for npred in (4, 6, 8)
    for base, tagged in ((1024, 128), (2048, 256))
]

#: Loud-failure floor on the in-session speedup: two thirds of the median
#: serial/batched ratio measured once the serial walk gained the batch
#: walk's specialisations (1.73x over six runs on a shared 2-core host,
#: 1.43x-1.93x); finer regressions are caught by the perf guard's
#: --min-batch-speedup check against the committed trajectory.
MIN_SPEEDUP = 1.15

#: Conservative batched-throughput floor in simulated µops x variants
#: per wall second (current hosts do 60K+; only a ~5x regression trips).
MIN_UOPS_VARIANT_PER_SEC = 12_000

#: Serial reference results + wall, shared with the batched test so the
#: identity/speedup checks cost nothing extra inside its timed phase.
_serial: dict = {}


def _specs():
    return [
        bebop_job(WORKLOAD, config=config, uops=UOPS, warmup=WARMUP)
        for config in GRID
    ]


@pytest.fixture(scope="module", autouse=True)
def warm_trace():
    """Synthesise the trace outside either test's timed call phase."""
    get_trace(WORKLOAD, UOPS)


def test_bench_fig6a_grid_serial(benchmark):
    specs = _specs()

    def serial():
        return [run_job(spec) for spec in specs]

    t0 = time.perf_counter()
    stats = run_once(benchmark, serial)
    wall = time.perf_counter() - t0
    print(f"\n[serial ] {len(specs)} variants x {UOPS} µops in {wall:.2f}s")
    assert len(stats) == len(GRID)
    _serial["stats"] = [dataclasses.asdict(s) for s in stats]
    _serial["wall"] = wall


def test_bench_fig6a_grid_batched(benchmark):
    specs = _specs()
    t0 = time.perf_counter()
    stats = run_once(benchmark, run_batched_group, specs)
    wall = time.perf_counter() - t0
    per_sec = UOPS * len(specs) / wall
    print(f"\n[batched] {len(specs)} variants x {UOPS} µops in {wall:.2f}s "
          f"-> {per_sec:,.0f} µops·variant/sec")
    assert per_sec > MIN_UOPS_VARIANT_PER_SEC
    if _serial:      # serial reference ran earlier in this session
        assert [dataclasses.asdict(s) for s in stats] == _serial["stats"], (
            "batched grid diverged from the serial reference"
        )
        speedup = _serial["wall"] / wall
        print(f"[batched] speedup over warm serial: {speedup:.2f}x")
        assert speedup >= MIN_SPEEDUP
