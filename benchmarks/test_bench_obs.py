"""Observability-overhead guard: the disabled path must stay free.

Every hot loop touched by :mod:`repro.obs` (the pipeline walk, the BeBoP
engine's per-fetch bookkeeping, the exec cache) is instrumented behind a
boolean gate; this bench pins down what that gating costs.  It times the
same simulation with observability off (the default everyone pays) and
fully on (registry + CPI-stack collector) and asserts

* the disabled run is never slower than the enabled one beyond timing
  noise (5%) — if the "disabled" path ever starts doing real work, it
  converges on the enabled time and this trips;
* a disabled registry allocates no metric objects at all;
* enabling observability changes no simulation result (bit-identical
  :class:`SimStats`), warm-cache sweeps included.
"""

import time

import repro.exec
import repro.obs as obs
from conftest import run_once
from repro.eval import experiments
from repro.eval.runner import (
    RunSpec,
    get_trace,
    make_bebop_engine,
    run_bebop_eole,
)

OBS_SPEC = RunSpec(uops=20_000, warmup=5_000, workloads=("swim", "gobmk"))


def _time_best(fn, repeats: int = 3) -> tuple[float, object]:
    """Best-of-N wall-clock (min filters scheduler noise); returns result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_obs_disabled_overhead(benchmark):
    trace = get_trace("swim", OBS_SPEC.uops)

    def run_disabled():
        obs.disable()
        return run_bebop_eole(trace, make_bebop_engine(), OBS_SPEC.warmup)

    def run_enabled():
        obs.enable()
        stats = run_bebop_eole(trace, make_bebop_engine(), OBS_SPEC.warmup,
                               probes=obs.Probes(cpi=obs.CPIStackCollector()))
        obs.disable()
        return stats

    run_disabled()  # touch caches so both arms time warm
    t_off, plain = _time_best(run_disabled)
    t_on, observed = _time_best(run_enabled)
    run_once(benchmark, run_disabled)

    print()
    print(f"obs off {t_off:6.3f}s   obs on {t_on:6.3f}s   "
          f"overhead {t_on / t_off - 1:+.1%}")

    assert plain == observed            # instrumentation never perturbs results
    assert t_off <= t_on * 1.05         # the disabled path stays the fast path
    assert len(obs.registry()) == 0     # disabled registry allocated nothing


def test_bench_obs_warm_cache_overhead(benchmark, tmp_path):
    repro.exec.configure(jobs=1, cache=repro.exec.ResultCache(root=tmp_path))
    try:
        cold = experiments.fig5a(OBS_SPEC)   # populate the cache

        t_off, warm_off = _time_best(lambda: experiments.fig5a(OBS_SPEC))

        def warm_observed():
            obs.enable()
            result = experiments.fig5a(OBS_SPEC)
            obs.disable()
            return result

        t_on, warm_on = _time_best(warm_observed)
        run_once(benchmark, experiments.fig5a, OBS_SPEC)
    finally:
        repro.exec.reset()

    print()
    print(f"warm obs off {t_off:6.3f}s   warm obs on {t_on:6.3f}s")

    assert warm_off == cold and warm_on == cold   # results untouched by obs
    assert t_off <= t_on * 1.05                   # disabled path within noise
