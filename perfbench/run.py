"""Benchmark entry point.

    python3 perfbench/run.py --workload sim_single --seed 1 --seconds 25 \
        --trace 0

Run from the root of a checkout.  With ``--trace 0`` the workload is set
up several times (the median is ``setup_s``), measured for ``--seconds``
seconds with tracing off, and every end-to-end metric is printed, its
times scaled for host speed (``hostspeed.py``; the context line holds the
unscaled ones).  With
``--trace 1`` one fixed unit of the workload runs untraced and under the
layer proxies of ``tracing.py``; the per-layer metrics are printed and the
recorded spans are written to ``.perfbench_out/``.

Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the
line before it a ``context`` object (unscaled metrics, host calibration,
sample counts, serve hit/miss percentiles).  The exit code is non-zero when the checkout
has no simulator sources or any check fails.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Setup repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = {"sim_single": 9, "fig6a_grid": 9, "serve_mixed": 5}

#: Largest accepted share of the load threads' time outside every layer
#: span.  A layer left without proxies lands in its timed caller's self
#: time or, where no timed layer call encloses it, here.
UNATTRIBUTED_TOLERANCE = 0.02

END_TO_END = {
    "uops_per_s": "1/s",
    "cells_per_s": "1/s",
    "latency_ms_mean": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workloads.trace_gen_s": "s",
    "workloads.uops_generated": "count",
    "branch.predict_s": "s",
    "branch.train_s": "s",
    "branch.btb_s": "s",
    "branch.calls": "count",
    "history.state_push_s": "s",
    "history.calls": "count",
    "pipeline.memory_s": "s",
    "pipeline.memory_calls": "count",
    "pipeline.core_self_s": "s",
    "predictors.predict_s": "s",
    "predictors.train_s": "s",
    "predictors.squash_s": "s",
    "predictors.calls": "count",
    "predictors.adapter_self_s": "s",
    "bebop.engine_self_s": "s",
    "bebop.predictor_s": "s",
    "bebop.predictor_calls": "count",
    "bebop.fetch_groups": "count",
    "bebop.squashes": "count",
    "batch.precompute_s": "s",
    "batch.precompute_self_s": "s",
    "batch.tables_s": "s",
    "batch.walk_s": "s",
    "batch.walk_self_s": "s",
    "batch.group_self_s": "s",
    "batch.variants": "count",
    "bench.op_self_s": "s",
    "exec.run_job_s": "s",
    "exec.run_job_self_s": "s",
    "exec.cache_get_s": "s",
    "exec.cache_put_s": "s",
    "exec.cache_hits": "count",
    "exec.cache_misses": "count",
    "exec.hit_ratio": "ratio",
    "exec.sched_self_s": "s",
    "serve.encode_s": "s",
    "serve.decode_s": "s",
    "serve.http_self_ms": "ms",
    "serve.miss_wait_ms": "ms",
    "serve.dedup": "count",
    "serve.client_self_s": "s",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "untraced_wall_s": "s",
    "trace_overhead_frac": "ratio",
    "unattributed_frac": "ratio",
    "trace.wrapper_ns": "ns",
}

#: Span name -> the metric that reports its self time, for every span the
#: proxies record.
SELF_METRIC = {
    "workloads.gen": "workloads.trace_gen_s",
    "branch.predict": "branch.predict_s",
    "branch.train": "branch.train_s",
    "branch.btb": "branch.btb_s",
    "history.op": "history.state_push_s",
    "pipeline.memory": "pipeline.memory_s",
    "pipeline.run": "pipeline.core_self_s",
    "predictors.predict": "predictors.predict_s",
    "predictors.train": "predictors.train_s",
    "predictors.squash": "predictors.squash_s",
    "predictors.adapter": "predictors.adapter_self_s",
    "bebop.engine": "bebop.engine_self_s",
    "bebop.predictor": "bebop.predictor_s",
    "batch.precompute": "batch.precompute_self_s",
    "batch.tables": "batch.tables_s",
    "batch.walk": "batch.walk_self_s",
    "batch.group": "batch.group_self_s",
    "bench.op": "bench.op_self_s",
    "exec.run_job": "exec.run_job_self_s",
    "exec.cache_get": "exec.cache_get_s",
    "exec.cache_put": "exec.cache_put_s",
    "exec.sched": "exec.sched_self_s",
    "serve.encode": "serve.encode_s",
    "serve.decode": "serve.decode_s",
    "serve.client": "serve.client_self_s",
}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timings(m, setups, scaled: bool) -> dict:
    """The timed end-to-end metrics, host-speed scaled or as measured.

    ``setups`` holds (seconds, scale) pairs.
    """
    from workloads import median

    def t(seconds: float, scale: float) -> float:
        return seconds * scale if scaled else seconds

    lat_ms = [t(op.seconds, op.scale) * 1000.0 for op in m.ops]
    if m.rounds:
        # A round's time rebuilt from the median time of each of its
        # operations: one slow stretch of the host then moves the
        # throughput only as far as it moves those medians.
        by_key: dict[str, list] = {}
        for op in m.ops:
            by_key.setdefault(op.key, []).append(op)
        round_s = sum(median([t(o.seconds, o.scale) for o in ops])
                      for ops in by_key.values())
        uops_per_s = sum(ops[0].uops for ops in by_key.values()) / round_s
        cells_per_s = sum(ops[0].cells for ops in by_key.values()) / round_s
    else:
        wall = m.scaled_wall if scaled else m.wall
        uops_per_s = sum(op.uops for op in m.ops) / wall
        cells_per_s = sum(op.cells for op in m.ops) / wall
    return {
        "uops_per_s": uops_per_s,
        "cells_per_s": cells_per_s,
        # The mean, not a percentile: serve_mixed latencies are multimodal
        # (a read waits 0, 1 or 2 interpreter switch intervals behind a
        # write), and the host's load moves reads between those modes.
        "latency_ms_mean": sum(lat_ms) / len(lat_ms),
        "setup_s": median([t(*s) for s in setups]),
    }


def run_measured(wl, name: str, seconds: float) -> tuple[dict, int, int, dict]:
    from hostspeed import Clock
    from workloads import median, percentile

    setups = []
    clock = Clock()
    for _ in range(SETUP_REPEATS[name]):
        wl.close()
        t0 = time.perf_counter()
        wl.setup()
        dt = time.perf_counter() - t0
        setups.append((dt, clock.scale()))
    try:
        m = wl.measure(seconds)
    finally:
        wl.close()
    rss = m.peak_rss_mb
    if rss is None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = dict(timings(m, setups, scaled=True), peak_rss_mb=rss)
    attempted = sum(op.cells for op in m.ops)
    failed = sum(op.failed for op in m.ops)
    kernel = clock.samples + m.kernel_s
    context = {"wall": timings(m, setups, scaled=False),
               "setup_samples_s": [dt for dt, _ in setups],
               "measured_wall_s": m.wall,
               "kernel_s_median": median(kernel),
               "kernel_s_min": min(kernel), "kernel_s_max": max(kernel),
               "latency_samples": len(m.ops)}
    by_kind: dict[str, list] = {}
    for op in m.ops:
        if op.kind:
            by_kind.setdefault(op.kind, []).append(
                op.seconds * op.scale * 1000.0)
    for kind, qs in (("hit", (50, 99)), ("miss", (50, 90))):
        xs = by_kind.get(kind)
        if xs:
            context[f"{kind}_samples"] = len(xs)
            for q in qs:
                context[f"{kind}_latency_ms_p{q}"] = percentile(xs, q)
    return ({k: _metric(v, END_TO_END[k]) for k, v in metrics.items()},
            attempted, failed, context)


def run_traced(wl, name: str, seed: int) -> tuple[dict, int, int, dict]:
    import tracing

    wrapper_ns = tracing.wrapper_cost_ns()
    # A discarded warm-up pass (the first pass pays first-touch heap
    # growth), then untraced passes on both sides of the traced one: the
    # overhead is measured against their mean, which cancels a drift in
    # host speed.
    wl.traced_pass(None)
    first_wall, plain_ops = wl.traced_pass(None)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced_wall, traced_ops = wl.traced_pass(tracer)
    last_wall, _ = wl.traced_pass(None)
    untraced_wall = (first_wall + last_wall) / 2

    # The proxies must change nothing: every traced output equals its
    # untraced twin, and both pass the workload's own checks.
    failed = 0
    attempted = 0
    for a, b in zip(plain_ops, traced_ops):
        attempted += b.cells
        mismatch = a.stats != b.stats or a.key != b.key
        failed += max(a.failed, b.failed, b.cells if mismatch else 0)
    if len(plain_ops) != len(traced_ops):
        failed += 1

    total, self_, calls = tracer.merged()
    if name == "serve_mixed":
        load = [a for a in tracer.threads if a.name.startswith("load-")]
        accounted = wl.probe["load_s"]
    else:
        load = tracer.thread("MainThread")
        accounted = traced_wall
    _, load_self, _ = tracer.merged(load)
    # Every span adds its duration to its parent or to ``top``, so one
    # thread's self times sum to its depth-0 durations by construction.
    assert (abs(sum(load_self.values()) - sum(a.top for a in load))
            <= 1e-6 * accounted)
    # The benchmark's own span is not a layer: its self time is as
    # unattributed as time outside any span.
    unattributed = accounted - sum(
        s for span, s in load_self.items() if span != "bench.op")
    unattributed_frac = unattributed / accounted

    v = {metric: self_.get(span, 0.0) for span, metric in SELF_METRIC.items()}
    v.update({
        "workloads.uops_generated": calls.get("workloads.uops_generated", 0),
        "branch.calls": sum(calls.get(s, 0) for s in
                            ("branch.predict", "branch.train", "branch.btb")),
        "history.calls": calls.get("history.op", 0),
        "pipeline.memory_calls": calls.get("pipeline.memory", 0),
        "predictors.calls": sum(calls.get(f"predictors.{m}", 0) for m in
                                ("predict", "train", "squash")),
        "bebop.predictor_calls": calls.get("bebop.predictor", 0),
        "bebop.fetch_groups": calls.get("bebop.fetch_groups", 0),
        "bebop.squashes": calls.get("bebop.squashes", 0),
        "batch.precompute_s": total.get("batch.precompute", 0.0),
        "batch.walk_s": total.get("batch.walk", 0.0),
        "batch.variants": calls.get("batch.variants", 0),
        "exec.run_job_s": total.get("exec.run_job", 0.0),
        "exec.cache_hits": calls.get("exec.cache_hits", 0),
        "exec.cache_misses": calls.get("exec.cache_misses", 0),
        "serve.http_self_ms": 0.0,
        "serve.miss_wait_ms": 0.0,
        "serve.dedup": 0,
        "unattributed_s": unattributed,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "trace_overhead_frac": traced_wall / untraced_wall - 1.0,
        "unattributed_frac": unattributed_frac,
        "trace.wrapper_ns": wrapper_ns,
    })
    lookups = v["exec.cache_hits"] + v["exec.cache_misses"]
    v["exec.hit_ratio"] = v["exec.cache_hits"] / lookups if lookups else 0.0
    context = {"accounted_s": accounted,
               "unattributed_tolerance": UNATTRIBUTED_TOLERANCE}
    if name == "serve_mixed":
        probe = wl.probe
        loop_spans = sum(a.top for a in tracer.thread("serve-loop"))
        v["serve.http_self_ms"] = ((probe["loop_cpu_s"] - loop_spans)
                                   / len(traced_ops) * 1e3)
        waits = probe["miss_waits"]
        v["serve.miss_wait_ms"] = (sum(waits) / len(waits) * 1e3
                                   if waits else 0.0)
        v["serve.dedup"] = probe["dedup"]
        context["topology"] = (
            "traced serve_mixed runs the server in-process (ServerThread) so "
            "its cache and protocol calls can be wrapped; the timed run uses "
            "a separate `python -m repro.serve --jobs 1` process"
        )
    if unattributed_frac > UNATTRIBUTED_TOLERANCE:
        failed += 1
        context["unattributed"] = ("the layer spans leave too much of the "
                                   "load threads' time unattributed")

    OUT.mkdir(exist_ok=True)
    dump = {
        "workload": name, "seed": seed,
        "metrics": v,
        "spans": {span: {"total_s": total[span], "self_s": self_[span],
                         "calls": calls[span]} for span in total},
        # Per-op self times (one entry per bench.op span: a sim_single
        # cell or a fig6a_grid pass), for layer_diff.py.
        "ops": [
            dict(layers, key=op.key, seconds=op.seconds)
            for op, layers in zip(traced_ops, tracer.op_layers)
        ],
        "trace": tracer.chrome_trace(),
    }
    (OUT / f"traced-{name}.json").write_text(json.dumps(dump))
    return ({k: _metric(v[k], PER_LAYER[k]) for k in PER_LAYER},
            attempted, failed, context)


def main(argv=None) -> int:
    from hostspeed import kernel_s
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    calib = statistics.median(kernel_s() for _ in range(3))
    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, attempted, failed, context = run_traced(
            wl, args.workload, args.seed)
    else:
        metrics, attempted, failed, context = run_measured(
            wl, args.workload, args.seconds)
    context.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "calib_s": calib, "python": platform.python_version(),
        "machine": platform.machine(),
        "failed_frac": failed / attempted if attempted else 1.0,
    })
    for key, m in metrics.items():
        print(f"{args.workload:12s} {key:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"context": context}))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # The program under test is the checkout's own src/, never an
    # installed copy: without it there is nothing to measure.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
