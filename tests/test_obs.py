"""Tests for the observability layer (registry, trace, CPI stacks, merge)."""

import dataclasses
import json
import re

import pytest

import repro.exec as rexec
import repro.obs as obs
from repro.obs import (
    BankTelemetry,
    CPI_COMPONENTS,
    CPIStack,
    CPIStackCollector,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    PCAttribution,
    Probes,
    TimelineRecorder,
    TraceBuffer,
    prometheus_name,
)
from repro.pipeline.stats import SimStats
from repro.eval.runner import (
    get_trace,
    make_bebop_engine,
    make_instr_predictor,
    run_baseline,
    run_bebop_eole,
    run_instr_vp,
)

UOPS, WARMUP = 8_000, 2_000


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability off."""
    obs.disable()
    rexec.reset()
    yield
    obs.disable()
    rexec.reset()


# ---------------------------------------------------------------------------
# Metrics registry.
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("a/b")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.value("a/b") == 5
        assert reg.counter("a/b") is c

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(3)
        g.set(7)
        assert g.value == 7

    def test_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("occ")
        for v in (0, 1, 2, 5, 32):
            h.observe(v)
        assert h.count == 5
        assert h.min == 0 and h.max == 32
        assert h.total / h.count == pytest.approx(8.0)
        snap = reg.snapshot()
        assert snap["occ/count"] == 5
        assert snap["occ/sum"] == 40
        assert snap["occ/bucket/le_2^0"] == 2     # 0 and 1
        assert snap["occ/bucket/le_2^1"] == 1     # 2
        assert snap["occ/bucket/le_2^3"] == 1     # 5
        assert snap["occ/bucket/le_2^5"] == 1     # 32

    def test_empty_histogram_snapshot(self):
        reg = MetricsRegistry()
        reg.histogram("occ")
        assert reg.snapshot() == {"occ/count": 0}

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_disabled_registry_allocates_nothing(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is NULL_METRIC
        assert reg.gauge("b") is NULL_METRIC
        assert reg.histogram("c") is NULL_METRIC
        reg.counter("a").inc(100)
        reg.histogram("c").observe(5)
        assert len(reg) == 0
        assert reg.snapshot() == {}

    def test_snapshot_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a").inc()
        assert list(reg.snapshot()) == ["a", "z"]

    def test_tree(self):
        reg = MetricsRegistry()
        reg.counter("exec/cache/hits").inc(3)
        reg.counter("exec/job/count").inc(2)
        assert reg.tree() == {"exec": {"cache": {"hits": 3},
                                       "job": {"count": 2}}}

    def test_merge_sums_counters(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(1)
        reg.merge({"n": 10, "m": 2})
        reg.merge({"m": 3})
        assert reg.value("n") == 11
        assert reg.value("m") == 5

    def test_merge_extrema(self):
        reg = MetricsRegistry()
        reg.merge({"occ/min": 4, "occ/max": 9})
        reg.merge({"occ/min": 2, "occ/max": 7})
        assert reg.value("occ/min") == 2
        assert reg.value("occ/max") == 9

    def test_merge_first_extremum_overwrites_default(self):
        # A fresh Gauge holds 0.0; the first merged */min must not lose to it.
        reg = MetricsRegistry()
        reg.merge({"occ/min": 5})
        assert reg.value("occ/min") == 5

    def test_merge_order_independent_for_ints(self):
        snaps = [{"n": 3, "occ/min": 2}, {"n": 4, "occ/min": 7},
                 {"n": 1, "occ/min": 5}]
        a, b = MetricsRegistry(), MetricsRegistry()
        for s in snaps:
            a.merge(s)
        for s in reversed(snaps):
            b.merge(s)
        assert a.snapshot() == b.snapshot()

    def test_merge_into_disabled_is_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.merge({"n": 5})
        assert len(reg) == 0

    def test_merge_empty_registry_and_empty_snapshot(self):
        # Both degenerate directions: an empty snapshot into a populated
        # registry is a no-op, and any snapshot into a fresh registry
        # reproduces it exactly.
        reg = MetricsRegistry()
        reg.counter("n").inc(3)
        reg.merge({})
        assert reg.snapshot() == {"n": 3}
        fresh = MetricsRegistry()
        fresh.merge(reg.snapshot())
        assert fresh.snapshot() == reg.snapshot()

    def test_merge_bucket_boundary_mismatch_raises(self):
        # A worker built with different histogram bucketing must be
        # rejected, not silently summed into the wrong buckets.
        reg = MetricsRegistry()
        for bad in ("occ/bucket/le_10", "occ/bucket/le_2^x",
                    "occ/bucket/2^3", "occ/bucket/le_2^3.5"):
            with pytest.raises(ValueError, match="bucket boundary mismatch"):
                reg.merge({bad: 1})
        # The power-of-two key scheme itself still merges (summing).
        reg.merge({"occ/bucket/le_2^3": 2, "occ/count": 2, "occ/sum": 10})
        reg.merge({"occ/bucket/le_2^3": 1, "occ/count": 1, "occ/sum": 5})
        assert reg.value("occ/bucket/le_2^3") == 3
        assert reg.value("occ/count") == 3
        assert reg.value("occ/sum") == 15

    def test_merge_kind_collision_across_registries_raises(self):
        # merge() routes ``*/min``/``*/max`` keys through Gauge extremum
        # semantics and everything else through Counter summing; a name
        # already registered as the other kind must hit the registry's
        # kind guard, not silently corrupt the metric.
        reg = MetricsRegistry()
        reg.counter("lat/min").inc(1)
        with pytest.raises(TypeError, match="already registered"):
            reg.merge({"lat/min": 4})
        reg = MetricsRegistry()
        reg.gauge("jobs").set(2)
        with pytest.raises(TypeError, match="already registered"):
            reg.merge({"jobs": 4})

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        reg.reset()
        assert reg.snapshot() == {}


# ---------------------------------------------------------------------------
# Prometheus text exposition.
# ---------------------------------------------------------------------------

#: One sample line of the text exposition format v0.0.4 (as this registry
#: emits it: no labels except the histogram ``le``, no timestamps).
_PROM_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{le="[^"]+"\})? '
    r'(?:[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Inf|NaN))$'
)


def _check_exposition(text):
    """Validate every line; returns the set of family names."""
    families = set()
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert _PROM_SAMPLE.match(line), f"bad exposition line: {line!r}"
        families.add(line.split("{")[0].split(" ")[0])
    return families


class TestPrometheusExposition:
    def test_name_sanitization(self):
        assert prometheus_name("exec/cache/hits") == "repro_exec_cache_hits"
        assert prometheus_name("a-b.c d", prefix="x_") == "x_a_b_c_d"

    def test_counter_gauge_and_histogram_families(self):
        reg = MetricsRegistry()
        reg.counter("serve/requests").inc(7)
        reg.gauge("pool/depth").set(3)
        h = reg.histogram("lat_ms")
        for v in (0.5, 1, 2, 5, 32):
            h.observe(v)
        text = reg.to_prometheus()
        families = _check_exposition(text)
        assert "repro_serve_requests" in families
        assert "repro_pool_depth" in families
        assert {"repro_lat_ms_bucket", "repro_lat_ms_sum",
                "repro_lat_ms_count", "repro_lat_ms_min",
                "repro_lat_ms_max"} <= families
        # One HELP/TYPE pair per family, no duplicates.
        types = [l for l in text.splitlines() if l.startswith("# TYPE ")]
        assert len(types) == len(set(types))
        assert "# TYPE repro_lat_ms histogram" in types

    def test_histogram_buckets_cumulative_to_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("occ")
        for v in (0, 1, 2, 5, 32):
            h.observe(v)
        lines = reg.to_prometheus().splitlines()
        buckets = [l for l in lines if '_bucket{le="' in l]
        counts = [int(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert buckets[-1].startswith('repro_occ_bucket{le="+Inf"}')
        assert counts[-1] == 5
        assert "repro_occ_count 5" in lines
        assert "repro_occ_sum 40" in lines

    def test_exclude_skips_raw_names(self):
        reg = MetricsRegistry()
        reg.counter("serve/requests").inc(1)
        reg.counter("obs/other").inc(2)
        text = reg.to_prometheus(exclude=frozenset({"serve/requests"}))
        families = _check_exposition(text)
        assert "repro_serve_requests" not in families
        assert "repro_obs_other" in families

    def test_sanitize_collision_first_wins(self):
        reg = MetricsRegistry()
        reg.counter("a/b").inc(1)
        reg.counter("a.b").inc(9)
        text = reg.to_prometheus()
        # "a.b" sorts before "a/b"; exactly one family may survive.
        assert text.count("# TYPE repro_a_b counter") == 1
        assert "repro_a_b 9" in text.splitlines()

    def test_empty_registry_is_empty_exposition(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_non_finite_values(self):
        reg = MetricsRegistry()
        reg.gauge("weird").set(float("inf"))
        text = reg.to_prometheus()
        assert "repro_weird +Inf" in text.splitlines()
        _check_exposition(text)


# ---------------------------------------------------------------------------
# Trace buffer.
# ---------------------------------------------------------------------------

class TestTraceBuffer:
    def test_emit_and_filter(self):
        buf = TraceBuffer(capacity=8)
        buf.emit("a", x=1)
        buf.emit("b")
        buf.emit("a", x=2)
        assert len(buf.events()) == 3
        assert [e["x"] for e in buf.events("a")] == [1, 2]
        assert all("ts" in e for e in buf.events())

    def test_ring_bound_and_dropped(self):
        buf = TraceBuffer(capacity=4)
        for i in range(10):
            buf.emit("e", i=i)
        assert len(buf.events()) == 4
        assert buf.dropped == 6
        assert [e["i"] for e in buf.events()] == [6, 7, 8, 9]

    def test_span_records_duration_and_fields(self):
        clock_values = iter([1.0, 3.5, 3.5])  # t0, span end, event ts
        buf = TraceBuffer(clock=lambda: next(clock_values))
        with buf.span("work", label="x") as span:
            span["items"] = 7
        (event,) = buf.events("span")
        assert event["name"] == "work"
        assert event["seconds"] == pytest.approx(2.5)
        assert event["label"] == "x" and event["items"] == 7

    def test_disabled_buffer_records_nothing(self):
        buf = TraceBuffer(enabled=False)
        buf.emit("a")
        with buf.span("s"):
            pass
        assert len(buf.events()) == 0

    def test_jsonl_roundtrip(self, tmp_path):
        buf = TraceBuffer()
        buf.emit("a", n=1)
        buf.emit("b", n=2)
        path = tmp_path / "trace.jsonl"
        written = buf.export_jsonl(path, header={"kind": "metrics", "m": 3})
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert written == 3
        assert records[0] == {"kind": "metrics", "m": 3}
        assert records[1]["n"] == 1

    def test_overflow_evicts_oldest_first_exactly(self):
        """The ring keeps the newest ``capacity`` events in emit order; the
        eviction front never reorders survivors."""
        buf = TraceBuffer(capacity=3)
        for i in range(7):
            buf.emit("e", i=i)
            kept = [e["i"] for e in buf.events()]
            assert kept == list(range(max(0, i - 2), i + 1))
        assert buf.dropped == 4
        assert buf.emitted == 7

    def test_dropped_counter_survives_further_reads(self):
        buf = TraceBuffer(capacity=2)
        for i in range(5):
            buf.emit("e", i=i)
        assert buf.dropped == 3
        buf.events()       # reading must not consume or reset anything
        assert buf.dropped == 3

    def test_export_after_overflow_writes_survivors_plus_header(self, tmp_path):
        """Header round-trip under overflow: the file holds the header plus
        exactly the surviving (newest) events, oldest first."""
        buf = TraceBuffer(capacity=4)
        for i in range(9):
            buf.emit("e", i=i)
        path = tmp_path / "overflow.jsonl"
        header = {"kind": "metrics", "dropped": buf.dropped}
        written = buf.export_jsonl(path, header=header)
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert written == len(records) == 5
        assert records[0] == {"kind": "metrics", "dropped": 5}
        assert [r["i"] for r in records[1:]] == [5, 6, 7, 8]

    def test_export_without_header_has_no_header_record(self, tmp_path):
        buf = TraceBuffer(capacity=4)
        buf.emit("a", i=0)
        path = tmp_path / "plain.jsonl"
        assert buf.export_jsonl(path) == 1
        (record,) = [json.loads(l) for l in path.read_text().splitlines()]
        assert record["kind"] == "a"


# ---------------------------------------------------------------------------
# Module-level current registry/trace + scoping.
# ---------------------------------------------------------------------------

class TestObsModule:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.counter("x") is NULL_METRIC

    def test_enable_disable(self):
        obs.enable()
        assert obs.enabled()
        obs.counter("x").inc()
        assert obs.registry().value("x") == 1
        obs.trace().emit("e")
        assert len(obs.trace().events()) == 1
        obs.disable()
        assert not obs.enabled()
        assert obs.counter("x") is NULL_METRIC

    def test_enable_starts_clean(self):
        obs.enable()
        obs.counter("x").inc()
        obs.enable()
        assert obs.registry().snapshot() == {}

    def test_scoped_registry(self):
        obs.enable()
        obs.counter("outer").inc()
        with obs.scoped_registry() as inner:
            obs.counter("inner").inc()
            assert obs.registry() is inner
        assert "inner" not in obs.registry().snapshot()
        assert obs.registry().value("outer") == 1


# ---------------------------------------------------------------------------
# CPI stacks.
# ---------------------------------------------------------------------------

def _stack_for(workload: str, config: str) -> tuple[CPIStack, SimStats]:
    trace = get_trace(workload, UOPS)
    collector = CPIStackCollector()
    if config == "baseline":
        stats = run_baseline(trace, WARMUP, probes=Probes(cpi=collector))
    elif config == "instr_vp":
        stats = run_instr_vp(trace, make_instr_predictor("d-vtage"), WARMUP,
                             probes=Probes(cpi=collector))
    else:  # bebop
        stats = run_bebop_eole(trace, make_bebop_engine(), WARMUP,
                               probes=Probes(cpi=collector))
    return collector.stack, stats


class TestCPIStack:
    # One representative per workload behaviour class: FP/fu-bound (swim),
    # memory-bound (mcf), branch-misprediction-bound (gobmk), front-end /
    # mixed integer (gcc), loop-regular (libquantum), store-heavy (vortex).
    WORKLOADS = ("swim", "mcf", "gobmk", "gcc", "libquantum", "vortex")

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("config", ("baseline", "instr_vp", "bebop"))
    def test_stack_sums_exactly_to_cycles(self, workload, config):
        stack, stats = _stack_for(workload, config)
        assert stack.cycles == stats.cycles
        assert sum(stack.components.values()) == stats.cycles
        stack.check()  # must not raise
        assert set(stack.components) == set(CPI_COMPONENTS)
        assert all(v >= 0 for v in stack.components.values())

    def test_attribution_matches_workload_character(self):
        mcf, _ = _stack_for("mcf", "baseline")
        assert mcf.fraction("memory") > 0.5
        gobmk, _ = _stack_for("gobmk", "baseline")
        assert gobmk.fraction("branch_redirect") > 0.5
        swim, _ = _stack_for("swim", "baseline")
        assert swim.fraction("fu") > 0.5

    def test_collector_is_invisible_to_results(self):
        trace = get_trace("swim", UOPS)
        plain = run_baseline(trace, WARMUP)
        observed = run_baseline(
            trace, WARMUP, probes=Probes(cpi=CPIStackCollector())
        )
        assert plain == observed

    def test_obs_enabled_run_bit_identical(self):
        trace = get_trace("gcc", UOPS)
        plain = run_bebop_eole(trace, make_bebop_engine(), WARMUP)
        obs.enable()
        observed = run_bebop_eole(trace, make_bebop_engine(), WARMUP,
                                  probes=Probes(cpi=CPIStackCollector()))
        assert len(obs.registry()) > 0  # the engine really recorded metrics
        obs.disable()
        assert plain == observed

    def test_check_raises_on_mismatch(self):
        stack = CPIStack(cycles=10, insts=5)
        stack.components["base"] = 9
        with pytest.raises(AssertionError, match="sums to 9"):
            stack.check()

    def test_finish_pads_clamped_cycles_into_base(self):
        # A run whose measured window committed nothing still reports
        # cycles=1 (the max(1, .) clamp); the stack must absorb it.
        collector = CPIStackCollector()
        stack = collector.finish(SimStats(cycles=1, insts=0))
        assert stack.components["base"] == 1
        stack.check()

    def test_fractions_and_cpi(self):
        stack, stats = _stack_for("swim", "baseline")
        assert sum(stack.fraction(c) for c in CPI_COMPONENTS) == pytest.approx(1.0)
        assert stack.cpi == pytest.approx(stats.cycles / stats.insts)
        assert (sum(stack.components[c] for c in CPI_COMPONENTS) / stack.insts
                == pytest.approx(stack.cpi))

    def test_as_dict_component_order(self):
        stack, _ = _stack_for("swim", "baseline")
        d = stack.as_dict()
        assert tuple(d["components"]) == CPI_COMPONENTS
        assert d["cycles"] == stack.cycles


class TestProbes:
    def test_empty_trace_seals_every_probe(self):
        full = get_trace("swim", UOPS)
        empty = dataclasses.replace(full, uops=[], inst_count=0)
        probes = Probes(
            cpi=CPIStackCollector(),
            recorder=TimelineRecorder(),
            attrib=PCAttribution(),
            banks=BankTelemetry(interval=1_000),
        )
        stats = run_bebop_eole(empty, make_bebop_engine(), 0, probes=probes)
        assert stats == run_bebop_eole(empty, make_bebop_engine(), 0)
        assert stats.cycles == 0
        stack = probes.cpi.stack
        assert stack is not None
        assert (stack.workload, stack.cycles) == ("swim", 0)
        stack.check()
        assert (probes.attrib.workload, probes.attrib.cycles) == ("swim", 0)
        assert set(probes.banks.snapshots[0]["banks"]) == {"lvt", "vt0", "tagged"}
        assert [(s["uop"], s["final"]) for s in probes.banks.snapshots] == [
            (0, True)
        ]
        assert probes.recorder.recorded == 0


# ---------------------------------------------------------------------------
# Worker-process metric merge (scheduler integration).
# ---------------------------------------------------------------------------

def _sweep_specs():
    specs = [rexec.baseline_job(w, UOPS, WARMUP) for w in ("swim", "gcc")]
    specs.append(rexec.bebop_job("gobmk", uops=UOPS, warmup=WARMUP))
    specs.append(rexec.instr_vp_job("mcf", "d-vtage", UOPS, WARMUP))
    return specs


def _run_observed(jobs: int):
    obs.enable()
    rexec.configure(jobs=jobs)
    results = rexec.run_specs(_sweep_specs(), label=f"obs-{jobs}")
    snapshot = obs.registry().snapshot()
    kinds = [e["kind"] for e in obs.trace().events()]
    obs.disable()
    rexec.reset()
    return results, snapshot, kinds


class TestWorkerMetricMerge:
    def test_parallel_merge_matches_serial(self):
        r1, s1, k1 = _run_observed(jobs=1)
        r2, s2, k2 = _run_observed(jobs=2)
        # Results are bit-identical regardless of worker count...
        assert r1 == r2
        # ...and so is every integer-valued metric (float ones — wall-clock
        # seconds, histogram sums over floats — legitimately differ).
        ints1 = {k: v for k, v in s1.items() if isinstance(v, int)}
        ints2 = {k: v for k, v in s2.items() if isinstance(v, int)}
        assert ints1 == ints2
        assert ints1["exec/job/count"] == 4
        # The BeBoP cell's engine metrics made it back from the worker.
        assert ints1["bebop/spec_window/occupancy/count"] > 0
        # Both modes traced one event per job plus the batch span.
        assert k1.count("exec/job") == 4 and k2.count("exec/job") == 4
        assert k1.count("span") == 1 and k2.count("span") == 1

    def test_batch_span_counts_cache_hits(self, tmp_path):
        obs.enable()
        cache = rexec.ResultCache(root=tmp_path)
        rexec.configure(cache=cache)
        specs = [rexec.baseline_job("swim", UOPS, WARMUP)]
        rexec.run_specs(specs, label="cold")
        rexec.run_specs(specs, label="warm")
        spans = obs.trace().events("span")
        assert [s["computed"] for s in spans] == [1, 0]
        assert [s["cached"] for s in spans] == [0, 1]
        snap = obs.registry().snapshot()
        assert snap["exec/cache/misses"] == 1
        assert snap["exec/cache/hits"] == 1
        assert snap["exec/cache/stores"] == 1

    def test_experiment_meta_carries_metrics_snapshot(self):
        from repro.eval import experiments
        from repro.eval.runner import RunSpec
        tiny = RunSpec(uops=6_000, warmup=1_000, workloads=("swim",))
        obs.enable()
        r = experiments.table2_ipc(tiny)
        obs.disable()
        assert r.meta["metrics"]["exec/job/count"] == 1
        plain = experiments.table2_ipc(tiny)
        assert "metrics" not in plain.meta
        assert r == plain  # meta (including metrics) never affects equality

    def test_disabled_obs_adds_no_metrics(self, tmp_path):
        cache = rexec.ResultCache(root=tmp_path)
        rexec.configure(cache=cache)
        rexec.run_specs([rexec.baseline_job("swim", UOPS, WARMUP)])
        assert len(obs.registry()) == 0
        assert len(obs.trace().events()) == 0
        # The cache's own instance counters still work without obs.
        assert cache.misses == 1 and cache.stores == 1
