"""Tests for the experiment harness (runner, experiments, reporting)."""

import pytest

from repro.eval import ExperimentResult, experiments, reporting
from repro.eval.runner import (
    RunSpec,
    clear_trace_cache,
    get_trace,
    make_bebop_engine,
    make_instr_predictor,
    set_trace_cache_limit,
)
from repro.predictors.base import ValuePredictor

TINY = RunSpec(uops=8_000, warmup=2_000, workloads=("swim", "gobmk"))


class TestRunner:
    def test_trace_cache(self):
        clear_trace_cache()
        t1 = get_trace("swim", 5000)
        t2 = get_trace("swim", 5000)
        assert t1 is t2
        t3 = get_trace("swim", 6000)
        assert t3 is not t1

    def test_trace_cache_lru_bound(self):
        clear_trace_cache()
        set_trace_cache_limit(2)
        try:
            t1 = get_trace("swim", 5000)
            get_trace("swim", 6000)
            get_trace("swim", 5000)      # refresh t1: now most recent
            get_trace("swim", 7000)      # evicts the 6000-µop trace
            assert get_trace("swim", 5000) is t1
            from repro.eval.runner import _TRACE_CACHE
            assert len(_TRACE_CACHE) == 2
            assert ("swim", 6000) not in _TRACE_CACHE
        finally:
            set_trace_cache_limit(48)
            clear_trace_cache()

    def test_trace_cache_limit_validation(self):
        with pytest.raises(ValueError):
            set_trace_cache_limit(0)

    def test_make_instr_predictor_kinds(self):
        for kind in ("lvp", "2d-stride", "vtage", "vtage-2d-stride", "d-vtage"):
            p = make_instr_predictor(kind)
            assert isinstance(p, ValuePredictor)

    def test_make_instr_predictor_unknown(self):
        with pytest.raises(ValueError):
            make_instr_predictor("oracle")

    def test_make_bebop_engine_window_conventions(self):
        assert make_bebop_engine(window=None).window.capacity is None
        assert make_bebop_engine(window=0).window.capacity == 0
        assert make_bebop_engine(window=32).window.capacity == 32

    def test_runspec_names_default_full_suite(self):
        assert len(RunSpec().names()) == 36
        assert TINY.names() == ("swim", "gobmk")


class TestExperiments:
    def test_table2_structure(self):
        r = experiments.table2_ipc(TINY)
        assert set(r) == {"swim", "gobmk"}
        assert r["swim"]["paper_ipc"] == 1.745

    def test_fig5a_structure(self):
        r = experiments.fig5a(TINY)
        assert set(r) == {"swim", "gobmk"}
        assert set(r["swim"]) == set(experiments.FIG5A_PREDICTORS)
        for row in r.values():
            for v in row.values():
                assert 0.5 < v < 5.0

    def test_fig5b_structure(self):
        r = experiments.fig5b(TINY)
        assert set(r) == {"swim", "gobmk"}

    def test_table3_structure(self):
        r = experiments.table3_storage()
        assert set(r) == {"Small_4p", "Small_6p", "Medium", "Large"}
        assert r["Medium"]["computed_kb"] == pytest.approx(32.76, abs=0.005)

    def test_fig7b_window_labels(self):
        one = RunSpec(uops=6_000, warmup=1_000, workloads=("swim",))
        r = experiments.fig7b(one)
        assert set(r) == {"inf", "64", "56", "48", "32", "16", "none"}

    def test_validate_experiment_ids(self):
        experiments.validate_experiment_ids([])
        experiments.validate_experiment_ids(["fig6a", "table2"])
        with pytest.raises(ValueError, match="fig6x"):
            experiments.validate_experiment_ids(["fig6x", "fig6a"])

    def test_aggregate(self):
        agg = experiments.aggregate({"a": 1.0, "b": 4.0})
        assert agg["min"] == 1.0 and agg["max"] == 4.0
        assert agg["gmean"] == pytest.approx(2.0)

    def test_cpi_stack_structure(self):
        r = experiments.cpi_stack(TINY)
        assert isinstance(r, ExperimentResult)
        assert set(r) == {"swim", "gobmk"}
        assert r.columns == experiments.CPI_STACK_CONFIGS
        for stacks in r.values():
            assert set(stacks) == set(experiments.CPI_STACK_CONFIGS)
            for stack in stacks.values():
                stack.check()
                assert stack.cycles > 0

    def test_h2p_structure(self):
        r = experiments.h2p(TINY)
        assert isinstance(r, ExperimentResult)
        # The H2P concentration kernel is appended to the spec's suite.
        assert set(r) == {"swim", "gobmk", "h2p_hard"}
        for name, row in r.items():
            assert row["category"] in ("INT", "FP")
            row["stack"].check()
            attribution = row["attribution"]
            want = (row["stack"].components["vp_squash"]
                    + row["stack"].components["branch_redirect"])
            assert attribution["attributed_cycles"] == want, name
            assert set(attribution["shares"]) == {1, 5, 10}
            assert "banks" not in row   # only with bank_interval

    def test_h2p_bank_telemetry_rides_along(self):
        spec = RunSpec(uops=6_000, warmup=1_000, workloads=("h2p_hard",))
        r = experiments.h2p(spec, bank_interval=2_000)
        banks = r["h2p_hard"]["banks"]
        assert set(banks["banks"]) == {"lvt", "vt0", "tagged"}
        assert banks["snapshots"] >= 2


class TestExperimentResult:
    def test_entry_points_return_typed_results(self):
        r = experiments.table2_ipc(TINY)
        assert isinstance(r, ExperimentResult)
        assert r.experiment == "table2"
        assert r.spec == TINY
        assert r.columns == ("ipc", "paper_ipc")

    def test_mapping_protocol(self):
        r = experiments.table2_ipc(TINY)
        assert set(r.keys()) == {"swim", "gobmk"}
        assert "swim" in r and "mcf" not in r
        assert len(r) == 2
        assert r.get("mcf") is None
        assert dict(r.items()) == r.rows
        assert [k for k in r] == list(r.rows)

    def test_equality_with_plain_dict(self):
        r = experiments.table3_storage()
        assert r == r.rows
        assert r == dict(r.rows)
        assert r != {"Small_4p": {}}

    def test_equality_ignores_meta(self):
        a = ExperimentResult("e", {"x": 1}, meta={"elapsed_seconds": 1.0})
        b = ExperimentResult("e", {"x": 1}, meta={"elapsed_seconds": 9.0})
        assert a == b
        assert a != ExperimentResult("other", {"x": 1})

    def test_meta_carries_provenance(self):
        r = experiments.table2_ipc(TINY)
        assert r.meta["elapsed_seconds"] > 0
        assert r.meta["jobs"] == 1

    def test_meta_cache_counters(self, tmp_path):
        import repro.exec as rexec
        rexec.configure(cache=rexec.ResultCache(root=tmp_path))
        try:
            cold = experiments.table2_ipc(TINY)
            warm = experiments.table2_ipc(TINY)
        finally:
            rexec.reset()
        assert cold.meta["cache_misses"] == 2 and cold.meta["cache_hits"] == 0
        assert warm.meta["cache_misses"] == 0 and warm.meta["cache_hits"] == 2
        assert warm == cold  # meta differs; the result does not

    def test_as_dict_sheds_provenance(self):
        r = experiments.table3_storage()
        d = r.as_dict()
        assert type(d) is dict and d == r.rows and d is not r.rows


class TestReporting:
    def test_render_per_workload(self):
        text = reporting.render_per_workload(
            "T", {"swim": {"x": 1.5}, "mcf": {"x": 0.9}}, ["x"]
        )
        assert "swim" in text and "gmean" in text and "1.500" in text

    def test_render_per_workload_insertion_order(self):
        # No column_order: columns appear as the experiment produced them,
        # not alphabetically resorted.
        rows = {"swim": {"zeta": 1.0, "alpha": 2.0}}
        text = reporting.render_per_workload("T", rows)
        header = text.splitlines()[2]
        assert header.index("zeta") < header.index("alpha")

    def test_render_per_workload_uses_result_columns(self):
        r = ExperimentResult(
            "e", {"swim": {"alpha": 1.0, "beta": 2.0}}, columns=("beta", "alpha")
        )
        header = reporting.render_per_workload("T", r).splitlines()[2]
        assert header.index("beta") < header.index("alpha")

    def test_render_cpi_stack(self):
        r = experiments.cpi_stack(
            RunSpec(uops=6_000, warmup=1_000, workloads=("swim",))
        )
        text = reporting.render_cpi_stack(r)
        assert "swim" in text and "Baseline_6_60" in text
        for component in ("base", "memory", "fu", "vp_squash"):
            assert component in text

    def test_render_h2p(self):
        r = experiments.h2p(
            RunSpec(uops=6_000, warmup=1_000, workloads=("swim",))
        )
        text = reporting.render_h2p(r)
        assert "swim" in text and "h2p_hard" in text
        assert "Per workload class" in text
        assert "top10" in text and "0x" in text

    def test_render_box_summary(self):
        text = reporting.render_box_summary("T", {"cfg": {"a": 1.0, "b": 2.0}})
        assert "cfg" in text and "min" in text

    def test_render_table2(self):
        text = reporting.render_table2(
            {"swim": {"ipc": 2.0, "paper_ipc": 1.745}}
        )
        assert "1.745" in text

    def test_render_table3(self):
        text = reporting.render_table3(experiments.table3_storage())
        assert "32.76" in text

    def test_render_partial_strides(self):
        fake = {
            64: {"speedups": {"a": 1.0}, "aggregate": {"gmean": 1.0, "min": 1.0,
                                                       "max": 1.0},
                 "storage_kb": 289.0},
        }
        text = reporting.render_partial_strides(fake)
        assert "289.0" in text
