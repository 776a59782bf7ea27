"""Tests for the workload kernels and the 36-benchmark suite."""

import pytest

from repro.workloads import all_workload_names, build_workload, generate_trace
from repro.workloads.kernels import (
    build_constant_kernel,
    build_control_dep_kernel,
    build_h2p_kernel,
    build_mixed_kernel,
    build_pointer_chase_kernel,
    build_random_kernel,
    build_strided_kernel,
)
from repro.workloads.suite import (
    EXTRA,
    SUITE,
    extra_workload_names,
    get_spec,
)


class TestSuite:
    def test_thirty_six_workloads(self):
        assert len(SUITE) == 36
        assert len(all_workload_names()) == 36

    def test_int_fp_split_matches_table2(self):
        ints = sum(1 for s in SUITE if s.category == "INT")
        fps = sum(1 for s in SUITE if s.category == "FP")
        assert ints == 18 and fps == 18

    def test_paper_ipcs_recorded(self):
        assert get_spec("mcf").paper_ipc == 0.113
        assert get_spec("mgrid").paper_ipc == 2.361

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_spec("notabenchmark")

    @pytest.mark.parametrize("name", all_workload_names())
    def test_every_workload_builds_and_runs(self, name):
        kernel = build_workload(name)
        trace = generate_trace(kernel.program, 2000, name=name,
                               init_mem=kernel.init_mem)
        # Multi-µ-op instructions may overshoot the budget by one µ-op.
        assert len(trace.uops) >= 2000  # no premature halt
        assert any(u.is_vp_eligible for u in trace.uops)

    def test_deterministic_traces(self):
        k1, k2 = build_workload("swim"), build_workload("swim")
        t1 = generate_trace(k1.program, 1000, init_mem=k1.init_mem)
        t2 = generate_trace(k2.program, 1000, init_mem=k2.init_mem)
        assert [u.value for u in t1.uops] == [u.value for u in t2.uops]

    def test_distinct_seeds_distinct_layouts(self):
        a = sum(i.length for i in build_workload("swim").program.insts)
        b = sum(i.length for i in build_workload("mgrid").program.insts)
        assert a != b

    def test_extra_workloads_resolve_but_stay_out_of_the_suite(self):
        # h2p_hard is reachable by name for the h2p experiment without
        # changing the paper's 36-workload suite (or any cached sweep).
        assert "h2p_hard" in extra_workload_names()
        assert "h2p_hard" not in all_workload_names()
        assert len(SUITE) == 36 and len(EXTRA) >= 1
        assert get_spec("h2p_hard").category == "INT"
        kernel = build_workload("h2p_hard")
        trace = generate_trace(kernel.program, 2000, name="h2p_hard",
                               init_mem=kernel.init_mem)
        assert len(trace.uops) >= 2000


class TestKernelCharacter:
    """Each kernel class must exhibit its designed value-pattern."""

    def _loads(self, kernel, n=4000):
        trace = generate_trace(kernel.program, n, init_mem=kernel.init_mem)
        return trace

    def test_strided_kernel_has_strided_loads(self):
        kernel = build_strided_kernel(seed=1, trip=32)
        trace = self._loads(kernel)
        from collections import defaultdict
        by_pc = defaultdict(list)
        for u in trace.uops:
            if u.is_load:
                by_pc[u.pc].append(u.value)
        # At least one load PC shows a constant stride over a run.
        found = False
        for values in by_pc.values():
            if len(values) > 10:
                deltas = {b - a for a, b in zip(values[4:10], values[5:11])}
                if len(deltas) == 1:
                    found = True
        assert found

    def test_pointer_chase_payload_not_strided(self):
        kernel = build_pointer_chase_kernel(seed=3, nodes=256)
        trace = self._loads(kernel)
        loads = [u for u in trace.uops if u.is_load]
        ptr_values = [u.value for u in loads[::2]][:50]
        deltas = {b - a for a, b in zip(ptr_values, ptr_values[1:])}
        assert len(deltas) > 10  # shuffled ring: no dominant stride

    def test_pointer_chase_payload_on_other_line(self):
        kernel = build_pointer_chase_kernel(seed=3, nodes=64, spread=4096)
        trace = self._loads(kernel, 600)
        loads = [u for u in trace.uops if u.is_load]
        ptr, pay = loads[0], loads[1]
        assert (ptr.mem_addr >> 6) != (pay.mem_addr >> 6)

    def test_pointer_chase_spread_validation(self):
        with pytest.raises(ValueError):
            build_pointer_chase_kernel(spread=64)

    def test_random_kernel_unpredictable_branches(self):
        kernel = build_random_kernel(seed=4)
        trace = self._loads(kernel)
        branches = [u for u in trace.uops if u.is_cond_branch]
        taken = sum(u.branch_taken for u in branches)
        assert 0.3 < taken / len(branches) < 0.7

    def test_h2p_kernel_branches_are_coin_flips(self):
        kernel = build_h2p_kernel(seed=7, trip=64, hard_branches=2)
        trace = self._loads(kernel, 8000)
        from collections import defaultdict
        by_pc = defaultdict(list)
        for u in trace.uops:
            if u.is_cond_branch:
                by_pc[u.pc].append(u.branch_taken)
        # The hard branches flip near 50/50; the loop-control branches are
        # near-always taken — cost concentrates in the former.
        rates = sorted(sum(t) / len(t) for t in by_pc.values() if len(t) > 50)
        assert any(0.3 < r < 0.7 for r in rates)
        assert rates[-1] > 0.9

    def test_h2p_kernel_stepping_loads_hold_then_step(self):
        kernel = build_h2p_kernel(seed=7, trip=64, stepping_loads=1,
                                  change_period=8)
        trace = self._loads(kernel, 8000)
        from collections import defaultdict
        by_pc = defaultdict(list)
        for u in trace.uops:
            if u.is_load:
                by_pc[u.pc].append(u.value)
        # Some load PC repeats one value for stretches, then steps to a
        # new one (the used-then-wrong vp_squash generator).
        stepped = False
        for values in by_pc.values():
            distinct = len(set(values))
            if len(values) > 40 and 1 < distinct < len(values) / 4:
                stepped = True
        assert stepped

    def test_h2p_kernel_change_period_validation(self):
        with pytest.raises(ValueError):
            build_h2p_kernel(change_period=6)

    def test_constant_kernel_reloads_constant(self):
        kernel = build_constant_kernel(seed=5, change_period=10_000)
        trace = self._loads(kernel)
        loads = [u for u in trace.uops if u.is_load]
        assert len({u.value for u in loads}) <= 2

    def test_control_dep_table_values_follow_history(self):
        kernel = build_control_dep_kernel(seed=2, period=4, arms=3)
        trace = self._loads(kernel, 8000)
        # The table load cycles through `period` slots with an increment
        # per revisit: the value sequence per slot is strided.
        loads = [u for u in trace.uops if u.is_load]
        from collections import defaultdict
        by_addr = defaultdict(list)
        for u in loads:
            by_addr[u.mem_addr].append(u.value)
        for values in by_addr.values():
            if len(values) > 4:
                deltas = {b - a for a, b in zip(values, values[1:])}
                assert deltas == {17}

    def test_mixed_kernel_runs(self):
        kernel = build_mixed_kernel(seed=6, use_divmod=True)
        trace = self._loads(kernel)
        assert any(u.uop_index == 1 and u.dest is not None for u in trace.uops)

    def test_noise_blocks_produce_mispredictable_branch(self):
        kernel = build_strided_kernel(seed=1, trip=64, noise_period=4)
        trace = self._loads(kernel, 20000)
        # The noise branch outcome is PRNG-driven: both directions occur.
        noise_pcs = {}
        for u in trace.uops:
            if u.is_cond_branch:
                noise_pcs.setdefault(u.pc, []).append(u.branch_taken)
        mixed = [
            pc for pc, outs in noise_pcs.items()
            if 0.2 < sum(outs) / len(outs) < 0.8 and len(outs) > 50
        ]
        assert mixed  # at least the PRNG-steered branch

    def test_variable_instruction_lengths(self):
        kernel = build_strided_kernel(seed=1)
        lengths = {i.length for i in kernel.program.insts}
        assert len(lengths) >= 4
        assert all(1 <= le <= 15 for le in lengths)

    def test_instructions_straddle_blocks(self):
        """Variable lengths must create non-zero boundaries (the BeBoP
        attribution problem exists)."""
        kernel = build_strided_kernel(seed=1)
        trace = generate_trace(kernel.program, 2000, init_mem=kernel.init_mem)
        boundaries = {u.boundary for u in trace.uops}
        assert len(boundaries) > 4
