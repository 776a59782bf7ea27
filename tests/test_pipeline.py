"""Unit and behavioural tests for the pipeline timing model."""

import tracemalloc

import pytest

from repro.isa import BasicBlock, Opcode, Program, StaticInst
from repro.obs import Probes, TimelineRecorder
from repro.pipeline import BASELINE_6_60, PipelineModel, baseline_vp_6_60, eole_4_60
from repro.eval.runner import make_bebop_engine
from repro.pipeline import core
from repro.pipeline.core import iter_block_instances
from repro.pipeline.vp import InstructionVPAdapter
from repro.predictors import DVTAGEPredictor
from repro.workloads import generate_trace
from repro.workloads.kernels import (
    build_pointer_chase_kernel,
    build_random_kernel,
    build_strided_kernel,
)


def _li(rd, imm, length=4):
    return StaticInst(Opcode.LI, dests=(rd,), imm=imm, length=length)


def straightline_program(n_adds=20):
    b = BasicBlock("entry")
    b.add(_li(1, 1))
    for _ in range(n_adds):
        b.add(StaticInst(Opcode.ADDI, dests=(2,), srcs=(2,), imm=1, length=4))
    return Program([b])


def serial_chain_program(n=30, op=Opcode.FADD):
    b = BasicBlock("entry")
    b.add(_li(17, 1))
    b.add(_li(18, 2))
    for _ in range(n):
        b.add(StaticInst(op, dests=(17,), srcs=(17, 18), length=4))
    return Program([b])


def run_timeline(model, trace):
    """Run ``trace`` on ``model``; the per-µ-op timelines, in order."""
    rec = TimelineRecorder()
    model.run(trace, probes=Probes(recorder=rec))
    return rec.uops()


class TestGrouping:
    def test_groups_cover_trace(self):
        kr = build_strided_kernel(seed=1, trip=8)
        trace = generate_trace(kr.program, 500, init_mem=kr.init_mem)
        groups = list(iter_block_instances(trace.uops))
        assert groups[0][0] == 0
        assert groups[-1][1] == len(trace.uops)
        for (s1, e1), (s2, e2) in zip(groups, groups[1:]):
            assert e1 == s2

    def test_groups_share_block_pc(self):
        kr = build_strided_kernel(seed=1, trip=8)
        trace = generate_trace(kr.program, 500, init_mem=kr.init_mem)
        for s, e in iter_block_instances(trace.uops):
            pcs = {u.block_pc for u in trace.uops[s:e]}
            assert len(pcs) == 1

    def test_taken_branch_ends_group(self):
        kr = build_strided_kernel(seed=1, trip=8)
        trace = generate_trace(kr.program, 500, init_mem=kr.init_mem)
        for s, e in iter_block_instances(trace.uops):
            for u in trace.uops[s:e - 1]:
                assert not (u.is_branch and u.branch_taken)


class TestTimingBasics:
    def test_empty_trace(self):
        trace = generate_trace(straightline_program(), 0)
        trace.uops = []
        stats = PipelineModel(BASELINE_6_60).run(trace)
        assert stats.cycles == 0

    def test_serial_fp_chain_rate(self):
        """A serial FADD chain must run at ~3 cycles per op."""
        trace = generate_trace(serial_chain_program(40, Opcode.FADD), 1000)
        tl = run_timeline(PipelineModel(BASELINE_6_60), trace)
        completes = [u.complete for u in tl[2:]]  # skip the LIs
        deltas = [b - a for a, b in zip(completes, completes[1:])]
        assert all(d == 3 for d in deltas)

    def test_independent_ops_overlap(self):
        """Independent 1-cycle ops must commit several per cycle in steady
        state (measured via the timeline, past the cold-start I-cache miss)."""
        b = BasicBlock("entry")
        for i in range(512):
            b.add(_li(1 + (i % 8), i))
        trace = generate_trace(Program([b]), 1000)
        tl = run_timeline(PipelineModel(BASELINE_6_60), trace)
        from collections import Counter
        per_cycle = Counter(u.commit for u in tl[256:])
        assert max(per_cycle.values()) >= 4

    def test_issue_width_bounds_throughput(self):
        narrow = BASELINE_6_60.with_(name="narrow", issue_width=1)
        b = BasicBlock("entry")
        for i in range(128):
            b.add(StaticInst(Opcode.ADD, dests=(1 + i % 8,), srcs=(9, 10), length=4))
        trace = generate_trace(Program([b]), 1000)
        wide_stats = PipelineModel(BASELINE_6_60).run(trace)
        narrow_stats = PipelineModel(narrow).run(trace)
        assert narrow_stats.cycles > wide_stats.cycles

    def test_div_not_pipelined(self):
        b = BasicBlock("entry")
        b.add(_li(1, 100))
        b.add(_li(2, 3))
        for i in range(8):
            b.add(StaticInst(Opcode.DIV, dests=(3 + i % 4,), srcs=(1, 2), length=4))
        trace = generate_trace(Program([b]), 100)
        tl = run_timeline(PipelineModel(BASELINE_6_60), trace)
        div_completes = sorted(u.complete for u in tl[2:])
        deltas = [b - a for a, b in zip(div_completes, div_completes[1:])]
        assert all(d >= 25 for d in deltas)

    def test_pointer_chase_serialises(self):
        kr = build_pointer_chase_kernel(seed=3, nodes=512, spread=4096,
                                        noise_period=1 << 20)
        trace = generate_trace(kr.program, 2000, init_mem=kr.init_mem)
        stats = PipelineModel(BASELINE_6_60).run(trace)
        # Each node costs a serialised memory access: IPC far below 1.
        assert stats.ipc < 0.5

    def test_branch_mispredicts_cost_cycles(self):
        kr = build_random_kernel(seed=4, branch_entropy_bits=1)
        trace = generate_trace(kr.program, 5000, init_mem=kr.init_mem)
        stats = PipelineModel(BASELINE_6_60).run(trace)
        assert stats.branch_mispredicts > 100
        assert stats.ipc < 2.0

    def test_commits_in_order(self):
        kr = build_strided_kernel(seed=1, trip=16)
        trace = generate_trace(kr.program, 2000, init_mem=kr.init_mem)
        tl = run_timeline(PipelineModel(BASELINE_6_60), trace)
        commits = [u.commit for u in tl]
        assert all(b >= a for a, b in zip(commits, commits[1:]))

    def test_commit_width_respected(self):
        kr = build_strided_kernel(seed=1, trip=16)
        trace = generate_trace(kr.program, 3000, init_mem=kr.init_mem)
        tl = run_timeline(PipelineModel(BASELINE_6_60), trace)
        from collections import Counter
        per_cycle = Counter(u.commit for u in tl)
        assert max(per_cycle.values()) <= BASELINE_6_60.commit_width

    def test_warmup_excluded(self):
        kr = build_strided_kernel(seed=1, trip=16)
        trace = generate_trace(kr.program, 4000, init_mem=kr.init_mem)
        full = PipelineModel(BASELINE_6_60).run(trace)
        warm = PipelineModel(BASELINE_6_60).run(trace, warmup_uops=2000)
        assert warm.uops < full.uops
        assert warm.cycles < full.cycles

    def test_deterministic(self):
        kr = build_strided_kernel(seed=1, trip=16)
        trace = generate_trace(kr.program, 3000, init_mem=kr.init_mem)
        a = PipelineModel(BASELINE_6_60).run(trace)
        b = PipelineModel(BASELINE_6_60).run(trace)
        assert a.cycles == b.cycles


class TestBoundedMachineState:
    def test_state_peak_independent_of_trace_length(self):
        """The per-run machine state (dispatch/issue/FU/commit occupancy maps,
        store-forwarding windows) is pruned behind the dispatch and commit
        fronts, so its peak size must not grow with the trace length."""
        kr = build_strided_kernel(seed=1, trip=16)

        def peak(n_uops, config=BASELINE_6_60, adapter=None):
            trace = generate_trace(kr.program, n_uops, init_mem=kr.init_mem)
            model = PipelineModel(config, adapter)
            model.run(trace)
            return model.debug_state_peak

        short = peak(12000)
        long = peak(72000)
        assert short > 0
        # 6x the µ-ops must not move the peak beyond prune-interval jitter
        # (unbounded state would grow it roughly 6x).
        assert long <= short * 1.1

    def test_state_peak_bounded_with_vp(self):
        kr = build_strided_kernel(seed=1, trip=16)

        def peak(n_uops):
            trace = generate_trace(kr.program, n_uops, init_mem=kr.init_mem)
            model = PipelineModel(
                baseline_vp_6_60(), InstructionVPAdapter(DVTAGEPredictor())
            )
            model.run(trace)
            return model.debug_state_peak

        assert peak(60000) <= peak(12000) * 1.1

    def test_state_peak_bounded_with_bebop(self):
        kr = build_strided_kernel(seed=1, trip=16)

        def peak(n_uops):
            trace = generate_trace(kr.program, n_uops, init_mem=kr.init_mem)
            model = PipelineModel(eole_4_60(), make_bebop_engine())
            model.run(trace)
            return model.debug_state_peak

        short = peak(12000)
        assert short > 0
        assert peak(72000) <= short * 1.1

    @pytest.mark.parametrize("kernel", ["pointer_chase", "strided"])
    def test_issue_ring_size_is_timing_neutral(self, kernel, monkeypatch):
        """The issue/FU occupancy ring slides and grows with the dispatch
        front; an 8-cycle start (sliding and doubling all the time) must
        schedule exactly like the default."""
        if kernel == "pointer_chase":
            kr = build_pointer_chase_kernel(seed=3, nodes=512, spread=4096,
                                            noise_period=1 << 20)
        else:
            kr = build_strided_kernel(seed=1, trip=16, body_fp_ops=6,
                                      fp_chains=1)
        trace = generate_trace(kr.program, 4000, init_mem=kr.init_mem)
        want = PipelineModel(eole_4_60(), make_bebop_engine()).run(trace)
        monkeypatch.setattr(core, "_RING_CYCLES", 8)
        got = PipelineModel(eole_4_60(), make_bebop_engine()).run(trace)
        assert got == want

    @pytest.mark.parametrize("bebop", [False, True], ids=["baseline", "bebop"])
    def test_run_peak_allocation_independent_of_trace_length(self, bebop):
        """Everything ``run`` allocates beyond the trace itself — machine
        state, memos, in-flight predictor bookkeeping — must stay flat when
        the trace grows: a per-µop or per-branch stream would grow the
        peak roughly with the trace."""
        kr = build_strided_kernel(seed=1, trip=16)

        def peak(n_uops):
            trace = generate_trace(kr.program, n_uops, init_mem=kr.init_mem)
            if bebop:
                model = PipelineModel(eole_4_60(), make_bebop_engine())
            else:
                model = PipelineModel(BASELINE_6_60)
            tracemalloc.start()
            try:
                model.run(trace)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short = peak(8000)
        assert peak(48000) <= short * 1.2


class TestVPIntegration:
    def test_vp_requires_adapter(self):
        with pytest.raises(ValueError):
            PipelineModel(baseline_vp_6_60())

    def test_vp_speeds_up_strided(self):
        kr = build_strided_kernel(seed=1, trip=64, body_fp_ops=6, fp_chains=1)
        trace = generate_trace(kr.program, 60000, init_mem=kr.init_mem)
        base = PipelineModel(BASELINE_6_60).run(trace, warmup_uops=20000)
        vp = PipelineModel(
            baseline_vp_6_60(), InstructionVPAdapter(DVTAGEPredictor())
        ).run(trace, warmup_uops=20000)
        assert vp.ipc > base.ipc * 1.1
        assert vp.vp_accuracy > 0.99

    def test_vp_accuracy_enforced_by_fpc(self):
        """Used predictions must be overwhelmingly correct (paper: >99.5%)."""
        kr = build_strided_kernel(seed=1, trip=64)
        trace = generate_trace(kr.program, 60000, init_mem=kr.init_mem)
        vp = PipelineModel(
            baseline_vp_6_60(), InstructionVPAdapter(DVTAGEPredictor())
        ).run(trace, warmup_uops=20000)
        assert vp.vp_used > 0
        assert vp.vp_accuracy > 0.995

    def test_random_workload_never_predicted(self):
        kr = build_random_kernel(seed=4)
        trace = generate_trace(kr.program, 20000, init_mem=kr.init_mem)
        vp = PipelineModel(
            baseline_vp_6_60(), InstructionVPAdapter(DVTAGEPredictor())
        ).run(trace, warmup_uops=5000)
        assert vp.vp_coverage < 0.05


class TestEOLE:
    def test_eole_reduced_issue_close_to_vp6(self):
        """Fig 5b: EOLE_4_60 must not lose much vs Baseline_VP_6_60."""
        kr = build_strided_kernel(seed=1, trip=64, body_fp_ops=6, fp_chains=2)
        trace = generate_trace(kr.program, 60000, init_mem=kr.init_mem)
        vp6 = PipelineModel(
            baseline_vp_6_60(), InstructionVPAdapter(DVTAGEPredictor())
        ).run(trace, warmup_uops=20000)
        eole4 = PipelineModel(
            eole_4_60(), InstructionVPAdapter(DVTAGEPredictor())
        ).run(trace, warmup_uops=20000)
        assert eole4.ipc > vp6.ipc * 0.9

    def test_eole_counts_early_and_late(self):
        kr = build_strided_kernel(seed=1, trip=64)
        trace = generate_trace(kr.program, 40000, init_mem=kr.init_mem)
        eole = PipelineModel(
            eole_4_60(), InstructionVPAdapter(DVTAGEPredictor())
        ).run(trace, warmup_uops=10000)
        assert eole.early_executed > 0
        assert eole.late_executed > 0

    def test_eole_without_vp_wouldnt_construct(self):
        config = eole_4_60()
        assert config.vp_enabled
        assert config.issue_width == 4
