"""Tests for the BeBoP engine: prediction flow, policies, squash handling."""

import pytest

from repro.bebop import (
    BeBoPEngine,
    BlockDVTAGE,
    BlockDVTAGEConfig,
    RecoveryPolicy,
    SpeculativeWindow,
)
from repro.pipeline import BASELINE_6_60, PipelineModel, eole_4_60
from repro.predictors.base import HistoryState
from repro.workloads import generate_trace
from repro.workloads.kernels import build_constant_kernel, build_strided_kernel


def make_engine(window=None, policy=RecoveryPolicy.DNRDNR, **cfg):
    return BeBoPEngine(
        BlockDVTAGE(BlockDVTAGEConfig(**cfg)), SpeculativeWindow(window), policy
    )


def run_workload(engine, kernel, uops=60000, warmup=20000):
    trace = generate_trace(kernel.program, uops, init_mem=kernel.init_mem)
    return PipelineModel(eole_4_60(), engine).run(trace, warmup_uops=warmup)


class TestEngineFlow:
    def test_fetch_group_returns_parallel_preds(self):
        engine = make_engine()
        kernel = build_strided_kernel(seed=1, trip=8)
        trace = generate_trace(kernel.program, 100, init_mem=kernel.init_mem)
        group = [u for u in trace.uops if u.block_pc == trace.uops[0].block_pc][:4]
        handle = engine.fetch_group(group, cycle=0, hist=HistoryState())
        assert len(handle.preds) == len(group)

    def test_fifo_populated_and_drained(self):
        engine = make_engine()
        kernel = build_strided_kernel(seed=1, trip=16)
        run_workload(engine, kernel, uops=5000, warmup=0)
        engine._apply_until(1 << 62)       # apply every deferred update
        assert engine.fifo.pushes > 0
        assert len(engine.fifo) == 0  # everything retired or squashed

    def test_strided_workload_converges(self):
        engine = make_engine()
        kernel = build_strided_kernel(seed=1, trip=48, body_fp_ops=6, fp_chains=1)
        stats = run_workload(engine, kernel)
        assert stats.vp_coverage > 0.2
        assert stats.vp_accuracy > 0.99

    def test_window_essential_for_overlapped_loops(self):
        """Fig 7b 'None': without the window, in-flight loops lose coverage."""
        kernel = build_strided_kernel(seed=1, trip=48, body_fp_ops=6, fp_chains=1)
        with_window = run_workload(make_engine(window=32), kernel)
        without = run_workload(make_engine(window=0), kernel)
        assert with_window.vp_coverage > without.vp_coverage + 0.1

    def test_constant_workload_predicted(self):
        engine = make_engine()
        kernel = build_constant_kernel(seed=5, change_period=512)
        stats = run_workload(engine, kernel)
        assert stats.vp_coverage > 0.03
        assert stats.vp_accuracy > 0.99

    def test_storage_reporting(self):
        engine = make_engine(window=32, npred=6, base_entries=256,
                             tagged_entries=256, stride_bits=8)
        assert abs(engine.storage_kb() - 32.76) < 0.01


class TestRecoveryPolicies:
    @pytest.mark.parametrize("policy", list(RecoveryPolicy))
    def test_policies_run_clean(self, policy):
        engine = make_engine(policy=policy)
        kernel = build_strided_kernel(seed=1, trip=24, body_fp_ops=4, fp_chains=1)
        stats = run_workload(engine, kernel, uops=40000, warmup=10000)
        assert stats.cycles > 0
        # Accuracy must stay high under every policy.
        if stats.vp_used:
            assert stats.vp_accuracy > 0.98

    def test_policies_roughly_equivalent(self):
        """Fig 7a: realistic policies are within a few percent of another."""
        kernel_args = dict(seed=1, trip=48, body_fp_ops=8, fp_chains=2)
        ipcs = {}
        for policy in (RecoveryPolicy.REPRED, RecoveryPolicy.DNRDNR,
                       RecoveryPolicy.DNRR):
            engine = make_engine(policy=policy)
            stats = run_workload(engine, build_strided_kernel(**kernel_args))
            ipcs[policy] = stats.ipc
        values = list(ipcs.values())
        assert max(values) / min(values) < 1.1


class TestSquashBehaviour:
    def test_window_and_fifo_rollback(self):
        engine = make_engine(window=64)
        engine.window.insert(0x40_0040, seq=10, values=[1] * 6)
        engine.window.insert(0x40_0080, seq=20, values=[2] * 6)
        engine.branch_squash(flush_seq=15, cycle=100)
        assert engine.window.lookup_entry(0x40_0080) is None
        assert engine.window.lookup_entry(0x40_0040) is not None

    def test_vp_squash_same_block_repred_drops_head(self):
        from repro.bebop.update_queue import PendingBlock
        from repro.pipeline.vp import GroupHandle

        engine = make_engine(window=64, policy=RecoveryPolicy.REPRED)
        pending = PendingBlock(5, 0x40_0040, HistoryState(), None, [0] * 6)
        engine.window.insert(0x40_0040, seq=5, values=[1] * 6)
        engine.fifo.push(pending)
        handle = GroupHandle([None], HistoryState(), ctx=pending)
        engine.vp_squash(handle, flush_seq=7, next_block_pc=0x40_0040, cycle=50)
        assert engine.window.lookup_entry(0x40_0040) is None
        assert len(engine.fifo) == 0

    def test_vp_squash_dnrdnr_keeps_head(self):
        from repro.bebop.update_queue import PendingBlock
        from repro.pipeline.vp import GroupHandle

        engine = make_engine(window=64, policy=RecoveryPolicy.DNRDNR)
        pending = PendingBlock(5, 0x40_0040, HistoryState(), None, [0] * 6)
        engine.window.insert(0x40_0040, seq=5, values=[1] * 6)
        engine.fifo.push(pending)
        handle = GroupHandle([None], HistoryState(), ctx=pending)
        engine.vp_squash(handle, flush_seq=7, next_block_pc=0x40_0040, cycle=50)
        assert engine.window.lookup_entry(0x40_0040) is not None
        assert len(engine.fifo) == 1

    def test_vp_squash_different_block_keeps_head(self):
        from repro.bebop.update_queue import PendingBlock
        from repro.pipeline.vp import GroupHandle

        engine = make_engine(window=64, policy=RecoveryPolicy.REPRED)
        pending = PendingBlock(5, 0x40_0040, HistoryState(), None, [0] * 6)
        engine.window.insert(0x40_0040, seq=5, values=[1] * 6)
        engine.fifo.push(pending)
        handle = GroupHandle([None], HistoryState(), ctx=pending)
        # Bnew != Bflush: operate as usual (§IV-A), head stays.
        engine.vp_squash(handle, flush_seq=7, next_block_pc=0x40_0100, cycle=50)
        assert engine.window.lookup_entry(0x40_0040) is not None
