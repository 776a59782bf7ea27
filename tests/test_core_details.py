"""Detailed behavioural tests of the timing model's resource constraints."""

from repro.isa import BasicBlock, Opcode, Program, StaticInst
from repro.obs import Probes, TimelineRecorder
from repro.pipeline import BASELINE_6_60, PipelineModel, baseline_vp_6_60
from repro.pipeline.vp import InstructionVPAdapter, PredUse
from repro.predictors import DVTAGEPredictor
from repro.workloads import generate_trace
from repro.workloads.kernels import build_strided_kernel


def _li(rd, imm, length=4):
    return StaticInst(Opcode.LI, dests=(rd,), imm=imm, length=length)


class TestMemoryDependences:
    def test_store_to_load_ordering(self):
        """A load from a just-stored address waits for the store."""
        b = BasicBlock("entry")
        b.add(_li(1, 0x9000))
        b.add(_li(2, 5))
        # Long-latency producer for the store data: a DIV chain.
        b.add(StaticInst(Opcode.DIV, dests=(3,), srcs=(1, 2), length=4))
        b.add(StaticInst(Opcode.STORE, srcs=(1, 3), length=4))
        b.add(StaticInst(Opcode.LOAD, dests=(4,), srcs=(1,), length=4))
        trace = generate_trace(Program([b]), 100)
        rec = TimelineRecorder()
        PipelineModel(BASELINE_6_60).run(trace, probes=Probes(recorder=rec))
        tl = rec.uops()
        # Timeline: ..., div, store-addr, store-data, load
        div_complete = tl[2].complete
        load_complete = tl[-1].complete
        assert load_complete > div_complete  # load waited for the store data

    def test_independent_loads_overlap(self):
        b = BasicBlock("entry")
        for i in range(8):
            b.add(_li(1 + i, 0x9000 + 0x40 * i))
        for i in range(8):
            b.add(StaticInst(Opcode.LOAD, dests=(9 + i % 4,), srcs=(1 + i,),
                             length=4))
        trace = generate_trace(Program([b]), 100)
        rec = TimelineRecorder()
        PipelineModel(BASELINE_6_60).run(trace, probes=Probes(recorder=rec))
        load_completes = [u.complete for u in rec.uops()[8:]]
        # With 2 load ports and parallel misses, the 8 loads must not be
        # fully serialised (8 x DRAM would be > 1000 cycles apart).
        assert max(load_completes) - min(load_completes) < 600


class TestFrontEnd:
    def test_fetch_queue_backpressure(self):
        """With a tiny fetch queue, fetch cannot run far ahead of dispatch;
        timing must still be consistent and slower than unconstrained."""
        kr = build_strided_kernel(seed=1, trip=16)
        trace = generate_trace(kr.program, 4000, init_mem=kr.init_mem)
        wide = PipelineModel(BASELINE_6_60.with_(fetch_queue_uops=4096)).run(trace)
        tight = PipelineModel(BASELINE_6_60.with_(fetch_queue_uops=16)).run(trace)
        assert tight.cycles >= wide.cycles

    def test_icache_misses_counted(self):
        kr = build_strided_kernel(seed=1, trip=16)
        trace = generate_trace(kr.program, 1000, init_mem=kr.init_mem)
        model = PipelineModel(BASELINE_6_60)
        model.run(trace)
        assert model.memory.l1i.misses > 0
        assert model.memory.l1i.hits > model.memory.l1i.misses

    def test_btb_learns_targets(self):
        kr = build_strided_kernel(seed=1, trip=16)
        trace = generate_trace(kr.program, 4000, init_mem=kr.init_mem)
        model = PipelineModel(BASELINE_6_60)
        stats = model.run(trace)
        # Taken branches repeat: the BTB must end up mostly hitting.
        assert model.btb.hits > model.btb.misses
        assert stats.btb_misses < stats.branches


class TestValueMispredictSquash:
    def test_forced_wrong_prediction_squashes(self):
        """An adapter that lies (confident wrong value) must trigger
        commit-time squashes and cost cycles."""

        class LyingAdapter(InstructionVPAdapter):
            def fetch_group(self, uops, cycle, hist, reuse=None):
                handle = super().fetch_group(uops, cycle, hist, reuse)
                for i, u in enumerate(uops):
                    if u.is_vp_eligible and u.value is not None:
                        handle.preds[i] = PredUse(
                            (u.value + 1) & ((1 << 64) - 1), True
                        )
                return handle

        kr = build_strided_kernel(seed=1, trip=16)
        trace = generate_trace(kr.program, 3000, init_mem=kr.init_mem)
        honest = PipelineModel(BASELINE_6_60).run(trace)
        lying = PipelineModel(
            baseline_vp_6_60(), LyingAdapter(DVTAGEPredictor())
        ).run(trace)
        assert lying.vp_squashes > 100
        assert lying.vp_accuracy == 0.0
        assert lying.cycles > honest.cycles * 1.5  # squashing is expensive

    def test_oracle_prediction_speeds_up(self):
        """An oracle adapter (always right) bounds the VP upside."""

        class OracleAdapter(InstructionVPAdapter):
            def fetch_group(self, uops, cycle, hist, reuse=None):
                handle = super().fetch_group(uops, cycle, hist, reuse)
                for i, u in enumerate(uops):
                    if u.is_vp_eligible and u.value is not None:
                        handle.preds[i] = PredUse(u.value, True)
                return handle

        kr = build_strided_kernel(seed=1, trip=32, body_fp_ops=6, fp_chains=1)
        trace = generate_trace(kr.program, 20000, init_mem=kr.init_mem)
        base = PipelineModel(BASELINE_6_60).run(trace, warmup_uops=5000)
        oracle = PipelineModel(
            baseline_vp_6_60(), OracleAdapter(DVTAGEPredictor())
        ).run(trace, warmup_uops=5000)
        assert oracle.vp_squashes == 0
        assert oracle.ipc > base.ipc * 1.2
        # A real predictor cannot beat the oracle.
        real = PipelineModel(
            baseline_vp_6_60(), InstructionVPAdapter(DVTAGEPredictor())
        ).run(trace, warmup_uops=5000)
        assert real.ipc <= oracle.ipc * 1.001
