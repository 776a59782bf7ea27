"""Tests for the VP adapter layer (deferred training, squash checkpoints)."""

from repro.isa.instruction import DynMicroOp, LatencyClass
from repro.pipeline.vp import GroupHandle, InstructionVPAdapter, PredUse
from repro.predictors import DVTAGEPredictor, HistoryState
from repro.predictors.base import Prediction, ValuePredictor


def make_uop(seq, pc, value=0, dest=1, is_li=False):
    return DynMicroOp(
        seq=seq, pc=pc, static_id=0, uop_index=0, inst_length=4,
        block_pc=pc & ~15, boundary=pc & 15, dest=dest, srcs=(),
        value=value, latency_class=LatencyClass.ALU, is_load_imm=is_li,
    )


class RecordingPredictor(ValuePredictor):
    """Minimal predictor recording call order."""

    def __init__(self):
        self.calls = []

    def predict(self, pc, uop_index, hist):
        self.calls.append(("predict", pc))
        return Prediction(7, True)

    def train(self, pc, uop_index, hist, actual, prediction):
        self.calls.append(("train", pc, actual))

    def squash(self, surviving=None):
        self.calls.append(("squash", dict(surviving or {})))


class TestInstructionVPAdapter:
    def test_fetch_group_shapes(self):
        ad = InstructionVPAdapter(RecordingPredictor())
        uops = [make_uop(0, 0x400000), make_uop(1, 0x400004, dest=None)]
        handle = ad.fetch_group(uops, 0, HistoryState())
        assert len(handle.preds) == 2
        assert isinstance(handle.preds[0], PredUse)
        assert handle.preds[1] is None  # no dest -> not eligible

    def test_load_imm_not_predicted(self):
        ad = InstructionVPAdapter(RecordingPredictor())
        uops = [make_uop(0, 0x400000, is_li=True)]
        handle = ad.fetch_group(uops, 0, HistoryState())
        assert handle.preds[0] is None  # §II-B3: free LIs

    def test_training_deferred_until_cycle(self):
        pred = RecordingPredictor()
        ad = InstructionVPAdapter(pred)
        uops = [make_uop(0, 0x400000, value=5)]
        handle = ad.fetch_group(uops, cycle=0, hist=HistoryState())
        ad.commit_uop(handle, 0, uops[0], cycle=30)
        # A fetch at cycle 10 must not see the training (applies at 31).
        ad.fetch_group([make_uop(1, 0x400010)], cycle=10, hist=HistoryState())
        assert ("train", 0x400000, 5) not in pred.calls
        # A fetch at cycle 40 must.
        ad.fetch_group([make_uop(2, 0x400020)], cycle=40, hist=HistoryState())
        assert ("train", 0x400000, 5) in pred.calls

    def test_flush_training_applies_all(self):
        pred = RecordingPredictor()
        ad = InstructionVPAdapter(pred)
        uops = [make_uop(0, 0x400000, value=5)]
        handle = ad.fetch_group(uops, 0, HistoryState())
        ad.commit_uop(handle, 0, uops[0], cycle=1000)
        ad._apply_until(1 << 62)           # apply every deferred update
        assert ("train", 0x400000, 5) in pred.calls

    def test_surviving_counts_from_deferred(self):
        pred = RecordingPredictor()
        ad = InstructionVPAdapter(pred)
        hist = HistoryState()
        u1, u2 = make_uop(0, 0x400000, value=1), make_uop(1, 0x400000, value=2)
        h = ad.fetch_group([u1, u2], 0, hist)
        ad.commit_uop(h, 0, u1, cycle=100)
        ad.commit_uop(h, 1, u2, cycle=101)
        ad.vp_squash(h, flush_seq=1, next_block_pc=None, cycle=50)
        squash_calls = [c for c in pred.calls if c[0] == "squash"]
        assert squash_calls[-1][1] == {(0x400000, 0): 2}

    def test_branch_squash_passes_checkpoint(self):
        pred = RecordingPredictor()
        ad = InstructionVPAdapter(pred)
        ad.branch_squash(5, 10)
        assert pred.calls[-1] == ("squash", {})

    def test_real_predictor_end_to_end(self):
        """The adapter + D-VTAGE converge on a strided stream with lag."""
        ad = InstructionVPAdapter(DVTAGEPredictor())
        hist = HistoryState()
        used = good = 0
        pending = []
        for i in range(3000):
            u = make_uop(i, 0x400040, value=(100 + 8 * i) & ((1 << 64) - 1))
            h = ad.fetch_group([u], cycle=i, hist=hist)
            p = h.preds[0]
            if p is not None and p.confident:
                used += 1
                good += p.value == u.value
            pending.append((h, u))
            if len(pending) > 25:
                oh, ou = pending.pop(0)
                ad.commit_uop(oh, 0, ou, cycle=i)
        assert used > 2000
        assert good == used


class TestGroupHandle:
    def test_carries_context(self):
        h = GroupHandle([None], HistoryState(1, 2), ctx="anything")
        assert h.hist.branch == 1
        assert h.ctx == "anything"
