"""Tests for the Per-Path Stride predictor (related work, §VII-B)."""

import pytest

from repro.common.bits import to_unsigned
from repro.predictors import HistoryState, PerPathStridePredictor

PC = 0x40_0030


def drive(pred, stream, hist_fn=None):
    used = correct = 0
    for i, value in enumerate(stream):
        hist = hist_fn(i) if hist_fn else HistoryState()
        p = pred.predict(PC, 0, hist)
        if p is not None and p.confident:
            used += 1
            correct += p.value == value
        pred.train(PC, 0, hist, value, p)
    return used, correct


class TestPerPathStride:
    def test_plain_stride(self):
        stream = [to_unsigned(50 + 9 * i, 64) for i in range(3000)]
        used, correct = drive(PerPathStridePredictor(), stream)
        assert used > 2500
        assert correct == used

    def test_constant(self):
        used, correct = drive(PerPathStridePredictor(), [7] * 3000)
        assert used > 2500 and correct == used

    def test_path_dependent_stride(self):
        """The PS selling point: different strides per branch history."""
        hist_bits, values, hists, v = 0, [], [], 0
        for i in range(6000):
            taken = i % 2 == 0
            hist_bits = ((hist_bits << 1) | taken) & ((1 << 64) - 1)
            hists.append(HistoryState(hist_bits, 0))
            v = to_unsigned(v + (4 if taken else 10), 64)
            values.append(v)
        used, correct = drive(
            PerPathStridePredictor(), values, hist_fn=lambda i: hists[i]
        )
        assert used > 3000
        assert correct / used > 0.99

    def test_random_not_used(self):
        from repro.common.rng import XorShift64

        rng = XorShift64(5)
        used, _ = drive(PerPathStridePredictor(),
                        [rng.next_u64() for _ in range(3000)])
        assert used < 30

    def test_squash_checkpoint(self):
        p = PerPathStridePredictor()
        hist = HistoryState()
        for v in range(100):
            pred = p.predict(PC, 0, hist)
            p.train(PC, 0, hist, 9 * v, pred)
        for _ in range(4):
            p.predict(PC, 0, hist)
        p.squash({(PC, 0): 1})
        idx, _ = p._vht_slot(PC)
        assert p._h_inflight[idx] == 1

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            PerPathStridePredictor(vht_entries=1000)
