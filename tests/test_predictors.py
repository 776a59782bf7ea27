"""Unit tests for the instruction-based value predictors.

Each predictor is driven with canonical value streams (constant, strided,
history-correlated, random) and must show its textbook behaviour: LVP gets
constants only, stride predictors get arithmetic progressions, VTAGE gets
history-correlated series, D-VTAGE gets all of strided / constant /
history-correlated / history-dependent-strided.
"""

import pytest

from repro.common.bits import to_unsigned
from repro.predictors import (
    DVTAGEPredictor,
    FCMPredictor,
    DFCMPredictor,
    HistoryState,
    LastValuePredictor,
    StridePredictor,
    TwoDeltaStridePredictor,
    VTAGE2DStrideHybrid,
    VTAGEPredictor,
)

PC = 0x40_0010


def drive(predictor, stream, pc=PC, hist_fn=None):
    """Feed a value stream predict-then-train; return (used, correct_used)."""
    used = correct = 0
    for i, value in enumerate(stream):
        hist = hist_fn(i) if hist_fn else HistoryState(0, 0)
        p = predictor.predict(pc, 0, hist)
        if p is not None and p.confident:
            used += 1
            correct += p.value == value
        predictor.train(pc, 0, hist, value, p)
    return used, correct


def strided(n, start=100, stride=7):
    return [to_unsigned(start + stride * i, 64) for i in range(n)]


def history_correlated(n, period=3):
    """(values, hist_fn): value decided by a periodic branch pattern."""
    hist_bits = 0
    values, hists = [], []
    for i in range(n):
        taken = i % period == 0
        hist_bits = ((hist_bits << 1) | taken) & ((1 << 64) - 1)
        hists.append(HistoryState(hist_bits, 0))
        values.append(111 if taken else 222)
    return values, lambda i: hists[i]


N = 3000


class TestLastValuePredictor:
    def test_constant_stream(self):
        used, correct = drive(LastValuePredictor(), [42] * N)
        assert used > N * 0.9
        assert correct == used

    def test_strided_stream_fails(self):
        used, _ = drive(LastValuePredictor(), strided(N))
        assert used == 0

    def test_tag_mismatch_returns_none(self):
        p = LastValuePredictor()
        assert p.predict(PC, 0, HistoryState()) is None

    def test_bad_entry_count(self):
        with pytest.raises(ValueError):
            LastValuePredictor(entries=1000)


class TestStridePredictors:
    @pytest.mark.parametrize("cls", [StridePredictor, TwoDeltaStridePredictor])
    def test_strided_stream(self, cls):
        used, correct = drive(cls(), strided(N))
        assert used > N * 0.9
        assert correct == used

    @pytest.mark.parametrize("cls", [StridePredictor, TwoDeltaStridePredictor])
    def test_constant_stream(self, cls):
        used, correct = drive(cls(), [9] * N)
        assert used > N * 0.9
        assert correct == used

    def test_negative_stride(self):
        used, correct = drive(TwoDeltaStridePredictor(), strided(N, 10**6, -13))
        assert used > N * 0.9
        assert correct == used

    def test_two_delta_filters_one_off_jump(self):
        """After a single stride glitch, 2-delta keeps the old stride."""
        p = TwoDeltaStridePredictor()
        hist = HistoryState()
        stream = strided(500) + [strided(500)[-1] + 9999] + strided(
            500, start=strided(500)[-1] + 9999 + 7
        )
        for value in stream:
            pred = p.predict(PC, 0, hist)
            p.train(PC, 0, hist, value, pred)
        # Predicting stride must be back to (or still) 7.
        index, _ = p._lookup(PC, 0)
        assert p._predicting_stride(index) == 7

    def test_partial_stride_wraps(self):
        """An 8-bit stride predictor cannot express stride 300."""
        p = TwoDeltaStridePredictor(stride_bits=8)
        used, correct = drive(p, strided(N, stride=300))
        assert used == 0 or correct < used  # never confidently correct

    def test_partial_stride_small_ok(self):
        p = TwoDeltaStridePredictor(stride_bits=8)
        used, correct = drive(p, strided(N, stride=5))
        assert used > N * 0.9 and correct == used

    def test_inflight_counting(self):
        """Lag between predict and train must not derail the chain."""
        from collections import deque

        p = TwoDeltaStridePredictor()
        stream = strided(2000)
        q = deque()
        hist = HistoryState()
        correct = used = 0
        for i, v in enumerate(stream):
            pred = p.predict(PC, 0, hist)
            q.append((v, pred))
            if pred is not None and pred.confident:
                used += 1
                correct += pred.value == v
            if len(q) > 20:
                av, ap = q.popleft()
                p.train(PC, 0, hist, av, ap)
        assert used > 1500
        assert correct == used

    def test_squash_restores_surviving_counts(self):
        p = TwoDeltaStridePredictor()
        hist = HistoryState()
        for v in strided(300):
            pred = p.predict(PC, 0, hist)
            p.train(PC, 0, hist, v, pred)
        # 5 in-flight predictions, then a squash with 2 survivors.
        for _ in range(5):
            p.predict(PC, 0, hist)
        p.squash({(PC, 0): 2})
        index, _ = p._lookup(PC, 0)
        assert p._inflight[index] == 2


class TestVTAGE:
    def test_history_correlated(self):
        values, hist_fn = history_correlated(N * 2)
        used, correct = drive(VTAGEPredictor(), values, hist_fn=hist_fn)
        assert used > N
        assert correct / used > 0.99

    def test_strided_fails(self):
        """VTAGE cannot capture strided series (paper §III-B)."""
        used, _ = drive(VTAGEPredictor(), strided(N))
        assert used == 0

    def test_constant_ok(self):
        used, correct = drive(VTAGEPredictor(), [5] * N)
        assert used > N * 0.9 and correct == used

    def test_history_lengths_geometric(self):
        p = VTAGEPredictor()
        assert p.history_lengths == (2, 4, 8, 16, 32, 64)

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            VTAGEPredictor(base_entries=100)


class TestDVTAGE:
    def test_strided(self):
        used, correct = drive(DVTAGEPredictor(), strided(N))
        assert used > N * 0.9 and correct == used

    def test_constant(self):
        used, correct = drive(DVTAGEPredictor(), [1234] * N)
        assert used > N * 0.9 and correct == used

    def test_history_correlated(self):
        values, hist_fn = history_correlated(N * 2)
        used, correct = drive(DVTAGEPredictor(), values, hist_fn=hist_fn)
        assert used > N
        assert correct / used > 0.99

    def test_history_dependent_strided(self):
        """The pattern D-VTAGE exists for (§III-C): stride selected by
        branch history."""
        hist_bits = 0
        values, hists = [], []
        v = 0
        for i in range(N * 2):
            taken = i % 2 == 0
            hist_bits = ((hist_bits << 1) | taken) & ((1 << 64) - 1)
            hists.append(HistoryState(hist_bits, 0))
            v = to_unsigned(v + (5 if taken else 11), 64)
            values.append(v)
        used, correct = drive(
            DVTAGEPredictor(), values, hist_fn=lambda i: hists[i]
        )
        assert used > N
        assert correct / used > 0.99

    def test_random_never_confident(self):
        from repro.common.rng import XorShift64

        rng = XorShift64(3)
        used, _ = drive(DVTAGEPredictor(), [rng.next_u64() for _ in range(N)])
        assert used < N * 0.01

    def test_partial_strides(self):
        p = DVTAGEPredictor(stride_bits=8)
        used, correct = drive(p, strided(N, stride=3))
        assert used > N * 0.9 and correct == used


class TestHybrid:
    def test_covers_strided_and_correlated(self):
        used_s, correct_s = drive(VTAGE2DStrideHybrid(), strided(N))
        assert used_s > N * 0.9 and correct_s == used_s
        values, hist_fn = history_correlated(N * 2)
        used_h, correct_h = drive(VTAGE2DStrideHybrid(), values, hist_fn=hist_fn)
        assert used_h > N and correct_h / used_h > 0.99

    def test_disagreement_blocks_use(self):
        """Both confident with different values -> not confident."""
        from repro.predictors.base import Prediction
        from repro.predictors.hybrid import _HybridMeta

        h = VTAGE2DStrideHybrid()

        class FakeV:
            def predict(self, pc, u, hist):
                return Prediction(1, True)

            def train(self, *a):
                pass

        class FakeS(FakeV):
            def predict(self, pc, u, hist):
                return Prediction(2, True)

        h.vtage, h.stride = FakeV(), FakeS()
        p = h.predict(PC, 0, HistoryState())
        assert p is not None and not p.confident


class TestFCM:
    def test_periodic_local_history(self):
        """FCM captures periodic value sequences with no branch context."""
        values = [(10, 20, 30)[i % 3] for i in range(N * 2)]
        used, correct = drive(FCMPredictor(), values)
        assert used > N
        assert correct / used > 0.99

    def test_dfcm_periodic(self):
        values = [(10, 20, 30)[i % 3] for i in range(N * 2)]
        used, correct = drive(DFCMPredictor(), values)
        assert used > N
        assert correct / used > 0.99

    def test_bad_order(self):
        with pytest.raises(ValueError):
            FCMPredictor(order=0)

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            FCMPredictor(vht_entries=100)
