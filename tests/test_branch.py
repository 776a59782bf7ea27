"""Unit tests for the TAGE branch predictor and BTB."""

import pytest

from repro.branch import BranchTargetBuffer, TAGEBranchPredictor
from repro.predictors.base import HistoryState

PC = 0x40_0100


def drive_tage(pattern_fn, n=4000, pc=PC):
    """Feed a direction pattern; return accuracy over the second half."""
    tage = TAGEBranchPredictor()
    hist_bits = 0
    correct = total = 0
    for i in range(n):
        taken = pattern_fn(i, hist_bits)
        hist = HistoryState(hist_bits, 0)
        pred, meta = tage.predict(pc, hist)
        if i >= n // 2:
            total += 1
            correct += pred == taken
        tage.train(pc, hist, taken, meta)
        hist_bits = ((hist_bits << 1) | taken) & ((1 << 640) - 1)
    return correct / total


class TestTAGE:
    def test_always_taken(self):
        assert drive_tage(lambda i, h: True) > 0.99

    def test_always_not_taken(self):
        assert drive_tage(lambda i, h: False) > 0.99

    def test_short_period(self):
        assert drive_tage(lambda i, h: i % 2 == 0) > 0.95

    def test_longer_period(self):
        assert drive_tage(lambda i, h: i % 7 == 0) > 0.9

    def test_long_period_needs_history(self):
        # Period-32 patterns exceed bimodal but fit TAGE's histories.
        assert drive_tage(lambda i, h: i % 32 == 0) > 0.9

    def test_random_pattern_roughly_half(self):
        from repro.common.rng import XorShift64

        rng = XorShift64(5)
        outcomes = [bool(rng.next_u64() & 1) for _ in range(4000)]
        acc = drive_tage(lambda i, h: outcomes[i])
        assert acc < 0.75  # cannot learn true randomness

    def test_history_lengths_geometric(self):
        tage = TAGEBranchPredictor(components=12, min_history=8, max_history=640)
        lengths = tage.history_lengths
        assert lengths[0] == 8
        assert lengths[-1] == 640
        assert all(a < b for a, b in zip(lengths, lengths[1:]))

    def test_storage_reasonable(self):
        tage = TAGEBranchPredictor()
        kb = tage.storage_bits() / 8 / 1000
        assert 10 < kb < 64  # paper's is ~32KB

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            TAGEBranchPredictor(bimodal_entries=1000)


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=64, ways=2)
        assert btb.lookup(PC) is None
        btb.install(PC, 0x1234)
        assert btb.lookup(PC) == 0x1234

    def test_update_existing(self):
        btb = BranchTargetBuffer(entries=64, ways=2)
        btb.install(PC, 1)
        btb.install(PC, 2)
        assert btb.lookup(PC) == 2

    def test_lru_eviction(self):
        btb = BranchTargetBuffer(entries=4, ways=2)  # 2 sets
        sets = btb.sets
        # Three PCs in the same set: the least recently used gets evicted.
        pcs = [PC + 4 * sets * i for i in range(3)]
        btb.install(pcs[0], 10)
        btb.install(pcs[1], 11)
        btb.lookup(pcs[0])          # touch 0 -> 1 becomes LRU
        btb.install(pcs[2], 12)     # evicts 1
        assert btb.lookup(pcs[0]) == 10
        assert btb.lookup(pcs[1]) is None

    def test_hit_miss_counters(self):
        btb = BranchTargetBuffer(entries=64, ways=2)
        btb.lookup(PC)
        btb.install(PC, 5)
        btb.lookup(PC)
        assert btb.misses == 1 and btb.hits == 1

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(entries=63, ways=2)
