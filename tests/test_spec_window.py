"""Unit tests for the block-based speculative window (paper §IV)."""

import pytest

from repro.bebop.spec_window import SpeculativeWindow, window_tag


BLOCK_A = 0x40_0040
BLOCK_B = 0x40_0080


class TestBasics:
    def test_empty_lookup(self):
        w = SpeculativeWindow(8)
        assert w.lookup(BLOCK_A) is None

    def test_insert_lookup(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, seq=1, values=[1, 2, 3])
        assert w.lookup(BLOCK_A) == [1, 2, 3]
        assert w.lookup(BLOCK_B) is None

    def test_most_recent_wins(self):
        """Fig 4: the priority encoder prefers the highest sequence number."""
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, seq=1, values=[1])
        w.insert(BLOCK_B, seq=2, values=[2])
        w.insert(BLOCK_A, seq=3, values=[3])
        assert w.lookup(BLOCK_A) == [3]

    def test_values_copied_on_insert(self):
        w = SpeculativeWindow(8)
        values = [1, 2]
        w.insert(BLOCK_A, 1, values)
        values[0] = 99
        assert w.lookup(BLOCK_A) == [1, 2]

    def test_capacity_circular_overwrite(self):
        """Head overruns tail: oldest entries are lost (§IV)."""
        w = SpeculativeWindow(2)
        w.insert(BLOCK_A, 1, [1])
        w.insert(BLOCK_B, 2, [2])
        w.insert(BLOCK_B + 16, 3, [3])
        assert w.lookup(BLOCK_A) is None
        assert len(w) == 2

    def test_zero_capacity_disabled(self):
        w = SpeculativeWindow(0)
        assert not w.enabled
        w.insert(BLOCK_A, 1, [1])
        assert w.lookup(BLOCK_A) is None

    def test_infinite_capacity(self):
        w = SpeculativeWindow(None)
        for i in range(1000):
            w.insert(BLOCK_A + 16 * i, i, [i])
        assert len(w) == 1000

    def test_negative_capacity_raises(self):
        with pytest.raises(ValueError):
            SpeculativeWindow(-1)


class TestSquash:
    def test_drops_younger(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, 1, [1])
        w.insert(BLOCK_B, 5, [5])
        dropped = w.squash(flush_seq=3)
        assert dropped == 1
        assert w.lookup(BLOCK_B) is None
        assert w.lookup(BLOCK_A) == [1]

    def test_keeps_equal_by_default(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, 3, [3])
        assert w.squash(flush_seq=3) == 0
        assert w.lookup(BLOCK_A) == [3]

    def test_drop_equal_for_repred(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, 3, [3])
        assert w.squash(flush_seq=3, drop_equal=True) == 1
        assert w.lookup(BLOCK_A) is None


class TestWritebackCorrection:
    def test_correct_entry_patches_slots(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, 1, [10, 20, 30])
        assert w.correct_entry(BLOCK_A, 1, {1: 99})
        assert w.lookup(BLOCK_A) == [10, 99, 30]

    def test_correct_entry_requires_seq_match(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, 1, [10])
        assert not w.correct_entry(BLOCK_A, 2, {0: 99})
        assert w.lookup(BLOCK_A) == [10]

    def test_correct_entry_out_of_range_slot_ignored(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, 1, [10])
        w.correct_entry(BLOCK_A, 1, {5: 99})
        assert w.lookup(BLOCK_A) == [10]

    def test_retire_invalidates(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, 1, [10])
        w.insert(BLOCK_A, 2, [20])
        assert w.retire(BLOCK_A, 1)
        assert w.lookup(BLOCK_A) == [20]
        assert w.retire(BLOCK_A, 2)
        assert w.lookup(BLOCK_A) is None

    def test_retire_missing_is_false(self):
        w = SpeculativeWindow(8)
        assert not w.retire(BLOCK_A, 1)

    def test_retire_after_eviction_is_false(self):
        w = SpeculativeWindow(2)
        for seq, block in enumerate((BLOCK_A, BLOCK_B, BLOCK_A), start=1):
            w.insert(block, seq, [seq])
        assert not w.retire(BLOCK_A, 1)      # evicted by the third insert
        assert w.lookup(BLOCK_A) == [3]
        assert w.retire(BLOCK_B, 2)


class TestPartialTags:
    def test_tag_is_partial(self):
        # Partial tags allow (rare) false positives — by design (§IV).
        assert 0 <= window_tag(BLOCK_A, 15) < (1 << 15)

    def test_distinct_blocks_distinct_tags(self):
        assert window_tag(BLOCK_A) != window_tag(BLOCK_B)


class TestStorage:
    def test_storage_formula(self):
        w = SpeculativeWindow(32)
        # Table III accounting: 32 x (15 + 6*64) bits.
        assert w.storage_bits(npred=6) == 32 * (15 + 6 * 64)

    def test_infinite_storage_raises(self):
        with pytest.raises(ValueError):
            SpeculativeWindow(None).storage_bits(npred=6)
