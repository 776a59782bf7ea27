"""Unit tests for the block-based speculative window (paper §IV)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bebop.spec_window import SpeculativeWindow, window_tag


BLOCK_A = 0x40_0040
BLOCK_B = 0x40_0080


def values_of(window, block_pc):
    """Predicted values of the block's most recent in-window instance."""
    entry = window.lookup_entry(block_pc)
    return entry.values if entry is not None else None


class TestBasics:
    def test_empty_lookup(self):
        w = SpeculativeWindow(8)
        assert values_of(w, BLOCK_A) is None

    def test_insert_lookup(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, seq=1, values=[1, 2, 3])
        assert values_of(w, BLOCK_A) == [1, 2, 3]
        assert values_of(w, BLOCK_B) is None

    def test_most_recent_wins(self):
        """Fig 4: the priority encoder prefers the highest sequence number."""
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, seq=1, values=[1])
        w.insert(BLOCK_B, seq=2, values=[2])
        w.insert(BLOCK_A, seq=3, values=[3])
        assert values_of(w, BLOCK_A) == [3]

    def test_values_copied_on_insert(self):
        w = SpeculativeWindow(8)
        values = [1, 2]
        w.insert(BLOCK_A, 1, values)
        values[0] = 99
        assert values_of(w, BLOCK_A) == [1, 2]

    def test_capacity_circular_overwrite(self):
        """Head overruns tail: oldest entries are lost (§IV)."""
        w = SpeculativeWindow(2)
        w.insert(BLOCK_A, 1, [1])
        w.insert(BLOCK_B, 2, [2])
        w.insert(BLOCK_B + 16, 3, [3])
        assert values_of(w, BLOCK_A) is None
        assert len(w) == 2

    def test_zero_capacity_disabled(self):
        w = SpeculativeWindow(0)
        assert not w.enabled
        w.insert(BLOCK_A, 1, [1])
        assert values_of(w, BLOCK_A) is None

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
        assert values_of(w, BLOCK_B) is None
        assert values_of(w, BLOCK_A) == [1]

    def test_keeps_equal_by_default(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, 3, [3])
        assert w.squash(flush_seq=3) == 0
        assert values_of(w, BLOCK_A) == [3]

    def test_drop_equal_for_repred(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, 3, [3])
        assert w.squash(flush_seq=3, drop_equal=True) == 1
        assert values_of(w, BLOCK_A) is None


class TestWritebackCorrection:
    def test_correct_entry_patches_slots(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, 1, [10, 20, 30])
        assert w.correct_entry(BLOCK_A, 1, {1: 99})
        assert values_of(w, BLOCK_A) == [10, 99, 30]

    def test_correct_entry_requires_seq_match(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, 1, [10])
        assert not w.correct_entry(BLOCK_A, 2, {0: 99})
        assert values_of(w, BLOCK_A) == [10]

    def test_correct_entry_out_of_range_slot_ignored(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, 1, [10])
        w.correct_entry(BLOCK_A, 1, {5: 99})
        assert values_of(w, BLOCK_A) == [10]

    def test_retire_invalidates(self):
        w = SpeculativeWindow(8)
        w.insert(BLOCK_A, 1, [10])
        w.insert(BLOCK_A, 2, [20])
        assert w.retire(BLOCK_A, 1)
        assert values_of(w, BLOCK_A) == [20]
        assert w.retire(BLOCK_A, 2)
        assert values_of(w, BLOCK_A) is None

    def test_retire_missing_is_false(self):
        w = SpeculativeWindow(8)
        assert not w.retire(BLOCK_A, 1)

    def test_retire_after_eviction_is_false(self):
        w = SpeculativeWindow(2)
        for seq, block in enumerate((BLOCK_A, BLOCK_B, BLOCK_A), start=1):
            w.insert(block, seq, [seq])
        assert not w.retire(BLOCK_A, 1)      # evicted by the third insert
        assert values_of(w, BLOCK_A) == [3]
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


class ListWindow:
    """Reference model: one list in insertion order, scanned linearly.

    The semantics the batched walk implemented inline before it used
    :class:`SpeculativeWindow`: probes and (tag, seq) searches scan from
    the most recent entry back, squashes rebuild the list.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []           # [tag, seq, values]

    def _find(self, block_pc, seq):
        """Index of the most recent (tag, seq) match, or None."""
        tag = window_tag(block_pc)
        for i in range(len(self.entries) - 1, -1, -1):
            if self.entries[i][0] == tag and self.entries[i][1] == seq:
                return i
        return None

    def insert(self, block_pc, seq, values):
        if self.capacity is None or self.capacity > 0:
            self.entries.append([window_tag(block_pc), seq, list(values)])
            if self.capacity is not None and len(self.entries) > self.capacity:
                del self.entries[0]

    def lookup_entry(self, block_pc):
        tag = window_tag(block_pc)
        for entry in reversed(self.entries):
            if entry[0] == tag:
                return entry
        return None

    def correct_entry(self, block_pc, seq, slot_values):
        i = self._find(block_pc, seq) if slot_values else None
        if i is None:
            return False
        values = self.entries[i][2]
        for slot, value in slot_values.items():
            if 0 <= slot < len(values):
                values[slot] = value
        return True

    def correct_slot(self, block_pc, seq, slot, value):
        return self.correct_entry(block_pc, seq, {slot: value})

    def retire(self, block_pc, seq):
        i = self._find(block_pc, seq)
        if i is not None:
            del self.entries[i]
        return i is not None

    def squash(self, flush_seq, drop_equal=False):
        kept = [e for e in self.entries
                if e[1] < flush_seq or (not drop_equal and e[1] == flush_seq)]
        dropped = len(self.entries) - len(kept)
        self.entries = kept
        return dropped


#: Block PCs whose partial tags collide in pairs (the folded halves of
#: ``block_pc >> 4`` cancel), so chains hold more than one block.
BLOCKS = [0x40, 0x80, ((1 << 15) | 5) << 4, ((1 << 15) | 9) << 4]
#: Few sequence numbers, so instances repeat (tag, seq) within a chain.
SEQS = st.integers(0, 4)
VALUES = st.lists(st.integers(0, 3), min_size=1, max_size=3)
OPS = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(BLOCKS), SEQS, VALUES),
    st.tuples(st.just("lookup_entry"), st.sampled_from(BLOCKS)),
    st.tuples(st.just("correct_slot"), st.sampled_from(BLOCKS), SEQS,
              st.integers(0, 3), st.integers(10, 13)),
    st.tuples(st.just("correct_entry"), st.sampled_from(BLOCKS), SEQS,
              st.dictionaries(st.integers(0, 3), st.integers(10, 13),
                              max_size=3)),
    st.tuples(st.just("retire"), st.sampled_from(BLOCKS), SEQS),
    st.tuples(st.just("squash"), SEQS, st.booleans()),
)


class TestAgainstListModel:
    @pytest.mark.parametrize("capacity", [None, 0, 8, 32])
    @settings(deadline=None, max_examples=200)
    @given(ops=st.lists(OPS, max_size=60))
    # Equal instances: retire drops the most recent, not the first equal.
    @example(ops=[("insert", 0x40, 0, [0]), ("insert", 0x40, 0, [0, 0]),
                  ("insert", 0x40, 0, [0]), ("retire", 0x40, 0)])
    def test_matches_linear_scan_model(self, capacity, ops):
        window = SpeculativeWindow(capacity)
        model = ListWindow(capacity)
        assert window_tag(BLOCKS[0]) == window_tag(BLOCKS[2])
        assert window_tag(BLOCKS[1]) == window_tag(BLOCKS[3])
        for name, *args in ops:
            if name == "squash":
                flush_seq, drop_equal = args
                got = window.squash(flush_seq, drop_equal=drop_equal)
                want = model.squash(flush_seq, drop_equal=drop_equal)
            elif name == "lookup_entry":
                entry = window.lookup_entry(*args)
                got = None if entry is None else (entry.seq, entry.values)
                want = model.lookup_entry(*args)
                want = None if want is None else (want[1], want[2])
            else:
                got = getattr(window, name)(*args)
                want = getattr(model, name)(*args)
            assert got == want, (name, args)
            assert len(window) == len(model.entries)
            assert [[e.tag, e.seq, e.values] for e in window._entries] == (
                model.entries
            )
