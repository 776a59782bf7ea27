"""Unit tests for global/folded histories."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bits import fold_bits
from repro.common.history import (
    FoldedHistory,
    FoldedHistorySet,
    GlobalHistory,
)
from repro.predictors.base import (
    HistoryState,
    TaggedSlots,
    tagged_index,
    tagged_tag,
)


class TestGlobalHistory:
    """The raw registers, as :class:`FoldedHistorySet` pushes into them."""

    def test_push_outcome(self):
        h = FoldedHistorySet(8, 16)
        h.push_outcome(True)
        h.push_outcome(False)
        h.push_outcome(True)
        assert h.state().branch == 0b101

    def test_capacity_truncates(self):
        h = FoldedHistorySet(4, 16)
        for _ in range(10):
            h.push_outcome(True)
        assert h.state().branch == 0b1111

    def test_push_path(self):
        h = FoldedHistorySet(8, 16)
        h.push_path(0b111, bits=2)
        assert h.state().path == 0b11

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            GlobalHistory(0)


class TestFoldedHistory:
    def test_matches_direct_fold(self):
        """Incremental folding equals direct folding of the same history."""
        length, out = 12, 5
        fh = FoldedHistory(length, out)
        bits: list[int] = []
        for i in range(100):
            inserted = (i * 7 + 3) & 1
            evicted = bits[-length] if len(bits) >= length else 0
            fh.update(inserted, evicted)
            bits.append(inserted)
            window = bits[-length:]
            direct_value = 0
            for b in window:  # oldest..newest, newest at LSB of shift-in order
                direct_value = (direct_value << 1) | b
            assert fh.value == fold_bits(direct_value, length, out), f"step {i}"

    def test_clear(self):
        fh = FoldedHistory(8, 4)
        fh.update(1, 0)
        fh.clear()
        assert fh.value == 0

    def test_bad_width(self):
        with pytest.raises(ValueError):
            FoldedHistory(8, 0)


class TestFoldedHistorySet:
    """The incremental fold registers against the on-demand reference.

    ``FoldedHistorySet`` and ``tagged_index``/``tagged_tag``'s on-demand
    fold must be bit-identical by construction (XOR-folding is linear in
    the history bits); these properties enforce it over randomized
    sequences of outcome and path pushes.
    """

    _pairs = st.lists(
        st.tuples(st.integers(1, 64), st.integers(1, 12)),
        min_size=1,
        max_size=4,
    )
    _ops = st.lists(
        st.one_of(
            st.tuples(st.just("outcome"), st.booleans()),
            st.tuples(st.just("path"), st.integers(0, 0xFFFF)),
        ),
        max_size=60,
    )

    @settings(max_examples=60, deadline=None)
    @given(geometry=_pairs, index_bits=st.integers(1, 12), other=_pairs,
           ops=_ops, key=st.integers(0, 0xFFFF_FFFF))
    def test_incremental_folds_match_reference(
        self, geometry, index_bits, other, ops, key
    ):
        """After every push, ``TaggedSlots`` reading the packed registers
        equals the on-demand fold of the raw registers."""
        lengths = tuple(length for length, _w in geometry)
        tag_bits = tuple(width for _l, width in geometry)
        hset = FoldedHistorySet(
            640, 64,
            other + [(length, index_bits) for length in lengths],
            other + list(geometry),
        )
        assert hset.layout.component_lanes(lengths, index_bits, tag_bits)
        hashes = TaggedSlots(lengths, index_bits, tag_bits, 1 << index_bits)
        for kind, arg in ops:
            if kind == "outcome":
                hset.push_outcome(arg)
            else:
                hset.push_path(arg)
            state = hset.state()
            assert state.branch == hset.branch._bits
            assert state.path == hset.path._bits
            slow = HistoryState(branch=state.branch, path=state.path)
            assert hashes.slots(key, state) == hashes.slots(key, slow)
            assert hashes.lanes(key, state) == hashes.lanes(key, slow)

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=_pairs,
        outcomes=st.lists(st.booleans(), max_size=80),
        targets=st.lists(st.integers(0, 0xFFFF), max_size=40),
        key=st.integers(0, 0xFFFF_FFFF),
    )
    def test_tagged_hashes_agree_with_plain_history(
        self, pairs, outcomes, targets, key
    ):
        """``tagged_index``/``tagged_tag`` produce the same hash whether fed
        a FoldedHistoryState (fast path) or a plain HistoryState (fallback)."""
        hset = FoldedHistorySet(640, 64, pairs, pairs)
        for taken in outcomes:
            hset.push_outcome(taken)
        for target in targets:
            hset.push_path(target)
        fast = hset.state()
        slow = HistoryState(branch=fast.branch, path=fast.path)
        for length, width in pairs:
            assert tagged_index(key, fast, length, width) == tagged_index(
                key, slow, length, width
            )
            assert tagged_tag(key, fast, length, width) == tagged_tag(
                key, slow, length, width
            )

    @settings(max_examples=60, deadline=None)
    @given(
        geometry=st.lists(
            st.tuples(st.integers(1, 64), st.integers(1, 12)),
            min_size=1, max_size=5,
        ),
        index_bits=st.integers(1, 12),
        other=_pairs,
        outcomes=st.lists(st.booleans(), max_size=80),
        targets=st.lists(st.integers(0, 0xFFFF), max_size=40),
        key=st.integers(0, 0xFFFF_FFFF),
    )
    def test_tagged_slots_read_packed_folds_exactly(
        self, geometry, index_bits, other, outcomes, targets, key
    ):
        """``TaggedSlots`` reading a predictor's lanes straight out of the
        packed registers (its folds registered after another consumer's)
        equals ``tagged_index``/``tagged_tag`` on the plain history."""
        lengths = tuple(length for length, _w in geometry)
        tag_bits = tuple(width for _l, width in geometry)
        hset = FoldedHistorySet(
            640, 64,
            other + [(length, index_bits) for length in lengths],
            other + list(geometry),
        )
        for taken in outcomes:
            hset.push_outcome(taken)
        for target in targets:
            hset.push_path(target)
        fast = hset.state()
        assert hset.layout.component_lanes(lengths, index_bits, tag_bits)
        slow = HistoryState(branch=fast.branch, path=fast.path)
        entries = 1 << index_bits
        hashes = TaggedSlots(lengths, index_bits, tag_bits, entries)
        want = (
            [c * entries + tagged_index(key, slow, length, index_bits)
             for c, length in enumerate(lengths)],
            [tagged_tag(key, slow, length, width)
             for length, width in geometry],
        )
        assert hashes.slots(key, fast) == want
        assert hashes.slots(key, slow) == want

    def test_state_cached_between_pushes(self):
        hset = FoldedHistorySet(64, 16, [(8, 4)], [(8, 4)])
        hset.push_outcome(True)
        s1 = hset.state()
        assert hset.state() is s1          # no push: same immutable snapshot
        hset.push_outcome(False)
        assert hset.state() is not s1      # push invalidates the cache

    def test_width_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FoldedHistorySet(64, 16, [(8, 0)], [])
        with pytest.raises(ValueError):
            FoldedHistorySet(64, 16, [], [(8, 128)])
