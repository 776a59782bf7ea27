"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bebop.attribution import (
    FREE_TAG,
    attribute_predictions,
    update_tag_assignment,
)
from repro.bebop.spec_window import SpeculativeWindow
from repro.common.bits import fold_bits, mask, to_signed, to_unsigned
from repro.common.history import FoldedHistorySet
from repro.common.rng import XorShift64
from repro.predictors import HistoryState, TwoDeltaStridePredictor
from repro.predictors.base import table_index, tagged_index, tagged_tag
from repro.predictors.confidence import saturating_policy

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
small_bits = st.integers(min_value=1, max_value=64)


class TestBitProperties:
    @given(u64, small_bits)
    def test_signed_unsigned_roundtrip(self, value, bits):
        v = value & mask(bits)
        assert to_unsigned(to_signed(v, bits), bits) == v

    @given(st.integers(min_value=-(1 << 62), max_value=1 << 62), small_bits)
    def test_to_signed_range(self, value, bits):
        s = to_signed(value, bits)
        assert -(1 << (bits - 1)) <= s < (1 << (bits - 1))

    @given(u64, st.integers(min_value=1, max_value=16))
    def test_fold_in_range(self, value, out_bits):
        assert 0 <= fold_bits(value, 64, out_bits) < (1 << out_bits)

    @given(u64, u64, small_bits)
    def test_fold_xor_distributes(self, a, b, out_bits):
        """Folding is linear under XOR — the property TAGE's incremental
        folded histories rely on."""
        assert fold_bits(a ^ b, 64, out_bits) == (
            fold_bits(a, 64, out_bits) ^ fold_bits(b, 64, out_bits)
        )

    @given(u64, st.integers(min_value=1, max_value=32))
    def test_sign_extend_preserves_value(self, value, bits):
        v = value & mask(bits)
        extended = to_unsigned(to_signed(v, bits), 64)
        assert to_signed(extended, 64) == to_signed(v, bits)

    @given(st.integers(min_value=-(1 << 30), max_value=1 << 30),
           st.integers(min_value=-(1 << 30), max_value=1 << 30))
    def test_stride_arithmetic_consistent(self, last, stride):
        """last + (actual - last) == actual under 64-bit wrapping."""
        actual = to_unsigned(last + stride, 64)
        observed = to_signed(actual - to_unsigned(last, 64), 64)
        assert to_unsigned(to_unsigned(last, 64) + observed, 64) == actual


class TestIndexProperties:
    @given(u64, st.integers(min_value=4, max_value=16))
    def test_table_index_in_range(self, key, bits):
        assert 0 <= table_index(key, bits) < (1 << bits)

    @given(u64, u64, u64, st.integers(min_value=2, max_value=128))
    def test_tagged_index_and_tag_in_range(self, key, bh, ph, hist_len):
        hist = HistoryState(bh, ph)
        assert 0 <= tagged_index(key, hist, hist_len, 10) < (1 << 10)
        assert 0 <= tagged_tag(key, hist, hist_len, 13) < (1 << 13)

    @given(u64, u64)
    def test_index_deterministic(self, key, bh):
        hist = HistoryState(bh, 0)
        assert tagged_index(key, hist, 16, 10) == tagged_index(key, hist, 16, 10)


class TestCounterProperties:
    @given(st.integers(min_value=1, max_value=8),
           st.lists(st.booleans(), max_size=200))
    def test_saturating_counter_bounds(self, bits, ops):
        policy = saturating_policy(bits=bits)
        level = policy.reset_level()
        for up in ops:
            level = policy.advance(level) if up else policy.reset_level()
            assert 0 <= level <= policy.max_level


class TestHistoryProperties:
    @given(st.lists(st.booleans(), max_size=300),
           st.integers(min_value=1, max_value=64))
    def test_history_value_matches_reference(self, outcomes, capacity):
        h = FoldedHistorySet(capacity, 16)
        reference = 0
        for taken in outcomes:
            h.push_outcome(taken)
            reference = ((reference << 1) | taken) & mask(capacity)
        assert h.state().branch == reference


class TestAttributionProperties:
    tags = st.lists(
        st.one_of(st.just(FREE_TAG), st.integers(min_value=0, max_value=15)),
        min_size=0, max_size=8,
    )
    boundaries = st.lists(st.integers(min_value=0, max_value=15),
                          min_size=0, max_size=10)

    @given(tags, boundaries)
    def test_attribution_shape(self, tags, boundaries):
        result = attribute_predictions(tags, boundaries)
        assert len(result) == len(boundaries)
        assigned = [s for s in result if s is not None]
        # Slots are consumed at most once, in strictly increasing order.
        assert assigned == sorted(assigned)
        assert len(assigned) == len(set(assigned))
        # A matched slot's tag equals the µ-op's boundary.
        for slot, boundary in zip(result, boundaries):
            if slot is not None:
                assert tags[slot] == boundary

    @given(tags, boundaries, st.booleans())
    def test_update_tags_monotonic(self, tags, boundaries, fresh):
        """A greater tag never replaces a lesser one (§II-B1), except on a
        fresh allocation."""
        assignment, new_tags = update_tag_assignment(tags, boundaries, fresh)
        assert len(new_tags) == len(tags)
        if not fresh:
            for old, new in zip(tags, new_tags):
                if old != FREE_TAG and new != FREE_TAG:
                    assert new <= old

    @given(boundaries.filter(lambda b: len(b) > 0))
    def test_fresh_then_attribute_consistent(self, boundaries):
        """After a fresh allocation, attribution of the same boundary
        sequence must find every slot that was assigned."""
        n = 6
        sorted_b = sorted(boundaries)[:n]
        _, tags = update_tag_assignment([FREE_TAG] * n, sorted_b, True)
        result = attribute_predictions(tags, sorted_b)
        assert all(s is not None for s in result[: min(len(sorted_b), n)])


class TestWindowProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=7), u64),
                    max_size=60),
           st.integers(min_value=1, max_value=16))
    def test_capacity_never_exceeded(self, inserts, capacity):
        w = SpeculativeWindow(capacity)
        for seq, (block, value) in enumerate(inserts):
            w.insert(0x40_0000 + 16 * block, seq, [value])
            assert len(w) <= capacity

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=40),
           st.integers(min_value=0, max_value=100))
    def test_squash_removes_all_younger(self, seqs, flush):
        w = SpeculativeWindow(None)
        for i, s in enumerate(sorted(seqs)):
            w.insert(0x40_0000 + 16 * (i % 4), s, [i])
        w.squash(flush)
        assert all(e.seq <= flush for e in w._entries)

    @given(st.lists(u64, min_size=1, max_size=30))
    def test_lookup_returns_most_recent(self, values):
        w = SpeculativeWindow(None)
        for seq, v in enumerate(values):
            w.insert(0x40_0040, seq, [v])
        assert w.lookup_entry(0x40_0040).values == [values[-1]]


class TestPredictorProperties:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=-1000, max_value=1000),
           st.integers(min_value=0, max_value=(1 << 32)))
    def test_stride_predictor_learns_any_stride(self, stride, start):
        if stride == 0:
            stride = 1
        p = TwoDeltaStridePredictor()
        hist = HistoryState()
        stream = [to_unsigned(start + stride * i, 64) for i in range(400)]
        used = correct = 0
        for v in stream:
            pred = p.predict(0x40_0010, 0, hist)
            if pred is not None and pred.confident:
                used += 1
                correct += pred.value == v
        # train immediately (no lag) — must reach perfect accuracy
            p.train(0x40_0010, 0, hist, v, pred)
        assert correct == used
        assert used > 100

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=1, max_value=63))
    def test_rng_bits_bounded(self, bits):
        rng = XorShift64(bits)
        for _ in range(50):
            assert rng.next_below(1 << bits) < (1 << bits)
