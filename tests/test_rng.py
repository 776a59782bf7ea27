"""Unit tests for the deterministic xorshift64 generator."""

import pytest

from repro.common.rng import XorShift64


class TestXorShift64:
    def test_deterministic(self):
        a, b = XorShift64(5), XorShift64(5)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert XorShift64(1).next_u64() != XorShift64(2).next_u64()

    def test_zero_seed_remapped(self):
        # Zero is a fixed point of xorshift; the constructor must avoid it.
        rng = XorShift64(0)
        assert rng.next_u64() != 0

    def test_next_below_range(self):
        rng = XorShift64(11)
        for _ in range(200):
            assert 0 <= rng.next_below(7) < 7

    def test_next_below_invalid(self):
        with pytest.raises(ValueError):
            XorShift64(1).next_below(0)

    def test_chance_extremes(self):
        rng = XorShift64(13)
        assert rng.chance(1.0) is True
        assert rng.chance(0.0) is False

    def test_chance_rate_roughly_matches(self):
        rng = XorShift64(17)
        hits = sum(rng.chance(1 / 16) for _ in range(16000))
        assert 700 <= hits <= 1300  # ~1000 expected

    def test_values_are_64_bit(self):
        rng = XorShift64(29)
        for _ in range(100):
            assert 0 <= rng.next_u64() < (1 << 64)
