"""Unit tests for the FPC confidence policy and its saturating variant."""

import pytest

from repro.predictors.confidence import (
    PAPER_FPC_PROBABILITIES,
    FPCPolicy,
    saturating_policy,
)


class TestSaturatingCounter:
    """``saturating_policy``: every correct prediction advances the level."""

    def test_initial(self):
        p = saturating_policy(bits=2)
        assert p.reset_level() == 0
        assert p.max_level == 3

    def test_saturates_up(self):
        p = saturating_policy(bits=2)
        level = p.reset_level()
        for _ in range(10):
            level = p.advance(level)
        assert level == 3
        assert p.is_confident(level)

    def test_reset(self):
        p = saturating_policy(bits=3)
        assert p.advance(5) == 6
        assert p.reset_level() == 0


class TestFPCProbabilities:
    def test_paper_vector_length(self):
        # 3-bit counter -> 7 transitions.
        assert len(PAPER_FPC_PROBABILITIES) == 7

    def test_paper_vector_values(self):
        assert PAPER_FPC_PROBABILITIES[0] == 1.0
        assert PAPER_FPC_PROBABILITIES[1] == 1 / 16
        assert PAPER_FPC_PROBABILITIES[5] == 1 / 32

    def test_expected_corrects_to_saturate(self):
        # E[corrects] = 1 + 4*16 + 2*32 = 129: the "couple hundred correct
        # predictions" gate of the paper.
        expected = sum(1 / p for p in PAPER_FPC_PROBABILITIES)
        assert expected == 129


class TestForwardProbabilisticCounter:
    """``FPCPolicy`` driving integer confidence levels."""

    def test_first_step_always_advances(self):
        assert FPCPolicy().advance(0) == 1

    def test_reset_on_incorrect(self):
        assert FPCPolicy.reset_level() == 0

    def test_confident_only_at_max(self):
        p = FPCPolicy()
        assert not p.is_confident(p.max_level - 1)
        assert p.is_confident(p.max_level)

    def test_eventually_saturates(self):
        p = FPCPolicy(seed=7)
        level = 0
        for _ in range(5000):
            level = p.advance(level)
        assert p.is_confident(level)

    def test_wrong_probability_count(self):
        with pytest.raises(ValueError):
            FPCPolicy(bits=2, probabilities=(1.0,) * 7)

    def test_deterministic_with_seed(self):
        a, b = FPCPolicy(seed=3), FPCPolicy(seed=3)
        la = lb = 0
        for _ in range(500):
            la, lb = a.advance(la), b.advance(lb)
        assert la == lb
