"""Unit tests for repro.common.bits."""

import pytest

from repro.common.bits import (
    WORD_MASK,
    fold_bits,
    mask,
    to_signed,
    to_unsigned,
)


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small_widths(self):
        assert mask(1) == 1
        assert mask(4) == 0xF
        assert mask(8) == 0xFF

    def test_word_width(self):
        assert mask(64) == WORD_MASK

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestToUnsigned:
    def test_truncates(self):
        assert to_unsigned(0x1FF, 8) == 0xFF

    def test_wraps_negative(self):
        assert to_unsigned(-1, 8) == 0xFF
        assert to_unsigned(-1, 64) == WORD_MASK

    def test_identity_in_range(self):
        assert to_unsigned(42, 8) == 42

    def test_addition_wraps(self):
        assert to_unsigned(WORD_MASK + 1, 64) == 0


class TestToSigned:
    def test_positive(self):
        assert to_signed(0x7F, 8) == 127

    def test_negative(self):
        assert to_signed(0xFF, 8) == -1
        assert to_signed(0x80, 8) == -128

    def test_sixty_four_bit(self):
        assert to_signed(WORD_MASK, 64) == -1

    def test_roundtrip(self):
        for v in (-128, -1, 0, 1, 127):
            assert to_signed(to_unsigned(v, 8), 8) == v


class TestSignExtend:
    """Sign extension of a narrow field as the model does it: ``to_signed``
    at the field width, then ``to_unsigned`` at the wider one."""

    def test_extends_negative(self):
        assert to_unsigned(to_signed(0xFF, 8), 16) == 0xFFFF

    def test_keeps_positive(self):
        assert to_unsigned(to_signed(0x7F, 8), 16) == 0x7F

    def test_same_width(self):
        assert to_unsigned(to_signed(0xAB, 8), 8) == 0xAB

    def test_stride_semantics(self):
        # A -3 stride stored in 8 bits must add as -3 in 64 bits.
        stored = to_unsigned(-3, 8)
        assert to_signed(stored, 8) == -3
        assert to_unsigned(100 + to_signed(stored, 8), 64) == 97


class TestFoldBits:
    def test_fold_identity_when_fits(self):
        assert fold_bits(0b1010, 4, 4) == 0b1010

    def test_fold_xors_chunks(self):
        assert fold_bits(0b1010_1100, 8, 4) == (0b1100 ^ 0b1010)

    def test_zero_output_width(self):
        assert fold_bits(0xFFFF, 16, 0) == 0

    def test_result_in_range(self):
        for v in (0, 1, 0xDEADBEEF, WORD_MASK):
            assert 0 <= fold_bits(v, 64, 13) < (1 << 13)

    def test_truncates_input(self):
        # Bits above input_bits must not affect the fold.
        assert fold_bits(0xF0F, 8, 4) == fold_bits(0x0F, 8, 4)
