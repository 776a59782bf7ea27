"""Fixed-width bit arithmetic helpers.

Hardware tables store fixed-width fields (partial tags, partial strides,
folded histories).  Python integers are unbounded, so every structure in the
model funnels its width handling through these helpers to keep the semantics
(wrap-around, sign extension) explicit and in one place.
"""

from __future__ import annotations

WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1


def mask(bits: int) -> int:
    """Return a mask with the ``bits`` low-order bits set.

    >>> mask(4)
    15
    >>> mask(0)
    0
    """
    if bits < 0:
        raise ValueError(f"bit width must be non-negative, got {bits}")
    return (1 << bits) - 1


def to_unsigned(value: int, bits: int = WORD_BITS) -> int:
    """Truncate ``value`` to an unsigned ``bits``-wide integer (wraps)."""
    return value & mask(bits)


def to_signed(value: int, bits: int = WORD_BITS) -> int:
    """Interpret the low ``bits`` of ``value`` as a two's-complement number.

    >>> to_signed(0xFF, 8)
    -1
    >>> to_signed(0x7F, 8)
    127
    """
    value &= mask(bits)
    sign_bit = 1 << (bits - 1)
    if value & sign_bit:
        return value - (1 << bits)
    return value


def fold_bits(value: int, input_bits: int, output_bits: int) -> int:
    """XOR-fold ``input_bits`` of ``value`` down to ``output_bits``.

    This mirrors the folded-history logic of TAGE-family predictors: the long
    global history is compressed into an index/tag-sized value by XORing
    successive ``output_bits``-wide chunks.

    >>> fold_bits(0b1010_1100, 8, 4)
    6
    """
    if output_bits <= 0:
        return 0
    value &= mask(input_bits)
    chunk = mask(output_bits)
    folded = 0
    while value:
        folded ^= value & chunk
        value >>= output_bits
    return folded
