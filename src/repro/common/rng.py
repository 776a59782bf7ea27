"""Deterministic pseudo-random number generation.

Hardware predictors use small LFSRs for probabilistic decisions (TAGE
allocation choice, forward-probabilistic confidence increments).  We model
them with a xorshift64 generator: fast, stateful, and fully deterministic so
that two simulations with the same seed produce identical cycle counts.
"""

from __future__ import annotations

import hashlib

from repro.common.bits import WORD_MASK


class XorShift64:
    """Marsaglia xorshift64 generator with a 64-bit state.

    >>> rng = XorShift64(seed=1)
    >>> a = rng.next_u64()
    >>> rng2 = XorShift64(seed=1)
    >>> a == rng2.next_u64()
    True
    """

    def __init__(self, seed: int = 0x9E3779B97F4A7C15) -> None:
        if seed == 0:
            # A zero state is a fixed point of xorshift; remap it.
            seed = 0x9E3779B97F4A7C15
        self._state = seed & WORD_MASK

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit value."""
        x = self._state
        x ^= (x << 13) & WORD_MASK
        x ^= x >> 7
        x ^= (x << 17) & WORD_MASK
        self._state = x
        return x

    def next_below(self, bound: int) -> int:
        """Return a value uniform-ish in ``[0, bound)``.

        Modulo bias is irrelevant at the scale of table-allocation decisions,
        matching how real designs use a handful of LFSR bits.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def chance(self, probability: float) -> bool:
        """Bernoulli draw with the given probability (0.0..1.0)."""
        if probability >= 1.0:
            return True
        if probability <= 0.0:
            return False
        return self.next_u64() < int(probability * (WORD_MASK + 1))


def deterministic_backoff(key: str, attempt: int, base: float,
                          cap: float) -> float:
    """Exponential backoff delay with deterministic jitter.

    ``attempt`` counts retries from 1; the raw delay doubles per attempt
    (``base * 2**(attempt-1)``) and is capped at ``cap`` *before* jitter.
    Jitter scales the raw delay by a factor in ``[0.5, 1.0)`` drawn from
    ``sha256(key # attempt)`` — a pure function of its inputs, so two
    processes retrying the same key never thunder in lockstep yet every
    rerun of the same scenario waits exactly as long.  Used by the
    sweep server's lease re-queue and the serve client's
    transient-failure retries.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    if base < 0 or cap < 0:
        raise ValueError(f"base and cap must be >= 0, got {base}, {cap}")
    raw = min(cap, base * (2.0 ** (attempt - 1)))
    digest = hashlib.sha256(f"{key}#{attempt}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return raw * (0.5 + 0.5 * unit)
