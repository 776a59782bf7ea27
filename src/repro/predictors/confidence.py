"""Forward Probabilistic Counter policy shared by predictor tables.

*Forward Probabilistic Counters* (FPC, Perais & Seznec HPCA 2014) are 3-bit
confidence counters that are reset on a wrong prediction and incremented
only with a per-level probability on a correct one.  With probability
vector ``{1, 1/16, 1/16, 1/16, 1/16, 1/32, 1/32}`` an instruction must be
correct around 130 times on average before its prediction is used, which is
what pushes accuracy above 99.5%.

Predictor entries store confidence as a plain integer level; the shared
:class:`FPCPolicy` holds the probability vector and the RNG and performs the
probabilistic transitions.  This mirrors hardware (one global LFSR feeding
every counter) and avoids one RNG object per table entry.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.common.bits import WORD_MASK
from repro.common.rng import XorShift64

#: Probability vector used in the paper (Section V-B) for 3-bit FPC:
#: the first transition (0 -> 1) always happens, the next four happen with
#: probability 1/16 and the last two with probability 1/32.
PAPER_FPC_PROBABILITIES: tuple[float, ...] = (
    1.0,
    1.0 / 16,
    1.0 / 16,
    1.0 / 16,
    1.0 / 16,
    1.0 / 32,
    1.0 / 32,
)

__all__ = ["FPCPolicy", "PAPER_FPC_PROBABILITIES"]


class FPCPolicy:
    """Probability vector + RNG driving all FPC levels of a predictor.

    With ``probabilities=(1.0,) * n`` this degenerates to a plain saturating
    counter, which the ablation benchmark uses to quantify what FPC buys.
    """

    __slots__ = ("bits", "max_level", "probabilities", "thresholds", "_rng")

    def __init__(
        self,
        bits: int = 3,
        probabilities: Sequence[float] = PAPER_FPC_PROBABILITIES,
        seed: int = 0xF9C,
    ) -> None:
        self.bits = bits
        self.max_level = (1 << bits) - 1
        if len(probabilities) != self.max_level:
            raise ValueError(
                f"need {self.max_level} probabilities for {bits}-bit counters, "
                f"got {len(probabilities)}"
            )
        self.probabilities = tuple(probabilities)
        #: Per level, what :meth:`advance` does without the method call:
        #: None = always advance (no RNG draw), -1 = never, otherwise
        #: advance when the next RNG draw is below the threshold — exactly
        #: ``XorShift64.chance(probabilities[level])``.
        self.thresholds = tuple(
            None if p >= 1.0 else -1 if p <= 0.0 else int(p * (WORD_MASK + 1))
            for p in self.probabilities
        )
        self._rng = XorShift64(seed)

    def advance(self, level: int) -> int:
        """One correct prediction: maybe move the level up."""
        if level < self.max_level and self._rng.chance(self.probabilities[level]):
            return level + 1
        return level

    def is_confident(self, level: int) -> bool:
        """A prediction is used only at the saturated level."""
        return level >= self.max_level

    @staticmethod
    def reset_level() -> int:
        """Level after a misprediction."""
        return 0


def saturating_policy(bits: int = 3, seed: int = 0xF9C) -> FPCPolicy:
    """A policy where every correct prediction advances the counter.

    Used by the FPC-vs-saturating ablation (DESIGN.md §6).
    """
    return FPCPolicy(bits=bits, probabilities=(1.0,) * ((1 << bits) - 1), seed=seed)
