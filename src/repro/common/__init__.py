"""Shared low-level utilities used across the predictor and pipeline models.

This package holds the plumbing common to every hardware structure in the
reproduction: fixed-width bit arithmetic (:mod:`repro.common.bits`), folded
global branch/path histories as used by TAGE-like predictors
(:mod:`repro.common.history`), and a small deterministic pseudo-random
generator (:mod:`repro.common.rng`) so that every simulation run is
reproducible bit-for-bit.
"""

from repro.common.bits import (
    fold_bits,
    mask,
    to_signed,
    to_unsigned,
)
from repro.common.history import FoldedHistory, GlobalHistory
from repro.common.rng import XorShift64

__all__ = [
    "fold_bits",
    "mask",
    "to_signed",
    "to_unsigned",
    "FoldedHistory",
    "GlobalHistory",
    "XorShift64",
]
