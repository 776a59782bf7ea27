"""Simulation statistics."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SimStats:
    """Counters collected by one :class:`~repro.pipeline.core.PipelineModel`
    run, measured over the post-warmup window.

    Ad-hoc side-channel counters belong in :mod:`repro.obs` (namespaced
    metrics on the registry), not here: the dataclass fields are the stable
    result schema that the on-disk cache serialises and equality compares.
    """

    workload: str = ""
    config: str = ""
    cycles: int = 0
    uops: int = 0
    insts: int = 0
    # Branch prediction.
    branches: int = 0
    branch_mispredicts: int = 0
    btb_misses: int = 0
    # Value prediction.
    vp_eligible: int = 0
    vp_predicted: int = 0        # predictions available (any confidence)
    vp_used: int = 0             # confident -> written to PRF
    vp_used_correct: int = 0
    vp_squashes: int = 0         # commit-time squashes on wrong used preds
    # EOLE.
    early_executed: int = 0
    late_executed: int = 0
    # Memory.
    l1d_misses: int = 0
    l2_misses: int = 0

    @property
    def ipc(self) -> float:
        """Committed instructions (not µ-ops) per cycle."""
        return self.insts / self.cycles if self.cycles else 0.0

    @property
    def vp_accuracy(self) -> float:
        """Fraction of *used* predictions that were correct (paper: >99.5%
        is the target enforced by FPC confidence)."""
        return self.vp_used_correct / self.vp_used if self.vp_used else 0.0

    @property
    def vp_coverage(self) -> float:
        """Fraction of eligible µ-ops whose prediction was used."""
        return self.vp_used / self.vp_eligible if self.vp_eligible else 0.0

    @property
    def branch_mpki(self) -> float:
        """Branch mispredictions per kilo-instruction."""
        return 1000.0 * self.branch_mispredicts / self.insts if self.insts else 0.0


def gmean(values: list[float]) -> float:
    """Geometric mean, the paper's aggregate for speedups."""
    if not values:
        raise ValueError("gmean of no values")
    product = 1.0
    for v in values:
        if v <= 0:
            raise ValueError(f"gmean requires positive values, got {v}")
        product *= v
    return product ** (1.0 / len(values))
