"""Architectural register namespace.

Sixteen integer registers (``r0``-``r15``) and sixteen floating-point
registers (``f0``-``f15``), identified by small integers ``0..31``.  FP
registers occupy the upper half of the id space.  There is no hardwired zero
register; workload kernels initialise what they use.
"""

from __future__ import annotations

NUM_INT_REGS = 16
NUM_FP_REGS = 16
NUM_ARCH_REGS = NUM_INT_REGS + NUM_FP_REGS

#: Integer register ids.
INT_REGS = tuple(range(NUM_INT_REGS))
#: Floating-point register ids.
FP_REGS = tuple(range(NUM_INT_REGS, NUM_ARCH_REGS))


def int_reg(index: int) -> int:
    """Return the register id of integer register ``r<index>``."""
    if not 0 <= index < NUM_INT_REGS:
        raise ValueError(f"integer register index out of range: {index}")
    return index


def fp_reg(index: int) -> int:
    """Return the register id of floating-point register ``f<index>``."""
    if not 0 <= index < NUM_FP_REGS:
        raise ValueError(f"FP register index out of range: {index}")
    return NUM_INT_REGS + index
