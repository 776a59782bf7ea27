"""A synthetic variable-length ISA in the spirit of x86_64.

BeBoP exists because real ISAs are messy: instructions have variable byte
lengths, are cracked into a variable number of µ-ops, and may produce several
results — so there is no natural one-to-one mapping between predictor entries
and PCs.  This package defines a compact ISA with exactly those properties:

* instructions are 1-15 bytes long, so a 16-byte fetch block holds a variable
  number of them and an instruction's byte offset inside its block (its
  *boundary*) is only known after pre-decode;
* each instruction cracks into 1-3 µ-ops, zero or more of which produce a
  64-bit register result (the value-predictable ones);
* conditional branches, loads/stores, integer and FP arithmetic with
  distinct latency classes are all present.

The static side (:class:`~repro.isa.instruction.StaticInst`,
:class:`~repro.isa.program.Program`) is what workload kernels are written in;
the dynamic side (:class:`~repro.isa.instruction.DynMicroOp`) is what the
trace generator emits and the pipeline model consumes.
"""

from repro.isa.instruction import (
    DynMicroOp,
    LatencyClass,
    MicroOpTemplate,
    Opcode,
    StaticInst,
    crack,
)
from repro.isa.program import BasicBlock, Program
from repro.isa.registers import (
    FP_REGS,
    INT_REGS,
    NUM_ARCH_REGS,
    fp_reg,
    int_reg,
)

__all__ = [
    "Opcode",
    "LatencyClass",
    "StaticInst",
    "MicroOpTemplate",
    "DynMicroOp",
    "crack",
    "BasicBlock",
    "Program",
    "INT_REGS",
    "FP_REGS",
    "NUM_ARCH_REGS",
    "int_reg",
    "fp_reg",
]
