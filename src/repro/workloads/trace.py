"""Functional execution of programs into dynamic µ-op traces.

The trace generator is an interpreter over the synthetic ISA.  It tracks the
architectural register file and a sparse 64-bit memory, resolves branches
and emits one :class:`DynMicroOp` per µ-op with its actual produced value.
The timing model replays this trace; the functional and timing concerns
stay fully separated, as in trace-driven simulators.

Decoding happens once per generator: every static instruction is cracked
(:func:`~repro.isa.instruction.crack`) and flattened into a tuple of its
constant fields — operand registers, immediate, per-µ-op template fields,
fetch-block address and boundary, resolved successor and branch-target
indexes — plus a small integer *kind* that :meth:`TraceGenerator.run`
dispatches on.  Only values, memory addresses and branch outcomes are
computed per dynamic instruction (DESIGN.md §12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.bits import WORD_MASK, to_unsigned
from repro.common.rng import XorShift64
from repro.isa.instruction import (
    DynMicroOp,
    Opcode,
    StaticInst,
    crack,
)
from repro.isa.program import Program

FETCH_BLOCK_BYTES = 16
_BLOCK_MASK = ~(FETCH_BLOCK_BYTES - 1)
_SIGN_BIT = 1 << 63

# Dispatch kinds of decoded instructions, numbered in the order ``run``
# tests them: most frequent in the suite's traces first.
(
    _ADDI, _LOAD, _ADD, _BNE, _ANDI, _BLT, _STORE, _JMP, _LI, _XOR, _RAND,
    _MUL, _BEQ, _SHL, _DIVMOD, _BGE, _SUB, _AND, _OR, _SHR, _XORI, _DIV,
    _LOADADD, _NOP,
) = range(24)

_KIND_OF: dict[Opcode, int] = {
    Opcode.ADD: _ADD, Opcode.FADD: _ADD, Opcode.SUB: _SUB,
    Opcode.AND: _AND, Opcode.OR: _OR, Opcode.XOR: _XOR,
    Opcode.SHL: _SHL, Opcode.SHR: _SHR,
    Opcode.ADDI: _ADDI, Opcode.ANDI: _ANDI, Opcode.XORI: _XORI,
    Opcode.LI: _LI, Opcode.MUL: _MUL, Opcode.FMUL: _MUL,
    Opcode.DIV: _DIV, Opcode.FDIV: _DIV, Opcode.DIVMOD: _DIVMOD,
    Opcode.LOAD: _LOAD, Opcode.STORE: _STORE, Opcode.LOADADD: _LOADADD,
    Opcode.BEQ: _BEQ, Opcode.BNE: _BNE, Opcode.BLT: _BLT, Opcode.BGE: _BGE,
    Opcode.JMP: _JMP, Opcode.RAND: _RAND, Opcode.NOP: _NOP,
}


def _default_memory_value(addr: int) -> int:
    """Deterministic contents of untouched memory.

    A multiplicative hash: distinct addresses give effectively uncorrelated
    values, so loads from unwritten memory look unpredictable — kernels that
    want predictable load streams must store the pattern first (or stream
    over addresses whose values they wrote).
    """
    return to_unsigned(addr * 0x9E3779B97F4A7C15 ^ 0x5DEECE66D, 64)


@dataclass
class Trace:
    """A fully materialised dynamic trace plus its provenance."""

    name: str
    program: Program
    uops: list[DynMicroOp]
    #: number of x86-like instructions (not µ-ops) executed
    inst_count: int = 0
    metadata: dict[str, object] = field(default_factory=dict)


def _decode_inst(
    program: Program, inst: StaticInst, nxt: int, first: dict[str, int]
) -> tuple:
    """Flatten one laid-out instruction into the tuple ``run`` unpacks.

    Sources an opcode may omit read as register ``None``, which is never
    in the register file and so reads 0.  Each µ-op entry holds the
    :class:`DynMicroOp` fields its template fixes, plus whether the µ-op
    carries the memory address.
    """
    kind = _KIND_OF[inst.opcode]
    srcs, dests = inst.srcs, inst.dests
    templates = crack(inst)
    if len(templates) > 2:
        raise NotImplementedError(f"{inst.opcode.name} cracks to >2 µ-ops")
    is_cond = inst.is_conditional
    last = len(templates) - 1
    uops = [
        (t.uop_index, t.dest, t.srcs, t.latency_class, t.is_load, t.is_store,
         t.is_branch, t.is_branch and is_cond, t.is_load_imm,
         t.is_load or t.is_store, i == 0, i == last)
        for i, t in enumerate(templates)
    ]
    # These opcodes use their immediate as an unsigned 64-bit operand.
    imm = inst.imm & WORD_MASK if kind in (_ANDI, _XORI, _LI) else inst.imm
    tgt, tpc = -1, 0
    if inst.is_branch:
        tgt, tpc = first[inst.target], program.target_pc(inst)  # type: ignore[index]
    return (
        kind,
        srcs[0] if srcs else None,
        srcs[1] if len(srcs) > 1 else None,
        imm,
        dests[0] if dests else None,
        dests[1] if len(dests) > 1 else None,
        nxt, tgt, tpc,
        inst.pc, inst.static_id, inst.length,
        inst.pc & _BLOCK_MASK, inst.pc & (FETCH_BLOCK_BYTES - 1),
        uops[0], uops[1] if last else None,
    )


def _decode(program: Program) -> tuple[list[tuple], int]:
    """Decode every instruction once, in layout order.

    Returns the decoded instructions and the index of the entry.  Each
    instruction records the index control reaches when it does not jump:
    the next instruction, or at a block's end the first instruction of its
    fall-through block, or -1 where control falls off the program.
    """
    first: dict[str, int] = {}
    index = 0
    for block in program.blocks:
        first[block.name] = index
        index += len(block.insts)
    code: list[tuple] = []
    for block in program.blocks:
        fall = program.block_fallthrough[block.name]
        end_next = -1 if fall is None else first[fall]
        last = len(block.insts) - 1
        for i, inst in enumerate(block.insts):
            nxt = len(code) + 1 if i < last else end_next
            code.append(_decode_inst(program, inst, nxt, first))
    return code, first[program.entry]


class TraceGenerator:
    """Interpreter producing dynamic µ-ops from a program.

    The generator is resumable: :meth:`run` may be called repeatedly to
    extend the trace, which the experiment harness uses to warm predictors
    before measuring (mirroring the paper's 50M-warmup / 100M-measure
    protocol at our smaller scale).
    """

    def __init__(
        self,
        program: Program,
        seed: int = 42,
        init_regs: dict[int, int] | None = None,
        init_mem: dict[int, int] | None = None,
    ) -> None:
        self.program = program
        self.regs: dict[int, int] = {r: 0 for r in range(32)}
        if init_regs:
            for reg, val in init_regs.items():
                self.regs[reg] = to_unsigned(val, 64)
        self.mem: dict[int, int] = {}
        if init_mem:
            for addr, val in init_mem.items():
                self.mem[addr] = to_unsigned(val, 64)
        self.rng = XorShift64(seed)
        self._seq = 0
        self._inst_count = 0
        # Decoded program and the index of the next instruction to execute.
        self._code, self._next = _decode(program)
        self._halted = False

    @property
    def inst_count(self) -> int:
        return self._inst_count

    @property
    def halted(self) -> bool:
        return self._halted

    def run(self, max_uops: int) -> list[DynMicroOp]:
        """Execute until ``max_uops`` more µ-ops are produced (or halt).

        Execution stops only between instructions, so the last one may
        overshoot ``max_uops`` by its extra µ-ops.  The program halts if
        control falls off the end of a block with no fallthrough successor.
        """
        out: list[DynMicroOp] = []
        if self._halted:
            return out
        append = out.append
        code = self._code
        regs = self.regs
        rget = regs.get
        mem = self.mem
        mget = mem.get
        rand = self.rng.next_u64
        mask = WORD_MASK
        sign = _SIGN_BIT
        seq = self._seq
        stop = seq + max_uops
        idx = self._next
        executed = 0
        halted = False
        mem_addr = None
        while seq < stop:
            (kind, ra, rb, imm, d0, d1, nxt, tgt, tpc,
             pc, sid, length, block_pc, boundary, u0, u1) = code[idx]
            taken = False
            target = 0
            if kind == _ADDI:
                v0 = regs[d0] = (rget(ra, 0) + imm) & mask
            elif kind == _LOAD:
                mem_addr = (rget(ra, 0) + imm) & mask
                v0 = mget(mem_addr)
                if v0 is None:
                    v0 = mem[mem_addr] = _default_memory_value(mem_addr)
                regs[d0] = v0
            elif kind == _ADD:
                v0 = regs[d0] = (rget(ra, 0) + rget(rb, 0)) & mask
            elif kind == _BNE:
                v0 = None
                taken = rget(ra, 0) != rget(rb, 0)
            elif kind == _ANDI:
                v0 = regs[d0] = rget(ra, 0) & imm
            elif kind == _BLT:
                # Flipping the sign bit maps signed order onto unsigned.
                v0 = None
                taken = (rget(ra, 0) ^ sign) < (rget(rb, 0) ^ sign)
            elif kind == _STORE:
                mem_addr = (rget(ra, 0) + imm) & mask
                mem[mem_addr] = rget(rb, 0) & mask
                v0 = v1 = None
            elif kind == _JMP:
                v0 = None
                taken = True
            elif kind == _LI:
                v0 = regs[d0] = imm
            elif kind == _XOR:
                v0 = regs[d0] = rget(ra, 0) ^ rget(rb, 0)
            elif kind == _RAND:
                v0 = regs[d0] = rand()
            elif kind == _MUL:
                v0 = regs[d0] = (rget(ra, 0) * rget(rb, 0)) & mask
            elif kind == _BEQ:
                v0 = None
                taken = rget(ra, 0) == rget(rb, 0)
            elif kind == _SHL:
                v0 = regs[d0] = (rget(ra, 0) << (rget(rb, 0) & 63)) & mask
            elif kind == _DIVMOD:
                a, b = rget(ra, 0), rget(rb, 0)
                v0, v1 = (0, 0) if b == 0 else (a // b, a % b)
                regs[d0] = v0
                regs[d1] = v1
            elif kind == _BGE:
                v0 = None
                taken = (rget(ra, 0) ^ sign) >= (rget(rb, 0) ^ sign)
            elif kind == _SUB:
                v0 = regs[d0] = (rget(ra, 0) - rget(rb, 0)) & mask
            elif kind == _AND:
                v0 = regs[d0] = rget(ra, 0) & rget(rb, 0)
            elif kind == _OR:
                v0 = regs[d0] = rget(ra, 0) | rget(rb, 0)
            elif kind == _SHR:
                v0 = regs[d0] = rget(ra, 0) >> (rget(rb, 0) & 63)
            elif kind == _XORI:
                v0 = regs[d0] = rget(ra, 0) ^ imm
            elif kind == _DIV:
                b = rget(rb, 0)
                v0 = regs[d0] = 0 if b == 0 else rget(ra, 0) // b
            elif kind == _LOADADD:
                mem_addr = (rget(ra, 0) + imm) & mask
                v0 = mget(mem_addr)
                if v0 is None:
                    v0 = mem[mem_addr] = _default_memory_value(mem_addr)
                v1 = regs[d0] = (v0 + rget(rb, 0)) & mask
            else:  # _NOP
                v0 = None
            if taken:
                target = tpc
                nxt = tgt
            executed += 1

            (uop_index, dest, srcs, lat, is_load, is_store, is_branch,
             is_cond, is_li, has_mem, first, last) = u0
            append(DynMicroOp(
                seq, pc, sid, uop_index, length, block_pc, boundary, dest,
                srcs, v0, lat, is_load, is_store, is_branch, is_cond, is_li,
                mem_addr if has_mem else None, taken, target, first, last,
            ))
            seq += 1
            if u1 is not None:
                (uop_index, dest, srcs, lat, is_load, is_store, is_branch,
                 is_cond, is_li, has_mem, first, last) = u1
                append(DynMicroOp(
                    seq, pc, sid, uop_index, length, block_pc, boundary, dest,
                    srcs, v1, lat, is_load, is_store, is_branch, is_cond,
                    is_li, mem_addr if has_mem else None, taken, target,
                    first, last,
                ))
                seq += 1
            if nxt < 0:
                halted = True
                break
            idx = nxt
        self._seq = seq
        self._inst_count += executed
        self._next = idx
        self._halted = halted
        return out


def generate_trace(
    program: Program,
    max_uops: int,
    name: str = "anonymous",
    seed: int = 42,
    init_regs: dict[int, int] | None = None,
    init_mem: dict[int, int] | None = None,
) -> Trace:
    """Convenience wrapper: build a generator, run it, wrap the result.

    If the program halts before ``max_uops`` µ-ops, the trace is simply
    shorter — loops in the suite's kernels are written to be effectively
    unbounded so this only happens for straight-line test programs.
    """
    gen = TraceGenerator(program, seed=seed, init_regs=init_regs, init_mem=init_mem)
    uops = gen.run(max_uops)
    return Trace(name=name, program=program, uops=uops, inst_count=gen.inst_count)
