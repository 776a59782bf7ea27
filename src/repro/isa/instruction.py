"""Static instructions, µ-op cracking and dynamic µ-ops.

An x86-like instruction is described statically (:class:`StaticInst`) by its
opcode, operands, byte length and PC.  At decode it *cracks* into a fixed
per-opcode sequence of µ-op templates (:func:`crack`), and at trace-generation
time each template instance becomes a :class:`DynMicroOp` carrying the actual
produced value, memory address or branch outcome — everything the timing model
and the value predictor need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Opcode(enum.Enum):
    """Operation kinds of the synthetic ISA."""

    # Integer ALU (1-cycle).
    ADD = enum.auto()       # rd = ra + rb
    SUB = enum.auto()       # rd = ra - rb
    AND = enum.auto()       # rd = ra & rb
    OR = enum.auto()        # rd = ra | rb
    XOR = enum.auto()       # rd = ra ^ rb
    SHL = enum.auto()       # rd = ra << (rb & 63)
    SHR = enum.auto()       # rd = ra >> (rb & 63)
    ADDI = enum.auto()      # rd = ra + imm
    ANDI = enum.auto()      # rd = ra & imm
    XORI = enum.auto()      # rd = ra ^ imm
    # Load immediate (the "free load immediate prediction" case, §II-B3).
    LI = enum.auto()        # rd = imm
    # Integer multiply / divide.
    MUL = enum.auto()       # rd = ra * rb (low 64 bits)
    DIV = enum.auto()       # rd = ra / rb (0 if rb == 0)
    # divmod produces TWO results (quotient and remainder): exercises
    # multi-result instructions inside one fetch block.
    DIVMOD = enum.auto()    # rd = ra / rb ; rd2 = ra % rb
    # Floating point (modelled on 64-bit integers with FP latencies).
    FADD = enum.auto()
    FMUL = enum.auto()
    FDIV = enum.auto()
    # Memory.
    LOAD = enum.auto()      # rd = mem[ra + imm]
    STORE = enum.auto()     # mem[ra + imm] = rb     (cracks to 2 µ-ops)
    LOADADD = enum.auto()   # rd = mem[ra + imm] + rb (load-op, 2 µ-ops)
    # Control flow.  Targets are basic-block names resolved at layout time.
    BEQ = enum.auto()       # if ra == rb goto target
    BNE = enum.auto()
    BLT = enum.auto()       # signed <
    BGE = enum.auto()
    JMP = enum.auto()       # unconditional
    # Unpredictable value source (models data-dependent computation the
    # predictor cannot learn: hashing, RNG, compression state...).
    RAND = enum.auto()      # rd = next deterministic-pseudo-random value
    NOP = enum.auto()


class LatencyClass(enum.Enum):
    """Functional-unit classes (Table I of the paper).

    The latencies themselves (ALU 1c; Mul 3c / Div 25c not pipelined;
    FP 3c; FPMul 5c / FPDiv 10c not pipelined; loads from the cache model)
    live in the pipeline model, which owns unit counts and pipelining.
    """

    ALU = enum.auto()       # 4 units, 1 cycle
    MUL = enum.auto()       # the MulDiv unit, 3 cycles pipelined
    DIV = enum.auto()       # the MulDiv unit, 25 cycles, not pipelined
    FP = enum.auto()        # 2 units, 3 cycles
    FPMUL = enum.auto()     # 2 FPMulDiv units, 5 cycles
    FPDIV = enum.auto()     # FPMulDiv, 10 cycles, not pipelined
    MEM = enum.auto()       # loads/stores; latency from the cache model
    BRANCH = enum.auto()    # resolves on an ALU-like port, 1 cycle
    NONE = enum.auto()      # no execution (NOP)


#: Opcodes whose semantics are conditional branches.
CONDITIONAL_BRANCHES = frozenset({Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE})
#: All control-flow opcodes.
BRANCH_OPCODES = CONDITIONAL_BRANCHES | {Opcode.JMP}


@dataclass(frozen=True)
class StaticInst:
    """One static instruction of a program.

    ``length`` is the encoded size in bytes (1-15): with 16-byte fetch blocks
    this is what makes boundary discovery non-trivial, as in x86.  ``pc`` is
    assigned when the enclosing :class:`~repro.isa.program.Program` is laid
    out.
    """

    opcode: Opcode
    dests: tuple[int, ...] = ()
    srcs: tuple[int, ...] = ()
    imm: int = 0
    target: str | None = None       # basic-block name for branches
    length: int = 4                 # encoded bytes, 1..15
    pc: int = -1                    # filled in by Program.layout()
    static_id: int = -1             # dense id, filled in by Program.layout()

    def __post_init__(self) -> None:
        if not 1 <= self.length <= 15:
            raise ValueError(f"instruction length must be 1..15, got {self.length}")
        if self.opcode in BRANCH_OPCODES and self.target is None:
            raise ValueError(f"{self.opcode.name} requires a target block")

    @property
    def is_branch(self) -> bool:
        return self.opcode in BRANCH_OPCODES

    @property
    def is_conditional(self) -> bool:
        return self.opcode in CONDITIONAL_BRANCHES


@dataclass(frozen=True)
class MicroOpTemplate:
    """One µ-op of a cracked instruction (static side).

    ``dest`` is the architectural destination register or ``None``.
    ``uop_index`` is the µ-op's position inside its parent instruction, used
    to XOR into predictor indexes for instruction-based VP (Section V-B).
    """

    uop_index: int
    dest: int | None
    srcs: tuple[int, ...]
    latency_class: LatencyClass
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    is_load_imm: bool = False


# Temporary (micro-architectural) registers used between µ-ops of one
# instruction; they live outside the architectural namespace.
TEMP_REG_BASE = 1000


def crack(inst: StaticInst) -> tuple[MicroOpTemplate, ...]:
    """Crack a static instruction into its µ-op templates.

    Mirrors typical x86 decomposition: plain ALU ops are one µ-op, stores
    split into address-generation and data µ-ops, load-op instructions split
    into a load and a dependent ALU op, ``DIVMOD`` emits two result-producing
    µ-ops.
    """
    op = inst.opcode
    if op is Opcode.NOP:
        return (MicroOpTemplate(0, None, (), LatencyClass.NONE),)
    if op in BRANCH_OPCODES:
        return (
            MicroOpTemplate(
                0, None, inst.srcs, LatencyClass.BRANCH, is_branch=True
            ),
        )
    if op is Opcode.LI:
        return (
            MicroOpTemplate(
                0, inst.dests[0], (), LatencyClass.ALU, is_load_imm=True
            ),
        )
    if op is Opcode.LOAD:
        return (
            MicroOpTemplate(0, inst.dests[0], inst.srcs, LatencyClass.MEM, is_load=True),
        )
    if op is Opcode.STORE:
        # Address generation µ-op, then the store-data µ-op. Neither produces
        # a register value visible to later instructions.
        return (
            MicroOpTemplate(0, None, (inst.srcs[0],), LatencyClass.ALU),
            MicroOpTemplate(1, None, inst.srcs, LatencyClass.MEM, is_store=True),
        )
    if op is Opcode.LOADADD:
        temp = TEMP_REG_BASE
        return (
            MicroOpTemplate(0, temp, (inst.srcs[0],), LatencyClass.MEM, is_load=True),
            MicroOpTemplate(1, inst.dests[0], (temp, inst.srcs[1]), LatencyClass.ALU),
        )
    if op is Opcode.DIVMOD:
        return (
            MicroOpTemplate(0, inst.dests[0], inst.srcs, LatencyClass.DIV),
            MicroOpTemplate(1, inst.dests[1], inst.srcs, LatencyClass.DIV),
        )
    if op is Opcode.MUL:
        return (MicroOpTemplate(0, inst.dests[0], inst.srcs, LatencyClass.MUL),)
    if op is Opcode.DIV:
        return (MicroOpTemplate(0, inst.dests[0], inst.srcs, LatencyClass.DIV),)
    if op is Opcode.FADD:
        return (MicroOpTemplate(0, inst.dests[0], inst.srcs, LatencyClass.FP),)
    if op is Opcode.FMUL:
        return (MicroOpTemplate(0, inst.dests[0], inst.srcs, LatencyClass.FPMUL),)
    if op is Opcode.FDIV:
        return (MicroOpTemplate(0, inst.dests[0], inst.srcs, LatencyClass.FPDIV),)
    # Remaining integer ALU forms (ADD..XORI, RAND).
    return (MicroOpTemplate(0, inst.dests[0], inst.srcs, LatencyClass.ALU),)


class DynMicroOp:
    """One dynamic µ-op of the executed trace.

    This is the unit the pipeline model retires and the unit BeBoP attributes
    predictions to.  ``block_pc`` is the 16-byte-aligned fetch-block address
    and ``boundary`` the byte offset of the parent instruction inside that
    block — the tag BeBoP matches per-prediction tags against (§II-B1).
    """

    __slots__ = (
        "seq",
        "pc",
        "static_id",
        "uop_index",
        "inst_length",
        "block_pc",
        "boundary",
        "dest",
        "srcs",
        "value",
        "latency_class",
        "is_load",
        "is_store",
        "is_branch",
        "is_cond_branch",
        "is_load_imm",
        "mem_addr",
        "branch_taken",
        "branch_target",
        "is_first_uop",
        "is_last_uop",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        static_id: int,
        uop_index: int,
        inst_length: int,
        block_pc: int,
        boundary: int,
        dest: int | None,
        srcs: tuple[int, ...],
        value: int | None,
        latency_class: LatencyClass,
        is_load: bool = False,
        is_store: bool = False,
        is_branch: bool = False,
        is_cond_branch: bool = False,
        is_load_imm: bool = False,
        mem_addr: int | None = None,
        branch_taken: bool = False,
        branch_target: int = 0,
        is_first_uop: bool = True,
        is_last_uop: bool = True,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.static_id = static_id
        self.uop_index = uop_index
        self.inst_length = inst_length
        self.block_pc = block_pc
        self.boundary = boundary
        self.dest = dest
        self.srcs = srcs
        self.value = value
        self.latency_class = latency_class
        self.is_load = is_load
        self.is_store = is_store
        self.is_branch = is_branch
        self.is_cond_branch = is_cond_branch
        self.is_load_imm = is_load_imm
        self.mem_addr = mem_addr
        self.branch_taken = branch_taken
        self.branch_target = branch_target
        self.is_first_uop = is_first_uop
        self.is_last_uop = is_last_uop

    @property
    def is_vp_eligible(self) -> bool:
        """Predictable by the value predictor.

        Load-immediates are excluded: their result is available in the
        front-end for free (§II-B3), so the predictor is neither trained nor
        queried for them.
        """
        return self.dest is not None and not self.is_load_imm
