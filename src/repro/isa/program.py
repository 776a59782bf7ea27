"""Static program representation: basic blocks laid out in memory.

A :class:`Program` is an ordered collection of named basic blocks.  Layout
assigns byte addresses to every instruction (respecting their variable
encoded lengths) and resolves branch targets from block names to PCs.  The
functional interpreter in :mod:`repro.workloads.trace` then walks the laid
out program to produce dynamic µ-op traces.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.isa.instruction import StaticInst

#: Code starts here; a non-zero base catches accidental PC/index confusion.
CODE_BASE_ADDRESS = 0x40_0000


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions ending the block.

    Control can only enter at the first instruction.  If the last instruction
    is not a branch, control falls through to ``fallthrough`` (or the next
    block in program order when ``fallthrough`` is None).
    """

    name: str
    insts: list[StaticInst] = field(default_factory=list)
    fallthrough: str | None = None

    def add(self, inst: StaticInst) -> None:
        self.insts.append(inst)


class Program:
    """A laid-out program: blocks, PC-resolved instructions, entry point."""

    def __init__(self, blocks: list[BasicBlock], entry: str | None = None) -> None:
        if not blocks:
            raise ValueError("a program needs at least one basic block")
        names = [b.name for b in blocks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate basic-block names in {names}")
        self.blocks = blocks
        self.entry = entry if entry is not None else blocks[0].name
        if self.entry not in set(names):
            raise ValueError(f"entry block {self.entry!r} not defined")
        self._block_by_name: dict[str, BasicBlock] = {b.name: b for b in blocks}
        self.block_start_pc: dict[str, int] = {}
        #: instructions in layout order with pc/static_id filled in
        self.insts: list[StaticInst] = []
        #: block name -> name of its fallthrough successor block (None: the
        #: program halts when control falls off that block)
        self.block_fallthrough: dict[str, str | None] = {}
        self._layout()

    def _layout(self) -> None:
        """Assign PCs sequentially and resolve branch targets.

        Each block's instruction list is rewritten in place with the
        laid-out (pc- and id-carrying) copies, so walking either
        ``self.insts`` or ``block.insts`` sees the same objects.
        """
        pc = CODE_BASE_ADDRESS
        static_id = 0
        for index, block in enumerate(self.blocks):
            if not block.insts:
                raise ValueError(f"basic block {block.name!r} is empty")
            self.block_start_pc[block.name] = pc
            fall = block.fallthrough
            if fall is None and index + 1 < len(self.blocks):
                fall = self.blocks[index + 1].name
            self.block_fallthrough[block.name] = fall
            laid_out = []
            for inst in block.insts:
                if inst.target is not None and inst.target not in self._block_by_name:
                    raise ValueError(
                        f"branch in block {block.name!r} targets unknown "
                        f"block {inst.target!r}"
                    )
                laid_out.append(
                    dataclasses.replace(inst, pc=pc, static_id=static_id)
                )
                pc += inst.length
                static_id += 1
            block.insts[:] = laid_out
            self.insts.extend(laid_out)

    def target_pc(self, inst: StaticInst) -> int:
        """Resolved PC of a branch instruction's target block."""
        if inst.target is None:
            raise ValueError(f"instruction at {inst.pc:#x} has no target")
        return self.block_start_pc[inst.target]
