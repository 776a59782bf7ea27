"""Unit tests for the synthetic ISA: registers, instructions, cracking."""

import pytest

from repro.isa import (
    LatencyClass,
    Opcode,
    StaticInst,
    crack,
    fp_reg,
    int_reg,
)
from repro.isa.instruction import TEMP_REG_BASE


class TestRegisters:
    def test_int_reg(self):
        assert int_reg(0) == 0
        assert int_reg(15) == 15

    def test_fp_reg_offset(self):
        assert fp_reg(0) == 16
        assert fp_reg(15) == 31

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            int_reg(16)
        with pytest.raises(ValueError):
            fp_reg(16)


class TestStaticInst:
    def test_length_bounds(self):
        with pytest.raises(ValueError):
            StaticInst(Opcode.NOP, length=0)
        with pytest.raises(ValueError):
            StaticInst(Opcode.NOP, length=16)

    def test_branch_requires_target(self):
        with pytest.raises(ValueError):
            StaticInst(Opcode.BEQ, srcs=(1, 2), length=4)

    def test_branch_flags(self):
        beq = StaticInst(Opcode.BEQ, srcs=(1, 2), target="loop", length=2)
        jmp = StaticInst(Opcode.JMP, target="loop", length=2)
        add = StaticInst(Opcode.ADD, dests=(1,), srcs=(2, 3), length=3)
        assert beq.is_branch and beq.is_conditional
        assert jmp.is_branch and not jmp.is_conditional
        assert not add.is_branch


class TestCrack:
    def test_alu_single_uop(self):
        inst = StaticInst(Opcode.ADD, dests=(1,), srcs=(2, 3), length=3)
        (uop,) = crack(inst)
        assert uop.dest == 1
        assert uop.srcs == (2, 3)
        assert uop.latency_class is LatencyClass.ALU
        assert uop.dest is not None

    def test_load(self):
        inst = StaticInst(Opcode.LOAD, dests=(4,), srcs=(5,), imm=8, length=4)
        (uop,) = crack(inst)
        assert uop.is_load
        assert uop.latency_class is LatencyClass.MEM

    def test_store_cracks_to_two(self):
        inst = StaticInst(Opcode.STORE, srcs=(1, 2), length=4)
        uops = crack(inst)
        assert len(uops) == 2
        assert uops[1].is_store
        assert all(u.dest is None for u in uops)

    def test_loadadd_uses_temp(self):
        inst = StaticInst(Opcode.LOADADD, dests=(1,), srcs=(2, 3), length=5)
        load, add = crack(inst)
        assert load.is_load
        assert load.dest == TEMP_REG_BASE
        assert TEMP_REG_BASE in add.srcs
        assert add.dest == 1

    def test_divmod_two_results(self):
        inst = StaticInst(Opcode.DIVMOD, dests=(1, 2), srcs=(3, 4), length=4)
        q, r = crack(inst)
        assert q.dest == 1 and r.dest == 2
        assert q.latency_class is LatencyClass.DIV
        assert q.uop_index == 0 and r.uop_index == 1

    def test_li_is_free(self):
        inst = StaticInst(Opcode.LI, dests=(1,), imm=5, length=2)
        (uop,) = crack(inst)
        assert uop.is_load_imm
        assert uop.dest is not None

    def test_branch_no_result(self):
        inst = StaticInst(Opcode.BNE, srcs=(1, 2), target="x", length=2)
        (uop,) = crack(inst)
        assert uop.is_branch
        assert uop.dest is None

    def test_fp_latency_classes(self):
        fadd = StaticInst(Opcode.FADD, dests=(17,), srcs=(17, 18), length=4)
        fmul = StaticInst(Opcode.FMUL, dests=(17,), srcs=(17, 18), length=4)
        fdiv = StaticInst(Opcode.FDIV, dests=(17,), srcs=(17, 18), length=4)
        assert crack(fadd)[0].latency_class is LatencyClass.FP
        assert crack(fmul)[0].latency_class is LatencyClass.FPMUL
        assert crack(fdiv)[0].latency_class is LatencyClass.FPDIV

    def test_latency_classes_distinct(self):
        # A regression guard: enum members must not alias.
        assert LatencyClass.FP is not LatencyClass.MUL
        assert LatencyClass.ALU is not LatencyClass.BRANCH
        assert len({m.value for m in LatencyClass}) == len(list(LatencyClass))
