"""Unit tests for program layout and trace generation."""

import pytest

from repro.isa import BasicBlock, Opcode, Program, StaticInst, int_reg
from repro.isa.program import CODE_BASE_ADDRESS
from repro.workloads.trace import FETCH_BLOCK_BYTES, TraceGenerator, generate_trace


def _li(rd, imm, length=4):
    return StaticInst(Opcode.LI, dests=(rd,), imm=imm, length=length)


def _addi(rd, rs, imm, length=4):
    return StaticInst(Opcode.ADDI, dests=(rd,), srcs=(rs,), imm=imm, length=length)


def _branch(op, a, b, target, length=2):
    return StaticInst(op, srcs=(a, b), target=target, length=length)


def make_counting_loop(trip=5):
    """entry: i=0, n=trip; loop: i+=1; blt i,n,loop  (then halts)."""
    entry = BasicBlock("entry")
    entry.add(_li(1, 0))
    entry.add(_li(2, trip))
    loop = BasicBlock("loop")
    loop.add(_addi(1, 1, 1))
    loop.add(_branch(Opcode.BLT, 1, 2, "loop"))
    return Program([entry, loop])


class TestProgramLayout:
    def test_pcs_sequential(self):
        p = make_counting_loop()
        pcs = [inst.pc for inst in p.insts]
        assert pcs[0] == CODE_BASE_ADDRESS
        for a, b, inst in zip(pcs, pcs[1:], p.insts):
            assert b == a + inst.length

    def test_blocks_rewritten_in_place(self):
        """The laid-out instructions must be visible through block.insts
        (regression: the interpreter once saw pc=-1 copies)."""
        p = make_counting_loop()
        for block in p.blocks:
            for inst in block.insts:
                assert inst.pc >= CODE_BASE_ADDRESS
                assert inst.static_id >= 0

    def test_target_resolution(self):
        p = make_counting_loop()
        branch = p.blocks[1].insts[-1]
        assert p.target_pc(branch) == p.block_start_pc["loop"]

    def test_unknown_target_raises(self):
        b = BasicBlock("b")
        b.add(_branch(Opcode.BEQ, 1, 2, "nowhere"))
        with pytest.raises(ValueError):
            Program([b])

    def test_duplicate_names_raise(self):
        b1, b2 = BasicBlock("x"), BasicBlock("x")
        b1.add(_li(1, 0))
        b2.add(_li(1, 0))
        with pytest.raises(ValueError):
            Program([b1, b2])

    def test_empty_block_raises(self):
        with pytest.raises(ValueError):
            Program([BasicBlock("empty")])

    def test_entry_defaults_to_first(self):
        p = make_counting_loop()
        assert p.entry == "entry"
        assert p.entry_pc == CODE_BASE_ADDRESS

    def test_code_bytes(self):
        p = make_counting_loop()
        assert p.code_bytes() == sum(i.length for i in p.insts)


class TestTraceGenerator:
    def test_loop_executes_trip_times(self):
        p = make_counting_loop(trip=5)
        trace = generate_trace(p, 1000)
        addis = [u for u in trace.uops if u.pc == p.blocks[1].insts[0].pc]
        assert len(addis) == 5
        assert [u.value for u in addis] == [1, 2, 3, 4, 5]

    def test_halts_at_program_end(self):
        p = make_counting_loop(trip=3)
        gen = TraceGenerator(p)
        uops = gen.run(1000)
        assert gen.halted
        assert len(uops) == 2 + 3 * 2  # entry LIs + 3 x (addi, blt)

    def test_branch_outcomes(self):
        p = make_counting_loop(trip=3)
        trace = generate_trace(p, 1000)
        branches = [u for u in trace.uops if u.is_branch]
        assert [b.branch_taken for b in branches] == [True, True, False]
        assert branches[0].branch_target == p.block_start_pc["loop"]

    def test_block_pc_and_boundary(self):
        p = make_counting_loop()
        trace = generate_trace(p, 100)
        for u in trace.uops:
            assert u.block_pc % FETCH_BLOCK_BYTES == 0
            assert 0 <= u.boundary < FETCH_BLOCK_BYTES
            assert u.block_pc + u.boundary == u.pc

    def test_sequence_numbers_monotonic(self):
        p = make_counting_loop()
        trace = generate_trace(p, 100)
        seqs = [u.seq for u in trace.uops]
        assert seqs == list(range(len(seqs)))

    def test_memory_roundtrip(self):
        entry = BasicBlock("entry")
        entry.add(_li(1, 0x2000))       # address
        entry.add(_li(2, 77))           # value
        entry.add(StaticInst(Opcode.STORE, srcs=(1, 2), length=4))
        entry.add(StaticInst(Opcode.LOAD, dests=(3,), srcs=(1,), length=4))
        trace = generate_trace(Program([entry]), 100)
        load = [u for u in trace.uops if u.is_load][0]
        assert load.value == 77
        assert load.mem_addr == 0x2000

    def test_untouched_memory_deterministic(self):
        entry = BasicBlock("entry")
        entry.add(_li(1, 0x3000))
        entry.add(StaticInst(Opcode.LOAD, dests=(2,), srcs=(1,), length=4))
        t1 = generate_trace(Program([entry]), 10)
        entry2 = BasicBlock("entry")
        entry2.add(_li(1, 0x3000))
        entry2.add(StaticInst(Opcode.LOAD, dests=(2,), srcs=(1,), length=4))
        t2 = generate_trace(Program([entry2]), 10)
        l1 = [u for u in t1.uops if u.is_load][0]
        l2 = [u for u in t2.uops if u.is_load][0]
        assert l1.value == l2.value

    def test_init_mem_respected(self):
        entry = BasicBlock("entry")
        entry.add(_li(1, 0x4000))
        entry.add(StaticInst(Opcode.LOAD, dests=(2,), srcs=(1,), length=4))
        trace = generate_trace(Program([entry]), 10, init_mem={0x4000: 123})
        assert [u for u in trace.uops if u.is_load][0].value == 123

    def test_rand_deterministic_per_seed(self):
        entry = BasicBlock("entry")
        entry.add(StaticInst(Opcode.RAND, dests=(1,), length=4))
        v1 = generate_trace(Program([entry]), 10, seed=9).uops[0].value
        entry2 = BasicBlock("entry")
        entry2.add(StaticInst(Opcode.RAND, dests=(1,), length=4))
        v2 = generate_trace(Program([entry2]), 10, seed=9).uops[0].value
        assert v1 == v2

    def test_divmod_values(self):
        entry = BasicBlock("entry")
        entry.add(_li(1, 17))
        entry.add(_li(2, 5))
        entry.add(StaticInst(Opcode.DIVMOD, dests=(3, 4), srcs=(1, 2), length=4))
        trace = generate_trace(Program([entry]), 10)
        divmod_uops = [u for u in trace.uops if u.pc == trace.program.insts[2].pc]
        assert [u.value for u in divmod_uops] == [3, 2]

    def test_division_by_zero_is_zero(self):
        entry = BasicBlock("entry")
        entry.add(_li(1, 17))
        entry.add(_li(2, 0))
        entry.add(StaticInst(Opcode.DIV, dests=(3,), srcs=(1, 2), length=4))
        trace = generate_trace(Program([entry]), 10)
        assert trace.uops[-1].value == 0

    def test_explicit_fallthrough(self):
        a = BasicBlock("a", fallthrough="c")
        a.add(_li(1, 1))
        b = BasicBlock("b")
        b.add(_li(2, 2))
        c = BasicBlock("c")
        c.add(_li(3, 3))
        trace = generate_trace(Program([a, b, c]), 10)
        # Block b must be skipped.
        dests = [u.dest for u in trace.uops]
        assert dests == [1, 3]


MASK64 = (1 << 64) - 1


def _run_block(*insts, init_regs=None, seed=42):
    """Execute one straight-line block to its halt."""
    entry = BasicBlock("entry")
    for inst in insts:
        entry.add(inst)
    gen = TraceGenerator(Program([entry]), seed=seed, init_regs=init_regs)
    return gen, gen.run(1000)


def _rr(op, rd, ra, rb):
    return StaticInst(op, dests=(rd,), srcs=(ra, rb), length=4)


class TestOpcodeEdgeCases:
    """Semantics the suite's kernels rarely reach."""

    def test_fdiv_by_zero_is_zero(self):
        gen, uops = _run_block(_rr(Opcode.FDIV, 3, 1, 2), init_regs={1: 17, 2: 0})
        assert uops[0].value == 0 and gen.regs[3] == 0

    def test_divmod_by_zero_is_zero_zero(self):
        gen, uops = _run_block(
            StaticInst(Opcode.DIVMOD, dests=(3, 4), srcs=(1, 2), length=4),
            init_regs={1: 17, 2: 0, 3: 9, 4: 9},
        )
        assert [u.value for u in uops] == [0, 0]
        assert (gen.regs[3], gen.regs[4]) == (0, 0)

    @pytest.mark.parametrize("op, shift, want", [
        (Opcode.SHL, 64, 0x8000_0000_0000_0001),
        (Opcode.SHL, 65, 0x2),
        (Opcode.SHR, 64, 0x8000_0000_0000_0001),
        (Opcode.SHR, 127, 0x1),
    ])
    def test_shift_amount_taken_mod_64(self, op, shift, want):
        _, uops = _run_block(
            _rr(op, 3, 1, 2), init_regs={1: 0x8000_0000_0000_0001, 2: shift}
        )
        assert uops[0].value == want

    @pytest.mark.parametrize("a, b, blt, bge", [
        (1 << 63, 1, True, False),          # most negative < 1
        (1, MASK64, False, True),           # 1 >= -1
        (MASK64, MASK64, False, True),      # -1 >= -1
        (MASK64 - 1, MASK64, True, False),  # -2 < -1
    ])
    def test_signed_compares_with_top_bit(self, a, b, blt, bge):
        outcomes = {}
        for op in (Opcode.BLT, Opcode.BGE):
            entry = BasicBlock("entry")
            entry.add(_branch(op, 1, 2, "out"))
            out = BasicBlock("out")
            out.add(_li(5, 1))
            gen = TraceGenerator(Program([entry, out]), init_regs={1: a, 2: b})
            outcomes[op] = gen.run(10)[0].branch_taken
        assert outcomes == {Opcode.BLT: blt, Opcode.BGE: bge}

    def test_negative_immediates(self):
        a = 0x0F0F_0000_0000_00F5
        _, uops = _run_block(
            _addi(2, 1, -7),
            StaticInst(Opcode.ANDI, dests=(3,), srcs=(1,), imm=-2, length=4),
            StaticInst(Opcode.XORI, dests=(4,), srcs=(1,), imm=-1, length=4),
            _li(5, -1),
            init_regs={1: a},
        )
        assert [u.value for u in uops] == [
            (a - 7) & MASK64, a & (MASK64 - 1), a ^ MASK64, MASK64,
        ]

    def test_addi_wraps_below_zero(self):
        _, uops = _run_block(_addi(2, 1, -7), init_regs={1: 5})
        assert uops[0].value == MASK64 - 1

    def test_store_masks_value_and_address(self):
        gen, uops = _run_block(
            _li(1, 0),
            StaticInst(Opcode.STORE, srcs=(1, 2), imm=-8, length=4),
            StaticInst(Opcode.LOAD, dests=(3,), srcs=(1,), imm=-8, length=4),
            init_regs={2: -1},
        )
        addr = MASK64 - 7
        assert gen.mem == {addr: MASK64}
        store_uops = [u for u in uops if u.pc == uops[1].pc]
        assert [u.mem_addr for u in store_uops] == [None, addr]
        assert [u.value for u in store_uops] == [None, None]
        assert uops[-1].value == MASK64 and uops[-1].mem_addr == addr

    def test_untouched_load_writes_default_into_memory(self):
        gen, uops = _run_block(
            _li(1, 0x5000),
            StaticInst(Opcode.LOAD, dests=(2,), srcs=(1,), length=4),
        )
        assert gen.mem == {0x5000: uops[-1].value}

    def test_rand_matches_independent_xorshift(self):
        from repro.common.rng import XorShift64

        gen, uops = _run_block(
            *(StaticInst(Opcode.RAND, dests=(r,), length=4) for r in (1, 2, 3)),
            seed=7,
        )
        ref = XorShift64(7)
        want = [ref.next_u64() for _ in range(3)]
        assert [u.value for u in uops] == want
        assert gen.rng._state == ref._state

    def test_nop(self):
        gen, uops = _run_block(StaticInst(Opcode.NOP, length=1), init_regs={1: 3})
        (uop,) = uops
        assert uop.dest is None and uop.value is None and uop.srcs == ()
        assert uop.is_first_uop and uop.is_last_uop
        assert not (uop.is_load or uop.is_store or uop.is_branch)
        assert gen.regs[1] == 3 and gen.mem == {} and gen.inst_count == 1

    def test_run_overshoots_at_multi_uop_instruction(self):
        entry = BasicBlock("entry")
        entry.add(_li(1, 0x100))
        entry.add(StaticInst(Opcode.STORE, srcs=(1, 1), length=4))
        entry.add(_li(2, 5))
        gen = TraceGenerator(Program([entry]))
        first = gen.run(2)
        assert len(first) == 3 and gen.inst_count == 2
        assert [(u.uop_index, u.is_last_uop) for u in first[1:]] == [
            (0, False), (1, True),
        ]
        rest = gen.run(10)
        assert [u.seq for u in rest] == [3]
        assert rest[0].value == 5

    def test_run_after_halt_returns_empty(self):
        gen, uops = _run_block(_li(1, 1))
        assert gen.halted and len(uops) == 1
        assert gen.run(10) == []
        assert gen.inst_count == 1


class TestDecodeOnce:
    def test_crack_calls_bounded_by_static_program(self, monkeypatch):
        """Cracking happens at decode, once per static instruction, never
        per dynamic instruction: the count does not grow with the trace."""
        import repro.workloads.trace as trace_mod
        from repro.workloads.suite import build_workload

        calls = []
        real_crack = trace_mod.crack

        def counting_crack(inst):
            calls.append(inst.static_id)
            return real_crack(inst)

        monkeypatch.setattr(trace_mod, "crack", counting_crack)
        kernel = build_workload("gcc")
        static = len(kernel.program.insts)
        counts = []
        for uops in (2_000, 20_000):
            calls.clear()
            gen = TraceGenerator(kernel.program, init_mem=kernel.init_mem)
            assert len(gen.run(uops)) >= uops
            counts.append(len(calls))
        assert counts[0] == counts[1] <= static
