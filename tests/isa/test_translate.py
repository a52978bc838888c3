"""Block translation tests: cutting rules, differential equivalence
against the interpreter, budget-limited partial execution, fault parity.

The load-bearing property is that ``translate_block`` + ``execute`` +
``iter_steps`` is observationally identical to calling :meth:`CPU.step`
in a loop: same final machine state, same StepResult stream (transfers
included), same fault messages.
"""

import pytest

from repro.isa import (
    CPU,
    CpuFault,
    FlatMemory,
    Imm,
    Instruction,
    Mem,
    Opcode,
    Reg,
    StepKind,
)
from repro.isa.memory import MemoryFault
from repro.isa.translate import (
    EXIT_BUDGET,
    EXIT_CONTINUE,
    EXIT_FAULT,
    EXIT_HALT,
    EXIT_SYSCALL,
    MAX_BLOCK_LEN,
    BlockRecord,
    Superblock,
    translate_block,
)


def make_memory(instructions, base=0):
    mem = FlatMemory()
    mem.map_code(base, instructions)
    return mem


def make_cpu(mem, entry=0):
    cpu = CPU(mem, entry=entry)
    cpu.regs.set("esp", 0x1000)
    return cpu


def run_differential(instructions, entry=0, max_steps=500, setup=None):
    """Execute via the interpreter and via translated blocks; assert the
    two runs are indistinguishable.  Returns the interpreter's steps."""
    cpu_a = make_cpu(make_memory(instructions), entry)
    cpu_b = make_cpu(make_memory(instructions), entry)
    if setup is not None:
        setup(cpu_a)
        setup(cpu_b)

    steps_a, fault_a = [], None
    for _ in range(max_steps):
        try:
            step = cpu_a.step()
        except CpuFault as exc:
            fault_a = str(exc)
            break
        steps_a.append(step)
        if step.kind in (StepKind.SYSCALL, StepKind.HALT):
            break

    steps_b, fault_b = [], None
    remaining = max_steps
    while remaining > 0:
        try:
            plan = translate_block(cpu_b.memory, cpu_b.pc)
        except MemoryFault as exc:
            # mirror the kernel's lookup-fault handling (= cpu.step's)
            cpu_b.halted = True
            fault_b = str(exc)
            break
        rec = plan.execute(cpu_b, remaining)
        remaining -= rec.executed
        steps_b.extend(plan.iter_steps(rec))
        if rec.kind == EXIT_FAULT:
            fault_b = str(rec.fault)
            break
        if rec.kind in (EXIT_SYSCALL, EXIT_HALT):
            break

    assert steps_b == steps_a
    assert fault_b == fault_a
    assert cpu_b.pc == cpu_a.pc
    assert cpu_b.regs._values == cpu_a.regs._values
    assert cpu_b.memory.cells == cpu_a.memory.cells
    assert cpu_b.zf == cpu_a.zf
    assert cpu_b.sf == cpu_a.sf
    assert cpu_b.halted == cpu_a.halted
    return steps_a


class TestCutting:
    def test_block_ends_at_control_transfer(self):
        mem = make_memory([
            Instruction(Opcode.MOV, Reg("eax"), Imm(1)),
            Instruction(Opcode.ADD, Reg("eax"), Imm(2)),
            Instruction(Opcode.JMP, Imm(0)),
            Instruction(Opcode.NOP),
        ])
        plan = translate_block(mem, 0)
        assert plan.length == 3
        assert plan.pcs == (0, 1, 2)

    def test_int_terminates_block(self):
        mem = make_memory([
            Instruction(Opcode.MOV, Reg("eax"), Imm(1)),
            Instruction(Opcode.INT, Imm(0x80)),
            Instruction(Opcode.NOP),
        ])
        plan = translate_block(mem, 0)
        assert plan.length == 2

    def test_block_cut_before_leader(self):
        mem = make_memory([
            Instruction(Opcode.NOP),
            Instruction(Opcode.NOP),
            Instruction(Opcode.NOP),
            Instruction(Opcode.HLT),
        ])
        plan = translate_block(mem, 0, stop_leaders=frozenset({2}))
        assert plan.pcs == (0, 1)

    def test_block_cut_at_unmapped_successor(self):
        mem = make_memory([
            Instruction(Opcode.NOP),
            Instruction(Opcode.NOP),
        ])
        plan = translate_block(mem, 0)
        assert plan.length == 2

    def test_max_len_cut(self):
        mem = make_memory([Instruction(Opcode.NOP)] * 100)
        plan = translate_block(mem, 0)
        assert plan.length == MAX_BLOCK_LEN

    def test_unmapped_start_raises_fetch_message(self):
        mem = make_memory([Instruction(Opcode.NOP)])
        with pytest.raises(MemoryFault, match="execute of unmapped"):
            translate_block(mem, 0x999)


class TestDifferential:
    def test_countdown_loop(self):
        run_differential([
            Instruction(Opcode.MOV, Reg("ecx"), Imm(10)),     # 0
            Instruction(Opcode.MOV, Reg("eax"), Imm(0)),      # 1
            Instruction(Opcode.ADD, Reg("eax"), Reg("ecx")),  # 2 loop:
            Instruction(Opcode.SUB, Reg("ecx"), Imm(1)),      # 3
            Instruction(Opcode.CMP, Reg("ecx"), Imm(0)),      # 4
            Instruction(Opcode.JNZ, Imm(2)),                  # 5
            Instruction(Opcode.HLT),                          # 6
        ])

    def test_memory_traffic(self):
        run_differential([
            Instruction(Opcode.MOV, Reg("ebx"), Imm(0x200)),
            Instruction(Opcode.STORE, Mem("ebx", 0), Imm(7)),
            Instruction(Opcode.STORE, Mem("ebx", 1), Reg("ebx")),
            Instruction(Opcode.LOAD, Reg("eax"), Mem("ebx", 0)),
            Instruction(Opcode.LOAD, Reg("ecx"), Mem("ebx", 1)),
            Instruction(Opcode.PUSH, Reg("eax")),
            Instruction(Opcode.PUSH, Imm(42)),
            Instruction(Opcode.POP, Reg("edx")),
            Instruction(Opcode.POP, Reg("esi")),
            Instruction(Opcode.HLT),
        ])

    def test_call_ret(self):
        steps = run_differential([
            Instruction(Opcode.CALL, Imm(3)),            # 0
            Instruction(Opcode.MOV, Reg("ebx"), Imm(9)),  # 1
            Instruction(Opcode.HLT),                      # 2
            Instruction(Opcode.MOV, Reg("eax"), Imm(5)),  # 3 fn:
            Instruction(Opcode.RET),                      # 4
        ])
        assert steps[0].call_target == 3
        assert steps[0].call_return_addr == 1
        ret_steps = [s for s in steps if s.ret_target is not None]
        assert ret_steps and ret_steps[0].ret_target == 1

    def test_call_through_register(self):
        run_differential(
            [
                Instruction(Opcode.MOV, Reg("eax"), Imm(3)),
                Instruction(Opcode.CALL, Reg("eax")),
                Instruction(Opcode.HLT),
                Instruction(Opcode.RET),
            ],
        )

    def test_conditional_branches(self):
        for seed in (0, 1, 5, -3):
            run_differential(
                [
                    Instruction(Opcode.CMP, Reg("eax"), Imm(1)),
                    Instruction(Opcode.JL, Imm(4)),
                    Instruction(Opcode.MOV, Reg("ebx"), Imm(111)),
                    Instruction(Opcode.HLT),
                    Instruction(Opcode.MOV, Reg("ebx"), Imm(222)),
                    Instruction(Opcode.HLT),
                ],
                setup=lambda cpu, s=seed: cpu.regs.set("eax", s),
            )

    def test_cpuid(self):
        steps = run_differential([
            Instruction(Opcode.CPUID),
            Instruction(Opcode.HLT),
        ])
        assert steps[0].kind is StepKind.CPUID

    def test_xor_self_is_zero_source(self):
        steps = run_differential([
            Instruction(Opcode.MOV, Reg("eax"), Imm(77)),
            Instruction(Opcode.XOR, Reg("eax"), Reg("eax")),
            Instruction(Opcode.HLT),
        ])
        assert steps[1].transfers[0].srcs == (("zero",),)

    def test_syscall_stops_block(self):
        steps = run_differential([
            Instruction(Opcode.MOV, Reg("eax"), Imm(1)),
            Instruction(Opcode.INT, Imm(0x80)),
            Instruction(Opcode.NOP),
        ])
        assert steps[-1].kind is StepKind.SYSCALL

    def test_hlt(self):
        steps = run_differential([
            Instruction(Opcode.NOP),
            Instruction(Opcode.HLT),
        ])
        assert steps[-1].kind is StepKind.HALT

    def test_shift_counts_masked_like_x86(self):
        # the satellite fix: huge/negative counts take the low 6 bits in
        # both engines instead of allocating astronomically large ints
        for count in (0, 1, 63, 64, 65, 1000, -1):
            run_differential(
                [
                    Instruction(Opcode.MOV, Reg("eax"), Imm(3)),
                    Instruction(Opcode.SHL, Reg("eax"), Reg("ecx")),
                    Instruction(Opcode.SHR, Reg("eax"), Imm(1)),
                    Instruction(Opcode.HLT),
                ],
                setup=lambda cpu, c=count: cpu.regs.set("ecx", c),
            )

    def test_div_and_mod_truncate_toward_zero(self):
        for lhs, rhs in ((7, 2), (-7, 2), (7, -2), (-7, -2)):
            run_differential(
                [
                    Instruction(Opcode.DIV, Reg("eax"), Reg("ebx")),
                    Instruction(Opcode.MOD, Reg("ecx"), Reg("ebx")),
                    Instruction(Opcode.HLT),
                ],
                setup=lambda cpu, l=lhs, r=rhs: (
                    cpu.regs.set("eax", l),
                    cpu.regs.set("ecx", l),
                    cpu.regs.set("ebx", r),
                ),
            )


class TestFaultParity:
    def test_division_by_zero_mid_block(self):
        run_differential([
            Instruction(Opcode.MOV, Reg("eax"), Imm(6)),
            Instruction(Opcode.MOV, Reg("ebx"), Imm(0)),
            Instruction(Opcode.DIV, Reg("eax"), Reg("ebx")),
            Instruction(Opcode.HLT),
        ])

    def test_static_zero_divisor(self):
        run_differential([
            Instruction(Opcode.MOV, Reg("eax"), Imm(6)),
            Instruction(Opcode.DIV, Reg("eax"), Imm(0)),
            Instruction(Opcode.HLT),
        ])

    def test_unsupported_interrupt_vector(self):
        run_differential([
            Instruction(Opcode.NOP),
            Instruction(Opcode.INT, Imm(0x21)),
        ])

    def test_jump_to_unmapped(self):
        run_differential([
            Instruction(Opcode.JMP, Imm(0x5000)),
        ])

    def test_faulting_instruction_not_retired(self):
        mem = make_memory([
            Instruction(Opcode.MOV, Reg("eax"), Imm(1)),
            Instruction(Opcode.DIV, Reg("eax"), Imm(0)),
            Instruction(Opcode.HLT),
        ])
        plan = translate_block(mem, 0)
        cpu = make_cpu(mem)
        rec = plan.execute(cpu, 100)
        assert rec.kind == EXIT_FAULT
        assert rec.executed == 1         # only the MOV retired
        assert "division by zero" in str(rec.fault)
        assert cpu.pc == 2               # pc advanced past the faulting op
        assert cpu.halted

    def test_holes_align_with_retired_prefix(self):
        # a store retires (appending its hole) before the fault: the
        # taint cursor must see exactly the retired holes
        mem = make_memory([
            Instruction(Opcode.STORE, Mem("ebx", 5), Imm(1)),
            Instruction(Opcode.DIV, Reg("eax"), Imm(0)),
        ])
        plan = translate_block(mem, 0)
        cpu = make_cpu(mem)
        cpu.regs.set("ebx", 0x300)
        rec = plan.execute(cpu, 100)
        assert rec.executed == 1
        assert rec.holes == [0x305]


class TestBudget:
    def test_partial_execution_parks_pc(self):
        mem = make_memory([
            Instruction(Opcode.ADD, Reg("eax"), Imm(1)),
            Instruction(Opcode.ADD, Reg("eax"), Imm(10)),
            Instruction(Opcode.ADD, Reg("eax"), Imm(100)),
            Instruction(Opcode.HLT),
        ])
        plan = translate_block(mem, 0)
        cpu = make_cpu(mem)
        rec = plan.execute(cpu, 2)
        assert rec.kind == EXIT_BUDGET
        assert rec.executed == 2
        assert cpu.pc == 2               # parked on the first unexecuted op
        assert cpu.regs.get("eax") == 11

    def test_resume_after_budget_matches_interpreter(self):
        instructions = [
            Instruction(Opcode.MOV, Reg("ecx"), Imm(5)),
            Instruction(Opcode.ADD, Reg("eax"), Reg("ecx")),
            Instruction(Opcode.SUB, Reg("ecx"), Imm(1)),
            Instruction(Opcode.CMP, Reg("ecx"), Imm(0)),
            Instruction(Opcode.JNZ, Imm(1)),
            Instruction(Opcode.HLT),
        ]
        # quantum of 3: every block entry is throttled, forcing repeated
        # partial executions and mid-block re-entries
        cpu_a = make_cpu(make_memory(instructions))
        steps = 0
        while steps < 200:
            step = cpu_a.step()
            steps += 1
            if step.kind is StepKind.HALT:
                break
        cpu_b = make_cpu(make_memory(instructions))
        executed = 0
        while executed < 200:
            plan = translate_block(cpu_b.memory, cpu_b.pc)
            rec = plan.execute(cpu_b, min(3, 200 - executed))
            executed += rec.executed
            if rec.kind not in (EXIT_CONTINUE, EXIT_BUDGET):
                break
        assert rec.kind == EXIT_HALT
        assert executed == steps
        assert cpu_b.regs._values == cpu_a.regs._values
        assert cpu_b.pc == cpu_a.pc

    def test_budget_zero_instructions_never_needed(self):
        # the kernel guarantees limit >= 1; a full-length limit runs the
        # whole block including its terminator
        mem = make_memory([
            Instruction(Opcode.NOP),
            Instruction(Opcode.JMP, Imm(0)),
        ])
        plan = translate_block(mem, 0)
        cpu = make_cpu(mem)
        rec = plan.execute(cpu, plan.length)
        assert rec.kind == EXIT_CONTINUE
        assert rec.executed == plan.length
        assert rec.next_pc == 0


class TestRecordReuse:
    def test_one_record_refilled_per_dispatch(self):
        mem = make_memory([
            Instruction(Opcode.PUSH, Imm(7)),
            Instruction(Opcode.CALL, Imm(5)),
            Instruction(Opcode.HLT),
            Instruction(Opcode.NOP),
            Instruction(Opcode.JMP, Imm(3)),
        ])
        call = translate_block(mem, 0)
        loop = translate_block(mem, 3)
        rec = BlockRecord()
        assert call.execute(make_cpu(mem), call.length, rec) is rec
        assert (rec.plan, rec.call_target, rec.holes) == (
            call, 5, [0xFFF, 0xFFE]
        )
        # Nothing of the CALL dispatch survives the next one.
        assert loop.execute(make_cpu(mem, 3), loop.length, rec) is rec
        assert (rec.plan, rec.kind, rec.holes) == (loop, EXIT_CONTINUE, [])
        assert rec.call_target is None
        assert [s.call_return_addr for s in loop.iter_steps(rec)] == [
            None, None
        ]
        call.execute(make_cpu(mem), 1, rec)
        assert (rec.kind, rec.executed, rec.holes) == (
            EXIT_BUDGET, 1, [0xFFF]
        )
        assert rec.call_target is None


class TestSuperblockPlans:
    #: A: mov; jmp 4  ->  B: push; pop (cut before 6)  ->  C: add; hlt
    CHAIN = [
        Instruction(Opcode.MOV, Reg("eax"), Imm(3)),
        Instruction(Opcode.JMP, Imm(4)),
        Instruction(Opcode.HLT),
        Instruction(Opcode.HLT),
        Instruction(Opcode.PUSH, Reg("eax")),
        Instruction(Opcode.POP, Reg("ebx")),
        Instruction(Opcode.ADD, Reg("ebx"), Imm(1)),
        Instruction(Opcode.HLT),
    ]

    def _fused(self, mem):
        return Superblock([
            translate_block(mem, 0),
            translate_block(mem, 4, frozenset({6})),
            translate_block(mem, 6),
        ])

    def test_concatenates_without_retranslating(self):
        mem = make_memory(self.CHAIN)
        plan = self._fused(mem)
        assert plan.pcs == (0, 1, 4, 5, 6, 7)
        assert plan.leads == ((0, 0), (2, 4), (4, 6))
        assert [p.start for p in plan.parts] == [0, 4, 6]
        assert plan.term_op is plan.parts[-1].term_op
        assert plan.taint == sum((p.taint for p in plan.parts), ())

    @pytest.mark.parametrize("limit", range(1, 7))
    def test_every_limit_matches_interpreter(self, limit):
        cpu_a = make_cpu(make_memory(self.CHAIN))
        steps_a = [cpu_a.step() for _ in range(limit)]
        mem = make_memory(self.CHAIN)
        plan = self._fused(mem)
        cpu_b = make_cpu(mem)
        rec = plan.execute(cpu_b, limit)
        assert rec.executed == limit
        assert rec.kind == (EXIT_HALT if limit == 6 else EXIT_BUDGET)
        assert list(plan.iter_steps(rec)) == steps_a
        assert cpu_b.pc == cpu_a.pc
        assert cpu_b.regs._values == cpu_a.regs._values
        assert cpu_b.memory.cells == cpu_a.memory.cells

    def test_fault_in_tail_matches_interpreter(self):
        chain = list(self.CHAIN)
        chain[6] = Instruction(Opcode.DIV, Reg("ebx"), Imm(0))
        cpu_a = make_cpu(make_memory(chain))
        for _ in range(4):
            cpu_a.step()
        with pytest.raises(CpuFault) as fault_a:
            cpu_a.step()
        mem = make_memory(chain)
        cpu_b = make_cpu(mem)
        rec = self._fused(mem).execute(cpu_b, 6)
        assert (rec.kind, rec.executed) == (EXIT_FAULT, 4)
        assert str(rec.fault) == str(fault_a.value)
        assert (cpu_b.pc, cpu_b.halted) == (cpu_a.pc, cpu_a.halted)


class TestTaintSummary:
    def test_built_on_first_access_only(self, monkeypatch):
        import repro.isa.translate as translate

        calls = []
        real = translate.summarize_taint
        monkeypatch.setattr(
            translate, "summarize_taint",
            lambda taint: calls.append(taint) or real(taint),
        )
        mem = make_memory([
            Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")),
            Instruction(Opcode.RET),
        ])
        plan = translate_block(mem, 0)
        assert plan.built_summary is None and calls == []
        summary = plan.taint_summary
        assert plan.taint_summary is summary is plan.built_summary
        assert calls == [plan.taint]

    def test_support_tokens_sort_holes_numerically(self):
        # Eleven loads (holes 0..10); ecx = mem2 | mem10.  A string sort
        # would put hole 10 before hole 2.
        loads = [
            Instruction(Opcode.LOAD, Reg("edx"), Mem("esp", i))
            for i in range(11)
        ]
        loads[2] = Instruction(Opcode.LOAD, Reg("ecx"), Mem("esp", 2))
        loads[10] = Instruction(Opcode.LOAD, Reg("esi"), Mem("esp", 10))
        mem = make_memory(loads + [
            Instruction(Opcode.ADD, Reg("ecx"), Reg("esi")),
            Instruction(Opcode.RET),
        ])
        writes = dict(translate_block(mem, 0).taint_summary.reg_writes)
        assert writes["ecx"] == (("mem", 2), ("mem", 10))
