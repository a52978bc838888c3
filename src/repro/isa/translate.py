"""Basic-block translation: decode once, execute many times.

The paper's Harrier rides on PIN, and PIN's whole performance story is a
code cache: a basic block is decoded and instrumented *once*, then the
translated block is re-executed cheaply on every later visit (paper
sections 7 and 9).  This module reproduces that idea for the mini-ISA.

``translate_block`` walks the instruction stream from a block leader and
compiles every instruction into a closure with its operand accessors
resolved ahead of time — no ``isinstance`` checks and no if/elif opcode
dispatch remain on the hot path.  Alongside each closure it precomputes a
*static taint-transfer template*: the dst/src location shapes of the
instruction's :class:`TaintTransfer` records are known at decode time for
everything except dynamic ``Mem`` addresses, which get a hole
(:data:`MEM_HOLE`) filled from the runtime address trace.

A :class:`BlockPlan` executes with explicit exit conditions: it returns a
:class:`BlockRecord` whose ``kind`` says *why* the block stopped —
fall-through/branch (:data:`EXIT_CONTINUE`), syscall
(:data:`EXIT_SYSCALL`), HLT (:data:`EXIT_HALT`), CPU fault
(:data:`EXIT_FAULT`) or quantum/deadline expiry (:data:`EXIT_BUDGET`).
The record is the monitor's batched unit of observation: one record per
block entry instead of one :class:`StepResult` per instruction.
``BlockPlan.iter_steps`` reconstructs the per-instruction StepResults for
consumers that still want them (the default hook compatibility path),
bit-identical to what the interpreter would have produced.

:class:`Superblock` concatenates a static chain of translated blocks —
each ending in ``JMP imm`` or a cut fall-through, the one case where a
block's successor is known at decode time — into one plan: one dispatch,
one record, PIN's trace granularity.  Nothing is re-translated;
the chain's closures and taint templates are reused as they are.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.isa.cpu import (
    CPUID_VALUES,
    CpuFault,
    LOC_HARDWARE,
    LOC_IMM,
    LOC_ZERO,
    StepKind,
    StepResult,
    TaintTransfer,
)
from repro.isa.instructions import (
    CONTROL_TRANSFER_OPCODES,
    Imm,
    Instruction,
    Mem,
    Opcode,
    Reg,
)
from repro.isa.memory import FlatMemory, MemoryFault
from repro.isa.registers import CPUID_REGISTERS

#: Why a block's execution stopped.
EXIT_CONTINUE = 0   # fall-through or control transfer; keep scheduling
EXIT_SYSCALL = 1    # int 0x80 retired; the kernel must service it
EXIT_HALT = 2       # HLT retired (counted, then treated as a fault)
EXIT_FAULT = 3      # a CpuFault fired; the faulting instruction is NOT
                    # included in ``executed`` (interpreter semantics)
EXIT_BUDGET = 4     # quantum/deadline expired mid-block; resume at next_pc

EXIT_NAMES = {
    EXIT_CONTINUE: "continue",
    EXIT_SYSCALL: "syscall",
    EXIT_HALT: "halt",
    EXIT_FAULT: "fault",
    EXIT_BUDGET: "budget",
}

#: Placeholder in a taint template for a run-time memory address.  At most
#: one dynamic address exists per instruction in this ISA (LOAD/STORE
#: effective address, or the stack slot of PUSH/POP/CALL), so the hole is
#: filled positionally from the record's address trace.
MEM_HOLE: Tuple[str] = ("mem?",)

#: Longest block the translator will form (defensive bound; real blocks
#: end at control transfers or leaders long before this).
MAX_BLOCK_LEN = 64

#: A compiled straight-line op: ``op(cpu, regs, cells, holes)``.
BodyOp = Callable[[object, dict, dict, list], None]

#: Taint template: ``None`` (no transfers) or ``(has_hole, transfers)``
#: where each transfer is ``(dst_spec, src_specs)`` built from the same
#: location tuples the interpreter emits, with MEM_HOLE for the dynamic
#: address.
TaintTemplate = Optional[Tuple[bool, Tuple[Tuple[tuple, Tuple[tuple, ...]], ...]]]

#: Summary-expression tokens (see :class:`TaintSummary`).  ``("reg", r)``
#: is the tag set register ``r`` holds at block *entry*; ``("mem", k)``
#: the tags of the cell the k-th dynamic address (hole) points at;
#: TOK_IMM the containing image's BINARY tag; TOK_HW the HARDWARE tag.
TOK_IMM: Tuple[str] = ("imm",)
TOK_HW: Tuple[str] = ("hw",)


class TaintSummary:
    """Block-level taint liveness: what a block reads, loads, and writes.

    Computed once per block, on first use, by abstract interpretation of the
    block's taint templates.  Every destination the block writes gets a
    *support expression* — the set of entry-state tokens whose union is
    the destination's final tag set, with intra-block register chains
    already folded away.  Because tag-set union is associative,
    commutative, and idempotent, evaluating the supports against the
    shadow state at block entry reproduces the per-transfer replay
    exactly, in O(#outputs) instead of O(#transfers) — the monitor's
    fast path (see ``InstructionDataFlow.apply_summary``).

    Validity: the expressions assume every ``("mem", k)`` read sees the
    cell's *entry* tags, so they only hold when no load aliases an
    earlier store of the same block.  ``alias_checks`` lists the
    (read hole, earlier write holes) pairs the fast path must compare
    at run time (almost always empty).
    """

    __slots__ = (
        "live_in",
        "read_holes",
        "reg_writes",
        "mem_writes",
        "alias_checks",
        "has_loads",
        "touch_holes",
        "is_noop",
        "zero_taint_safe",
    )

    def __init__(
        self,
        live_in: Tuple[str, ...],
        read_holes: Tuple[int, ...],
        reg_writes: Tuple[Tuple[str, Tuple[tuple, ...]], ...],
        mem_writes: Tuple[Tuple[int, Tuple[tuple, ...]], ...],
        alias_checks: Tuple[Tuple[int, Tuple[int, ...]], ...],
    ) -> None:
        #: Registers whose entry tags feed at least one output.
        self.live_in = live_in
        #: Hole indices the block *loads* through (mem? sources).
        self.read_holes = read_holes
        #: reg name -> support tokens, final value per written register.
        self.reg_writes = reg_writes
        #: (hole index, support tokens) per memory store, program order.
        self.mem_writes = mem_writes
        self.alias_checks = alias_checks
        self.has_loads = bool(read_holes)
        #: Every hole index the expressions touch (loads + stores), for
        #: the page-granularity "can this block see/leave taint" gate.
        self.touch_holes = tuple(
            sorted(set(read_holes) | {idx for idx, _ in mem_writes})
        )
        #: True when the block moves no tags at all (cmp/jmp-only
        #: blocks): nothing to apply, ever.
        self.is_noop = not reg_writes and not mem_writes
        #: True when no output can carry taint unless an *input* does:
        #: no immediate or hardware source reaches any destination, so a
        #: clean entry state stays clean and the block can be skipped
        #: outright (modulo clearing stale write-set tags).
        self.zero_taint_safe = not any(
            TOK_IMM in support or TOK_HW in support
            for _, support in reg_writes
        ) and not any(
            TOK_IMM in support or TOK_HW in support
            for _, support in mem_writes
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaintSummary(live_in={self.live_in}, "
            f"loads={len(self.read_holes)}, "
            f"regs={[r for r, _ in self.reg_writes]}, "
            f"stores={len(self.mem_writes)})"
        )


def summarize_taint(
    taint: Tuple[TaintTemplate, ...]
) -> TaintSummary:
    """Fold a block's taint templates into a :class:`TaintSummary`."""
    written: Dict[str, frozenset] = {}
    reads: List[str] = []
    seen_reads = set()
    read_holes: List[int] = []
    write_holes: List[int] = []
    mem_writes: List[Tuple[int, frozenset]] = []
    alias_checks: List[Tuple[int, Tuple[int, ...]]] = []
    cursor = 0
    for tmpl in taint:
        if tmpl is None:
            continue
        has_hole, transfers = tmpl
        idx = cursor
        if has_hole:
            cursor += 1
        for dst_spec, src_specs in transfers:
            tokens = set()
            for src in src_specs:
                kind = src[0]
                if kind == "reg":
                    reg = src[1]
                    chained = written.get(reg)
                    if chained is None:
                        if reg not in seen_reads:
                            seen_reads.add(reg)
                            reads.append(reg)
                        tokens.add(("reg", reg))
                    else:
                        tokens |= chained
                elif kind == "mem?":
                    if write_holes:
                        alias_checks.append((idx, tuple(write_holes)))
                    read_holes.append(idx)
                    tokens.add(("mem", idx))
                elif kind == "imm":
                    tokens.add(TOK_IMM)
                elif kind == "hardware":
                    tokens.add(TOK_HW)
                # 'zero' contributes nothing
            if dst_spec[0] == "reg":
                written[dst_spec[1]] = frozenset(tokens)
            else:
                mem_writes.append((idx, frozenset(tokens)))
                write_holes.append(idx)
    # Deterministic token order keeps evaluation reproducible.  Natural
    # tuple order is total here: tokens of one kind share a payload type
    # (register names, hole indices), so holes sort numerically.
    def _ordered(tokens: frozenset) -> Tuple[tuple, ...]:
        return tuple(sorted(tokens))

    return TaintSummary(
        live_in=tuple(reads),
        read_holes=tuple(read_holes),
        reg_writes=tuple(
            (reg, _ordered(tokens)) for reg, tokens in written.items()
        ),
        mem_writes=tuple(
            (idx, _ordered(tokens)) for idx, tokens in mem_writes
        ),
        alias_checks=tuple(alias_checks),
    )


class BlockRecord:
    """One execution of a (prefix of a) translated block.

    The kernel passes one record to every :meth:`BlockPlan.execute`,
    which refills it, so a record is valid until the next dispatch:
    consumers read it inside the dispatch that produced it (the kernel,
    ``on_block`` hooks) and keep only values derived from it, never the
    record itself.  (A record per dispatch costs an allocation; a record
    per plan costs ~160 bytes per resident plan and a reference cycle.)

    ``executed`` counts retired instructions; a faulting instruction is
    not retired, matching the interpreter (the kernel never advanced the
    clock or fired the hook for it).  ``holes`` is the dynamic memory
    address trace, in retirement order, consumed positionally by the
    taint templates.  ``call_target``/``call_return_addr``/``ret_target``
    mirror :class:`StepResult` so the routine short-circuit module can
    consume a record directly (CALL/RET always terminate a block).
    """

    __slots__ = (
        "plan",
        "executed",
        "kind",
        "holes",
        "fault",
        "call_target",
        "call_return_addr",
        "ret_target",
        "next_pc",
    )

    def __init__(self, plan: Optional["BlockPlan"] = None) -> None:
        self.plan = plan
        self.executed = 0
        self.kind = EXIT_CONTINUE
        self.holes: List[int] = []
        self.fault: Optional[CpuFault] = None
        self.call_target: Optional[int] = None
        self.call_return_addr: Optional[int] = None
        self.ret_target: Optional[int] = None
        self.next_pc = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BlockRecord(start={self.plan.start:#x}, "
            f"executed={self.executed}/{self.plan.length}, "
            f"kind={EXIT_NAMES[self.kind]})"
        )


class BlockPlan:
    """A translated basic block (or superblock): closures + taint
    templates."""

    __slots__ = (
        "start",
        "pcs",
        "instructions",
        "body_ops",
        "term_op",
        "taint",
        "built_summary",
        "taint_apply",
        "length",
        "link_op",
        "heat",
    )

    #: Superblocks only (see :class:`Superblock`); class-level defaults
    #: keep a translated block free of slots it never fills.
    parts: Optional[Tuple["BlockPlan", ...]] = None
    leads: Optional[Tuple[Tuple[int, int], ...]] = None

    def __init__(
        self,
        start: int,
        pcs: Tuple[int, ...],
        instructions: Tuple[Instruction, ...],
        body_ops: Tuple[BodyOp, ...],
        term_op,
        taint: Tuple[TaintTemplate, ...],
        link_op: Optional[BodyOp] = None,
    ) -> None:
        self.start = start
        self.pcs = pcs
        self.instructions = instructions
        self.body_ops = body_ops
        self.term_op = term_op
        self.taint = taint
        #: The terminator as a straight-line body op (a no-op for ``JMP
        #: imm``) when the block has a static successor — it ends in
        #: ``JMP imm`` or is a cut fall-through — else None.
        self.link_op = link_op
        #: Cache hits left before the block cache tries to fuse this
        #: plan with its successors (0: never; see ``BlockCache``).
        self.heat = 0
        #: The :class:`TaintSummary` once :attr:`taint_summary` has built
        #: it, else None — diagnostics read this to avoid building one.
        self.built_summary: Optional[TaintSummary] = None
        #: The compiled summary applier, installed lazily by the fast
        #: path (``InstructionDataFlow.install_applier``) — a closure
        #: shaped to this block's summary, with its own entry-values
        #: memo, just as ``body_ops`` are closures shaped to the
        #: instructions.  Harrier defers it to the block's second full
        #: execution, so a block run once never pays for a summary.
        self.taint_apply = None
        self.length = len(pcs)

    def successor(self) -> int:
        """The static successor's pc (only when :attr:`link_op` is set):
        the ``JMP`` target, else the fall-through."""
        last = self.instructions[-1]
        if last.opcode is Opcode.JMP:
            return last.a.value
        return self.pcs[-1] + 1

    @property
    def taint_summary(self) -> TaintSummary:
        """Block-level liveness/fold summary for the fast path, built on
        first access (most translated blocks never need one)."""
        summary = self.built_summary
        if summary is None:
            summary = self.built_summary = summarize_taint(self.taint)
        return summary

    # -- execution --------------------------------------------------------
    def execute(self, cpu, limit: int,
                rec: Optional[BlockRecord] = None) -> BlockRecord:
        """Run up to ``limit`` instructions of this block on ``cpu``.

        The quantum/deadline budget is enforced *here* (never overshot):
        a partial execution stops with :data:`EXIT_BUDGET` and the cpu's
        pc parked on the first unexecuted instruction, so virtual-time
        interleaving is identical to the per-instruction interpreter.
        Refills and returns ``rec`` (a fresh record when None).
        """
        if rec is None:
            rec = BlockRecord()
        rec.plan = self
        holes = rec.holes
        holes.clear()
        rec.kind = EXIT_CONTINUE
        # Only a CALL (RET) terminator sets these; call_return_addr is
        # read only when call_target is set.
        rec.call_target = rec.ret_target = None
        regs = cpu.regs._values
        cells = cpu.memory.cells
        n = 0
        if limit >= self.length:
            try:
                for op in self.body_ops:
                    op(cpu, regs, cells, holes)
                    n += 1
                self.term_op(cpu, regs, cells, holes, rec)
            except CpuFault as fault:
                return self._stopped(cpu, rec, n, EXIT_FAULT, fault)
            rec.executed = n + 1
            rec.next_pc = cpu.pc
            return rec
        # Partial: the budget expires inside the block.
        try:
            for op in self.body_ops[:limit]:
                op(cpu, regs, cells, holes)
                n += 1
        except CpuFault as fault:
            return self._stopped(cpu, rec, n, EXIT_FAULT, fault)
        return self._stopped(cpu, rec, n, EXIT_BUDGET, None)

    def _stopped(self, cpu, rec: BlockRecord, n: int, kind: int,
                 fault: Optional[CpuFault]) -> BlockRecord:
        """Fill the record of an execution that stopped before its
        terminator retired, after ``n`` retired instructions."""
        rec.executed = n
        rec.kind = kind
        rec.fault = fault
        if fault is not None:
            # Interpreter parity: the faulting instruction's pc was
            # advanced past it before the raise.
            cpu.pc = self.pcs[n] + 1
        else:
            cpu.pc = self.pcs[n]
        rec.next_pc = cpu.pc
        return rec

    # -- compatibility ----------------------------------------------------
    def iter_steps(self, rec: BlockRecord) -> Iterator[StepResult]:
        """Reconstruct per-instruction :class:`StepResult`s for a record.

        Used by the default hook path so monitors that only implement
        ``on_instruction`` keep working under the block cache.  The
        yielded steps match what :meth:`CPU.step` would have returned for
        the same execution, transfer for transfer.
        """
        n = rec.executed
        if n == 0:
            return
        holes = rec.holes
        cursor = 0
        pcs = self.pcs
        instrs = self.instructions
        taint = self.taint
        last = n - 1
        # The terminator retired only on a non-fault, non-budget exit.
        term_retired = rec.kind in (EXIT_CONTINUE, EXIT_SYSCALL, EXIT_HALT)
        for i in range(n):
            instr = instrs[i]
            step = StepResult(pc=pcs[i], instruction=instr)
            tmpl = taint[i]
            addr = None
            if tmpl is not None:
                if tmpl[0]:
                    addr = holes[cursor]
                    cursor += 1
                for dst_spec, src_specs in tmpl[1]:
                    dst = ("mem", addr) if dst_spec is MEM_HOLE else dst_spec
                    srcs = tuple(
                        ("mem", addr) if s is MEM_HOLE else s
                        for s in src_specs
                    )
                    step.transfers.append(TaintTransfer(dst, srcs))
            opcode = instr.opcode
            if opcode is Opcode.CPUID:
                step.kind = StepKind.CPUID
            if i == last and term_retired:
                if opcode is Opcode.INT:
                    step.kind = StepKind.SYSCALL
                elif opcode is Opcode.HLT:
                    step.kind = StepKind.HALT
                if rec.call_target is not None:
                    step.call_target = rec.call_target
                    step.call_return_addr = rec.call_return_addr
                step.ret_target = rec.ret_target
                step.next_pc = rec.next_pc
            else:
                # The next instruction of the plan: pc + 1, or the
                # target of a superblock's interior ``JMP imm``.
                step.next_pc = pcs[i + 1]
            yield step

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(start={self.start:#x}, "
            f"len={self.length})"
        )


# ---------------------------------------------------------------------------
# Per-opcode compilation.  Each compiler returns (closure, taint_template).
# Closures receive (cpu, regs, cells, holes): regs is the raw register
# dict, cells the raw data-cell dict — both prebound per execution — and
# holes the dynamic address trace the taint templates consume.
# ---------------------------------------------------------------------------

def _fault_body(message: str, halt: bool) -> BodyOp:
    """A compiled op that always faults (decode-time-known errors)."""
    def op(cpu, regs, cells, holes, _m=message, _h=halt):
        if _h:
            cpu.halted = True
        raise CpuFault(_m)
    return op


def _fault_term(message: str, halt: bool):
    def term(cpu, regs, cells, holes, rec, _m=message, _h=halt):
        if _h:
            cpu.halted = True
        raise CpuFault(_m)
    return term


def _nop_op(cpu, regs, cells, holes) -> None:
    pass


def _c_mov(instr: Instruction, pc: int):
    d = instr.a.name
    b = instr.b
    dloc = ("reg", d)
    if type(b) is Reg:
        s = b.name
        def op(cpu, regs, cells, holes, _d=d, _s=s):
            regs[_d] = regs[_s]
        return op, (False, ((dloc, (("reg", s),)),))
    if type(b) is Imm:
        v = b.value
        def op(cpu, regs, cells, holes, _d=d, _v=v):
            regs[_d] = _v
        return op, (False, ((dloc, (LOC_IMM,)),))
    return _fault_body(f"bad source operand {b}", halt=False), None


def _c_load(instr: Instruction, pc: int):
    d = instr.a.name
    m: Mem = instr.b
    base, off = m.base, m.offset
    def op(cpu, regs, cells, holes, _d=d, _b=base, _o=off):
        addr = regs[_b] + _o
        holes.append(addr)
        regs[_d] = cells.get(addr, 0)
    return op, (True, ((("reg", d), (MEM_HOLE,)),))


def _c_store(instr: Instruction, pc: int):
    m: Mem = instr.a
    base, off = m.base, m.offset
    b = instr.b
    if type(b) is Reg:
        s = b.name
        def op(cpu, regs, cells, holes, _b=base, _o=off, _s=s):
            addr = regs[_b] + _o
            holes.append(addr)
            cells[addr] = regs[_s]
        srcs: Tuple[tuple, ...] = (("reg", s),)
    elif type(b) is Imm:
        v = b.value
        def op(cpu, regs, cells, holes, _b=base, _o=off, _v=v):
            addr = regs[_b] + _o
            holes.append(addr)
            cells[addr] = _v
        srcs = (LOC_IMM,)
    else:
        return _fault_body(f"bad source operand {b}", halt=False), None
    return op, (True, ((MEM_HOLE, srcs),))


#: Plain binary ALU value functions.  Shift counts are masked to 0-63
#: like x86 (keeps guest-controlled counts from allocating huge ints);
#: the interpreter applies the same mask — see CPU._exec_alu.
_ALU_FUNCS = {
    Opcode.ADD: lambda l, r: l + r,
    Opcode.SUB: lambda l, r: l - r,
    Opcode.MUL: lambda l, r: l * r,
    Opcode.XOR: lambda l, r: l ^ r,
    Opcode.AND: lambda l, r: l & r,
    Opcode.OR: lambda l, r: l | r,
    Opcode.SHL: lambda l, r: l << (r & 63),
    Opcode.SHR: lambda l, r: l >> (r & 63),
}


def _c_alu(instr: Instruction, pc: int):
    opcode = instr.opcode
    d = instr.a.name
    b = instr.b
    dloc = ("reg", d)
    is_reg = type(b) is Reg
    if not is_reg and type(b) is not Imm:
        return _fault_body(f"bad source operand {b}", halt=False), None
    if opcode in (Opcode.XOR, Opcode.SUB) and is_reg and b.name == d:
        # xor r,r / sub r,r: constant zero carries no data.
        srcs: Tuple[tuple, ...] = (LOC_ZERO,)
    elif is_reg:
        srcs = (dloc, ("reg", b.name))
    else:
        srcs = (dloc, LOC_IMM)
    tmpl = (False, ((dloc, srcs),))

    if opcode in (Opcode.DIV, Opcode.MOD):
        msg = f"division by zero at {pc:#x}"
        is_mod = opcode is Opcode.MOD
        if is_reg:
            s = b.name
            def op(cpu, regs, cells, holes, _d=d, _s=s, _mod=is_mod,
                   _m=msg):
                lhs = regs[_d]
                rhs = regs[_s]
                if rhs == 0:
                    cpu.halted = True
                    raise CpuFault(_m)
                q = int(lhs / rhs)  # truncate toward zero, like x86 idiv
                value = lhs - q * rhs if _mod else q
                regs[_d] = value
                cpu.zf = value == 0
                cpu.sf = value < 0
        else:
            v = b.value
            if v == 0:
                return _fault_body(msg, halt=True), tmpl
            def op(cpu, regs, cells, holes, _d=d, _v=v, _mod=is_mod):
                lhs = regs[_d]
                q = int(lhs / _v)
                value = lhs - q * _v if _mod else q
                regs[_d] = value
                cpu.zf = value == 0
                cpu.sf = value < 0
        return op, tmpl

    fn = _ALU_FUNCS[opcode]
    if is_reg:
        s = b.name
        def op(cpu, regs, cells, holes, _d=d, _s=s, _fn=fn):
            value = _fn(regs[_d], regs[_s])
            regs[_d] = value
            cpu.zf = value == 0
            cpu.sf = value < 0
    else:
        v = b.value
        def op(cpu, regs, cells, holes, _d=d, _v=v, _fn=fn):
            value = _fn(regs[_d], _v)
            regs[_d] = value
            cpu.zf = value == 0
            cpu.sf = value < 0
    return op, tmpl


def _c_cmp(instr: Instruction, pc: int):
    a = instr.a.name
    b = instr.b
    if type(b) is Reg:
        s = b.name
        def op(cpu, regs, cells, holes, _a=a, _s=s):
            value = regs[_a] - regs[_s]
            cpu.zf = value == 0
            cpu.sf = value < 0
    elif type(b) is Imm:
        v = b.value
        def op(cpu, regs, cells, holes, _a=a, _v=v):
            value = regs[_a] - _v
            cpu.zf = value == 0
            cpu.sf = value < 0
    else:
        return _fault_body(f"bad source operand {b}", halt=False), None
    return op, None


def _c_push(instr: Instruction, pc: int):
    a = instr.a
    if type(a) is Reg:
        s = a.name
        def op(cpu, regs, cells, holes, _s=s):
            sp = regs["esp"] - 1
            regs["esp"] = sp
            holes.append(sp)
            cells[sp] = regs[_s]
        srcs: Tuple[tuple, ...] = (("reg", s),)
    elif type(a) is Imm:
        v = a.value
        def op(cpu, regs, cells, holes, _v=v):
            sp = regs["esp"] - 1
            regs["esp"] = sp
            holes.append(sp)
            cells[sp] = _v
        srcs = (LOC_IMM,)
    else:
        return _fault_body(f"bad source operand {a}", halt=False), None
    return op, (True, ((MEM_HOLE, srcs),))


def _c_pop(instr: Instruction, pc: int):
    d = instr.a.name
    def op(cpu, regs, cells, holes, _d=d):
        sp = regs["esp"]
        holes.append(sp)
        regs[_d] = cells.get(sp, 0)
        regs["esp"] = sp + 1
    return op, (True, ((("reg", d), (MEM_HOLE,)),))


def _c_cpuid(instr: Instruction, pc: int):
    values = tuple((r, CPUID_VALUES[r]) for r in CPUID_REGISTERS)
    def op(cpu, regs, cells, holes, _vals=values):
        for reg, val in _vals:
            regs[reg] = val
    tmpl = (
        False,
        tuple((("reg", r), (LOC_HARDWARE,)) for r in CPUID_REGISTERS),
    )
    return op, tmpl


def _c_nop(instr: Instruction, pc: int):
    return _nop_op, None


_STRAIGHT_COMPILERS: Dict[Opcode, Callable] = {
    Opcode.MOV: _c_mov,
    Opcode.LOAD: _c_load,
    Opcode.STORE: _c_store,
    Opcode.ADD: _c_alu,
    Opcode.SUB: _c_alu,
    Opcode.MUL: _c_alu,
    Opcode.DIV: _c_alu,
    Opcode.MOD: _c_alu,
    Opcode.XOR: _c_alu,
    Opcode.AND: _c_alu,
    Opcode.OR: _c_alu,
    Opcode.SHL: _c_alu,
    Opcode.SHR: _c_alu,
    Opcode.CMP: _c_cmp,
    Opcode.PUSH: _c_push,
    Opcode.POP: _c_pop,
    Opcode.CPUID: _c_cpuid,
    Opcode.NOP: _c_nop,
}


def _compile_straight(instr: Instruction, pc: int):
    compiler = _STRAIGHT_COMPILERS.get(instr.opcode)
    if compiler is None:  # pragma: no cover - exhaustive opcode table
        return _fault_body(f"unimplemented opcode {instr.opcode}",
                           halt=False), None
    return compiler(instr, pc)


# -- terminators ------------------------------------------------------------

_JCC_CONDS = {
    Opcode.JZ: lambda cpu: cpu.zf,
    Opcode.JNZ: lambda cpu: not cpu.zf,
    Opcode.JL: lambda cpu: cpu.sf,
    Opcode.JLE: lambda cpu: cpu.sf or cpu.zf,
    Opcode.JG: lambda cpu: not (cpu.sf or cpu.zf),
    Opcode.JGE: lambda cpu: not cpu.sf,
}


def _compile_terminator(instr: Instruction, pc: int):
    """Compile the block's last instruction; returns (term_op, taint,
    link_op) — see :attr:`BlockPlan.link_op`."""
    opcode = instr.opcode

    if opcode is Opcode.JMP:
        a = instr.a
        if type(a) is not Imm:
            return _fault_term(f"expected immediate, got {a}",
                               halt=False), None, None
        target = a.value
        def term(cpu, regs, cells, holes, rec, _t=target):
            cpu.pc = _t
        return term, None, _nop_op

    cond = _JCC_CONDS.get(opcode)
    if cond is not None:
        a = instr.a
        if type(a) is not Imm:
            return _fault_term(f"expected immediate, got {a}",
                               halt=False), None, None
        target = a.value
        fall = pc + 1
        def term(cpu, regs, cells, holes, rec, _t=target, _f=fall,
                 _c=cond):
            cpu.pc = _t if _c(cpu) else _f
        return term, None, None

    if opcode is Opcode.CALL:
        a = instr.a
        ret = pc + 1
        if type(a) is Reg:
            s = a.name
            def term(cpu, regs, cells, holes, rec, _s=s, _r=ret):
                target = regs[_s]
                sp = regs["esp"] - 1
                regs["esp"] = sp
                holes.append(sp)
                cells[sp] = _r
                cpu.pc = target
                rec.call_target = target
                rec.call_return_addr = _r
        elif type(a) is Imm:
            target = a.value
            def term(cpu, regs, cells, holes, rec, _t=target, _r=ret):
                sp = regs["esp"] - 1
                regs["esp"] = sp
                holes.append(sp)
                cells[sp] = _r
                cpu.pc = _t
                rec.call_target = _t
                rec.call_return_addr = _r
        else:
            return _fault_term(f"expected immediate, got {a}",
                               halt=False), None, None
        return term, (True, ((MEM_HOLE, (LOC_ZERO,)),)), None

    if opcode is Opcode.RET:
        def term(cpu, regs, cells, holes, rec):
            sp = regs["esp"]
            target = cells.get(sp, 0)
            regs["esp"] = sp + 1
            cpu.pc = target
            rec.ret_target = target
        return term, None, None

    if opcode is Opcode.INT:
        a = instr.a
        if type(a) is not Imm:
            return _fault_term(f"expected immediate, got {a}",
                               halt=False), None, None
        if a.value != 0x80:
            return _fault_term(
                f"unsupported interrupt {a.value:#x} at {pc:#x}",
                halt=True,
            ), None, None
        nxt = pc + 1
        def term(cpu, regs, cells, holes, rec, _n=nxt):
            cpu.pc = _n
            rec.kind = EXIT_SYSCALL
        return term, None, None

    if opcode is Opcode.HLT:
        nxt = pc + 1
        def term(cpu, regs, cells, holes, rec, _n=nxt):
            cpu.halted = True
            cpu.pc = _n
            rec.kind = EXIT_HALT
        return term, None, None

    # A cut block (leader / unmapped successor / max length): the last
    # instruction is an ordinary straight-line op plus a fall-through.
    op, tmpl = _compile_straight(instr, pc)
    nxt = pc + 1
    def term(cpu, regs, cells, holes, rec, _op=op, _n=nxt):
        _op(cpu, regs, cells, holes)
        cpu.pc = _n
    return term, tmpl, op


def translate_block(
    memory: FlatMemory,
    start: int,
    stop_leaders=frozenset(),
    max_len: int = MAX_BLOCK_LEN,
) -> BlockPlan:
    """Decode and compile the basic block whose leader is ``start``.

    Cutting rules: the block ends at the first control transfer or INT,
    just before any address in ``stop_leaders`` (so a later block entry
    at a leader is always a cache key), before an unmapped address, or
    at ``max_len`` instructions.  Raises :class:`MemoryFault` when
    ``start`` itself is unmapped, with the interpreter's fetch message.
    """
    code = memory.code
    instr = code.get(start)
    if instr is None:
        raise MemoryFault(f"execute of unmapped address {start:#x}")
    pcs: List[int] = []
    instrs: List[Instruction] = []
    pc = start
    while True:
        pcs.append(pc)
        instrs.append(instr)
        opcode = instr.opcode
        if opcode in CONTROL_TRANSFER_OPCODES or opcode is Opcode.INT:
            break
        if len(pcs) >= max_len:
            break
        nxt = pc + 1
        if nxt in stop_leaders:
            break
        instr = code.get(nxt)
        if instr is None:
            break
        pc = nxt

    body_ops: List[BodyOp] = []
    taint: List[TaintTemplate] = []
    for i in range(len(pcs) - 1):
        op, tmpl = _compile_straight(instrs[i], pcs[i])
        body_ops.append(op)
        taint.append(tmpl)
    term_op, tmpl, link_op = _compile_terminator(instrs[-1], pcs[-1])
    taint.append(tmpl)
    return BlockPlan(
        start=start,
        pcs=tuple(pcs),
        instructions=tuple(instrs),
        body_ops=tuple(body_ops),
        term_op=term_op,
        taint=tuple(taint),
        link_op=link_op,
    )


class Superblock(BlockPlan):
    """A static chain of translated blocks fused into one plan.

    Every part but the last must have a :attr:`BlockPlan.link_op` and the
    next part must start at its :meth:`BlockPlan.successor`; its
    terminator becomes that body op, and the last part's terminator ends
    the superblock.
    Nothing is re-translated.  ``pcs``/``instructions``/``taint`` are the
    concatenations, so :meth:`BlockPlan.execute` keeps budget and fault
    parity by index, ``iter_steps`` and template replay run unchanged,
    and ``summarize_taint`` over the concatenated templates is the
    chain's composed summary — its ``alias_checks`` cover a load after a
    store across a former block boundary.
    """

    __slots__ = ("parts", "leads", "declines")

    def __init__(self, parts: Sequence[BlockPlan]) -> None:
        body_ops: List[BodyOp] = []
        pcs: List[int] = []
        instrs: List[Instruction] = []
        taint: List[TaintTemplate] = []
        leads: List[Tuple[int, int]] = []
        for i, part in enumerate(parts):
            if i:
                body_ops.append(parts[i - 1].link_op)
            leads.append((len(pcs), part.start))
            body_ops.extend(part.body_ops)
            pcs.extend(part.pcs)
            instrs.extend(part.instructions)
            taint.extend(part.taint)
        last = parts[-1]
        super().__init__(
            start=parts[0].start,
            pcs=tuple(pcs),
            instructions=tuple(instrs),
            body_ops=tuple(body_ops),
            term_op=last.term_op,
            taint=tuple(taint),
            link_op=last.link_op,
        )
        #: The constituent translated blocks, in execution order, and
        #: their ``(offset, start)`` leaders within :attr:`pcs`.
        self.parts: Tuple[BlockPlan, ...] = tuple(parts)
        self.leads: Tuple[Tuple[int, int], ...] = tuple(leads)
        #: Full executions whose summary fast path declined (demotion
        #: bookkeeping, see ``BlockCache.decline``).
        self.declines = 0
