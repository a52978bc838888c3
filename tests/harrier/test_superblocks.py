"""Superblocks: hot single-successor block chains fused into one dispatch.

A block ending in ``JMP imm`` or a cut fall-through, once entered
``FUSE_AFTER`` times, is fused with the resident chain that statically
follows it.  It must stay impossible to tell from any report which
chains were fused: every guest-level test here compares the full report
(verdict, warnings, events, console, faults, clocks, BB counters, taint
shadow) against the per-instruction interpreter, the one differential
oracle.  The chain rules — no CALL/RET/INT/HLT inside, one image, no
repeated leader, at most ``MAX_BLOCK_LEN`` instructions — and the
hotness threshold are checked on the cache directly.
"""

from types import SimpleNamespace

import pytest

import repro.harrier.blockcache as blockcache
from repro.core.hth import HTH
from repro.core.options import RunOptions
from repro.harrier.blockcache import DEMOTE_AFTER, FUSE_AFTER, BlockCache
from repro.harrier.monitor import Harrier
from repro.isa import (
    APP_BASE,
    EXIT_BUDGET,
    EXIT_FAULT,
    FlatMemory,
    Imm,
    Instruction,
    Opcode,
    assemble,
)
from repro.isa.translate import MAX_BLOCK_LEN
from tests.harrier.test_blockcache_differential import (
    _all_workloads,
    _run_fingerprint,
    _shadow_fingerprint,
)

#: Loop trip count: enough entries to fuse, and some to run fused.
TRIPS = FUSE_AFTER + 24

#: ``loop`` falls through into ``step`` (a label, so a leader), which
#: jumps to ``check``: one three-block chain, six instructions, whose
#: interior leaders are application basic blocks.
CHAIN = f"""
main:
    mov ecx, 0
loop:
    add eax, ecx
step:
    mov edx, eax
    jmp check
check:
    add ecx, 1
    cmp ecx, {TRIPS}
    jl loop
    mov ebx, ecx
    call print_num
    mov eax, 0
    ret
"""
CHAIN_LEN = 6

#: The chain's tail divides by ``FUSE_AFTER + 8 - ecx``: it faults long
#: after the chain was fused.
TAIL_FAULT = f"""
main:
    mov ecx, 0
loop:
    add eax, 1
mid:
    mov edx, {FUSE_AFTER + 8}
    sub edx, ecx
    jmp tail
tail:
    mov ebx, 100
    div ebx, edx
    add ecx, 1
    cmp ecx, {TRIPS}
    jl loop
    mov eax, 0
    ret
"""

#: The head stores a cell the tail loads: the fused summary's alias
#: check fails on every execution, so the superblock must be demoted.
ALIASING = f"""
main:
    mov ecx, 0
    mov esi, buf
loop:
    store [esi], ecx
    jmp next
next:
    load ebx, [esi]
    add ecx, 1
    cmp ecx, {TRIPS}
    jl loop
    mov eax, 0
    ret
.data
buf: .space 4
"""


def _run(source, block_cache=True, quantum=None, **options):
    """One fresh machine; returns (hth, full report fingerprint)."""
    hth = HTH(options=RunOptions(block_cache=block_cache, **options))
    if quantum is not None:
        hth.kernel.quantum = quantum
    report = hth.run(assemble("/bin/sb", source))
    return hth, {
        "verdict": report.verdict,
        "warnings": [repr(w) for w in report.warnings],
        "events": [str(e) for e in report.events],
        "console": report.console_output,
        "exit_code": report.exit_code,
        "reason": report.result.reason,
        "ticks": report.result.ticks,
        "instructions": report.result.instructions,
        "faults": report.faults,
        "shadow": _shadow_fingerprint(hth),
    }


def _cache(hth):
    (cache,) = [cache for _image, cache in hth.kernel._block_caches.values()]
    return cache


def _superblocks(cache):
    return [p for p in cache.plans.values() if p.parts is not None]


def _fused_loop(hth, source):
    """The superblock serving the ``loop`` label of ``source``."""
    loop = APP_BASE + assemble("/bin/sb", source).symbols["loop"]
    plan = _cache(hth).plans[loop]
    assert plan.parts is not None
    return plan


@pytest.fixture
def records(monkeypatch):
    """Every (plan, executed, kind) Harrier observed while live."""
    seen = []
    real = Harrier.on_block

    def spy(self, proc, rec):
        seen.append((rec.plan, rec.executed, rec.kind))
        return real(self, proc, rec)

    monkeypatch.setattr(Harrier, "on_block", spy)
    return seen


class TestAgainstInterpreter:
    def test_chain_is_fused_and_indistinguishable(self):
        hth, cached = _run(CHAIN)
        _, interp = _run(CHAIN, block_cache=False)
        assert cached == interp
        assert cached["console"] == str(TRIPS)
        plan = _fused_loop(hth, CHAIN)
        symbols = assemble("/bin/sb", CHAIN).symbols
        assert plan.length == CHAIN_LEN
        assert [start for _offset, start in plan.leads] == [
            APP_BASE + symbols[label] for label in ("loop", "step", "check")
        ]
        assert [p.start for p in plan.parts] == [
            start for _offset, start in plan.leads
        ]

    def test_interior_leaders_counted(self):
        hth, cached = _run(CHAIN)
        _, interp = _run(CHAIN, block_cache=False)
        plan = _fused_loop(hth, CHAIN)
        shadow = hth.kernel.procs[1].meta["harrier.shadow"]
        counts = {start: shadow.bb_counts[start] for _, start in plan.leads}
        assert set(counts.values()) == {TRIPS}
        assert cached["shadow"] == interp["shadow"]

    def test_quantum_expires_at_every_offset(self, records):
        offsets = set()
        for quantum in range(1, 2 * CHAIN_LEN + 2):
            del records[:]
            _, cached = _run(CHAIN, quantum=quantum)
            offsets |= {
                executed for plan, executed, kind in records
                if plan.parts is not None and kind == EXIT_BUDGET
            }
            _, interp = _run(CHAIN, block_cache=False, quantum=quantum)
            assert cached == interp, f"quantum {quantum}"
        assert offsets == set(range(1, CHAIN_LEN))

    def test_fault_in_tail_constituent(self, records):
        hth, cached = _run(TAIL_FAULT)
        _, interp = _run(TAIL_FAULT, block_cache=False)
        assert cached == interp
        plan = _fused_loop(hth, TAIL_FAULT)
        div = [i.opcode for i in plan.instructions].index(Opcode.DIV)
        assert div > plan.leads[-1][0]  # inside the tail constituent
        assert [
            (p, executed) for p, executed, kind in records
            if kind == EXIT_FAULT
        ] == [(plan, div)]
        ((_pid, message),) = cached["faults"]
        assert message == f"division by zero at {plan.pcs[div]:#x}"

    def test_aliasing_superblock_is_demoted(self, records):
        hth, cached = _run(ALIASING)
        _, interp = _run(ALIASING, block_cache=False)
        assert cached == interp
        cache = _cache(hth)
        assert cache.demotions == 1
        assert _superblocks(cache) == []
        fused = {p for p, _, _ in records if p.parts is not None}
        (plan,) = fused
        assert plan.declines == DEMOTE_AFTER
        assert cache.plans[plan.start] is plan.parts[0]


    @pytest.mark.parametrize("source, demoted", [
        (CHAIN, False), (TAIL_FAULT, False), (ALIASING, True),
    ], ids=["chain", "tail-fault", "aliasing"])
    def test_profiled_monitor_path(self, source, demoted):
        # The stage profiler routes every block through Harrier's
        # profiled twin of on_block (the hthbench traced pass runs it).
        hth, cached = _run(source, profile=True)
        _, interp = _run(source, block_cache=False, profile=True)
        assert cached == interp
        cache = _cache(hth)
        assert cache.demotions == int(demoted)
        assert bool(_superblocks(cache)) is not demoted


class TestChainRules:
    @staticmethod
    def _warm(cache, memory, pcs, times=FUSE_AFTER):
        for _ in range(times):
            for pc in pcs:
                cache.lookup(memory, pc)

    def test_never_fused_below_the_threshold(self):
        memory = FlatMemory()
        memory.map_code(0, [
            Instruction(Opcode.NOP),
            Instruction(Opcode.JMP, Imm(2)),
            Instruction(Opcode.HLT),
        ])
        cache = BlockCache()
        self._warm(cache, memory, [0, 2], times=FUSE_AFTER - 1)
        assert cache.plans[0].parts is None
        assert cache.stats()["superblocks"] == 0
        self._warm(cache, memory, [0], times=1)
        assert cache.plans[0].parts is not None
        assert cache.stats()["superblocks"] == 1

    def test_no_control_transfer_inside(self):
        # 0: jz (two successors), 1: call, 3: nop (cut) -> 4: jmp 6,
        # 6: int 0x80 -> 7: ret.  Only 3 -> 4 -> 6 may fuse, and the
        # INT may only end the superblock.
        memory = FlatMemory()
        memory.map_code(0, [
            Instruction(Opcode.JZ, Imm(3)),
            Instruction(Opcode.CALL, Imm(3)),
            Instruction(Opcode.HLT),
            Instruction(Opcode.NOP),
            Instruction(Opcode.JMP, Imm(6)),
            Instruction(Opcode.HLT),
            Instruction(Opcode.INT, Imm(0x80)),
            Instruction(Opcode.RET),
        ])
        cache = BlockCache(leaders=frozenset({0, 1, 2, 3, 4, 6, 7}))
        self._warm(cache, memory, [0, 1, 3, 4, 6, 7])
        fused = {plan.start: plan for plan in _superblocks(cache)}
        assert [p.start for p in fused[3].parts] == [3, 4, 6]
        assert fused[3].instructions[-1].opcode is Opcode.INT
        for plan in fused.values():
            assert not any(
                i.is_control_transfer() and i.opcode is not Opcode.JMP
                or i.opcode is Opcode.INT
                for i in plan.instructions[:-1]
            )

    def test_no_cross_image_chain(self):
        memory = FlatMemory()
        memory.map_code(0, [
            Instruction(Opcode.NOP),
            Instruction(Opcode.JMP, Imm(0x100)),
        ])
        memory.map_code(0x100, [
            Instruction(Opcode.NOP),
            Instruction(Opcode.RET),
        ])
        library = SimpleNamespace(
            start=0x100, end=0x102, leaders=frozenset({0x100, 0x102}),
            plans={},
        )
        cache = BlockCache(shared=[library])
        self._warm(cache, memory, [0, 0x100])
        assert _superblocks(cache) == []

    def test_no_repeated_leader(self):
        # 0: nop; jmp 3  ->  3: nop; jmp 0  -> back to 0: stop there.
        memory = FlatMemory()
        memory.map_code(0, [
            Instruction(Opcode.NOP),
            Instruction(Opcode.JMP, Imm(3)),
            Instruction(Opcode.HLT),
            Instruction(Opcode.NOP),
            Instruction(Opcode.JMP, Imm(0)),
        ])
        cache = BlockCache()
        self._warm(cache, memory, [0, 3])
        fused = _superblocks(cache)
        assert fused
        for plan in fused:
            starts = [p.start for p in plan.parts]
            assert len(starts) == len(set(starts)) == 2

    def test_capped_at_max_block_len(self):
        # Every pc a leader: a fall-through chain of one-op blocks.
        n = MAX_BLOCK_LEN + 10
        memory = FlatMemory()
        memory.map_code(0, [Instruction(Opcode.NOP)] * n
                        + [Instruction(Opcode.HLT)])
        cache = BlockCache(leaders=frozenset(range(n + 1)))
        self._warm(cache, memory, range(n + 1), times=FUSE_AFTER - 1)
        cache.lookup(memory, 0)
        plan = cache.plans[0]
        assert plan.length == MAX_BLOCK_LEN
        assert len(plan.parts) == MAX_BLOCK_LEN

    def test_fusion_never_translates(self, monkeypatch):
        memory = FlatMemory()
        memory.map_code(0, [
            Instruction(Opcode.NOP),
            Instruction(Opcode.JMP, Imm(2)),
            Instruction(Opcode.HLT),
        ])
        cache = BlockCache()
        self._warm(cache, memory, [0, 2], times=1)
        monkeypatch.setattr(blockcache, "translate_block", None)
        self._warm(cache, memory, [0, 2])
        assert cache.plans[0].parts is not None


class TestProvenanceCounts:
    @pytest.mark.parametrize("source", [CHAIN, TAIL_FAULT],
                             ids=["chain", "tail-fault"])
    def test_block_counts_do_not_depend_on_fusion(self, monkeypatch,
                                                  source):
        def counts():
            hth = HTH(options=RunOptions(provenance=True))
            hth.run(assemble("/bin/sb", source))
            prov = hth.harrier.provenance
            return prov.blocks_observed, prov.block_tokens, _superblocks(
                _cache(hth)
            )

        fused_blocks, fused_tokens, formed = counts()
        monkeypatch.setattr(blockcache, "FUSE_AFTER", 10 ** 9)
        plain_blocks, plain_tokens, none = counts()
        assert formed and not none
        assert (fused_blocks, fused_tokens) == (plain_blocks, plain_tokens)
        assert plain_blocks > 0


def test_differential_matrix_forms_superblocks(monkeypatch):
    """The 62-workload differential suite's cached runs really execute
    superblocks, so its interpreter comparison covers them."""
    formed = []
    real = BlockCache._fuse

    def counting(self, head):
        plan = real(self, head)
        if plan is not head:
            formed.append(plan)
        return plan

    monkeypatch.setattr(BlockCache, "_fuse", counting)
    for param in _all_workloads():
        _run_fingerprint(param.values[0], block_cache=True)
    assert formed
