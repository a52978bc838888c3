"""Instruction-level dataflow tracking (paper section 7.3.1).

Replays the CPU's :class:`TaintTransfer` records over the process shadow
state.  The interesting cases, matching the paper's examples:

* ``mov %esp,%ebp`` — destination inherits the source register's tags;
* ``movl $0x4, mem`` — an immediate carries the BINARY tag of the image
  that contains the instruction;
* ``add %ebx,%eax`` — destination gets the *union* of both operands' tags;
* ``cpuid`` — the output registers get the HARDWARE tag.

Three application paths exist: :meth:`InstructionDataFlow.apply` replays
one :class:`StepResult` (the interpreter path),
:meth:`InstructionDataFlow.apply_block` replays a whole
:class:`BlockRecord` from the block cache's precompiled taint templates,
and :meth:`InstructionDataFlow.apply_summary` — the fast path — skips
the per-transfer replay entirely and evaluates the block's precomputed
:class:`TaintSummary` support expressions against the entry state, in
O(#outputs).  The batched paths route every union through a
:class:`TagSetInterner`, so the steady state of a guest loop — the same
block's templates over mostly-unchanged shadow state — costs dict
probes instead of frozenset allocations.
"""

from __future__ import annotations

from typing import Dict

from repro.harrier.state import ProcessShadow
from repro.isa.cpu import StepResult
from repro.isa.memory import MAX_CSTRING
from repro.isa.translate import BlockRecord
from repro.taint.tags import EMPTY, DataSource, TagSet, TagSetInterner

_HARDWARE = TagSet.of(DataSource.HARDWARE)


def _apply_noop(shadow, rec) -> bool:
    """Shared applier for blocks whose summary has no taint effects."""
    return True


class InstructionDataFlow:
    """Stateless transfer interpreter (tag caches only)."""

    def __init__(self, interner: TagSetInterner = None) -> None:
        self._binary_tags: Dict[str, TagSet] = {}
        #: Shared hash-consing table + union memo for the batched path.
        #: May be handed in warm (an ``EngineCache`` reusing interned
        #: sets across a sweep's runs); interning is value-preserving,
        #: so sharing never changes observable output.
        self.interner = interner if interner is not None else TagSetInterner()

    def binary_tag(self, image_name: str) -> TagSet:
        tags = self._binary_tags.get(image_name)
        if tags is None:
            tags = self.interner.intern(
                TagSet.of(DataSource.BINARY, image_name)
            )
            self._binary_tags[image_name] = tags
        return tags

    def apply(self, shadow: ProcessShadow, step: StepResult) -> None:
        transfers = step.transfers
        if not transfers:
            return
        regs = shadow.regs
        memory = shadow.memory
        imm_tags: TagSet = None  # lazily resolved per step
        for transfer in transfers:
            tags = EMPTY
            for src in transfer.srcs:
                kind = src[0]
                if kind == "reg":
                    tags = tags.union(regs.get(src[1]))
                elif kind == "mem":
                    tags = tags.union(memory.get(src[1]))
                elif kind == "imm":
                    if imm_tags is None:
                        image = shadow.code_image.get(step.pc)
                        imm_tags = (
                            self.binary_tag(image.name)
                            if image is not None
                            else EMPTY
                        )
                    tags = tags.union(imm_tags)
                elif kind == "hardware":
                    tags = tags.union(_HARDWARE)
                # 'zero' contributes nothing (xor r,r / call return slots)
            dst = transfer.dst
            if dst[0] == "reg":
                regs.set(dst[1], tags)
            else:
                memory.set(dst[1], tags)

    def apply_block(self, shadow: ProcessShadow, rec: BlockRecord) -> None:
        """Replay one block record's taint templates over the shadow.

        Equivalent to :meth:`apply` over the per-instruction StepResults
        the record stands for, but with the transfer shapes precompiled:
        the only per-execution inputs are the dynamic memory addresses in
        ``rec.holes`` (consumed positionally — at most one per
        instruction in this ISA) and the shadow state itself.
        """
        n = rec.executed
        if n == 0:
            return
        plan = rec.plan
        taint = plan.taint
        holes = rec.holes
        regs = shadow.regs
        rget = regs.get
        rset = regs.set
        memory = shadow.memory
        mget = memory.probe
        mset = memory.set
        union = self.interner.union
        imm_tags: TagSet = None  # lazily resolved once per block
        cursor = 0
        addr = 0
        for i in range(n):
            tmpl = taint[i]
            if tmpl is None:
                continue
            has_hole, transfers = tmpl
            if has_hole:
                addr = holes[cursor]
                cursor += 1
            for dst_spec, src_specs in transfers:
                tags = EMPTY
                for src in src_specs:
                    kind = src[0]
                    if kind == "reg":
                        tags = union(tags, rget(src[1]))
                    elif kind == "mem?":
                        cell = mget(addr)
                        if cell is not None:
                            tags = union(tags, cell)
                    elif kind == "imm":
                        if imm_tags is None:
                            # Blocks never span images (placement leaves
                            # unmapped gaps), so one lookup covers them.
                            image = shadow.code_image.get(plan.start)
                            imm_tags = (
                                self.binary_tag(image.name)
                                if image is not None
                                else EMPTY
                            )
                        tags = union(tags, imm_tags)
                    elif kind == "hardware":
                        tags = union(tags, _HARDWARE)
                    # 'zero' contributes nothing
                if dst_spec[0] == "reg":
                    rset(dst_spec[1], tags)
                else:
                    mset(addr, tags)

    def apply_summary(self, shadow: ProcessShadow, rec: BlockRecord) -> bool:
        """Fast path: evaluate the block's :class:`TaintSummary` instead
        of replaying its templates transfer by transfer.

        Valid only for *full* executions (``rec.executed ==
        plan.length`` — the caller checks), because the summary folds
        the whole block.  Returns False — caller falls back to
        :meth:`apply_block` — when a load aliases an earlier store of
        the same block, the one case where entry-state evaluation and
        sequential replay can disagree.

        The common shapes this collapses:

        * a pure-compute block over clean inputs writes nothing but
          empty sets — a handful of dict pops clearing stale tags;
        * a loop body whose registers already hold the image's BINARY
          tag re-derives the same interned sets via memoized unions —
          per *output*, not per instruction.
        """
        plan = rec.plan
        applier = plan.taint_apply
        if applier is None:
            applier = self.install_applier(plan)
        return applier(shadow, rec)

    def defer_summary(self, shadow: ProcessShadow, rec: BlockRecord) -> bool:
        """Applier stand-in for a block never fully executed before.

        Declines, so the caller replays the templates (the exact path),
        and arms the block: its *second* full execution builds the
        summary and installs the compiled applier.  Most translated
        blocks run once, and a block that runs once never pays for a
        summary.
        """
        rec.plan.taint_apply = self._install_and_apply
        return False

    def _install_and_apply(self, shadow: ProcessShadow,
                           rec: BlockRecord) -> bool:
        return self.install_applier(rec.plan)(shadow, rec)

    def install_applier(self, plan):
        """Compile one block's :class:`TaintSummary` into an applier
        closure — ``applier(shadow, rec) -> bool`` — and cache it on
        ``plan.taint_apply``, mirroring how the translator compiles
        ``body_ops``: the summary's shape is frozen into closure cells
        so the per-execution cost is the entry-key build, one cache
        probe, and the output writes.
        """
        summary = plan.taint_summary
        if summary.is_noop:
            plan.taint_apply = _apply_noop
            return _apply_noop
        live_in = summary.live_in
        #: Default args for the C-level ``map(rget, live_in, empties)``
        #: key build: absent register == EMPTY.
        empties = (EMPTY,) * len(live_in)
        read_holes = summary.read_holes
        alias_checks = summary.alias_checks
        zero_gate = summary.zero_taint_safe
        touch_holes = summary.touch_holes
        evaluate = self._evaluate_summary
        #: key -> outputs; guest loops re-enter with the same entry *tag
        #: values* even as addresses change, so evaluation repeats.
        memo: dict = {}
        #: Single-entry front cache: tuple equality short-circuits on
        #: element identity, so the steady-state hit does not even hash
        #: the key.  Closure cells shared with ``resolve``, which
        #: refreshes them on every miss.
        front_key = None
        front_out = None
        #: (register dict identity, generation) the last *state-neutral*
        #: application / cached reg-key build was made against.  When
        #: they still match, the register file provably has not changed
        #: since — see :attr:`ShadowRegisters.gen`.
        front_rdict = None
        front_rgen = -1
        front_rkey = None

        def resolve(shadow, rtags, holes, key):
            """The front-cache miss path: zero-skip, memo, evaluate.

            Returns the outputs tuple, or None when the zero-taint skip
            applies (nothing tainted can flow in — clean register file,
            no imm/hardware sources, every touched page absent — so
            every output is the empty set and nothing is stale).
            """
            nonlocal front_key, front_out
            if zero_gate and not rtags:
                page_live = shadow.memory.page_live
                for idx in touch_holes:
                    if page_live(holes[idx]):
                        break
                else:
                    return None
            out = memo.get(key)
            if out is None:
                out = evaluate(shadow, plan, summary, key)
                if len(memo) >= 64:
                    # Pathological value churn; keep the memo tiny —
                    # the working set refills in a few entries.
                    memo.clear()
                memo[key] = out
            front_key = key
            front_out = out
            return out

        if not (read_holes or alias_checks or summary.mem_writes):
            # Register-only block — the most common shape (about half
            # the executed blocks): no memory holes at all.  Outputs
            # depend on the register file alone, so once an application
            # changes nothing (the guest-loop steady state: every write
            # re-derives the value already there), the block collapses
            # to a generation check until *any* register tag changes.
            def applier(shadow, rec) -> bool:
                nonlocal front_rdict, front_rgen
                regs = shadow.regs
                # The raw register-tag dict, like ``BlockPlan.execute``
                # binds the raw register values: absent key == EMPTY,
                # by ShadowRegisters' own invariant.
                rtags = regs._tags
                gen = regs.gen
                if gen == front_rgen and rtags is front_rdict:
                    return True
                key = tuple(map(rtags.get, live_in, empties))
                if key == front_key:
                    out = front_out
                else:
                    out = resolve(shadow, rtags, (), key)
                    if out is None:
                        # Zero-taint skip: state-neutral by definition.
                        front_rgen = gen
                        front_rdict = rtags
                        return True
                reg_sets, reg_clears, _ = out
                changed = False
                rget = rtags.get
                for reg, tags in reg_sets:
                    if rget(reg) is not tags:
                        rtags[reg] = tags
                        changed = True
                for reg in reg_clears:
                    if rtags.pop(reg, None) is not None:
                        changed = True
                if changed:
                    regs.gen = gen + 1
                else:
                    # State-neutral: arm the generation skip.
                    front_rgen = gen
                    front_rdict = rtags
                return True
        else:
            # Memory-touching block: the probes must run every time
            # (the hole addresses change between executions), but the
            # register part of the key is reused while the register
            # file's generation holds still.
            def applier(shadow, rec) -> bool:
                nonlocal front_rdict, front_rgen, front_rkey
                holes = rec.holes
                if alias_checks:
                    for ridx, widxs in alias_checks:
                        addr = holes[ridx]
                        for widx in widxs:
                            if holes[widx] == addr:
                                return False
                regs = shadow.regs
                rtags = regs._tags
                gen = regs.gen
                if gen == front_rgen and rtags is front_rdict:
                    key = front_rkey
                else:
                    key = tuple(map(rtags.get, live_in, empties))
                    front_rgen = gen
                    front_rdict = rtags
                    front_rkey = key
                if read_holes:
                    key += tuple(
                        map(
                            shadow.memory.probe,
                            map(holes.__getitem__, read_holes),
                        )
                    )
                if key == front_key:
                    out = front_out
                else:
                    out = resolve(shadow, rtags, holes, key)
                    if out is None:
                        return True
                reg_sets, reg_clears, mem_out = out
                changed = False
                rget = rtags.get
                for reg, tags in reg_sets:
                    if rget(reg) is not tags:
                        rtags[reg] = tags
                        changed = True
                for reg in reg_clears:
                    if rtags.pop(reg, None) is not None:
                        changed = True
                if changed:
                    regs.gen = gen + 1
                if mem_out:
                    mset = shadow.memory.set
                    for idx, tags in mem_out:
                        mset(holes[idx], tags)
                return True

        plan.taint_apply = applier
        return applier

    def _evaluate_summary(self, shadow, plan, summary, key):
        """Evaluate every support expression against the entry values in
        ``key`` (the memo-miss path of :meth:`apply_summary`).

        Returns ``(reg_sets, reg_clears, mem_out)``: the non-empty
        register writes, the registers whose stale tags must be cleared,
        and the memory stores by hole index — pre-split so the memo-hit
        path applies them with raw dict operations.
        """
        union = self.interner.union
        nlive = len(summary.live_in)
        in_vals = dict(zip(summary.live_in, key))
        mem_vals = dict(zip(summary.read_holes, key[nlive:]))
        imm_tags: TagSet = None  # lazily resolved once per block
        hw = _HARDWARE

        def evaluate(support) -> TagSet:
            nonlocal imm_tags
            tags = EMPTY
            for token in support:
                kind = token[0]
                if kind == "reg":
                    tags = union(tags, in_vals[token[1]])
                elif kind == "mem":
                    cell = mem_vals[token[1]]
                    if cell is not None:
                        tags = union(tags, cell)
                elif kind == "imm":
                    if imm_tags is None:
                        image = shadow.code_image.get(plan.start)
                        imm_tags = (
                            self.binary_tag(image.name)
                            if image is not None
                            else EMPTY
                        )
                    tags = union(tags, imm_tags)
                else:  # "hw"
                    tags = union(tags, hw)
            return tags

        reg_sets = []
        reg_clears = []
        for reg, support in summary.reg_writes:
            tags = evaluate(support)
            if tags._tags:
                reg_sets.append((reg, tags))
            else:
                reg_clears.append(reg)
        return (
            tuple(reg_sets),
            tuple(reg_clears),
            tuple(
                (idx, evaluate(support))
                for idx, support in summary.mem_writes
            ),
        )

    # -- helpers used by the event generator --------------------------------
    @staticmethod
    def string_tags(proc, shadow: ProcessShadow, addr: int,
                    max_len: int = MAX_CSTRING) -> TagSet:
        """Union of shadow tags over the NUL-terminated string at ``addr``.

        This is "the data source of the resource ID" (paper section 5.1):
        e.g. the provenance of a file-name string passed to open().

        The scan window matches :meth:`FlatMemory.read_cstring` (same
        ``MAX_CSTRING`` default, NUL cell excluded); where read_cstring
        faults on an unterminated string, this returns the union over
        the full window — the monitor must stay conservative, never
        raise, for strings only the guest mis-terminated.
        """
        tags = EMPTY
        cells = proc.memory.cells.get
        shadow_cells = shadow.memory.probe
        for i in range(max_len):
            a = addr + i
            if cells(a, 0) == 0:
                break
            cell = shadow_cells(a)
            if cell is not None:
                tags = tags.union(cell)
        return tags

    @staticmethod
    def range_tags(shadow: ProcessShadow, start: int, length: int) -> TagSet:
        """Union of shadow tags over [start, start+length)."""
        return shadow.memory.union_of_range(start, length)
