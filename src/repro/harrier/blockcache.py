"""The block translation cache (PIN's code cache, reproduced).

One :class:`BlockCache` holds every :class:`BlockPlan` translated for one
*image layout* — the kernel keys caches per main-executable image, shares
them across fork (instructions are immutable, and the loader's placement
is deterministic per image), and swaps them out on execve (counted as a
flush).  Lookups are one dict probe on the hot path; misses pay the
translation cost exactly once per block leader.

Library code is translated once per :class:`BlockCacheStore`, not once
per layout: a layout miss inside a shared object's text (libc, the
startup shim, extra libraries) is served from that image's
:class:`PlanTable`, which every layout mapping the same relocated code
at the same base shares.

Hot single-successor chains become *superblocks* (PIN's trace
granularity): a block that ends in ``JMP imm`` or a cut fall-through and
has been entered :data:`FUSE_AFTER` times is fused, without
re-translation, with the chain of resident blocks that statically
follows it (:class:`repro.isa.translate.Superblock`), and the superblock
replaces it in the layout cache.  A chain never spans two images, never
repeats a block leader and is capped at ``MAX_BLOCK_LEN`` instructions;
conditional jumps, CALL, RET, INT and HLT can only end one.  Plan tables keep only
translated blocks.  A superblock whose dataflow fast path keeps
declining is demoted back to its head block (:meth:`BlockCache.decline`).

Hit/miss/translation counts are kept as plain ints (always, they feed
the benchmark JSON) and mirrored into ``repro.telemetry`` counters when a
metrics registry is attached:

* ``blockcache_hits_total`` / ``blockcache_misses_total``
* ``blockcache_translated_instructions_total``
* ``blockcache_flushes_total`` (incremented by the kernel on execve)
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.isa.memory import FlatMemory
from repro.isa.translate import (
    MAX_BLOCK_LEN,
    BlockPlan,
    Superblock,
    translate_block,
)

#: Entries (the translating miss included) after which a block with a
#: static successor is fused into a superblock.  A superblock costs a
#: template replay, a summary and an applier before it saves anything,
#: about what ~40 saved dispatches are worth, and cold code rarely runs
#: that long after turning hot: on the 62-workload matrix on fresh
#: Sessions, a chain fused at 16 entries ran a median of 9 more times.
#: At 128 that matrix fuses one chain, while a warm Session fuses the
#: same chains a few runs later.
FUSE_AFTER = 128

#: Full executions of a superblock on which the dataflow fast path may
#: decline — the first always does, deferring the summary — before the
#: superblock is demoted to its head block.  A superblock that keeps
#: bailing on a load/store alias across a former block boundary would
#: otherwise replay its templates every time, slower than its parts.
DEMOTE_AFTER = 4


class PlanTable:
    """Entry-pc -> translated block, for one placed shared image.

    Sound to share across layouts because a block inside the image is
    cut only by the image's own leaders and stops at its text end
    (:attr:`leaders` holds both), so its plan depends on nothing but the
    relocated code at ``[start, end)`` — which the table's key pins.
    """

    __slots__ = ("start", "end", "leaders", "plans", "code")

    def __init__(self, loaded) -> None:
        self.start = loaded.text_start
        self.end = loaded.text_end
        self.leaders = loaded.abs_bb_leaders() | {self.end}
        self.plans: Dict[int, BlockPlan] = {}
        #: Pins the relocated text whose identity keys this table.
        self.code = loaded.code


class BlockCache:
    """Entry-pc -> translated block, for one image layout."""

    __slots__ = (
        "leaders",
        "shared",
        "plans",
        "hits",
        "misses",
        "flushes",
        "translated_instructions",
        "demotions",
        "max_blocks",
        "_c_hits",
        "_c_misses",
        "_c_translated",
    )

    def __init__(
        self,
        leaders: FrozenSet[int] = frozenset(),
        metrics=None,
        max_blocks: int = 65536,
        shared: Sequence[PlanTable] = (),
    ) -> None:
        #: Every image's absolute BB-leader set; blocks are cut so they
        #: never run past one, making each leader a stable cache key.
        self.leaders = leaders
        #: Plan tables of the layout's shared images, consulted on a
        #: miss inside their text (see :class:`PlanTable`).
        self.shared: Tuple[PlanTable, ...] = tuple(shared)
        self.plans: Dict[int, BlockPlan] = {}
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self.translated_instructions = 0
        self.demotions = 0
        #: Defensive bound; a full cache is flushed wholesale, like PIN's
        #: code cache under pressure.
        self.max_blocks = max_blocks
        self.bind_metrics(metrics)

    def bind_metrics(self, metrics) -> None:
        """(Re)wire the telemetry mirrors to ``metrics``.

        Warm caches outlive single runs (see :class:`BlockCacheStore`),
        so each run re-binds the counter handles to its own registry —
        or to ``None``, which keeps the hot path at two attribute loads.
        """
        if metrics is not None:
            self._c_hits = metrics.counter("blockcache_hits_total")
            self._c_misses = metrics.counter("blockcache_misses_total")
            self._c_translated = metrics.counter(
                "blockcache_translated_instructions_total"
            )
        else:
            self._c_hits = None
            self._c_misses = None
            self._c_translated = None

    def lookup(self, memory: FlatMemory, pc: int) -> BlockPlan:
        """The cached plan entered at ``pc``, translating on first miss.

        Raises :class:`repro.isa.memory.MemoryFault` when ``pc`` is
        unmapped (same message the interpreter's fetch would produce).
        """
        plan = self.plans.get(pc)
        if plan is not None:
            self.hits += 1
            if self._c_hits is not None:
                self._c_hits.inc()
            if plan.heat:
                plan.heat -= 1
                if not plan.heat:
                    plan = self._fuse(plan)
            return plan
        self.misses += 1
        if self._c_misses is not None:
            self._c_misses.inc()
        for table in self.shared:
            if table.start <= pc < table.end:
                plan = table.plans.get(pc)
                if plan is None:
                    plan = table.plans[pc] = self._translate(
                        memory, pc, table.leaders
                    )
                break
        else:
            plan = self._translate(memory, pc, self.leaders)
        if len(self.plans) >= self.max_blocks:
            self.flush()
        self.plans[pc] = plan
        return plan

    def _translate(self, memory: FlatMemory, pc: int, leaders) -> BlockPlan:
        plan = translate_block(memory, pc, leaders)
        if plan.link_op is not None:
            plan.heat = FUSE_AFTER - 1
        self.translated_instructions += plan.length
        if self._c_translated is not None:
            self._c_translated.inc(plan.length)
        return plan

    def _fuse(self, head: BlockPlan) -> BlockPlan:
        """Replace ``head`` with the superblock of its resident static
        chain; returns what now serves ``head.start``.  Fusion is tried
        once per block: ``head.heat`` stays 0 either way."""
        image = self._image_of(head.start)
        parts = [head]
        leaders = {head.start}
        length = head.length
        tail = head
        while tail.link_op is not None:
            resident = self.plans.get(tail.successor())
            if resident is None:
                break
            # A resident superblock at the successor contributes its
            # head; the walk then continues through its own chain.
            part = resident if resident.parts is None else resident.parts[0]
            length += part.length
            if (
                part.start in leaders
                or length > MAX_BLOCK_LEN
                or self._image_of(part.start) is not image
            ):
                break
            parts.append(part)
            leaders.add(part.start)
            tail = part
        if len(parts) == 1:
            return head
        plan = self.plans[head.start] = Superblock(parts)
        return plan

    def _image_of(self, pc: int) -> Optional[PlanTable]:
        """The shared image whose text holds ``pc``; None for the main
        image (the only one without a plan table)."""
        for table in self.shared:
            if table.start <= pc < table.end:
                return table
        return None

    def decline(self, plan: Superblock) -> None:
        """A full execution of superblock ``plan`` declined the dataflow
        fast path; demote it to its head block once that has happened
        :data:`DEMOTE_AFTER` times (the head is never fused again)."""
        plan.declines += 1
        if plan.declines == DEMOTE_AFTER:
            self.plans[plan.start] = plan.parts[0]
            self.demotions += 1

    def flush(self) -> None:
        """Drop every translated block (refilled lazily on next lookup)."""
        self.plans.clear()
        self.flushes += 1

    def hit_rate(self) -> Optional[float]:
        total = self.hits + self.misses
        if total == 0:
            return None
        return self.hits / total

    def stats(self) -> Dict[str, object]:
        # How much of the resident cache the dataflow fast path can
        # collapse: no-op blocks (no taint outputs at all) and
        # zero-taint-safe blocks (skippable outright when the shadow
        # state is clean — no immediate/hardware sources).  Read-only:
        # only summaries the fast path already built are counted.
        summaries = [
            p.built_summary for p in self.plans.values()
            if p.built_summary is not None
        ]
        return {
            "blocks": len(self.plans),
            "superblocks": sum(
                1 for p in self.plans.values() if p.parts is not None
            ),
            "demotions": self.demotions,
            "hits": self.hits,
            "misses": self.misses,
            "flushes": self.flushes,
            "translated_instructions": self.translated_instructions,
            "hit_rate": self.hit_rate(),
            "taint_summaries": len(summaries),
            "taint_noop_blocks": sum(1 for s in summaries if s.is_noop),
            "zero_taint_safe_blocks": sum(
                1 for s in summaries if s.zero_taint_safe
            ),
        }

    def __len__(self) -> int:
        return len(self.plans)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BlockCache(<{len(self.plans)} blocks, "
            f"{self.hits} hits / {self.misses} misses>)"
        )


class BlockCacheStore:
    """Cross-run warm store: layout caches plus shared-image plan tables.

    A translated plan is valid for exactly one placement of its code —
    the same instructions relocated to the same addresses.  Two scopes
    follow from that:

    * **Layout caches** (:meth:`get`/:meth:`put`): the kernel's layout
      key is the main image's name and the identity of its (immutable,
      shared) text tuple, plus ``(name, base, text identity)`` of every
      loaded image.  Two runs produce equal keys only when the loader
      placed identical code identically, which is precisely when reusing
      the cache is sound.
    * **Plan tables** (:meth:`table`): one per shared (non-app) image,
      keyed by ``(name, relocated-text identity, base)``.  The loader
      memoizes relocated library text per process, so every layout that
      maps libc at its base names the same table, and a library block is
      translated once per store instead of once per main image.

    Keys embed ``id()`` values, so the store *pins* the keyed objects: a
    strong reference per entry guarantees no id is ever recycled while
    the store lives.  Stores are single-process, single-engine state
    (each ``EngineCache``, fleet worker and serve worker owns its own),
    never process-wide: a plan's installed ``taint_apply`` closes over
    one engine's ``TagSetInterner``.
    """

    __slots__ = ("_entries", "_tables")

    def __init__(self) -> None:
        self._entries: Dict[tuple, tuple] = {}
        self._tables: Dict[tuple, PlanTable] = {}

    def get(self, key: tuple) -> Optional["BlockCache"]:
        entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    def put(self, key: tuple, cache: "BlockCache", pins: tuple = ()) -> None:
        self._entries[key] = (cache, pins)

    def table(self, loaded) -> PlanTable:
        """The plan table for a placed shared image, created on first use
        (``loaded`` is a :class:`repro.kernel.loader.LoadedImage`)."""
        key = (loaded.name, id(loaded.code), loaded.base)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = PlanTable(loaded)
        return table

    def stats(self) -> Dict[str, object]:
        """Aggregate counters across every stored cache."""
        totals = {
            "caches": len(self._entries),
            "plan_tables": len(self._tables),
            "blocks": 0,
            "superblocks": 0,
            "hits": 0,
            "misses": 0,
            "translated_instructions": 0,
        }
        for cache, _pins in self._entries.values():
            totals["blocks"] += len(cache)
            totals["superblocks"] += cache.stats()["superblocks"]
            totals["hits"] += cache.hits
            totals["misses"] += cache.misses
            totals["translated_instructions"] += (
                cache.translated_instructions
            )
        return totals

    def __len__(self) -> int:
        return len(self._entries)
