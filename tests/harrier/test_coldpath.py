"""Cold-path sharing: library plan tables, lazy taint summaries, and
read-only diagnostics.

Library code is translated once per block-cache store (one per engine)
and shared by every main image that maps it; a block's taint summary is
built only when the block is fully executed a second time; and
``BlockCache.stats()`` never builds a summary as a side effect.  The
bit-identity of all of this against fresh machines lives in
``tests/harrier/test_blockcache_differential.py``.
"""

from collections import Counter

import pytest

import repro.harrier.blockcache as blockcache
import repro.isa.translate as translate
from repro.api import Session
from repro.isa import LIBRARY_BASE, FlatMemory, assemble
from repro.kernel import Kernel
from repro.programs.libc import libc_image

PRINT_LOOP = r"""
main:
    mov edi, 0
loop:
    cmp edi, 3
    jge done
    mov ebx, edi
    call print_num
    add edi, 1
    jmp loop
done:
    mov eax, 0
    ret
"""

#: ``main`` is not at offset 0, so this program's startup shim differs.
OFFSET_MAIN = r"""
helper:
    ret
main:
    mov ebx, 7
    call print_num
    mov eax, 3
    ret
"""

LIBC_END = LIBRARY_BASE + libc_image().text_size


@pytest.fixture
def translations(monkeypatch):
    """Start pcs of every block translated while the fixture is live."""
    seen = Counter()
    real = blockcache.translate_block

    def counting(memory, start, *args, **kwargs):
        seen[start] += 1
        return real(memory, start, *args, **kwargs)

    monkeypatch.setattr(blockcache, "translate_block", counting)
    return seen


@pytest.fixture
def summaries(monkeypatch):
    """How many taint summaries were built while the fixture is live."""
    built = []
    real = translate.summarize_taint
    monkeypatch.setattr(
        translate, "summarize_taint",
        lambda taint: built.append(taint) or real(taint),
    )
    return built


def _memory(body):
    memory = FlatMemory()
    memory.map_code(0x1000, assemble("/bin/x", "main:\n    " + body).text)
    return memory


def libc_pcs(counter):
    return {pc: n for pc, n in counter.items()
            if LIBRARY_BASE <= pc < LIBC_END}


class TestPlanTables:
    def test_library_translated_once_across_main_images(self, translations):
        session = Session()
        first = session.run(assemble("/bin/a", PRINT_LOOP))
        after_first = dict(libc_pcs(translations))
        second = session.run(assemble("/bin/b", PRINT_LOOP))
        assert first.console_output == second.console_output == "012"
        assert after_first
        assert libc_pcs(translations) == after_first
        assert set(after_first.values()) == {1}

    def test_tables_are_per_engine(self, translations):
        Session().run(assemble("/bin/a", PRINT_LOOP))
        once = libc_pcs(translations)
        Session().run(assemble("/bin/a", PRINT_LOOP))
        assert libc_pcs(translations) == {pc: 2 for pc in once}

    def test_shim_table_keyed_by_its_relocated_code(self):
        session = Session()
        assert session.run(assemble("/bin/a", PRINT_LOOP)).exit_code == 0
        report = session.run(assemble("/bin/b", OFFSET_MAIN))
        assert report.exit_code == 3
        assert report.console_output == "7"

    def test_one_table_per_shared_image(self):
        session = Session()
        session.run(assemble("/bin/a", PRINT_LOOP))
        session.run(assemble("/bin/b", PRINT_LOOP))
        stats = session.engine.stats()
        assert stats["caches"] == 2
        assert stats["plan_tables"] == 2  # libc + the shared shim

    def test_table_blocks_stop_at_text_end(self):
        kernel = Kernel(libraries=[libc_image()])
        proc = kernel.spawn(assemble("/bin/a", PRINT_LOOP))
        libc = next(li for li in proc.image_map
                    if li.name == libc_image().name)
        table = kernel._block_cache_store.table(libc)
        assert libc.text_end in table.leaders
        assert libc.abs_bb_leaders() <= table.leaders


class TestLazySummaries:
    def _harrier_run(self, source, **options):
        from repro.core.hth import HTH
        from repro.core.options import RunOptions

        hth = HTH(options=RunOptions(**options))
        hth.run(assemble("/bin/t", source))
        return hth

    @pytest.mark.parametrize("provenance", [True, False])
    def test_summaries_only_for_blocks_run_twice(self, summaries,
                                                 monkeypatch, provenance):
        # With provenance on, this also shows the recorder's
        # ``observe_block`` reads only summaries the fast path built.
        from repro.harrier.monitor import Harrier

        full = Counter()
        real = Harrier.on_block

        def counting(self, proc, rec):
            if rec.executed == rec.plan.length:
                full[rec.plan] += 1
            return real(self, proc, rec)

        monkeypatch.setattr(Harrier, "on_block", counting)
        hth = self._harrier_run(PRINT_LOOP, provenance=provenance)
        cache = next(iter(hth.kernel._block_caches.values()))[1]
        built = {p for p in cache.plans.values()
                 if p.built_summary is not None}
        assert built == {p for p, n in full.items() if n >= 2}
        assert len(summaries) == len(built)
        assert 0 < len(built) < len(cache.plans)
        assert hth.harrier.fastpath_blocks > 0
        prov = hth.harrier._prov
        assert (prov is not None) is provenance
        assert prov is None or prov.blocks_observed > 0

    def test_first_full_execution_replays_templates(self, summaries):
        from repro.core.hth import HTH
        from repro.harrier.state import ProcessShadow

        hth = HTH()
        plan = translate.translate_block(
            _memory("mov ebx, eax\n    ret"), 0x1000
        )
        rec = translate.BlockRecord(plan)
        rec.executed = plan.length
        harrier = hth.harrier
        shadow = ProcessShadow()
        harrier._apply_block_dataflow(shadow, rec)
        assert (harrier.slowpath_blocks, harrier.fastpath_blocks) == (1, 0)
        assert plan.built_summary is None and summaries == []
        harrier._apply_block_dataflow(shadow, rec)
        assert (harrier.slowpath_blocks, harrier.fastpath_blocks) == (1, 1)
        assert plan.built_summary is not None and len(summaries) == 1

    def test_fastpath_off_builds_none(self, summaries):
        self._harrier_run(PRINT_LOOP, taint_fastpath=False)
        assert summaries == []


class TestReadOnlyStats:
    def test_stats_build_no_summaries(self, summaries):
        kernel = Kernel(libraries=[libc_image()])
        kernel.spawn(assemble("/bin/a", PRINT_LOOP))
        kernel.run()
        cache = next(iter(kernel._block_caches.values()))[1]
        stats = cache.stats()
        assert summaries == []
        assert stats["taint_summaries"] == 0
        assert stats["blocks"] > 0
        kernel.block_cache_stats()
        assert summaries == []

    def test_stats_count_built_summaries(self):
        kernel = Kernel(libraries=[libc_image()])
        kernel.spawn(assemble("/bin/a", PRINT_LOOP))
        kernel.run()
        cache = next(iter(kernel._block_caches.values()))[1]
        plans = list(cache.plans.values())
        noop = sum(1 for p in plans[:3] if p.taint_summary.is_noop)
        stats = cache.stats()
        assert stats["taint_summaries"] == 3
        assert stats["taint_noop_blocks"] == noop
