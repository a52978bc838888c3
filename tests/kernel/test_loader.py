"""Loader tests: placement, relocation, dynamic linking, initial stack."""

import pytest

from repro.isa import APP_BASE, FlatMemory, LIBRARY_BASE, assemble
from repro.kernel.loader import ImageMap, Loader, LoaderError


LIB_SOURCE = """
helper:
    mov eax, 7
    ret
.data
lib_secret: .asciz "in-lib"
"""

APP_SOURCE = """
main:
    call helper
    mov ebx, msg
    ret
.data
msg: .asciz "hi"
ptr: .word helper
"""


@pytest.fixture
def loaded():
    lib = assemble("/lib/test.so", LIB_SOURCE)
    app = assemble("/bin/app", APP_SOURCE)
    memory = FlatMemory()
    result = Loader([lib]).load(memory, app, argv=["/bin/app", "arg1"],
                                env={"KEY": "VAL"})
    return memory, result, app, lib


class TestPlacement:
    def test_app_at_app_base(self, loaded):
        memory, result, app, lib = loaded
        assert result.image_map.app.base == APP_BASE

    def test_library_at_library_base(self, loaded):
        memory, result, app, lib = loaded
        li = [x for x in result.image_map if x.name == "/lib/test.so"][0]
        assert li.base == LIBRARY_BASE
        assert not li.is_app

    def test_entry_is_shim(self, loaded):
        memory, result, app, lib = loaded
        shim = result.image_map.find_code(result.entry)
        assert shim.name == "[startup]"

    def test_shim_calls_main(self, loaded):
        memory, result, app, lib = loaded
        call = memory.fetch(result.entry)
        assert call.a.value == APP_BASE  # main is app offset 0


class TestRelocation:
    def test_local_data_symbol(self, loaded):
        memory, result, app, lib = loaded
        mov = memory.fetch(APP_BASE + 1)  # mov ebx, msg
        assert mov.b.value == APP_BASE + app.symbols["msg"]
        # the string content was copied
        assert memory.read_cstring(mov.b.value) == "hi"

    def test_extern_call_resolved_into_library(self, loaded):
        memory, result, app, lib = loaded
        call = memory.fetch(APP_BASE)  # call helper
        assert call.a.value == LIBRARY_BASE + lib.symbols["helper"]

    def test_data_relocation(self, loaded):
        memory, result, app, lib = loaded
        ptr_addr = APP_BASE + app.symbols["ptr"]
        assert memory.read(ptr_addr) == LIBRARY_BASE + lib.symbols["helper"]

    def test_unresolved_symbol_raises(self):
        app = assemble("/bin/app", "main:\n  call ghost_symbol\n")
        with pytest.raises(LoaderError):
            Loader([]).load(FlatMemory(), app, argv=[], env={})

    def test_missing_main_raises(self):
        app = assemble("/bin/app", "start:\n  nop\n")
        with pytest.raises(LoaderError):
            Loader([]).load(FlatMemory(), app, argv=[], env={})


class TestSharedRelocation:
    def _load(self, lib, source=APP_SOURCE):
        memory = FlatMemory()
        app = assemble("/bin/app", source)
        result = Loader([lib]).load(memory, app, argv=["/bin/app"], env={})
        return {li.name: li for li in result.image_map}, memory

    def test_library_relocated_once_per_process(self):
        # Two different main images, one library with a text relocation.
        lib = assemble("/lib/x.so", "f:\n    call h\nh:\n    ret\n")
        first, _ = self._load(lib, "main:\n    call f\n    ret\n")
        second, _ = self._load(lib, "main:\n    call h\n    ret\n")
        assert first["/lib/x.so"].code is second["/lib/x.so"].code
        assert first["[startup]"].code is second["[startup]"].code
        assert first["/lib/x.so"].code[0].a.value == LIBRARY_BASE + 1

    def test_app_relocated_per_load(self):
        lib = assemble("/lib/test.so", LIB_SOURCE)
        first, _ = self._load(lib)
        second, _ = self._load(lib)
        assert first["/bin/app"].code is not second["/bin/app"].code
        assert first["/bin/app"].code == second["/bin/app"].code

    def test_mapped_code_is_the_relocated_tuple(self):
        lib = assemble("/lib/test.so", LIB_SOURCE)
        images, memory = self._load(lib)
        for li in images.values():
            for i, instr in enumerate(li.code):
                assert memory.fetch(li.base + i) is instr

    def test_relocation_targets_key_the_memo(self):
        # Same library text resolved against different symbol tables
        # must not share a relocated tuple.
        lib = assemble("/lib/x.so", "f:\n    call g\n    ret\n")
        app_a = "main:\n    ret\ng:\n    ret\n"
        app_b = "main:\n    nop\n    ret\ng:\n    ret\n"
        a, _ = self._load(lib, app_a)
        b, _ = self._load(lib, app_b)
        assert a["/lib/x.so"].code[0].a.value != b["/lib/x.so"].code[0].a.value


class TestInitialStack:
    def test_argc_argv_envp_layout(self, loaded):
        memory, result, app, lib = loaded
        sp = result.initial_sp
        argc = memory.read(sp)
        argv_array = memory.read(sp + 1)
        env_array = memory.read(sp + 2)
        assert argc == 2
        assert memory.read_cstring(memory.read(argv_array)) == "/bin/app"
        assert memory.read_cstring(memory.read(argv_array + 1)) == "arg1"
        assert memory.read(argv_array + 2) == 0  # NUL terminator
        assert memory.read_cstring(memory.read(env_array)) == "KEY=VAL"
        assert memory.read(env_array + 1) == 0

    def test_stack_range_covers_strings(self, loaded):
        memory, result, app, lib = loaded
        start, end = result.initial_stack_range
        assert start == result.initial_sp
        from repro.isa import STACK_TOP

        assert end == STACK_TOP


class TestImageMap:
    def test_find_and_symbols(self, loaded):
        memory, result, app, lib = loaded
        imap = result.image_map
        assert imap.find(APP_BASE).name == "/bin/app"
        assert imap.find(0xDEAD_BEEF) is None
        assert imap.symbol_addr("helper") == LIBRARY_BASE
        assert imap.symbol_addr("nope") is None

    def test_addr_to_symbol(self, loaded):
        memory, result, app, lib = loaded
        imap = result.image_map
        assert imap.addr_to_symbol(LIBRARY_BASE) == "helper"

    def test_app_property_requires_app(self):
        with pytest.raises(LoaderError):
            ImageMap([]).app
