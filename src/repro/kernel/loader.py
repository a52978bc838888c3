"""Program loader: image placement, relocation, dynamic linking, initial
stack.

The loader is one of Harrier's event sources (paper section 7.3.2): every
cell it copies out of a binary image is tagged BINARY by the monitor's
image-load hook, and the initial stack (argc/argv/envp) is tagged
USER INPUT (section 7.3.3).  The loader itself knows nothing about taint —
it reports *what* it mapped and the monitor does the tagging.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.image import Image
from repro.isa.instructions import Imm, Instruction, Opcode, Reg
from repro.isa.memory import (
    APP_BASE,
    FlatMemory,
    HEAP_BASE,
    LIBRARY_BASE,
    LIBRARY_STRIDE,
    STACK_TOP,
)


class LoaderError(Exception):
    """Unresolved symbols or overlapping placements."""


@dataclass(frozen=True)
class LoadedImage:
    """An image placed at a base address with relocations applied."""

    image: Image
    base: int
    #: True for the main executable, False for shared objects and the
    #: startup shim.  Harrier's BB-frequency module counts only app blocks
    #: (paper section 7.4).
    is_app: bool
    #: The relocated text as mapped at ``base``.  For a non-app image it
    #: is the process-wide memoized tuple (see :func:`_relocated_text`),
    #: so its identity names "this code at this address" across loads.
    code: Tuple[Instruction, ...] = field(
        default=(), compare=False, repr=False
    )

    @property
    def name(self) -> str:
        return self.image.name

    @property
    def text_start(self) -> int:
        return self.base

    @property
    def text_end(self) -> int:
        return self.base + self.image.text_size

    @property
    def data_start(self) -> int:
        return self.base + self.image.text_size

    @property
    def end(self) -> int:
        return self.base + self.image.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def contains_code(self, addr: int) -> bool:
        return self.base <= addr < self.text_end

    def symbol_addr(self, name: str) -> Optional[int]:
        off = self.image.symbols.get(name)
        if off is None:
            return None
        return self.base + off

    def abs_bb_leaders(self) -> frozenset:
        return frozenset(self.base + off for off in self.image.bb_leaders)


class ImageMap:
    """All images loaded into one address space."""

    def __init__(self, loaded: Sequence[LoadedImage]) -> None:
        self._loaded = list(loaded)

    def __iter__(self):
        return iter(self._loaded)

    def __len__(self) -> int:
        return len(self._loaded)

    @property
    def app(self) -> LoadedImage:
        for li in self._loaded:
            if li.is_app:
                return li
        raise LoaderError("no app image in map")

    def find(self, addr: int) -> Optional[LoadedImage]:
        for li in self._loaded:
            if li.contains(addr):
                return li
        return None

    def find_code(self, addr: int) -> Optional[LoadedImage]:
        for li in self._loaded:
            if li.contains_code(addr):
                return li
        return None

    def symbol_addr(self, name: str) -> Optional[int]:
        for li in self._loaded:
            addr = li.symbol_addr(name)
            if addr is not None:
                return addr
        return None

    def addr_to_symbol(self, addr: int) -> Optional[str]:
        """Best-effort reverse lookup: symbol defined exactly at addr."""
        for li in self._loaded:
            off = addr - li.base
            if 0 <= off < li.image.size:
                for name, sym_off in li.image.symbols.items():
                    if sym_off == off:
                        return name
        return None


#: Synthetic startup shim: calls main, passes its return value to exit(2).
_SHIM_BASE = 0x100


@lru_cache(maxsize=64)
def _make_shim(main_addr: int) -> Image:
    # Memoized (like ``libc_image``) so ``id(image.text)`` is stable across
    # runs of the same program — the warm BlockCacheStore keys its layouts
    # on text identity, and a fresh shim per run would defeat every hit.
    text = (
        Instruction(Opcode.CALL, Imm(main_addr, symbol="main")),
        Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")),
        Instruction(Opcode.MOV, Reg("eax"), Imm(1)),  # SYS_exit
        Instruction(Opcode.INT, Imm(0x80)),
    )
    return Image(
        name="[startup]",
        text=text,
        symbols={"_start": 0},
        bb_leaders=frozenset({0, 1}),
    )


#: Relocated text of non-app images, shared by every load in the process:
#: (source text id, relocations id, base, resolved targets) ->
#: (source text, relocations, relocated text).  Each entry pins the
#: objects whose ids it is keyed by, so no id is recycled while it lives.
_RELOCATED: "OrderedDict[tuple, tuple]" = OrderedDict()
#: Bound on the memo, like ``_make_shim``'s cache.
_RELOCATED_MAX = 64


def _relocated_text(
    image: Image, base: int, targets: Tuple[int, ...]
) -> Tuple[Instruction, ...]:
    """``image.text`` with every text relocation patched to ``targets``.

    Memoized (LRU, :data:`_RELOCATED_MAX` entries) so libc, the startup
    shim and extra libraries are relocated once per process, and every
    load hands out the *same* tuple — the identity the block-cache
    store's per-image plan tables are keyed by.
    """
    key = (id(image.text), id(image.text_relocations), base, targets)
    entry = _RELOCATED.get(key)
    if entry is not None:
        _RELOCATED.move_to_end(key)
        return entry[2]
    patched = _patch(image, targets)
    _RELOCATED[key] = (image.text, image.text_relocations, patched)
    if len(_RELOCATED) > _RELOCATED_MAX:
        _RELOCATED.popitem(last=False)
    return patched


def _patch(image: Image, targets: Tuple[int, ...]) -> Tuple[Instruction, ...]:
    if not targets:
        return tuple(image.text)
    patched: List[Instruction] = list(image.text)
    for reloc, target in zip(image.text_relocations, targets):
        instr = patched[reloc.index]
        new_imm = Imm(target, symbol=reloc.symbol)
        patched[reloc.index] = replace(instr, **{reloc.slot: new_imm})
    return tuple(patched)


@dataclass
class LoadResult:
    """What the loader produced for one exec image."""

    entry: int
    image_map: ImageMap
    initial_sp: int
    #: [start, STACK_TOP) region holding argc/argv/envp — USER INPUT.
    initial_stack_range: Tuple[int, int]
    heap_base: int


class Loader:
    """Loads a main image plus shared libraries into a process memory."""

    def __init__(self, libraries: Sequence[Image] = ()) -> None:
        self.libraries = list(libraries)

    def load(
        self,
        memory: FlatMemory,
        program: Image,
        argv: Sequence[str],
        env: Dict[str, str],
    ) -> LoadResult:
        placements: List[LoadedImage] = [
            LoadedImage(program, APP_BASE, is_app=True)
        ]
        for i, lib in enumerate(self.libraries):
            placements.append(
                LoadedImage(lib, LIBRARY_BASE + i * LIBRARY_STRIDE,
                            is_app=False)
            )

        main_addr = placements[0].symbol_addr("main")
        if main_addr is None:
            raise LoaderError(f"{program.name}: no 'main' symbol")
        shim = LoadedImage(_make_shim(main_addr), _SHIM_BASE, is_app=False)
        symbols = ImageMap([shim] + placements)
        loaded = [self._map_one(memory, li, symbols) for li in symbols]
        image_map = ImageMap(loaded)

        sp = self._build_initial_stack(memory, argv, env)
        return LoadResult(
            entry=shim.base,
            image_map=image_map,
            initial_sp=sp,
            initial_stack_range=(sp, STACK_TOP),
            heap_base=HEAP_BASE,
        )

    # -- internals -----------------------------------------------------------
    def _map_one(
        self, memory: FlatMemory, li: LoadedImage, symbols: ImageMap
    ) -> LoadedImage:
        """Relocate and map one placed image; returns it with its code."""
        image = li.image

        def resolve(symbol: str) -> int:
            local = li.symbol_addr(symbol)
            if local is not None:
                return local
            addr = symbols.symbol_addr(symbol)
            if addr is None:
                raise LoaderError(
                    f"{image.name}: unresolved symbol {symbol!r}"
                )
            return addr

        targets = tuple(
            resolve(reloc.symbol) for reloc in image.text_relocations
        )
        if li.is_app:
            # The program under test is relocated afresh on every load:
            # only shared code is memoized (a cold run stays cold).
            code = _patch(image, targets)
        else:
            code = _relocated_text(image, li.base, targets)
        memory.map_code(li.base, code)
        for off, value in image.data.items():
            memory.write(li.base + off, value)
        for dreloc in image.data_relocations:
            memory.write(li.base + dreloc.offset, resolve(dreloc.symbol))
        return LoadedImage(image, li.base, li.is_app, code)

    @staticmethod
    def _build_initial_stack(
        memory: FlatMemory, argv: Sequence[str], env: Dict[str, str]
    ) -> int:
        """Lay out argv/env strings and arrays; returns the initial esp.

        Layout (addresses descend):  string area | env array | argv array |
        envp | argvp | argc  <- esp.  Guest convention: at ``main`` entry
        (after the shim's CALL pushed a return address) ``[esp+1]`` is argc,
        ``[esp+2]`` the argv pointer, ``[esp+3]`` the envp pointer.
        """
        env_strings = [f"{key}={value}" for key, value in env.items()]
        total = sum(len(s) + 1 for s in list(argv) + env_strings)
        cursor = STACK_TOP - total

        argv_ptrs: List[int] = []
        for arg in argv:
            argv_ptrs.append(cursor)
            cursor += memory.write_cstring(cursor, arg)
        env_ptrs: List[int] = []
        for entry in env_strings:
            env_ptrs.append(cursor)
            cursor += memory.write_cstring(cursor, entry)
        assert cursor == STACK_TOP

        strings_start = STACK_TOP - total
        cursor = strings_start
        # env array (NUL-terminated), then argv array, below the strings.
        cursor -= len(env_ptrs) + 1
        env_array = cursor
        for i, ptr in enumerate(env_ptrs):
            memory.write(env_array + i, ptr)
        memory.write(env_array + len(env_ptrs), 0)

        cursor -= len(argv_ptrs) + 1
        argv_array = cursor
        for i, ptr in enumerate(argv_ptrs):
            memory.write(argv_array + i, ptr)
        memory.write(argv_array + len(argv_ptrs), 0)

        sp = cursor - 3
        memory.write(sp, len(argv_ptrs))     # argc
        memory.write(sp + 1, argv_array)     # argv
        memory.write(sp + 2, env_array)      # envp
        return sp
