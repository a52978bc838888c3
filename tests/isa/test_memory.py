"""FlatMemory tests: cells, strings, code mapping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import FlatMemory, Instruction, MemoryFault, Opcode


class TestCells:
    def test_zero_fill(self):
        mem = FlatMemory()
        assert mem.read(0x1234) == 0

    def test_write_read(self):
        mem = FlatMemory()
        mem.write(5, 42)
        assert mem.read(5) == 42

    def test_block_roundtrip(self):
        mem = FlatMemory()
        mem.write_block(10, [1, 2, 3])
        assert mem.read_block(10, 3) == [1, 2, 3]
        assert mem.read_block(9, 5) == [0, 1, 2, 3, 0]

    def test_bytes_roundtrip(self):
        mem = FlatMemory()
        mem.write_bytes(0, b"abc")
        assert mem.read_bytes(0, 3) == b"abc"

    def test_bytes_masks_to_byte(self):
        mem = FlatMemory()
        mem.write(0, 0x1FF)
        assert mem.read_bytes(0, 1) == b"\xff"


class TestStrings:
    def test_cstring_roundtrip(self):
        mem = FlatMemory()
        n = mem.write_cstring(100, "hello")
        assert n == 6
        assert mem.read_cstring(100) == "hello"

    def test_empty_string(self):
        mem = FlatMemory()
        mem.write_cstring(0, "")
        assert mem.read_cstring(0) == ""

    def test_unterminated_string_faults(self):
        mem = FlatMemory()
        for i in range(10):
            mem.write(i, ord("x"))
        with pytest.raises(MemoryFault):
            mem.read_cstring(0, max_len=5)

    @given(st.text(alphabet=st.characters(min_codepoint=1,
                                          max_codepoint=0x7F),
                   max_size=20))
    def test_cstring_roundtrip_property(self, text):
        mem = FlatMemory()
        mem.write_cstring(50, text)
        assert mem.read_cstring(50) == text

    def test_surrogate_cells_become_replacement_char(self):
        # a guest can store any int in a cell; surrogate code points
        # (U+D800-U+DFFF) would crash chr()-based decoding, so they read
        # back as U+FFFD instead of faulting the monitor
        mem = FlatMemory()
        for i, value in enumerate((ord("a"), 0xD800, 0xDFFF, ord("b"))):
            mem.write(i, value)
        mem.write(4, 0)
        assert mem.read_cstring(0) == "a��b"

    def test_out_of_plane_values_masked_to_codepoints(self):
        # only a literal zero cell terminates; huge values are masked
        # into the unicode range instead of raising ValueError
        mem = FlatMemory()
        mem.write(0, 0x200000)  # & 0x10FFFF == 0 but the cell is nonzero
        mem.write(1, 0)
        assert mem.read_cstring(0) == "\x00"
        mem.write(0, (1 << 30) | ord("z"))
        assert mem.read_cstring(0) == "z"


class TestCode:
    def test_map_and_fetch(self):
        mem = FlatMemory()
        nop = Instruction(Opcode.NOP)
        assert mem.map_code(0x100, [nop, nop]) == 2
        assert mem.fetch(0x101) is nop
        assert mem.has_code(0x100)
        assert not mem.has_code(0x102)

    def test_fetch_unmapped_faults(self):
        with pytest.raises(MemoryFault):
            FlatMemory().fetch(0)

    def test_overlapping_map_rejected(self):
        mem = FlatMemory()
        mem.map_code(0, [Instruction(Opcode.NOP)])
        with pytest.raises(MemoryFault):
            mem.map_code(0, [Instruction(Opcode.NOP)])

    def test_overlap_maps_nothing_and_names_first_clash(self):
        mem = FlatMemory()
        mem.map_code(2, [Instruction(Opcode.NOP)])
        with pytest.raises(MemoryFault, match="code overlap at 0x2"):
            mem.map_code(0, [Instruction(Opcode.HLT)] * 4)
        assert sorted(mem.code) == [2]

    def test_copy_shares_instructions_but_not_cells(self):
        mem = FlatMemory()
        nop = Instruction(Opcode.NOP)
        mem.map_code(0, [nop])
        mem.write(5, 9)
        dup = mem.copy()
        dup.write(5, 10)
        assert mem.read(5) == 9
        assert dup.fetch(0) is nop
