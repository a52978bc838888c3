"""Assembler tests: syntax, layout, symbols, relocations, basic blocks."""

import pickle

import pytest

from repro.isa import (
    AssemblyError,
    Imm,
    Instruction,
    Mem,
    Opcode,
    Reg,
    assemble,
)


def test_simple_program_layout():
    img = assemble(
        "/bin/t",
        """
        .text
        main:
            mov eax, 1
            int 0x80
        .data
        msg: .asciz "hi"
        """,
    )
    assert img.text_size == 2
    assert img.data_size == 3  # 'h' 'i' NUL
    assert img.symbols["main"] == 0
    assert img.symbols["msg"] == 2
    assert img.data[2] == ord("h")
    assert img.data[4] == 0
    assert img.entry_offset == 0


def test_operand_kinds():
    img = assemble(
        "t",
        """
        start:
            mov ebx, 0x10
            mov ecx, 'A'
            load edx, [ebx+2]
            store [ebx-1], ecx
            add eax, ebx
            cmp eax, -5
        """,
    )
    mov_hex = img.text[0]
    assert mov_hex.opcode is Opcode.MOV
    assert mov_hex.b == Imm(0x10)
    assert img.text[1].b == Imm(ord("A"))
    assert img.text[2].b == Mem("ebx", 2)
    assert img.text[3].a == Mem("ebx", -1)
    assert img.text[4].b == Reg("ebx")
    assert img.text[5].b == Imm(-5)


def test_label_reference_creates_relocation():
    img = assemble(
        "t",
        """
        main:
            mov ebx, msg
            call print
        .data
        msg: .asciz "x"
        """,
    )
    symbols = {r.symbol for r in img.text_relocations}
    assert symbols == {"msg", "print"}
    assert "print" in img.externs
    assert "msg" not in img.externs


def test_data_word_relocation_and_values():
    img = assemble(
        "t",
        """
        main: nop
        .data
        tbl: .word 1, 0x10, 'z', other
        """,
    )
    base = img.symbols["tbl"]
    assert img.data[base] == 1
    assert img.data[base + 1] == 0x10
    assert img.data[base + 2] == ord("z")
    assert img.data_relocations[0].symbol == "other"
    assert img.data_relocations[0].offset == base + 3
    assert "other" in img.externs


def test_space_directive():
    img = assemble(
        "t",
        """
        main: nop
        .data
        buf: .space 8
        after: .word 7
        """,
    )
    assert img.symbols["after"] - img.symbols["buf"] == 8
    assert img.data_size == 9


def test_space_with_fill():
    img = assemble("t", "main: nop\n.data\nb: .space 3, 0xFF")
    base = img.symbols["b"]
    assert img.data[base] == 0xFF
    assert img.data[base + 2] == 0xFF


def test_string_escapes():
    img = assemble("t", 'main: nop\n.data\ns: .asciz "a\\n\\t\\"\\\\"')
    base = img.symbols["s"]
    chars = [img.data[base + i] for i in range(5)]
    assert chars == [ord("a"), 10, 9, ord('"'), ord("\\")]


def test_comments_stripped_but_not_inside_strings():
    img = assemble(
        "t",
        """
        main: nop ; trailing comment
        # whole-line comment
        .data
        s: .asciz "semi;colon#hash"
        """,
    )
    text = "".join(
        chr(img.data[img.symbols["s"] + i]) for i in range(15)
    )
    assert text == "semi;colon#hash"


def test_multiple_labels_same_address():
    img = assemble("t", "a:\nb:\n  nop\n")
    assert img.symbols["a"] == img.symbols["b"] == 0


def test_basic_block_leaders():
    img = assemble(
        "t",
        """
        main:
            mov eax, 0      ; 0 leader (entry + label)
        loop:
            add eax, 1      ; 1 leader (branch target + label)
            cmp eax, 10
            jl loop         ; 3
            nop             ; 4 leader (after control transfer)
            ret             ; 5
        """,
    )
    assert img.bb_leaders == frozenset({0, 1, 4})


def test_duplicate_label_rejected():
    with pytest.raises(AssemblyError):
        assemble("t", "a: nop\na: nop")


def test_unknown_mnemonic_rejected():
    with pytest.raises(AssemblyError):
        assemble("t", "frobnicate eax, 1")


def test_bad_operand_count():
    with pytest.raises(AssemblyError):
        assemble("t", "mov eax")
    with pytest.raises(AssemblyError):
        assemble("t", "ret eax")


def test_bad_operand_kind():
    with pytest.raises(AssemblyError):
        assemble("t", "mov 5, eax")
    with pytest.raises(AssemblyError):
        assemble("t", "load eax, ebx")
    with pytest.raises(AssemblyError):
        assemble("t", "jmp eax")


def test_instruction_in_data_section_rejected():
    with pytest.raises(AssemblyError):
        assemble("t", ".data\nmov eax, 1")


def test_unterminated_string_rejected():
    with pytest.raises(AssemblyError):
        assemble("t", 'main: nop\n.data\ns: .asciz "oops')


def test_unknown_directive_rejected():
    with pytest.raises(AssemblyError):
        assemble("t", ".data\n.quad 5")


def test_trailing_label_gets_nop():
    img = assemble("t", "main: nop\nend:")
    assert img.symbols["end"] == 1
    assert img.text[1].opcode is Opcode.NOP


def test_indirect_call_allowed():
    img = assemble("t", "main: call eax")
    assert img.text[0].a == Reg("eax")


def test_negative_space_rejected():
    with pytest.raises(AssemblyError):
        assemble("t", "main: nop\n.data\nb: .space -1")


def test_mnemonic_like_label_not_confused():
    # "mov:" would be ambiguous; the parser treats mnemonic-named labels as
    # instructions, so defining such a label is a syntax error.
    with pytest.raises(AssemblyError):
        assemble("t", "mov: nop")


def test_image_size_and_repr():
    img = assemble("t", "main: nop\n.data\nb: .space 4")
    assert img.size == 5
    assert img.defines("main")
    assert not img.defines("ghost")
    assert img.exported_symbols() == {"main": 0, "b": 1}


@pytest.mark.parametrize("value", [
    Reg("eax"),
    Imm(7),
    Imm(0, symbol="msg"),
    Mem("ebp", -4),
    Instruction(Opcode.MOV, Reg("eax"), Imm(1, symbol="msg"), line=3),
    Instruction(Opcode.RET),
])
def test_isa_value_types_are_slotted_and_pickle(value):
    # Slots keep the frozen value types small (a sweep holds thousands
    # of instructions per worker); they must still pickle round-trip.
    assert not hasattr(value, "__dict__")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol=protocol))
        assert back == value and type(back) is type(value)
        assert hash(back) == hash(value)
