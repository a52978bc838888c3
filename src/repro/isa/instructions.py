"""Instruction set of the mini-ISA.

A deliberately small register machine: enough surface for the guest
workloads (string handling, loops, syscalls, calls into shared objects) and
for Harrier's per-instruction dataflow tracking, without x86's baggage.

Each instruction occupies exactly one address unit, so ``pc + 1`` is always
the fall-through successor and basic-block discovery is trivial.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.isa.registers import check_register


class Opcode(enum.Enum):
    # Data movement
    MOV = "mov"        # mov dst_reg, (reg|imm|label-address)
    LOAD = "load"      # load dst_reg, [base_reg +/- offset]
    STORE = "store"    # store [base_reg +/- offset], (reg|imm)
    PUSH = "push"      # push (reg|imm)
    POP = "pop"        # pop dst_reg
    # Arithmetic / logic (dst op= src; sets flags)
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"        # integer division (toward zero)
    MOD = "mod"
    XOR = "xor"
    AND = "and"
    OR = "or"
    SHL = "shl"
    SHR = "shr"
    # Compare / control transfer
    CMP = "cmp"        # cmp a_reg, (reg|imm); sets zf/sf
    JMP = "jmp"
    JZ = "jz"
    JNZ = "jnz"
    JL = "jl"
    JLE = "jle"
    JG = "jg"
    JGE = "jge"
    CALL = "call"      # call label | call reg (indirect)
    RET = "ret"
    # System interface
    INT = "int"        # int 0x80 -> kernel syscall
    CPUID = "cpuid"    # hardware identification (HARDWARE data source)
    NOP = "nop"
    HLT = "hlt"        # abnormal stop (fault)


#: Opcodes that end a basic block.
CONTROL_TRANSFER_OPCODES = frozenset(
    {
        Opcode.JMP,
        Opcode.JZ,
        Opcode.JNZ,
        Opcode.JL,
        Opcode.JLE,
        Opcode.JG,
        Opcode.JGE,
        Opcode.CALL,
        Opcode.RET,
        Opcode.HLT,
    }
)

#: Conditional branches (have both a taken target and a fall-through).
CONDITIONAL_OPCODES = frozenset(
    {Opcode.JZ, Opcode.JNZ, Opcode.JL, Opcode.JLE, Opcode.JG, Opcode.JGE}
)

#: Binary ALU operations, opcode -> python implementation.
ALU_OPCODES = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.DIV,
        Opcode.MOD,
        Opcode.XOR,
        Opcode.AND,
        Opcode.OR,
        Opcode.SHL,
        Opcode.SHR,
    }
)


@dataclass(frozen=True, slots=True)
class Reg:
    """A register operand."""

    name: str

    def __post_init__(self) -> None:
        check_register(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Imm:
    """An immediate operand.

    Immediates are data embedded in the binary, so Harrier tags values they
    produce with the BINARY data source of the enclosing image (paper
    section 7.3.1, the ``movl $0x4, mem`` example).

    ``symbol`` records the assembly-time symbol this immediate came from,
    when it was written as a label reference; the loader rewrites ``value``
    during relocation.
    """

    value: int
    symbol: Optional[str] = None

    def __str__(self) -> str:
        if self.symbol is not None:
            return f"${self.symbol}"
        return f"${self.value:#x}"


@dataclass(frozen=True, slots=True)
class Mem:
    """A base-plus-displacement memory operand ``[reg + offset]``."""

    base: str
    offset: int = 0

    def __post_init__(self) -> None:
        check_register(self.base)

    def __str__(self) -> str:
        if self.offset == 0:
            return f"[{self.base}]"
        sign = "+" if self.offset >= 0 else "-"
        return f"[{self.base}{sign}{abs(self.offset)}]"


Operand = Union[Reg, Imm, Mem]


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded instruction.

    ``a`` and ``b`` are the (up to) two operands; their legal shapes depend
    on the opcode and are validated by the assembler.
    """

    opcode: Opcode
    a: Optional[Operand] = None
    b: Optional[Operand] = None
    #: Source line (1-based) in the assembly unit, for diagnostics.
    line: int = 0

    def operands(self) -> Tuple[Operand, ...]:
        out = []
        if self.a is not None:
            out.append(self.a)
        if self.b is not None:
            out.append(self.b)
        return tuple(out)

    def is_control_transfer(self) -> bool:
        return self.opcode in CONTROL_TRANSFER_OPCODES

    def __str__(self) -> str:
        parts = [self.opcode.value]
        ops = ", ".join(str(op) for op in self.operands())
        if ops:
            parts.append(ops)
        return " ".join(parts)
