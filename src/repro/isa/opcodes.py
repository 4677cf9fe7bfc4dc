"""Opcode constants and decoded-instruction representation.

The encoding is a faithful subset of 32-bit x86 for every byte sequence
that FACE-CHANGE inspects (prologues, ``UD2``, call/ret), plus a small
number of pseudo-instructions (``PRED``/``ACT``/``DISPATCH``/``CTXSW``)
that stand in for data-dependent control flow which, on real hardware,
would be driven by register and memory contents.  Pseudo-instructions
carry a 32-bit identifier resolved at run time by the guest kernel's
semantic layer (see :mod:`repro.kernel.registry`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Op(enum.Enum):
    """Decoded operation kinds."""

    FILL = "fill"  # any side-effect-free filler (nop, inc, xor, ...)
    PUSH_EBP = "push_ebp"
    MOV_EBP_ESP = "mov_ebp_esp"
    PUSH_IMM = "push_imm"
    PRED = "pred"  # cmp eax, imm32 -- evaluates predicate imm32 into ZF
    JZ = "jz"  # 0f 84 rel32
    JMP = "jmp"  # e9 rel32
    CALL = "call"  # e8 rel32
    DISPATCH = "dispatch"  # ff 14 85 imm32 -- indirect call via slot table
    ACT = "act"  # 0f ae imm32 -- semantic action hook
    LEAVE = "leave"
    RET = "ret"
    INT = "int"  # cd imm8
    IRET = "iret"
    UD2 = "ud2"  # 0f 0b -- raises #UD
    INVALID = "invalid"  # undecodable byte -- raises #UD
    OR_MIS = "or_mis"  # 0b /r -- the silent misdecode of a split UD2
    HLT = "hlt"
    CLI = "cli"
    STI = "sti"
    CTXSW = "ctxsw"  # f5 -- architectural context-switch point


# --- encoding bytes -------------------------------------------------------

UD2_BYTES = b"\x0f\x0b"
#: ``push ebp; mov ebp, esp`` -- the function-header signature FACE-CHANGE
#: searches for when widening a basic block to its containing function.
PROLOGUE_SIGNATURE = b"\x55\x89\xe5"

OP_NOP = 0x90
OP_INC_EAX = 0x40
OP_XOR_EAX = 0x31  # 31 c0
OP_ADD_EAX_IMM8 = 0x83  # 83 c0 ib
OP_MOV_MEM = 0x89  # 89 e5 => mov ebp,esp ; 89 44 24 ib => filler store
OP_PUSH_EBP = 0x55
OP_PUSH_IMM32 = 0x68
OP_PRED = 0x3D  # cmp eax, imm32
OP_TWO_BYTE = 0x0F
OP_JZ32_SECOND = 0x84
OP_ACT_SECOND = 0xAE
OP_UD2_SECOND = 0x0B
OP_JMP32 = 0xE9
OP_CALL32 = 0xE8
OP_FF = 0xFF  # ff 14 85 imm32 => call *table(,eax,4)
OP_LEAVE = 0xC9
OP_RET = 0xC3
OP_INT = 0xCD
OP_IRET = 0xCF
OP_OR = 0x0B  # 0b /r -- two-byte "or r32, r/m32" (register forms only)
OP_HLT = 0xF4
OP_CLI = 0xFA
OP_STI = 0xFB
OP_CTXSW = 0xF5

#: One-byte filler opcodes usable inside ``Work`` padding.
FILLER_1 = (OP_NOP, OP_INC_EAX)
#: (first byte, total length) for multi-byte fillers.
FILLER_2 = (OP_XOR_EAX, 0xC0)  # xor eax, eax
FILLER_3 = (OP_ADD_EAX_IMM8, 0xC0)  # add eax, imm8
FILLER_4 = (OP_MOV_MEM, 0x44, 0x24)  # mov [esp+ib], eax

INT_SYSCALL_VECTOR = 0x80


@dataclass(frozen=True)
class Instr:
    """A decoded instruction.

    Attributes
    ----------
    op:
        The decoded operation kind.
    length:
        Encoded length in bytes; the CPU advances ``eip`` by this much.
    operand:
        ``rel32`` displacement for branches/calls, the 32-bit identifier
        for pseudo-instructions, the vector for ``INT``, or ``None``.
    """

    op: Op
    length: int
    operand: Optional[int] = None

    def __str__(self) -> str:
        if self.operand is None:
            return self.op.value
        return f"{self.op.value} {self.operand:#x}"


def signed32(value: int) -> int:
    """Interpret ``value`` (0..2**32) as a signed 32-bit integer."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value
