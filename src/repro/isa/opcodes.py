"""Opcode table for the SR32 guest ISA.

SR32 uses 32-bit fixed-width instructions with three MIPS-style formats:

- **R-format** (``opcode == 0``): ``op(6) rs(5) rt(5) rd(5) shamt(5) funct(6)``
- **I-format**: ``op(6) rs(5) rt(5) imm(16)`` (immediate is sign-extended
  except for the logical immediates ``andi``/``ori``/``xori``)
- **J-format**: ``op(6) target(26)`` (word address within the current 256 MiB
  segment)

Every mnemonic carries an :class:`InstrClass`, which is what the host cost
model and the SDT's control-flow classification key on.  The classes that
matter most to this reproduction are the control-transfer ones:

``BRANCH``
    conditional, PC-relative — linkable by the SDT.
``JUMP`` / ``CALL``
    unconditional direct — linkable.
``IJUMP`` / ``ICALL`` / ``RET``
    *indirect* — the subject of the paper.  ``ret`` is architecturally
    ``jr ra`` but is a distinct opcode so both the hardware return-address
    stack and the SDT can treat returns specially.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class InstrClass(enum.Enum):
    """Semantic/cost class of an instruction."""

    ALU = "alu"
    SHIFT = "shift"
    MUL = "mul"
    DIV = "div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"          # conditional direct branch
    JUMP = "jump"              # unconditional direct jump
    CALL = "call"              # direct call (jal)
    IJUMP = "ijump"            # indirect jump (jr)
    ICALL = "icall"            # indirect call (jalr)
    RET = "ret"                # return (jr ra, distinct opcode)
    SYSCALL = "syscall"
    HALT = "halt"

    # Enum equality is identity, so identity hashing agrees with it.
    # Enum's own hash runs ``hash(self._name_)`` in Python on every
    # probe of a class-keyed dict.
    __hash__ = object.__hash__


#: Instruction classes that transfer control.
CONTROL_CLASSES = frozenset(
    {
        InstrClass.BRANCH,
        InstrClass.JUMP,
        InstrClass.CALL,
        InstrClass.IJUMP,
        InstrClass.ICALL,
        InstrClass.RET,
        InstrClass.HALT,
    }
)

#: Instruction classes whose target is not encoded in the instruction.
INDIRECT_CLASSES = frozenset(
    {InstrClass.IJUMP, InstrClass.ICALL, InstrClass.RET}
)


class Fmt(enum.Enum):
    """Operand/encoding format of a mnemonic."""

    R3 = "r3"          # rd, rs, rt
    SHIFT = "shift"    # rd, rt, shamt
    I2 = "i2"          # rt, rs, imm
    LUI = "lui"        # rt, imm
    MEM = "mem"        # rt, imm(rs)
    BR = "br"          # rs, rt, offset
    J = "j"            # target
    JR = "jr"          # rs
    JALR = "jalr"      # rd, rs
    NONE = "none"      # no operands (ret, syscall, halt)

    # Identity hashing, as for InstrClass.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class OpSpec:
    """Static description of one mnemonic."""

    mnemonic: str
    fmt: Fmt
    opcode: int
    funct: int | None
    iclass: InstrClass
    #: immediate is zero-extended rather than sign-extended
    zero_ext_imm: bool = False


class Op(enum.Enum):
    """All SR32 mnemonics."""

    # R-format ALU
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"
    SLT = "slt"
    SLTU = "sltu"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    SLLV = "sllv"
    SRLV = "srlv"
    SRAV = "srav"
    # shifts by immediate
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    # I-format ALU
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLTI = "slti"
    SLTIU = "sltiu"
    LUI = "lui"
    # memory
    LW = "lw"
    LH = "lh"
    LHU = "lhu"
    LB = "lb"
    LBU = "lbu"
    SW = "sw"
    SH = "sh"
    SB = "sb"
    # control
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLTU = "bltu"
    BGEU = "bgeu"
    J = "j"
    JAL = "jal"
    JR = "jr"
    JALR = "jalr"
    RET = "ret"
    SYSCALL = "syscall"
    HALT = "halt"

    # Identity hashing, as for InstrClass.
    __hash__ = object.__hash__


_R = lambda m, f, c: OpSpec(m, Fmt.R3, 0, f, c)  # noqa: E731

OP_TABLE: dict[Op, OpSpec] = {
    Op.SLL: OpSpec("sll", Fmt.SHIFT, 0, 0, InstrClass.SHIFT),
    Op.SRL: OpSpec("srl", Fmt.SHIFT, 0, 2, InstrClass.SHIFT),
    Op.SRA: OpSpec("sra", Fmt.SHIFT, 0, 3, InstrClass.SHIFT),
    Op.SLLV: _R("sllv", 4, InstrClass.SHIFT),
    Op.SRLV: _R("srlv", 6, InstrClass.SHIFT),
    Op.SRAV: _R("srav", 7, InstrClass.SHIFT),
    Op.JR: OpSpec("jr", Fmt.JR, 0, 8, InstrClass.IJUMP),
    Op.JALR: OpSpec("jalr", Fmt.JALR, 0, 9, InstrClass.ICALL),
    Op.RET: OpSpec("ret", Fmt.NONE, 0, 10, InstrClass.RET),
    Op.SYSCALL: OpSpec("syscall", Fmt.NONE, 0, 12, InstrClass.SYSCALL),
    Op.HALT: OpSpec("halt", Fmt.NONE, 0, 13, InstrClass.HALT),
    Op.MUL: _R("mul", 24, InstrClass.MUL),
    Op.DIV: _R("div", 26, InstrClass.DIV),
    Op.REM: _R("rem", 27, InstrClass.DIV),
    Op.ADD: _R("add", 32, InstrClass.ALU),
    Op.SUB: _R("sub", 34, InstrClass.ALU),
    Op.AND: _R("and", 36, InstrClass.ALU),
    Op.OR: _R("or", 37, InstrClass.ALU),
    Op.XOR: _R("xor", 38, InstrClass.ALU),
    Op.NOR: _R("nor", 39, InstrClass.ALU),
    Op.SLT: _R("slt", 42, InstrClass.ALU),
    Op.SLTU: _R("sltu", 43, InstrClass.ALU),
    Op.J: OpSpec("j", Fmt.J, 2, None, InstrClass.JUMP),
    Op.JAL: OpSpec("jal", Fmt.J, 3, None, InstrClass.CALL),
    Op.BEQ: OpSpec("beq", Fmt.BR, 4, None, InstrClass.BRANCH),
    Op.BNE: OpSpec("bne", Fmt.BR, 5, None, InstrClass.BRANCH),
    Op.BLT: OpSpec("blt", Fmt.BR, 6, None, InstrClass.BRANCH),
    Op.BGE: OpSpec("bge", Fmt.BR, 7, None, InstrClass.BRANCH),
    Op.ADDI: OpSpec("addi", Fmt.I2, 8, None, InstrClass.ALU),
    Op.SLTI: OpSpec("slti", Fmt.I2, 10, None, InstrClass.ALU),
    Op.SLTIU: OpSpec("sltiu", Fmt.I2, 11, None, InstrClass.ALU),
    Op.ANDI: OpSpec("andi", Fmt.I2, 12, None, InstrClass.ALU, True),
    Op.ORI: OpSpec("ori", Fmt.I2, 13, None, InstrClass.ALU, True),
    Op.XORI: OpSpec("xori", Fmt.I2, 14, None, InstrClass.ALU, True),
    Op.LUI: OpSpec("lui", Fmt.LUI, 15, None, InstrClass.ALU, True),
    Op.BLTU: OpSpec("bltu", Fmt.BR, 16, None, InstrClass.BRANCH),
    Op.BGEU: OpSpec("bgeu", Fmt.BR, 17, None, InstrClass.BRANCH),
    Op.LB: OpSpec("lb", Fmt.MEM, 32, None, InstrClass.LOAD),
    Op.LH: OpSpec("lh", Fmt.MEM, 33, None, InstrClass.LOAD),
    Op.LW: OpSpec("lw", Fmt.MEM, 35, None, InstrClass.LOAD),
    Op.LBU: OpSpec("lbu", Fmt.MEM, 36, None, InstrClass.LOAD),
    Op.LHU: OpSpec("lhu", Fmt.MEM, 37, None, InstrClass.LOAD),
    Op.SB: OpSpec("sb", Fmt.MEM, 40, None, InstrClass.STORE),
    Op.SH: OpSpec("sh", Fmt.MEM, 41, None, InstrClass.STORE),
    Op.SW: OpSpec("sw", Fmt.MEM, 43, None, InstrClass.STORE),
}

MNEMONIC_TO_OP: dict[str, Op] = {spec.mnemonic: op for op, spec in OP_TABLE.items()}

#: (opcode, funct) -> Op for R-format, opcode -> Op otherwise.
_R_DECODE: dict[int, Op] = {
    spec.funct: op for op, spec in OP_TABLE.items() if spec.opcode == 0
}
_OPC_DECODE: dict[int, Op] = {
    spec.opcode: op for op, spec in OP_TABLE.items() if spec.opcode != 0
}


def op_for_fields(opcode: int, funct: int) -> Op | None:
    """Map raw (opcode, funct) fields to an :class:`Op`, or ``None``."""
    if opcode == 0:
        return _R_DECODE.get(funct)
    return _OPC_DECODE.get(opcode)


def spec(op: Op) -> OpSpec:
    """Return the :class:`OpSpec` for a mnemonic."""
    return OP_TABLE[op]
