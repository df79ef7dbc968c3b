"""Decoded-instruction data model for SR32."""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import (
    CONTROL_CLASSES,
    INDIRECT_CLASSES,
    OP_TABLE,
    Fmt,
    InstrClass,
    Op,
)

# Per-op metadata behind the properties below: one dict probe instead
# of a spec() call on the translator's and the analyses' hot paths.
_ICLASS = {op: sp.iclass for op, sp in OP_TABLE.items()}
_FMT = {op: sp.fmt for op, sp in OP_TABLE.items()}
_CONTROL = {op: sp.iclass in CONTROL_CLASSES for op, sp in OP_TABLE.items()}
_INDIRECT = {op: sp.iclass in INDIRECT_CLASSES for op, sp in OP_TABLE.items()}


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded SR32 instruction.

    Field usage depends on the format (unused fields are zero):

    ========  =============================================
    format    fields
    ========  =============================================
    R3        ``rd, rs, rt``
    SHIFT     ``rd, rt, shamt``
    I2        ``rt, rs, imm``
    LUI       ``rt, imm``
    MEM       ``rt, imm(rs)``
    BR        ``rs, rt, imm`` (signed word offset from pc+4)
    J         ``imm`` (absolute word index within segment)
    JR        ``rs``
    JALR      ``rd, rs``
    ========  =============================================
    """

    op: Op
    rd: int = 0
    rs: int = 0
    rt: int = 0
    imm: int = 0
    shamt: int = 0

    @property
    def iclass(self) -> InstrClass:
        return _ICLASS[self.op]

    @property
    def fmt(self) -> Fmt:
        return _FMT[self.op]

    @property
    def is_control(self) -> bool:
        """True if this instruction (potentially) transfers control."""
        return _CONTROL[self.op]

    @property
    def is_indirect(self) -> bool:
        """True for indirect jumps, indirect calls and returns."""
        return _INDIRECT[self.op]

    @property
    def writes_reg(self) -> int | None:
        """Destination register number, or ``None`` if no register result."""
        fmt = self.fmt
        if fmt in (Fmt.R3, Fmt.SHIFT, Fmt.JALR):
            return self.rd
        if fmt in (Fmt.I2, Fmt.LUI):
            return self.rt
        if fmt == Fmt.MEM and self.iclass is InstrClass.LOAD:
            return self.rt
        if self.op is Op.JAL:
            return 31
        if self.op is Op.RET:
            return None
        return None

    def branch_target(self, pc: int) -> int:
        """Resolved target of a direct control transfer at address ``pc``.

        Only meaningful for BRANCH/JUMP/CALL instructions; indirect
        transfers raise :class:`ValueError` because the target is dynamic.
        """
        iclass = self.iclass
        if iclass is InstrClass.BRANCH:
            return (pc + 4 + (self.imm << 2)) & 0xFFFFFFFF
        if iclass in (InstrClass.JUMP, InstrClass.CALL):
            return ((pc + 4) & 0xF0000000) | (self.imm << 2)
        raise ValueError(f"{self.op.value} has no static target")
