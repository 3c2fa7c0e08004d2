"""Instruction set core: decoding, register state, integer-pipeline semantics.

The dialect is a small RV32 subset plus the custom stream/repetition/DMA ops.
Instructions are decoded from assembly text (no binary encodings); immediates
are plain signed 32-bit values and branch/jump targets are absolute addresses,
which the assembler resolves before decode.
"""

import re
from dataclasses import dataclass, field as dfield
from enum import Enum

from .errors import MalformedOperands, UnsupportedInstruction
from . import fp

MASK32 = 0xFFFFFFFF


class Domain(Enum):
    INT = "int"
    FP = "fp"
    CUSTOM = "custom"


# mnemonic groups; every supported mnemonic appears in exactly one
INT_ALU = {"add", "sub", "addi", "slli", "lui", "auipc"}
INT_BRANCH = {"beq", "bne", "blt", "bltu"}
FP_LOAD = {"fld", "flw"}
FP_STORE = {"fsd", "fsw"}
FP_FMA = {"fmadd.d", "fmsub.d", "fmadd.s", "fmsub.s"}
FP_ADDMUL = {"fadd.d", "fsub.d", "fmul.d", "fadd.s", "fsub.s", "fmul.s"}
FP_MOVE = {"fmv.d", "fmv.d.x"}
CUSTOM_OPS = {"frep", "ssr_cfg_write", "ssr_cfg_read", "ssr_enable", "ssr_disable",
              "dm_src", "dm_dst", "dm_copy", "dm_poll", "halt"}

SSR_FIELDS = ("base", "stride0", "stride1", "stride2", "stride3",
              "bound0", "bound1", "bound2", "bound3", "dims", "dir", "width")


def _build_xregs():
    names = {f"x{i}": i for i in range(32)}
    abi = ["zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1",
           "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
           "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
           "t3", "t4", "t5", "t6"]
    names.update({n: i for i, n in enumerate(abi)})
    names["fp"] = 8
    return names


def _build_fregs():
    names = {f"f{i}": i for i in range(32)}
    abi = ["ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1",
           "fa0", "fa1", "fa2", "fa3", "fa4", "fa5", "fa6", "fa7",
           "fs2", "fs3", "fs4", "fs5", "fs6", "fs7", "fs8", "fs9", "fs10", "fs11",
           "ft8", "ft9", "ft10", "ft11"]
    names.update({n: i for i, n in enumerate(abi)})
    return names


XREGS = _build_xregs()
FREGS = _build_fregs()

_MEM_RE = re.compile(r"^(-?\w+)\((\w+)\)$")


@dataclass
class Instruction:
    mnemonic: str
    domain: Domain
    rd: int | None = None
    rs1: int | None = None
    rs2: int | None = None
    rs3: int | None = None
    imm: int | None = None
    slot: int | None = None     # ssr_cfg_* target stream
    field: str | None = None    # ssr_cfg_* field name
    n_instr: int | None = None  # frep body length
    text: str = ""

    def __str__(self):
        return self.text or self.mnemonic


def _xreg(tok, text):
    try:
        return XREGS[tok]
    except KeyError:
        raise MalformedOperands(f"expected integer register, got '{tok}' in '{text}'")


def _freg(tok, text):
    try:
        return FREGS[tok]
    except KeyError:
        raise MalformedOperands(f"expected FP register, got '{tok}' in '{text}'")


def _imm(tok, text):
    try:
        v = int(tok, 0)
    except (ValueError, TypeError):
        raise MalformedOperands(f"expected immediate, got '{tok}' in '{text}'")
    if not -(1 << 31) <= v < (1 << 32):
        raise MalformedOperands(f"immediate {v} out of 32-bit range in '{text}'")
    return v


def _mem_operand(tok, text):
    m = _MEM_RE.match(tok)
    if not m:
        raise MalformedOperands(f"expected imm(reg), got '{tok}' in '{text}'")
    return _imm(m.group(1), text), _xreg(m.group(2), text)


def _split_operands(rest):
    return [t.strip() for t in rest.split(",")] if rest.strip() else []


def decode(text: str) -> Instruction:
    """Decode one assembly statement (labels already resolved to immediates)."""
    stmt = text.split("#", 1)[0].strip()
    if not stmt:
        raise MalformedOperands("empty statement")
    parts = stmt.split(None, 1)
    mn = parts[0]
    ops = _split_operands(parts[1]) if len(parts) > 1 else []

    def need(n):
        if len(ops) != n:
            raise MalformedOperands(f"'{mn}' takes {n} operands, got {len(ops)} in '{text}'")

    # pseudo-instructions expand to their canonical forms
    if mn == "li":
        need(2)
        return Instruction("addi", Domain.INT, rd=_xreg(ops[0], text), rs1=0,
                           imm=_imm(ops[1], text), text=stmt)
    if mn == "mv":
        need(2)
        return Instruction("addi", Domain.INT, rd=_xreg(ops[0], text),
                           rs1=_xreg(ops[1], text), imm=0, text=stmt)
    if mn == "nop":
        need(0)
        return Instruction("addi", Domain.INT, rd=0, rs1=0, imm=0, text=stmt)
    if mn == "j":
        need(1)
        return Instruction("jal", Domain.INT, rd=0, imm=_imm(ops[0], text), text=stmt)

    if mn in ("add", "sub"):
        need(3)
        return Instruction(mn, Domain.INT, rd=_xreg(ops[0], text),
                           rs1=_xreg(ops[1], text), rs2=_xreg(ops[2], text), text=stmt)
    if mn in ("addi", "slli"):
        need(3)
        imm = _imm(ops[2], text)
        if mn == "slli" and not 0 <= imm < 32:
            raise MalformedOperands(f"shift amount {imm} out of range in '{text}'")
        return Instruction(mn, Domain.INT, rd=_xreg(ops[0], text),
                           rs1=_xreg(ops[1], text), imm=imm, text=stmt)
    if mn in ("lui", "auipc"):
        need(2)
        return Instruction(mn, Domain.INT, rd=_xreg(ops[0], text),
                           imm=_imm(ops[1], text), text=stmt)
    if mn in INT_BRANCH:
        need(3)
        return Instruction(mn, Domain.INT, rs1=_xreg(ops[0], text),
                           rs2=_xreg(ops[1], text), imm=_imm(ops[2], text), text=stmt)
    if mn == "jal":
        need(2)
        return Instruction(mn, Domain.INT, rd=_xreg(ops[0], text),
                           imm=_imm(ops[1], text), text=stmt)
    if mn == "jalr":
        need(2)
        imm, rs1 = _mem_operand(ops[1], text)
        return Instruction(mn, Domain.INT, rd=_xreg(ops[0], text), rs1=rs1, imm=imm,
                           text=stmt)
    if mn == "lw":
        need(2)
        imm, rs1 = _mem_operand(ops[1], text)
        return Instruction(mn, Domain.INT, rd=_xreg(ops[0], text), rs1=rs1, imm=imm,
                           text=stmt)
    if mn == "sw":
        need(2)
        imm, rs1 = _mem_operand(ops[1], text)
        return Instruction(mn, Domain.INT, rs2=_xreg(ops[0], text), rs1=rs1, imm=imm,
                           text=stmt)
    if mn in FP_LOAD:
        need(2)
        imm, rs1 = _mem_operand(ops[1], text)
        return Instruction(mn, Domain.FP, rd=_freg(ops[0], text), rs1=rs1, imm=imm,
                           text=stmt)
    if mn in FP_STORE:
        need(2)
        imm, rs1 = _mem_operand(ops[1], text)
        return Instruction(mn, Domain.FP, rs2=_freg(ops[0], text), rs1=rs1, imm=imm,
                           text=stmt)
    if mn in FP_FMA:
        need(4)
        return Instruction(mn, Domain.FP, rd=_freg(ops[0], text), rs1=_freg(ops[1], text),
                           rs2=_freg(ops[2], text), rs3=_freg(ops[3], text), text=stmt)
    if mn in FP_ADDMUL:
        need(3)
        return Instruction(mn, Domain.FP, rd=_freg(ops[0], text), rs1=_freg(ops[1], text),
                           rs2=_freg(ops[2], text), text=stmt)
    if mn == "fmv.d":
        need(2)
        return Instruction(mn, Domain.FP, rd=_freg(ops[0], text), rs1=_freg(ops[1], text),
                           text=stmt)
    if mn == "fmv.d.x":
        need(2)
        return Instruction(mn, Domain.FP, rd=_freg(ops[0], text), rs1=_xreg(ops[1], text),
                           text=stmt)
    if mn == "frep":
        need(2)
        n = _imm(ops[1], text)
        if not 1 <= n <= 16:
            raise MalformedOperands(f"frep body length {n} outside 1..16 in '{text}'")
        return Instruction(mn, Domain.CUSTOM, rs1=_xreg(ops[0], text), n_instr=n,
                           text=stmt)
    if mn == "ssr_cfg_write":
        need(3)
        slot = _imm(ops[0], text)
        if ops[1] not in SSR_FIELDS:
            raise MalformedOperands(f"unknown stream field '{ops[1]}' in '{text}'")
        if ops[2] in XREGS:
            return Instruction(mn, Domain.CUSTOM, slot=slot, field=ops[1],
                               rs1=XREGS[ops[2]], text=stmt)
        return Instruction(mn, Domain.CUSTOM, slot=slot, field=ops[1],
                           imm=_imm(ops[2], text), text=stmt)
    if mn == "ssr_cfg_read":
        need(3)
        slot = _imm(ops[1], text)
        if ops[2] not in SSR_FIELDS:
            raise MalformedOperands(f"unknown stream field '{ops[2]}' in '{text}'")
        return Instruction(mn, Domain.CUSTOM, rd=_xreg(ops[0], text), slot=slot,
                           field=ops[2], text=stmt)
    if mn in ("ssr_enable", "ssr_disable", "halt"):
        need(0)
        return Instruction(mn, Domain.CUSTOM, text=stmt)
    if mn in ("dm_src", "dm_dst", "dm_copy"):
        need(1)
        return Instruction(mn, Domain.CUSTOM, rs1=_xreg(ops[0], text), text=stmt)
    if mn == "dm_poll":
        need(1)
        return Instruction(mn, Domain.CUSTOM, rd=_xreg(ops[0], text), text=stmt)

    raise UnsupportedInstruction(f"unsupported mnemonic '{mn}' in '{text}'")


@dataclass
class CoreState:
    pc: int = 0
    x: list = dfield(default_factory=lambda: [0] * 32)
    f: list = dfield(default_factory=lambda: [0] * 32)  # raw 64-bit patterns
    ssr_enabled: bool = False

    def set_x(self, idx, value):
        if idx:  # x0 is hardwired to zero
            self.x[idx] = value & MASK32


def sext32(v: int) -> int:
    v &= MASK32
    return v - (1 << 32) if v & 0x80000000 else v


def alu_result(core: CoreState, instr: Instruction) -> int:
    """Result value of an integer ALU op (32-bit wrapped)."""
    mn = instr.mnemonic
    if mn == "add":
        return (core.x[instr.rs1] + core.x[instr.rs2]) & MASK32
    if mn == "sub":
        return (core.x[instr.rs1] - core.x[instr.rs2]) & MASK32
    if mn == "addi":
        return (core.x[instr.rs1] + instr.imm) & MASK32
    if mn == "slli":
        return (core.x[instr.rs1] << instr.imm) & MASK32
    if mn == "lui":
        return (instr.imm << 12) & MASK32
    if mn == "auipc":
        return (core.pc + (instr.imm << 12)) & MASK32
    raise UnsupportedInstruction(f"'{mn}' is not an ALU op")


def branch_taken(core: CoreState, instr: Instruction) -> bool:
    a, b = core.x[instr.rs1], core.x[instr.rs2]
    mn = instr.mnemonic
    if mn == "beq":
        return a == b
    if mn == "bne":
        return a != b
    if mn == "blt":
        return sext32(a) < sext32(b)
    if mn == "bltu":
        return a < b
    raise UnsupportedInstruction(f"'{mn}' is not a branch")


# FP compute op -> its datapath, from raw operand bits to raw result bits
_FP_OPS = {"fmadd.d": fp.binary64_op(fp.fma64),
           "fmsub.d": fp.binary64_op(fp.fma64, negate_c=True),
           "fmadd.s": fp.binary32_pair_op(fp.fma32),
           "fmsub.s": fp.binary32_pair_op(fp.fma32, negate_c=True)}
for _name, _lane in (("add", lambda a, b, c: a + b), ("sub", lambda a, b, c: a - b),
                     ("mul", lambda a, b, c: a * b)):
    _FP_OPS[f"f{_name}.d"] = fp.binary64_op(_lane)
    _FP_OPS[f"f{_name}.s"] = fp.binary32_pair_op(_lane)


def fp_compute(instr: Instruction, a_bits: int, b_bits: int, c_bits: int = 0) -> int:
    """Pure FP datapath: raw operand bits in, raw result bits out.

    .s ops follow the packed-pair convention: both 32-bit lanes of the 64-bit
    register are processed, which is what gives the FPU its 2-SP-FMA/cycle rate.
    """
    try:
        op = _FP_OPS[instr.mnemonic]
    except KeyError:
        raise UnsupportedInstruction(
            f"'{instr.mnemonic}' is not an FP compute op") from None
    return op(a_bits, b_bits, c_bits)
