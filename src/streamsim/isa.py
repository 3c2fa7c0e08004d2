"""Instruction set core: decoding, register state, integer-pipeline semantics.

The dialect is a small RV32 subset plus the custom stream/repetition/DMA ops.
Instructions are decoded from assembly text (no binary encodings); immediates
are plain signed 32-bit values and branch/jump targets are absolute addresses,
which decode reads from the assembler's label table.
"""

import re
from dataclasses import dataclass, field as dfield, fields as dfields
from enum import Enum
from operator import itemgetter

from .errors import MalformedOperands, UnresolvedLabel, UnsupportedInstruction
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

# issue-to-result latencies, cycles
LAT_FMA = 3
LAT_ADDMUL = 2
LAT_MOVE = 1
LAT_LOAD = 1
LAT_STORE = 1

# FP op kinds
OP_ARITH = "arith"      # compute or register move
OP_LOAD = "load"        # fld/flw: memory -> FP reg at FPU issue
OP_STORE = "store"      # fsd/fsw: FP reg -> memory at FPU issue


@dataclass(frozen=True)
class FpDecode:
    """What the FPU needs of one FP mnemonic."""
    kind: str          # OP_ARITH, OP_LOAD or OP_STORE
    srcs: tuple        # Instruction fields of the FP sources, in operand order
    lat: int           # issue-to-result latency, cycles
    flops: int         # per op; nonzero exactly for the compute ops that
                       # occupy the FMA datapath, which utilization counts
    width: int         # bytes accessed by a load or store


def _decode_entry(mn):
    if mn in FP_LOAD:
        return FpDecode(OP_LOAD, (), LAT_LOAD, 0, 8 if mn == "fld" else 4)
    if mn in FP_STORE:
        return FpDecode(OP_STORE, ("rs2",), LAT_STORE, 0, 8 if mn == "fsd" else 4)
    lanes = 2 if mn.endswith(".s") else 1
    if mn in FP_FMA:
        return FpDecode(OP_ARITH, ("rs1", "rs2", "rs3"), LAT_FMA, 2 * lanes, 8)
    if mn in FP_ADDMUL:
        return FpDecode(OP_ARITH, ("rs1", "rs2"), LAT_ADDMUL, lanes, 8)
    if mn == "fmv.d":
        return FpDecode(OP_ARITH, ("rs1",), LAT_MOVE, 0, 8)
    return FpDecode(OP_ARITH, (), LAT_MOVE, 0, 8)  # fmv.d.x: x source


FP_DECODE = {mn: _decode_entry(mn)
             for mn in sorted(FP_FMA | FP_ADDMUL | FP_MOVE | FP_LOAD | FP_STORE)}


@dataclass(frozen=True, slots=True)
class FpOp:
    """What the FPU needs of an FP instruction: its mnemonic's FpDecode
    with the FP registers filled in. Address operands and the x source of
    fmv.d.x are not part of it, so the few records of a program are shared
    by all its FP statements that name the same registers (decode interns
    them) and by every core.

    A record is also the op's operand split on a core that does not
    stream: each operand is a register, every register goes through the
    scoreboard, and no stream pops or takes a push."""
    mnemonic: str
    kind: str
    operands: tuple       # FP source registers, in operand order
    dest: int | None      # FP destination register; None for a store
    lat: int
    flops: int
    width: int
    sb_regs: tuple        # the operands and the destination
    pops: tuple = ()
    push: None = None


SYM_RE = re.compile(r"^([A-Za-z_][\w.]*)([+-]\d+)?$")   # label, label+4, label-8
_RESERVED = set(XREGS) | set(FREGS) | set(SSR_FIELDS)  # never read as labels


@dataclass(slots=True)
class Instruction:
    """One decoded statement. The statements of a program that read alike
    share one record, so nothing changes a record after decode.

    An FP instruction carries its interned FpOp in `fp_op`, which decode
    fills and which neither `repr` nor comparison shows."""
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
    fp_op: FpOp | None = dfield(default=None, repr=False, compare=False)

    def __str__(self):
        return self.text or self.mnemonic


# position of each Instruction field in its constructor's arguments
_AT = {f.name: i for i, f in enumerate(dfields(Instruction))}
_RS1, _IMM, _N_INSTR, _TEXT, _FP_OP = (
    _AT[f] for f in ("rs1", "imm", "n_instr", "text", "fp_op"))


# Operand kinds. Each parses one operand token into the field values `v` at
# position `i`; the two label-reading kinds return the token's resolved
# text, others None.

def _xreg(v, i, tok, labels):
    try:
        v[i] = XREGS[tok]
    except KeyError:
        raise MalformedOperands(f"expected integer register, got '{tok}'") from None


def _freg(v, i, tok, labels):
    try:
        v[i] = FREGS[tok]
    except KeyError:
        raise MalformedOperands(f"expected FP register, got '{tok}'") from None


def _in_range(n):
    if not -(1 << 31) <= n < (1 << 32):
        raise MalformedOperands(f"immediate {n} out of 32-bit range")
    return n


def _int(tok):
    try:
        return _in_range(int(tok, 0))
    except ValueError:
        raise MalformedOperands(f"expected immediate, got '{tok}'") from None


def _imm(v, i, tok, labels):
    """An immediate, or a label with an optional +/- offset."""
    m = SYM_RE.match(tok)
    if m is None or m.group(1) in _RESERVED:
        v[i] = _int(tok)
        return None
    try:
        n = labels[m.group(1)]
    except KeyError:
        raise UnresolvedLabel(f"unknown symbol '{m.group(1)}'") from None
    v[i] = n = _in_range(n + int(m.group(2) or 0))
    return str(n)


def _mem(v, i, tok, labels):
    """imm(reg), each part word characters and the immediate optionally
    negative: sets imm and rs1."""
    imm, _, reg = tok.partition("(")
    reg = reg[:-1] if reg[-1:] == ")" else ""
    if not (imm.removeprefix("-").replace("_", "0").isalnum()
            and reg.replace("_", "0").isalnum()):
        raise MalformedOperands(f"expected imm(reg), got '{tok}'")
    v[_IMM] = _int(imm)
    _xreg(v, _RS1, reg, labels)


def _ssr_field(v, i, tok, labels):
    if tok not in SSR_FIELDS:
        raise MalformedOperands(f"unknown stream field '{tok}'")
    v[i] = tok


def _reg_or_imm(v, i, tok, labels):
    """An integer register into rs1, else an immediate or label into imm."""
    if tok in XREGS:
        v[_RS1] = XREGS[tok]
        return None
    return _imm(v, _IMM, tok, labels)


_KINDS = {"x": _xreg, "f": _freg, "i": _imm, "m": _mem, "s": _ssr_field,
          "r": _reg_or_imm}

# mnemonic -> (canonical mnemonic, the Instruction's field values before its
# operands are parsed, ((field position, kind), ...), and for an FP
# mnemonic a getter of its FP register fields from those values, else None)
_FORMATS = {}


def _format(mnemonics, operands, domain=Domain.INT, canon=None, **fixed):
    """Add mnemonics whose operands are written "field:kind ..."."""
    # a kind that sets fields of its own, imm(rs1) or rs1|imm, gets None
    ops = tuple((_AT.get(name), _KINDS[kind]) for name, kind in
                (op.split(":") for op in operands.split()))
    if isinstance(mnemonics, str):
        mnemonics = mnemonics.split()
    fregs = (itemgetter(*(i for i, kind in ops if kind is _freg))
             if domain is Domain.FP else None)
    for mn in mnemonics:
        blank = Instruction(canon or mn, domain, **fixed)
        _FORMATS[mn] = (canon or mn, tuple(getattr(blank, f) for f in _AT),
                        ops, fregs)


# pseudo-instructions expand to their canonical forms
_format("li", "rd:x imm:i", canon="addi", rs1=0)
_format("mv", "rd:x rs1:x", canon="addi", imm=0)
_format("nop", "", canon="addi", rd=0, rs1=0, imm=0)
_format("j", "imm:i", canon="jal", rd=0)
_format("add sub", "rd:x rs1:x rs2:x")
_format("addi slli", "rd:x rs1:x imm:i")
_format("lui auipc jal", "rd:x imm:i")
_format(INT_BRANCH, "rs1:x rs2:x imm:i")
_format("jalr lw", "rd:x imm(rs1):m")
_format("sw", "rs2:x imm(rs1):m")
_format(FP_LOAD, "rd:f imm(rs1):m", Domain.FP)
_format(FP_STORE, "rs2:f imm(rs1):m", Domain.FP)
_format(FP_FMA, "rd:f rs1:f rs2:f rs3:f", Domain.FP)
_format(FP_ADDMUL, "rd:f rs1:f rs2:f", Domain.FP)
_format("fmv.d", "rd:f rs1:f", Domain.FP)
_format("fmv.d.x", "rd:f rs1:x", Domain.FP)
_format("frep", "rs1:x n_instr:i", Domain.CUSTOM)
_format("ssr_cfg_write", "slot:i field:s rs1|imm:r", Domain.CUSTOM)
_format("ssr_cfg_read", "rd:x slot:i field:s", Domain.CUSTOM)
_format("ssr_enable ssr_disable halt", "", Domain.CUSTOM)
_format("dm_src dm_dst dm_copy", "rs1:x", Domain.CUSTOM)
_format("dm_poll", "rd:x", Domain.CUSTOM)


# (mnemonic, its FP register values) -> FpOp, shared by every program
_FP_INTERNED = {}


def _intern_fp_op(key, v):
    """The FpOp of the FP statement with field values v, made once per key."""
    mn = key[0]
    d = FP_DECODE[mn]
    srcs = tuple(v[_AT[f]] for f in d.srcs)
    dest = None if d.kind == OP_STORE else v[_AT["rd"]]
    op = _FP_INTERNED[key] = FpOp(
        mn, d.kind, srcs, dest, d.lat, d.flops, d.width,
        srcs if dest is None else srcs + (dest,))
    return op


def _shown(mn, ops):
    return f"{mn} {', '.join(ops)}" if ops else mn


def decode(text: str, labels=None) -> Instruction:
    """Decode one assembly statement, resolving label operands from `labels`.

    Each operand is parsed once, by the kind its mnemonic's format gives it.
    The instruction's text is the statement with its operands joined by ", "
    and each label operand replaced by its value.
    """
    if "#" in text:
        text = text.split("#", 1)[0]
    parts = text.split(None, 1)
    if not parts:
        raise MalformedOperands("empty statement")
    if labels is None:
        labels = {}
    mn = parts[0]
    ops = [t.strip() for t in parts[1].split(",")] if len(parts) > 1 else []
    try:
        canon, values, operands, fregs = _FORMATS[mn]
    except KeyError:
        raise UnsupportedInstruction(
            f"unsupported mnemonic '{mn}' in '{_shown(mn, ops)}'") from None
    if len(ops) != len(operands):
        raise MalformedOperands(f"'{mn}' takes {len(operands)} operands, "
                                f"got {len(ops)} in '{_shown(mn, ops)}'")
    v = list(values)
    resolved = ops
    try:
        for k, (i, kind) in enumerate(operands):
            shown = kind(v, i, ops[k], labels)
            if shown is not None:
                if resolved is ops:
                    resolved = ops.copy()
                resolved[k] = shown
        if mn == "slli" and not 0 <= v[_IMM] < 32:
            raise MalformedOperands(f"shift amount {v[_IMM]} out of range")
        if mn == "frep" and not 1 <= v[_N_INSTR] <= 16:
            raise MalformedOperands(
                f"frep body length {v[_N_INSTR]} outside 1..16")
    except MalformedOperands as e:
        raise MalformedOperands(f"{e} in '{_shown(mn, ops)}'") from None
    v[_TEXT] = _shown(mn, resolved)
    if fregs is not None:
        key = (canon, fregs(v))
        v[_FP_OP] = _FP_INTERNED.get(key) or _intern_fp_op(key, v)
    return Instruction(*v)


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


def fp_compute(instr, a_bits: int, b_bits: int, c_bits: int = 0) -> int:
    """Pure FP datapath: raw operand bits in, raw result bits out. `instr`
    is an Instruction or its FpOp; only its mnemonic is read.

    .s ops follow the packed-pair convention: both 32-bit lanes of the 64-bit
    register are processed, which is what gives the FPU its 2-SP-FMA/cycle rate.
    """
    try:
        op = _FP_OPS[instr.mnemonic]
    except KeyError:
        raise UnsupportedInstruction(
            f"'{instr.mnemonic}' is not an FP compute op") from None
    return op(a_bits, b_bits, c_bits)
