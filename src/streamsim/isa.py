"""Instruction set core: the op table, decoding, register state.

The dialect is a small RV32 subset plus the custom stream/repetition/DMA ops.
Each canonical mnemonic is declared once, with its operand format and the
facts of its Op record: domain, int-pipe wait, an INT op's execute function
and an FP op's FPU facts. Instructions are decoded from assembly text (no
binary encodings); immediates are plain signed 32-bit values and
branch/jump targets are absolute addresses, which decode reads from the
assembler's label table.
"""

import re
from enum import Enum
from operator import eq, itemgetter, lt, ne

from .errors import MalformedOperands, UnresolvedLabel, UnsupportedInstruction
from .frep import BUFFER_DEPTH
from . import fp

MASK32 = 0xFFFFFFFF


class Domain(Enum):
    INT = "int"
    FP = "fp"
    CUSTOM = "custom"


# the int-pipe waits, each its trace event: a fetch from a cold icache line
# waits for its fill, an lw/sw outside the TCDM for L2, an FP op for FP queue
# room, frep for an idle sequencer, ssr_disable and halt for a drain,
# dm_copy for DMA queue room
ICACHE_WAIT = "stall:icache"
MEM_WAIT = "stall:mem"
QUEUE_FULL = "stall:queue_full"
FREP_WAIT = "stall:frep_wait"
DRAIN = "stall:drain"
DMA_FULL = "stall:dma_full"

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

# op kinds
OP_ARITH = "arith"      # compute, register move, branch, custom op
OP_LOAD = "load"        # lw, fld, flw: memory -> register
OP_STORE = "store"      # sw, fsd, fsw: register -> memory


class Op:
    """What the simulator knows of one canonical mnemonic. Its declaration
    below makes it once, at import, and decode hands it to every
    Instruction of that mnemonic."""
    __slots__ = ("mnemonic", "domain", "wait", "execute", "kind", "srcs",
                 "lat", "flops", "width", "compute", "latches_x")

    def __init__(self, mnemonic, domain, wait=None, execute=None,
                 kind=OP_ARITH, srcs=(), lat=0, flops=0, width=0,
                 compute=None, latches_x=False):
        self.mnemonic = mnemonic
        self.domain = domain
        self.wait = wait          # the int-pipe wait it may meet, or None
        self.execute = execute    # INT but lw/sw: execute(CoreState,
                                  # Instruction), which also sets the pc
        self.kind = kind
        # FP facts
        self.srcs = srcs          # Instruction fields of the FP sources, in
                                  # operand order
        self.lat = lat            # issue-to-result latency, cycles
        self.flops = flops        # nonzero exactly for the compute ops that
                                  # occupy the FMA datapath, which
                                  # utilization counts
        self.width = width        # bytes accessed by a load or store
        self.compute = compute    # compute(a, b, c) from binary64 operand
                                  # values to the result's value, for an op
                                  # with flops
        self.latches_x = latches_x    # reads an integer register at dispatch


class FpOp:
    """What the FPU needs of an FP instruction: its Op's FP facts with the
    FP registers filled in. Address operands and the x source of fmv.d.x
    are not part of it, so the few records of a program are shared by all
    its FP statements that name the same registers (decode interns them)
    and by every core.

    A record is also the op's operand split on a core that does not
    stream: each operand is a register, every register goes through the
    scoreboard, and no stream pops or takes a push. A core that streams
    issues a copy instead (`Core.splits`): its operands name the read
    slots they pop, as `pops` counts them, `push` names the write slot or
    None, and `sb_regs` leaves the streams out."""
    __slots__ = ("mnemonic", "kind", "operands", "dest", "lat", "flops",
                 "width", "compute", "latches_x", "sb_regs", "pops", "push")

    def __init__(self, mnemonic, kind, operands, dest, lat, flops, width,
                 compute, latches_x, sb_regs):
        self.mnemonic = mnemonic
        self.kind = kind
        self.operands = operands    # FP source registers, in operand order
        self.dest = dest            # FP destination register; None for a
                                    # store
        self.lat = lat
        self.flops = flops
        self.width = width
        self.compute = compute
        self.latches_x = latches_x
        self.sb_regs = sb_regs      # the operands and the destination,
                                    # each once
        self.pops = ()
        self.push = None


SYM_RE = re.compile(r"^([A-Za-z_][\w.]*)([+-]\d+)?$")   # label, label+4, label-8
_RESERVED = set(XREGS) | set(FREGS) | set(SSR_FIELDS)  # never read as labels


class Instruction:
    """One decoded statement. The statements of a program that read alike
    share one record, so nothing changes a record after decode.

    Decode fills the last two fields, which neither `repr` nor comparison
    shows: `op`, the mnemonic's Op, and for an FP instruction `fp_op`, its
    interned FpOp. A record is not hashable."""
    __slots__ = ("mnemonic", "domain", "rd", "rs1", "rs2", "rs3", "imm",
                 "slot", "field", "n_instr", "text", "fp_op", "op")

    def __init__(self, mnemonic, domain, rd=None, rs1=None, rs2=None,
                 rs3=None, imm=None, slot=None, field=None, n_instr=None,
                 text="", fp_op=None, op=None):
        self.mnemonic = mnemonic
        self.domain = domain
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.rs3 = rs3
        self.imm = imm
        self.slot = slot          # ssr_cfg_* target stream
        self.field = field        # ssr_cfg_* field name
        self.n_instr = n_instr    # frep body length
        self.text = text
        self.fp_op = fp_op
        self.op = op

    def _shown(self):
        return (self.mnemonic, self.domain, self.rd, self.rs1, self.rs2,
                self.rs3, self.imm, self.slot, self.field, self.n_instr,
                self.text)

    def __eq__(self, other):
        if other.__class__ is not Instruction:
            return NotImplemented
        return self._shown() == other._shown()

    def __repr__(self):
        return "Instruction(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(self.__slots__, self._shown())) + ")"

    def __str__(self):
        return self.text or self.mnemonic


# position of each Instruction field in its constructor's arguments
_AT = {f: i for i, f in enumerate(Instruction.__slots__)}
_RS1, _IMM, _N_INSTR, _TEXT, _FP_OP, _OP = (
    _AT[f] for f in ("rs1", "imm", "n_instr", "text", "fp_op", "op"))


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


_IMM_MIN, _IMM_END = -(1 << 31), 1 << 32     # the 32-bit range of a value


def _in_range(n):
    if not _IMM_MIN <= n < _IMM_END:
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
OPS = {}    # canonical mnemonic -> its Op


def _format(mn, operands, canon=None, **fixed):
    """Add mnemonic mn, whose operands are written "field:kind ...", as a
    form of the declared op `canon` (mn itself unless a pseudo-instruction)
    with the given fields fixed."""
    op = OPS[canon or mn]
    # a kind that sets fields of its own, imm(rs1) or rs1|imm, gets None
    ops = tuple((_AT.get(name), _KINDS[kind]) for name, kind in
                (o.split(":") for o in operands.split()))
    fregs = (itemgetter(*(i for i, kind in ops if kind is _freg))
             if op.domain is Domain.FP else None)
    blank = Instruction(op.mnemonic, op.domain, **fixed, op=op)
    _FORMATS[mn] = (op.mnemonic, tuple(getattr(blank, f) for f in _AT),
                    ops, fregs)


def _op(mnemonics, operands, domain=Domain.INT, **facts):
    """Declare each of `mnemonics`: its operands, written "field:kind ...",
    and the facts of its Op. An FP op waits for FP queue room, its sources
    are its FP register operands but rd, and it latches an integer
    register operand at dispatch."""
    if domain is Domain.FP:
        kinds = [o.split(":") for o in operands.split()]
        facts.update(wait=QUEUE_FULL,
                     srcs=tuple(f for f, kind in kinds
                                if kind == "f" and f != "rd"),
                     latches_x=any(kind == "x" for _, kind in kinds))
    for mn in mnemonics.split():
        OPS[mn] = Op(mn, domain, **facts)
        _format(mn, operands)


def sext32(v: int) -> int:
    v &= MASK32
    return v - (1 << 32) if v & 0x80000000 else v


def _alu(result):
    """The execute function of an ALU op that writes result(state, instr),
    wrapped to 32 bits, to rd."""
    def execute(s, i):
        if i.rd:                # x0 is hardwired to zero
            s.x[i.rd] = result(s, i) & MASK32
        s.pc += 4
    return execute


def _jal(s, i):
    s.set_x(i.rd, s.pc + 4)
    s.pc = i.imm


def _jalr(s, i):
    target = (s.x[i.rs1] + i.imm) & MASK32 & ~1    # before rd is written
    s.set_x(i.rd, s.pc + 4)
    s.pc = target


def _branch(taken):
    """The execute function of a branch to imm when taken(x[rs1], x[rs2])."""
    def execute(s, i):
        s.pc = i.imm if taken(s.x[i.rs1], s.x[i.rs2]) else s.pc + 4
    return execute


def _compute(stem, operands, lat, flops, lane_d, lane_s=None):
    """Declare the .d form of an FP compute op, whose compute is
    lane_d(a, b, c) on binary64 values, and its .s form, which runs lane_s
    (default lane_d) on both binary32 lanes for twice the flops."""
    _op(f"{stem}.d", operands, Domain.FP, lat=lat, flops=flops, compute=lane_d)
    _op(f"{stem}.s", operands, Domain.FP, lat=lat, flops=2 * flops,
        compute=fp.binary32_pair_op(lane_s or lane_d))


# every canonical mnemonic, declared once
_op("add", "rd:x rs1:x rs2:x",
    execute=_alu(lambda s, i: s.x[i.rs1] + s.x[i.rs2]))
_op("sub", "rd:x rs1:x rs2:x",
    execute=_alu(lambda s, i: s.x[i.rs1] - s.x[i.rs2]))
_op("addi", "rd:x rs1:x imm:i", execute=_alu(lambda s, i: s.x[i.rs1] + i.imm))
_op("slli", "rd:x rs1:x imm:i", execute=_alu(lambda s, i: s.x[i.rs1] << i.imm))
_op("lui", "rd:x imm:i", execute=_alu(lambda s, i: i.imm << 12))
_op("auipc", "rd:x imm:i", execute=_alu(lambda s, i: s.pc + (i.imm << 12)))
_op("jal", "rd:x imm:i", execute=_jal)
_op("jalr", "rd:x imm(rs1):m", execute=_jalr)
_op("beq", "rs1:x rs2:x imm:i", execute=_branch(eq))
_op("bne", "rs1:x rs2:x imm:i", execute=_branch(ne))
_op("blt", "rs1:x rs2:x imm:i",
    execute=_branch(lambda a, b: sext32(a) < sext32(b)))
_op("bltu", "rs1:x rs2:x imm:i", execute=_branch(lt))
_op("lw", "rd:x imm(rs1):m", wait=MEM_WAIT, kind=OP_LOAD)
_op("sw", "rs2:x imm(rs1):m", wait=MEM_WAIT, kind=OP_STORE)
_op("fld", "rd:f imm(rs1):m", Domain.FP, kind=OP_LOAD, lat=LAT_LOAD, width=8)
_op("flw", "rd:f imm(rs1):m", Domain.FP, kind=OP_LOAD, lat=LAT_LOAD, width=4)
_op("fsd", "rs2:f imm(rs1):m", Domain.FP, kind=OP_STORE, lat=LAT_STORE, width=8)
_op("fsw", "rs2:f imm(rs1):m", Domain.FP, kind=OP_STORE, lat=LAT_STORE, width=4)
_compute("fmadd", "rd:f rs1:f rs2:f rs3:f", LAT_FMA, 2, fp.fma64, fp.fma32)
# float negation flips only the sign bit, of a NaN too
_compute("fmsub", "rd:f rs1:f rs2:f rs3:f", LAT_FMA, 2,
         lambda a, b, c: fp.fma64(a, b, -c),
         lambda a, b, c: fp.fma32(a, b, -c))
_compute("fadd", "rd:f rs1:f rs2:f", LAT_ADDMUL, 1, fp.add64)
_compute("fsub", "rd:f rs1:f rs2:f", LAT_ADDMUL, 1, fp.sub64)
_compute("fmul", "rd:f rs1:f rs2:f", LAT_ADDMUL, 1, fp.mul64)
_op("fmv.d", "rd:f rs1:f", Domain.FP, lat=LAT_MOVE)
_op("fmv.d.x", "rd:f rs1:x", Domain.FP, lat=LAT_MOVE)
_op("frep", "rs1:x n_instr:i", Domain.CUSTOM, wait=FREP_WAIT)
_op("ssr_cfg_write", "slot:i field:s rs1|imm:r", Domain.CUSTOM)
_op("ssr_cfg_read", "rd:x slot:i field:s", Domain.CUSTOM)
_op("ssr_enable", "", Domain.CUSTOM)
_op("ssr_disable halt", "", Domain.CUSTOM, wait=DRAIN)
_op("dm_src dm_dst", "rs1:x", Domain.CUSTOM)
_op("dm_copy", "rs1:x", Domain.CUSTOM, wait=DMA_FULL)
_op("dm_poll", "rd:x", Domain.CUSTOM)
# pseudo-instructions expand to their canonical forms
_format("li", "rd:x imm:i", "addi", rs1=0)
_format("mv", "rd:x rs1:x", "addi", imm=0)
_format("nop", "", "addi", rd=0, rs1=0, imm=0)
_format("j", "imm:i", "jal", rd=0)


# (mnemonic, its FP register values) -> FpOp, shared by every program
_FP_INTERNED = {}


def _intern_fp_op(key, v):
    """The FpOp of the FP statement with field values v, made once per key."""
    d = v[_OP]
    srcs = tuple(v[_AT[f]] for f in d.srcs)
    dest = None if d.kind == OP_STORE else v[_AT["rd"]]
    op = _FP_INTERNED[key] = FpOp(
        d.mnemonic, d.kind, srcs, dest, d.lat, d.flops, d.width, d.compute,
        d.latches_x, tuple(dict.fromkeys(srcs if dest is None
                                         else srcs + (dest,))))
    return op


def _shown(mn, ops):
    return f"{mn} {', '.join(ops)}" if ops else mn


# the range checks that a mnemonic's operand kinds leave, each inside the
# 32-bit range: mnemonic -> (field position, lo, hi, message), lo <= value < hi
_LIMITS = {
    "slli": (_IMM, 0, 32, "shift amount {} out of range"),
    "frep": (_N_INSTR, 1, BUFFER_DEPTH + 1,
             f"frep body length {{}} outside 1..{BUFFER_DEPTH}"),
}


def _check(mn, v):
    """The range check of mnemonic mn on its field values v, if it has one:
    the slli shift amount and the frep body length."""
    limit = _LIMITS.get(mn)
    if limit is not None:
        at, lo, hi, why = limit
        if not lo <= v[at] < hi:
            raise MalformedOperands(why.format(v[at]))


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
        _check(mn, v)
    except MalformedOperands as e:
        raise MalformedOperands(f"{e} in '{_shown(mn, ops)}'") from None
    v[_TEXT] = _shown(mn, resolved)
    if fregs is not None:
        key = (canon, fregs(v))
        v[_FP_OP] = _FP_INTERNED.get(key) or _intern_fp_op(key, v)
    return Instruction(*v)


def literal_field(ins, lit, tail):
    """For the Instruction that decode made of a statement whose last
    operand is the integer literal lit, alone or as the imm of imm(reg),
    followed by tail: its field values in constructor order, the positions
    of the field that the literal sets and of the text, the range
    lo <= n < hi of the values decode takes there, and the text before the
    literal. Decode parses any other literal of that spelling with `_int`
    alone, leaves every other field as it is, and writes the text as that
    head, the literal and tail."""
    mn = ins.text.partition(" ")[0]
    i, kind = _FORMATS[mn][2][-1]
    at = i if kind is _imm else _IMM    # imm(rs1) and rs1|imm set imm
    limit = _LIMITS.get(mn)
    lo, hi = (limit[1:3] if limit is not None and limit[0] == at
              else (_IMM_MIN, _IMM_END))
    head = ins.text[:len(ins.text) - len(lit) - len(tail)]
    return [getattr(ins, f) for f in _AT], at, _TEXT, lo, hi, head


class CoreState:
    def __init__(self):
        self.pc = 0
        self.x = [0] * 32
        # binary64 values, from 0.0: fmsub negates a never-written source to
        # -0.0, where int 0 would negate to +0
        self.f = [0.0] * 32
        self.ssr_enabled = False

    def set_x(self, idx, value):
        if idx:  # x0 is hardwired to zero
            self.x[idx] = value & MASK32


def fp_compute(op, a: float, b: float, c: float = 0.0) -> float:
    """Pure FP datapath: binary64 operand values in, the result's value out,
    by the compute function of `op`, an FpOp or an Op with flops.

    .s ops follow the packed-pair convention: both 32-bit lanes of the 64-bit
    register are processed, which is what gives the FPU its 2-SP-FMA/cycle rate.
    """
    return op.compute(a, b, c)
