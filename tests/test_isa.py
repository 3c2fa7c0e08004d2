"""Instruction decode and integer/FP execution semantics."""

import itertools
import operator
import random
import struct

import pytest

from streamsim import errors
from streamsim.cluster import Core
from streamsim.fp import bits_to_f64, f64_to_bits, fma32, fma64, round32
from streamsim.isa import (_AT, LAT_FMA, LAT_LOAD, MASK32, OP_ARITH, OP_LOAD,
                           OP_STORE, OPS, Domain, Instruction,
                           XREGS, decode, fp_compute, sext32)
from test_fp import bits_to_f32_pair, bits_to_f64x3, f32_pair_to_bits


def st_with(**regs):
    st = Core(0)
    for name, val in regs.items():
        st.set_x(XREGS[name], val)
    return st


def executed(st, text):
    """st after the execute function of text's Op ran on it."""
    i = decode(text)
    i.op.execute(st, i)
    return st


def alu_result(st, text):
    """The value an ALU op `text` that writes t0 leaves there."""
    return executed(st, text).x[XREGS["t0"]]


def branch_taken(st, text):
    """Whether the branch `text` to 64, run from pc 0, is taken."""
    st.pc = 0
    return {64: True, 4: False}[executed(st, text).pc]


def test_decode_fields():
    i = decode("addi t0, t1, -3")
    assert (i.mnemonic, i.rd, i.rs1, i.imm) == ("addi", 5, 6, -3)
    assert i.domain == Domain.INT
    f = decode("fmadd.d ft3, ft0, ft1, ft3")
    assert (f.rd, f.rs1, f.rs2, f.rs3) == (3, 0, 1, 3)
    assert f.domain == Domain.FP
    fr = decode("frep t3, 4")
    assert (fr.rs1, fr.n_instr, fr.domain) == (28, 4, Domain.CUSTOM)
    c = decode("ssr_cfg_write 1, stride0, 264")
    assert (c.slot, c.field, c.rs1, c.imm) == (1, "stride0", None, 264)
    c2 = decode("ssr_cfg_write 2, base, t0")
    assert (c2.slot, c2.field, c2.rs1) == (2, "base", 5)


def test_decode_pseudos():
    li = decode("li a0, 0x80000000")
    assert (li.mnemonic, li.rs1, li.imm) == ("addi", 0, 0x80000000)
    mv = decode("mv t0, t1")
    assert (mv.mnemonic, mv.rs1, mv.imm) == ("addi", 6, 0)
    assert decode("nop").mnemonic == "addi"
    j = decode("j 64")
    assert (j.mnemonic, j.rd, j.imm) == ("jal", 0, 64)


def test_fp_op_interned_per_fp_registers():
    """Decode gives FP statements that name the same FP registers one FpOp,
    whatever their address operands or x source; it is not part of the
    Instruction's repr or equality."""
    fld = decode("fld ft0, 0(t0)")
    assert decode("fld ft0, 8(a1)").fp_op is fld.fp_op
    assert decode("fld ft1, 0(t0)").fp_op is not fld.fp_op
    assert decode("flw ft0, 0(t0)").fp_op is not fld.fp_op
    assert decode("fmv.d.x ft3, t0").fp_op is decode("fmv.d.x ft3, a0").fp_op
    assert (fld.fp_op.kind, fld.fp_op.operands, fld.fp_op.dest,
            fld.fp_op.sb_regs, fld.fp_op.lat, fld.fp_op.width) == (
                OP_LOAD, (), 0, (0,), LAT_LOAD, 8)
    fma = decode("fmadd.s ft3, ft0, ft1, ft2").fp_op
    assert (fma.mnemonic, fma.kind, fma.operands, fma.dest, fma.sb_regs,
            fma.lat, fma.flops) == (
                "fmadd.s", OP_ARITH, (0, 1, 2), 3, (0, 1, 2, 3), LAT_FMA, 4)
    fsd = decode("fsd ft4, -8(t1)").fp_op
    assert (fsd.kind, fsd.operands, fsd.dest, fsd.sb_regs) == (
        OP_STORE, (4,), None, (4,))
    assert (fma.pops, fma.push, fsd.pops, fsd.push) == ((), None, (), None)
    assert decode("addi t0, t0, 1").fp_op is None
    assert "fp_op" not in repr(fld)
    assert fld == decode("fld ft0, 0(t0)")


def test_instruction_record():
    """An Instruction's repr and equality show the fields before fp_op and
    op, in constructor order, and never those two; a record is not
    hashable, and _AT gives each field's constructor position."""
    addi = decode("addi t0, t1, -3")
    assert repr(addi) == (
        "Instruction(mnemonic='addi', domain=<Domain.INT: 'int'>, rd=5, "
        "rs1=6, rs2=None, rs3=None, imm=-3, slot=None, field=None, "
        "n_instr=None, text='addi t0, t1, -3')")
    bare = Instruction("addi", Domain.INT, 5, 6, imm=-3, text="addi t0, t1, -3")
    assert (bare.op, bare.fp_op, addi.op) == (None, None, OPS["addi"])
    assert bare == addi and not bare != addi
    fld, fld1 = decode("fld ft0, 0(t0)"), decode("fld ft1, 0(t0)")
    assert fld.fp_op is not fld1.fp_op
    swapped = Instruction(*[fld1.fp_op if f == "fp_op" else getattr(fld, f)
                            for f in _AT])
    assert swapped == fld and repr(swapped) == repr(fld)
    assert fld != decode("fld ft0, 8(t0)") and fld != addi
    assert fld != "fld ft0, 0(t0)"
    with pytest.raises(TypeError):
        hash(fld)
    assert list(_AT) == ["mnemonic", "domain", "rd", "rs1", "rs2", "rs3",
                         "imm", "slot", "field", "n_instr", "text", "fp_op",
                         "op"]
    # str is the statement's text, or the bare mnemonic of one without
    assert str(addi) == "addi t0, t1, -3" and str(bare) == str(addi)
    assert str(Instruction("halt", Domain.CUSTOM)) == "halt"
    marks = [object() for _ in _AT]
    made = Instruction(*marks)
    assert all(getattr(made, f) is marks[i] for f, i in _AT.items())


def test_decode_rejects():
    for text in ["frobnicate t0", "addi t0, t1", "addi t0, t1, t2, t3",
                 "frep t0, 0", "frep t0, 17", "li t0, 0x1ffffffff",
                 "ssr_cfg_write 1, nosuchfield, 0", "fld ft0, q0(t0)"]:
        with pytest.raises(errors.SimError):
            decode(text)


def test_alu_frozen():
    st = st_with(t1=7, t2=0xFFFFFFFF, t3=0x80000000)
    cases = {
        "addi t0, t1, -3": 4,
        "add t0, t1, t2": 6,             # 7 + (-1) wraps
        "sub t0, t1, t2": 8,
        "slli t0, t1, 4": 112,
        "lui t0, 0x12345": 0x12345000,
    }
    for text, want in cases.items():
        assert alu_result(st, text) == want, text


def test_alu_wraps_to_32_bits():
    rng = random.Random(11)
    st = Core(0)
    for _ in range(200):
        a, b = rng.getrandbits(32), rng.getrandbits(32)
        st.set_x(6, a)
        st.set_x(7, b)
        got = alu_result(st, "add t0, t1, t2")
        assert got == (a + b) & MASK32


def test_x0_stays_zero():
    st = Core(0)
    st.set_x(0, 1234)
    assert st.x[0] == 0


def test_branches():
    st = st_with(t1=5, t2=0xFFFFFFFF)
    assert branch_taken(st, "bltu t1, t2, 64")        # 5 < 2^32-1
    assert not branch_taken(st, "blt t1, t2, 64")     # 5 > -1 signed
    assert branch_taken(st, "bne t1, t2, 64")
    assert branch_taken(st, "beq t1, t1, 64")
    assert not branch_taken(st, "beq t1, t2, 64")
    assert not branch_taken(st, "bltu t2, t1, 64")


def test_jumps_link_past_themselves():
    st = st_with(t1=0x103)
    st.pc = 8
    assert executed(st, "jal ra, 64").pc == 64 and st.x[XREGS["ra"]] == 12
    # the target is read before the link is written, and its low bit cleared
    assert executed(st, "jalr t1, 1(t1)").pc == 0x104
    assert st.x[XREGS["t1"]] == 68
    assert executed(st, "auipc t0, 2").x[XREGS["t0"]] == 0x104 + 0x2000


def test_sext32():
    assert sext32(0x7FFFFFFF) == 0x7FFFFFFF
    assert sext32(0x80000000) == -0x80000000
    assert sext32(0xFFFFFFFF) == -1


def fp_compute_bits(op, *bits):
    """fp_compute of op on the values of bit patterns, as the bits of its
    result: the register file's byte edges."""
    return f64_to_bits(fp_compute(op, *map(bits_to_f64, bits)))


def test_fp_compute_double():
    i = decode("fmadd.d ft3, ft0, ft1, ft2").fp_op
    a, b, c = f64_to_bits(2.5), f64_to_bits(4.0), f64_to_bits(1.0)
    assert bits_to_f64(fp_compute_bits(i, a, b, c)) == 11.0
    s = decode("fmsub.d ft3, ft0, ft1, ft2").fp_op
    assert bits_to_f64(fp_compute_bits(s, a, b, c)) == 9.0
    add = decode("fadd.d ft3, ft0, ft1").fp_op
    assert bits_to_f64(fp_compute_bits(add, a, b)) == 6.5
    mul = decode("fmul.d ft3, ft0, ft1").fp_op
    assert bits_to_f64(fp_compute_bits(mul, a, b)) == 10.0


def test_fp_compute_single_lanes():
    i = decode("fmadd.s ft3, ft0, ft1, ft2").fp_op
    a = f32_pair_to_bits(2.0, 3.0)
    b = f32_pair_to_bits(10.0, 100.0)
    c = f32_pair_to_bits(1.0, -1.0)
    lo, hi = bits_to_f32_pair(fp_compute_bits(i, a, b, c))
    assert (lo, hi) == (21.0, 299.0)


def test_fp_compute_matches_fma64():
    rng = random.Random(5)
    i = decode("fmadd.d ft3, ft0, ft1, ft2").fp_op
    for _ in range(200):
        a, b, c = (rng.uniform(-1, 1) for _ in range(3))
        got = fp_compute_bits(i, *map(f64_to_bits, (a, b, c)))
        assert bits_to_f64(got) == fma64(a, b, c)


_PLAIN = {"fadd": operator.add, "fsub": operator.sub, "fmul": operator.mul}


def _reference(mn, a, b, c):
    """fp_compute composed from the fp helpers: operand bits to values, the
    op on the values, the result back to bits, a NaN result as the
    canonical NaN (per lane for .s). fadd, fsub and fmul take the plain
    float op, none of fp's lane functions."""
    neg = mn.startswith("fmsub")
    plain = _PLAIN.get(mn[:-2])
    if mn.endswith(".d"):
        x, y, z = bits_to_f64x3(a, b, c)
        r = fma64(x, y, -z if neg else z) if plain is None else plain(x, y)
        return 0x7FF8000000000000 if r != r else f64_to_bits(r)
    lanes = []
    for x, y, z in zip(bits_to_f32_pair(a), bits_to_f32_pair(b),
                       bits_to_f32_pair(c)):
        r = fma32(x, y, -z if neg else z) if plain is None else \
            round32(plain(x, y))
        lanes.append(0x7FC00000 if r != r else
                     struct.unpack("<I", struct.pack("<f", r))[0])
    return lanes[0] | lanes[1] << 32


# binary64 patterns: +-0, +-inf, a quiet NaN with a payload, the smallest
# subnormal, the largest finite value, 1.5, a signalling NaN and a negative
# quiet NaN with a payload
D_EDGES = [0, 1 << 63, 0x7FF0000000000000, 0xFFF0000000000000,
           0x7FF8000000012345, 1, 0x7FEFFFFFFFFFFFFF, 0x3FF8000000000000,
           0x7FF0000000000001, 0xFFF8000000012345]
# binary32 pairs: the same values per lane, plus 0x7F61B1E6 (about 3e38),
# whose sum, difference with its negation, and square overflow binary32,
# and a signalling NaN
S_LANES = [0, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC01234, 1, 0x7F7FFFFF,
           0x3FC00000, 0x7F61B1E6, 0xFF61B1E6, 0x7F800001]
S_EDGES = [lo | hi << 32 for lo, hi in zip(S_LANES, S_LANES[::-1])]


@pytest.mark.parametrize(
    "mn", sorted(mn for mn, op in OPS.items() if op.compute is not None))
def test_fp_compute_bit_exact_on_edge_values(mn):
    edges = D_EDGES if mn.endswith(".d") else S_EDGES
    for a, b, c in itertools.product(edges, repeat=3):
        assert fp_compute_bits(OPS[mn], a, b, c) == _reference(mn, a, b, c), \
            (mn, hex(a), hex(b), hex(c))
