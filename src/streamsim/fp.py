"""Binary64/binary32 value helpers shared by the FPU model and the kernel references.

The simulator keeps FP registers, stream FIFOs and write buffers as binary64
values, Python floats, and converts to bits only where bytes are read or
written (ELEMENT) and where an integer moves in (fmv.d.x). On IEEE hosts
CPython packs and unpacks binary64 by copying its bytes, so every pattern
makes the round trip: signalling NaNs, NaN payloads and signs, -0.0 and
subnormals.

Every arithmetic op whose result is a NaN returns the canonical quiet NaN,
as RISC-V requires: 0x7FF8000000000000 for binary64, 0x7FC00000 per binary32
lane. Moves, loads, stores and streams keep every bit.

fma64 performs a true fused multiply-add (single rounding); Python 3.10 has
no math.fma, so the exact value is formed either as an unevaluated sum of
doubles, summed with one correct rounding by math.fsum, or, where that could
underflow or overflow, with integer-ratio arithmetic rounded once by bignum
division, which CPython rounds correctly to nearest-even.
"""

import math
import struct

MASK64 = (1 << 64) - 1

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")
_F64X3 = struct.Struct("<3d")
_F32X2 = struct.Struct("<2f")
_F32X6 = struct.Struct("<6f")
_ZERO32 = bytes(4)


def f64_to_bits(x: float) -> int:
    return _U64.unpack(_F64.pack(x))[0]


def bits_to_f64(b: int) -> float:
    return _F64.unpack(_U64.pack(b & MASK64))[0]


# the canonical quiet NaN; packed to binary32 it is 0x7FC00000
NAN = bits_to_f64(0x7FF8000000000000)


def round32(x: float) -> float:
    """Value of x rounded to binary32, returned as a double."""
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        # packing rounds to nearest-even and raises only where that rounding
        # overflows binary32, i.e. for |x| >= 2**128 - 2**103
        return math.copysign(math.inf, x)


def binary32_pair_op(lane):
    """The compute function of a .s op, on binary64 values that each hold
    two binary32 lanes: lane(a, b, c) runs on the low lanes and on the high
    lanes, and each result is rounded to binary32 as round32 rounds it."""
    def op(a, b, c):
        alo, ahi, blo, bhi, clo, chi = _F32X6.unpack(_F64X3.pack(a, b, c))
        lo, hi = lane(alo, blo, clo), lane(ahi, bhi, chi)
        try:
            return _F64.unpack(_F32X2.pack(lo, hi))[0]
        except OverflowError:   # packing overflows where round32 gives inf
            return _F64.unpack(_F32X2.pack(round32(lo), round32(hi)))[0]
    return op


class _Word:
    """The format of a 4-byte FP element, with the two methods of a
    struct.Struct that loads and stores call: a load zero-extends the word
    into the value's bit pattern, a store writes the pattern's low 32
    bits."""
    __slots__ = ()

    @staticmethod
    def unpack_from(buf, off):
        return _F64.unpack(buf[off:off + 4] + _ZERO32)

    @staticmethod
    def pack_into(buf, off, x):
        buf[off:off + 4] = _F64.pack(x)[:4]


# scratchpad format of an FP element by width in bytes, for the FPU's loads
# and stores and for stream elements
ELEMENT = {4: _Word(), 8: _F64}


def add64(a, b, c=0.0):
    """a + b as a lane function, which takes c and ignores it; a NaN result
    is the canonical NaN, whatever payload the host FPU gives it."""
    r = a + b
    return r if r == r else NAN


def sub64(a, b, c=0.0):
    """a - b as a lane function, like add64."""
    r = a - b
    return r if r == r else NAN


def mul64(a, b, c=0.0):
    """a * b as a lane function, like add64."""
    r = a * b
    return r if r == r else NAN


def _exact_ratio(a, b, c):
    """a*b + c for finite doubles as an exact ratio n / d, d a power of two."""
    na, da = a.as_integer_ratio()
    nb, db = b.as_integer_ratio()
    nc, dc = c.as_integer_ratio()
    # denominators are powers of two, so the common denominator is their max
    nab = na * nb
    dab = da * db
    if dab >= dc:
        return nab + nc * (dab // dc), dab
    return nab * (dc // dab) + nc, dc


def fma64(a: float, b: float, c: float) -> float:
    """a*b + c with a single rounding, exact for all doubles.

    Veltkamp's constant 2**27 + 1 splits a double into two 26-bit halves,
    and Dekker's product p + e == a*b is exact unless the error term e
    underflows, which |p| > 2**-960 rules out, or a step overflows. An
    overflow in the split or the partial products makes an inf or a NaN,
    which no later step turns finite; so where fsum raises (an overflow,
    or inf - inf) or returns a non-finite value, the exact path decides.
    """
    p = a * b
    if p > 2.0 ** -960 or p < -2.0 ** -960:
        t = 134217729.0 * a
        ah = t - (t - a)
        al = a - ah
        t = 134217729.0 * b
        bh = t - (t - b)
        bl = b - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        try:
            r = math.fsum((p, e, c))
        except (OverflowError, ValueError):
            return _fma64_exact(a, b, c)
        if r - r == 0.0:            # finite
            return r
    return _fma64_exact(a, b, c)


def _fma64_exact(a, b, c):
    """fma64 by integer-ratio arithmetic; the reference for every input."""
    if not (math.isfinite(a) and math.isfinite(b)):
        r = a * b + c               # an inf or NaN product decides with c
    elif not math.isfinite(c):
        r = c                       # the exact product is finite
    else:
        n, d = _exact_ratio(a, b, c)
        if n == 0:
            # exact zero: keep IEEE sign-of-zero for the all-zero-addend case
            return a * b + c
        try:
            return n / d
        except OverflowError:
            return math.inf if n > 0 else -math.inf
    return r if r == r else NAN


def fma32(a: float, b: float, c: float) -> float:
    """binary32 fused multiply-add on values held as doubles, rounded once.

    The operands are binary32 values, so the exact result lies far inside the
    binary64 range. It is rounded to 53 bits by round-to-odd, which keeps
    the information the final rounding needs (53 >= 2*24 + 2), and then
    rounded to binary32 by round32.
    """
    a, b, c = round32(a), round32(b), round32(c)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        # binary32 operands: a finite product cannot overflow binary64
        r = a * b + c
        return r if r == r else NAN
    n, d = _exact_ratio(a, b, c)
    if n == 0:
        return a * b + c
    mag = abs(n)
    drop = mag.bit_length() - 53
    if drop > 0:
        q = mag >> drop
        if mag & ((1 << drop) - 1):
            q |= 1                      # sticky: round to odd
    else:
        q, drop = mag, 0
    odd = math.ldexp(q, drop - (d.bit_length() - 1))
    return round32(odd if n > 0 else -odd)
