"""Fused multiply-add and bit-pattern helpers."""

import math
import random
import struct
from fractions import Fraction

from streamsim.fp import (MASK64, _fma64_exact, add64, bits_to_f64,
                          f64_to_bits, fma32, fma64, mul64, round32, sub64)

ULP1 = 2.0 ** -52


# Value/bit conversions of whole operand sets. The simulator's FP ops run on
# raw bits; these compose the reference that test_isa checks them against.

def bits_to_f64x3(a, b, c):
    """bits_to_f64 of three patterns at once."""
    return struct.unpack("<3d", struct.pack("<3Q", a & MASK64, b & MASK64,
                                            c & MASK64))


def f32_pair_to_bits(lo, hi):
    return struct.unpack("<Q", struct.pack("<ff", lo, hi))[0]


def bits_to_f32_pair(b):
    return struct.unpack("<ff", struct.pack("<Q", b & MASK64))


def test_bits_roundtrip():
    rng = random.Random(1)
    for _ in range(500):
        b = rng.getrandbits(64)
        x = bits_to_f64(b)
        if math.isnan(x):
            continue
        assert f64_to_bits(x) == b


def test_bits_special_values():
    assert f64_to_bits(0.0) == 0
    assert f64_to_bits(-0.0) == 1 << 63
    assert f64_to_bits(1.0) == 0x3FF0000000000000
    assert bits_to_f64(0x7FF0000000000000) == math.inf
    assert bits_to_f64(0xFFF0000000000000) == -math.inf


def test_fma_single_rounding():
    # (1+u)^2 - (1+2u) = u^2 survives only if the product is not rounded first
    a = 1.0 + ULP1
    c = -(1.0 + 2 * ULP1)
    assert a * a + c == 0.0
    assert fma64(a, a, c) == ULP1 * ULP1


def test_fma_frozen_cases():
    cases = [
        ((2.0, 3.0, 4.0), 10.0),
        ((0.1, 0.2, 0.3), float(Fraction(0.1) * Fraction(0.2) + Fraction(0.3))),
        ((1e308, 10.0, 0.0), math.inf),
        ((-1e308, 10.0, 0.0), -math.inf),
        ((1e-300, 1e-300, 0.0), 0.0),      # underflow to zero
        ((math.inf, 1.0, 1.0), math.inf),
        ((1.0, 1.0, -1.0), 0.0),
    ]
    for (a, b, c), want in cases:
        assert fma64(a, b, c) == want, (a, b, c)


def test_fma_nan_propagates():
    assert math.isnan(fma64(math.nan, 1.0, 1.0))
    assert math.isnan(fma64(math.inf, 1.0, -math.inf))


def test_fma_matches_exact_rational():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.uniform(-1e3, 1e3)
        b = rng.uniform(-1e3, 1e3)
        c = rng.uniform(-1e3, 1e3)
        want = float(Fraction(a) * Fraction(b) + Fraction(c))
        assert fma64(a, b, c) == want


def test_fma_fast_path_matches_exact():
    """The double-double path of fma64 against the integer-ratio reference,
    across exponents, with cancellation that leaves only the product's
    rounding error, and at the edges of the fast path's range."""
    rng = random.Random(11)

    def rand(lo, hi):
        return math.ldexp(rng.uniform(1, 2), rng.randint(lo, hi)) * rng.choice((-1, 1))

    cases = []
    for _ in range(4000):
        a, b = rand(-500, 500), rand(-500, 500)
        cases.append((a, b, rand(-1074, 1023)))
        cases.append((a, b, -(a * b)))                   # result is e alone
        cases.append((a, b, -(a * b) * (1 + ULP1)))
    for _ in range(2000):
        cases.append((rand(-990, 990), rand(-990, 990), rand(-1074, 1023)))
    for p in list(range(-1075, -900, 3)) + list(range(980, 1024, 3)):
        for ea in (-20, 0, 20, p - 30, p // 2):          # around the bounds
            a = rand(ea, ea)
            b = math.ldexp(rng.uniform(1, 2), p) / a if a else 0.0
            if b and math.isfinite(b):
                cases.append((a, b, rand(p - 60, p)))
                cases.append((a, b, -(a * b)))
    cases.append((1.7e308, 1.0, 1.7e308))                # sum overflows
    for a, b, c in cases:
        assert f64_to_bits(fma64(a, b, c)) == f64_to_bits(_fma64_exact(a, b, c)), \
            (a.hex(), b.hex(), c.hex())


def test_fma_where_the_range_guards_were():
    """fma64 takes its double-double path for every product above 2**-960
    in magnitude and falls back to the exact path where that path
    overflows: against the integer-ratio reference, bit for bit."""
    rng = random.Random(13)
    inf, nan = math.inf, math.nan

    def rand(lo, hi):
        return math.ldexp(rng.uniform(1, 2), rng.randint(lo, hi)) * rng.choice((-1, 1))

    def addends(a, b):
        p = a * b
        out = [rand(-1074, 1023), 0.0, inf, -inf, nan]
        if math.isfinite(p):
            out += [-p, -p * (1 + ULP1), p]
        return out

    cases = []
    for _ in range(600):
        big = rand(990, 996)                    # the split does not overflow
        huge = rand(997, 1023)                  # the split overflows
        for a in (big, huge):
            for b in (rand(-60, 26), rand(-1074, -1023), rand(-1000, -980)):
                cases += [(a, b, c) for c in addends(a, b)]
                cases += [(b, a, c) for c in addends(b, a)]
        a = rand(-500, 500)
        for e in (1021, 1022, 1023, -962, -961, -960, -959):   # p near the bounds
            b = math.ldexp(rng.uniform(1, 2), e) / a
            cases += [(a, b, c) for c in addends(a, b)]
        # the sum overflows, or meets inf - inf in fsum or in e
        m = rand(1023, 1023)
        cases += [(m, 1.0, m), (m, 2.0, -inf), (m, 1.5, inf), (inf, 1.0, -inf),
                  (m, rand(0, 1), rand(1022, 1023))]
    for a, b, c in cases:
        assert f64_to_bits(fma64(a, b, c)) == f64_to_bits(_fma64_exact(a, b, c)), \
            (a.hex(), b.hex(), c.hex())
    # an infinite addend decides against a finite product that overflows
    # only when rounded; a NaN addend gives the canonical NaN
    assert fma64(1e308, 10.0, -inf) == -inf
    assert fma64(-1e308, 10.0, inf) == inf
    assert f64_to_bits(fma64(1e308, 10.0, nan)) == 0x7FF8000000000000


def test_fma_subnormal_rounding():
    tiny = bits_to_f64(1)  # smallest positive subnormal
    assert fma64(tiny, 1.0, tiny) == 2 * tiny
    assert fma64(tiny, 0.5, 0.0) == 0.0  # rounds to even (zero)


def test_nan_results_are_canonical():
    # every arithmetic op whose result is a NaN gives the canonical quiet
    # NaN, whatever the operands' payloads and signs; a .s lane gives
    # 0x7FC00000
    q = bits_to_f64(0xFFF8000000012345)        # quiet, negative, a payload
    s = bits_to_f64(0x7FF0000000000001)        # signalling
    inf = math.inf
    canon = 0x7FF8000000000000
    for _ in range(20):
        for got in (add64(q, s), add64(s, q), add64(1.0, s), sub64(q, s),
                    sub64(1.0, q), mul64(s, q), mul64(q, 2.0),
                    fma64(1.0, s, q), fma64(q, inf, s), fma64(1.0, 1.0, -s),
                    fma32(1.0, q, s), fma32(s, 1.0, 1.0),
                    # inf * 0 and inf - inf, from operands that are no NaN
                    mul64(inf, 0.0), mul64(-0.0, -inf), add64(inf, -inf),
                    sub64(-inf, -inf), fma64(inf, 0.0, 1.0),
                    fma64(1.0, -inf, inf), fma64(inf, 2.0, -inf),
                    fma32(0.0, inf, 1.0), fma32(inf, 1.0, -inf)):
            assert f64_to_bits(got) == canon
        assert struct.pack("<f", fma32(inf, 0.0, 0.0)) == \
            (0x7FC00000).to_bytes(4, "little")
        # a result that is no NaN is what the plain op gives
        assert add64(1.0, inf) == inf and mul64(-inf, 2.0) == -inf
        assert f64_to_bits(sub64(0.0, 0.0)) == 0


def test_f32_pair_pack():
    b = f32_pair_to_bits(1.5, -2.0)
    lo, hi = bits_to_f32_pair(b)
    assert (lo, hi) == (1.5, -2.0)
    assert b & MASK64 == b


def test_round32():
    assert round32(1.0 + ULP1) == 1.0
    assert round32(16777217.0) == 16777216.0  # beyond 2^24 integers collapse


def test_round32_overflow_rounds_to_inf():
    flt_max = (2.0 - 2.0 ** -23) * 2.0 ** 127
    threshold = 2.0 ** 128 - 2.0 ** 103   # halfway from FLT_MAX to 2**128
    below = math.nextafter(threshold, 0.0)
    assert round32(flt_max) == flt_max
    assert round32(below) == flt_max      # rounds down, stays finite
    assert round32(-below) == -flt_max
    assert round32(threshold) == math.inf  # tie to even: the even side is 2**128
    assert round32(-threshold) == -math.inf
    assert round32(1e300) == math.inf


def test_fma32_lanes():
    rng = random.Random(3)
    for _ in range(200):
        a = round32(rng.uniform(-100, 100))
        b = round32(rng.uniform(-100, 100))
        c = round32(rng.uniform(-100, 100))
        got = fma32(a, b, c)
        assert got == round32(got)  # representable in binary32


def round_f32(x: Fraction) -> float:
    """Oracle: the exact value x rounded to binary32, nearest-even."""
    if x == 0:
        return 0.0
    sign, x = (-1.0, -x) if x < 0 else (1.0, x)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    if x < Fraction(2) ** e:
        e -= 1
    e = max(e, -126)                      # subnormals share the least exponent
    m = x / Fraction(2) ** (e - 23)       # in units of the last place
    q = m.numerator // m.denominator
    r = m - q
    if r > Fraction(1, 2) or (r == Fraction(1, 2) and q % 2):
        q += 1
    return sign * math.ldexp(q, e - 23)


def test_fma32_rounds_once():
    # (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24 sits exactly between two binary32
    # values; the 2^-80 addend decides it, unless it is lost to a first
    # rounding to binary64
    x = 1 + 2.0 ** -12
    assert fma32(x, x, 2.0 ** -80).hex() == "0x1.0020020000000p+0"
    assert fma32(x, x, -2.0 ** -80).hex() == "0x1.0020000000000p+0"
    rng = random.Random(5)
    cases = []
    for _ in range(3000):
        # 13-bit significands: the exact products land on and near midpoints
        a = math.ldexp(1 + rng.randrange(1 << 12) * 2.0 ** -12, rng.randint(-40, 40))
        b = math.ldexp(1 + rng.randrange(1 << 12) * 2.0 ** -12, rng.randint(-40, 40))
        a, b = a * rng.choice((-1, 1)), b * rng.choice((-1, 1))
        ab = Fraction(a) * Fraction(b)
        tie = ab.numerator.bit_length() - ab.denominator.bit_length() - 24
        c = rng.choice((0.0, math.ldexp(rng.choice((-1, 1)), tie - rng.randint(1, 60)),
                        -a * b, rng.uniform(-1, 1)))
        cases.append((a, b, round32(c)))
    # binary32 subnormal results, on and beside a tie
    cases += [(2.0 ** -75, 1.5 * 2.0 ** -74, 0.0),
              (2.0 ** -75, 1.5 * 2.0 ** -74, -(2.0 ** -149)),
              (3 * 2.0 ** -76, 2.0 ** -74, 2.0 ** -149)]
    for a, b, c in cases:
        want = round_f32(Fraction(a) * Fraction(b) + Fraction(c))
        assert fma32(a, b, c) == want, (a.hex(), b.hex(), c.hex())


def test_bits_to_f64x3():
    vals = (1.5, -0.0, math.inf)
    assert bits_to_f64x3(*map(f64_to_bits, vals)) == vals
