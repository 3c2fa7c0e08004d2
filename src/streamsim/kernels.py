"""Kernel corpus with bank-aware data layouts and scalar references.

Each builder returns a KernelInstance bundling the assembled program, the
initial memory image, a bit-exact result checker, and roofline metadata.

Layouts pad and skew arrays so concurrent stream prefetchers do not collide in
the same TCDM bank cycle after cycle: two unit-stride streams that start in
the same bank advance in lockstep and would conflict on every access, so each
array is placed to open a bank offset against the streams it runs beside.
Checkers fold with the shared fused-multiply-add primitive in the exact
accumulation order the kernels use, so comparisons are bitwise.
"""

import random
import struct

from .asm import assemble, AsmProgram
from .cluster import (ClusterSim, MAX_CYCLES, N_CORES, TCDM_BASE, TCDM_SIZE,
                      TCDM_BANKS, BANK_WIDTH, L2_BASE)
from .fp import fma64

TCDM_END = TCDM_BASE + TCDM_SIZE


class KernelInstance:
    def __init__(self, name, program: AsmProgram, active_cores=1, data=None,
                 check=None, watch_label=None, entries=None, n=0, flops=0,
                 traffic_bytes=0):
        self.name = name
        self.program = program
        self.active_cores = active_cores
        self.data = [] if data is None else data    # [(addr, bytes)]
        self.check = check                  # callable(sim) -> None
        self.watch_label = watch_label
        self.entries = entries              # per-core entry labels, or None
        self.n = n
        self.flops = flops
        self.traffic_bytes = traffic_bytes  # main-memory traffic; 0 =
                                            # scratchpad resident

    def watch_pcs(self):
        if self.watch_label is None:
            return []
        return [self.program.labels[self.watch_label]]


def run_kernel(inst: KernelInstance, cold_start_icache=False,
               max_cycles=MAX_CYCLES, trace=False):
    sim = ClusterSim(cold_start_icache=cold_start_icache)
    sim.load_program(inst.program, active_cores=inst.active_cores,
                     entries=inst.entries)
    sim.load_image(inst.data)
    result = sim.run(max_cycles=max_cycles, trace=trace,
                     watch_pcs=inst.watch_pcs())
    return sim, result


def _pack(vals):
    return struct.pack(f"<{len(vals)}d", *vals)


def _rand_doubles(rng, n):
    """n draws of rng.uniform(-1.0, 1.0), each computed inline as uniform
    computes it, a + (b - a) * random(), so every value is the same."""
    rand = rng.random
    return [-1.0 + 2.0 * rand() for _ in range(n)]


def _expect(sim, addr, vals, what):
    got = sim.mem.read(addr, 8 * len(vals))
    want = _pack(vals)
    if got != want:
        for i in range(len(vals)):
            g, w = got[8 * i:8 * i + 8], want[8 * i:8 * i + 8]
            if g != w:
                raise AssertionError(
                    f"{what}[{i}]: got {g.hex()} want {w.hex()} "
                    f"({struct.unpack('<d', g)[0]!r} vs {vals[i]!r})")


def _stream_cfg(slot, base, dims, write=False):
    lines = [f"ssr_cfg_write {slot}, base, {base}"]
    for d, (stride, bound) in enumerate(dims):
        lines.append(f"ssr_cfg_write {slot}, stride{d}, {stride}")
        lines.append(f"ssr_cfg_write {slot}, bound{d}, {bound}")
    if len(dims) > 1:
        lines.append(f"ssr_cfg_write {slot}, dims, {len(dims)}")
    if write:
        lines.append(f"ssr_cfg_write {slot}, dir, 1")
    return lines


# ------------------------------------------------------------------ references

def dot_reference(x, y):
    """Four rotating accumulators, pairwise tree reduction; matches the
    unroll-by-4 structure every dot kernel uses."""
    acc = [0.0, 0.0, 0.0, 0.0]
    for i in range(len(x)):
        acc[i % 4] = fma64(x[i], y[i], acc[i % 4])
    return (acc[0] + acc[1]) + (acc[2] + acc[3])


def axpy_reference(a, x, y):
    return [fma64(xi, a, yi) for xi, yi in zip(x, y)]


def matvec_reference(a_rows, x):
    out = []
    for row in a_rows:
        acc = 0.0
        for aik, xk in zip(row, x):
            acc = fma64(aik, xk, acc)
        out.append(acc)
    return out


def matmul_reference(a, b):
    n = len(a)
    c = [[0.0] * n for _ in range(n)]
    for r in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc = fma64(a[r][k], b[k][j], acc)
            c[r][j] = acc
    return c


# ------------------------------------------------------------------ dot family

def _dot_layout(n):
    x = TCDM_BASE
    y = x + 8 * n + 8        # 8-byte pad keeps y's stream one bank behind x's
    r = y + 8 * n + 8
    if r + 8 > TCDM_END:
        raise ValueError("n too large for the scratchpad layout")
    return x, y, r


# the four accumulators ft3..ft6 of the kernels unrolled by four: zeroed, and
# one fmadd into each from ft0 and ft1 (two read streams while SSR is on)
_ZERO_ACC = [f"  fmv.d.x ft{3 + r}, zero" for r in range(4)]
_FMADD_ACC = [f"  fmadd.d ft{3 + r}, ft0, ft1, ft{3 + r}" for r in range(4)]


def _dot(name, n, seed, fold, ssr=True):
    """The frame every dot kernel shares: x and y laid out and drawn, the
    accumulators zeroed, `fold(xa, ya)`'s lines folding x * y into them, the
    pairwise reduction dot_reference mirrors, the stored result and its check.
    With `ssr`, x and y are read streams 0 and 1, enabled around the fold."""
    xa, ya, ra = _dot_layout(n)
    rng = random.Random(seed)
    x = _rand_doubles(rng, n)
    y = _rand_doubles(rng, n)
    ref = dot_reference(x, y)
    streams = (_stream_cfg(0, xa, [(8, n)]) + _stream_cfg(1, ya, [(8, n)])
               if ssr else [])
    lines = (["start:"] + streams + _ZERO_ACC
             + (["  ssr_enable"] if ssr else []) + fold(xa, ya)
             + ["  fadd.d ft3, ft3, ft4",
                "  fadd.d ft5, ft5, ft6",
                "  fadd.d ft3, ft3, ft5",
                f"  fsd ft3, {ra}(zero)"]
             + (["  ssr_disable"] if ssr else []) + ["  halt"])

    def check(sim):
        _expect(sim, ra, [ref], "dot")

    return KernelInstance(name, assemble("\n".join(lines)), n=n,
                          flops=2 * n + 3, check=check,
                          data=[(xa, _pack(x)), (ya, _pack(y))])


def build_dot_baseline(n, seed):
    if n % 4 or n < 4:
        raise ValueError("n must be a positive multiple of 4")

    def fold(xa, ya):
        # each load/load/fmadd group is one string of three lines
        return [f"  fld ft0, {xa + 8 * i}(zero)\n"
                f"  fld ft1, {ya + 8 * i}(zero)\n{_FMADD_ACC[i % 4]}"
                for i in range(n)]

    return _dot("dot_baseline", n, seed, fold, ssr=False)


def build_dot_ssr(n, seed):
    if n % 4 or n < 4:
        raise ValueError("n must be a positive multiple of 4")
    return _dot("dot_ssr", n, seed, lambda xa, ya: (
        ["  li t1, 0", f"  li t2, {n // 4}", "loop:"] + _FMADD_ACC
        + ["  addi t1, t1, 1", "  bltu t1, t2, loop"]))


def build_dot_ssr_frep(n, seed):
    if n % 4 or n < 8:
        raise ValueError("n must be a multiple of 4, at least 8")
    return _dot("dot_ssr_frep", n, seed, lambda xa, ya: (
        [f"  li t0, {n // 4}", "  frep t0, 4"] + _FMADD_ACC))


# ------------------------------------------------------------------ axpy

def build_axpy_ssr(n, seed):
    """y = a*x + y with x, y read streams and y as the write stream.

    x sits in bank 0 and y in bank 16, so the two read prefetchers and the
    write drain (which trails the reads by a few cycles) never meet.
    """
    if n < 1:
        raise ValueError("n must be positive")
    xa = TCDM_BASE
    ya = TCDM_BASE + ((8 * n + 255) // 256) * 256 + 128
    aa = ya + 8 * n + 8
    if aa + 8 > TCDM_END:
        raise ValueError("n too large for the scratchpad layout")
    rng = random.Random(seed)
    x = _rand_doubles(rng, n)
    y = _rand_doubles(rng, n)
    a = -1.0 + 2.0 * rng.random()      # rng.uniform(-1.0, 1.0)
    ref = axpy_reference(a, x, y)

    lines = (["start:", f"  fld fa0, {aa}(zero)"]
             + _stream_cfg(0, xa, [(8, n)])
             + _stream_cfg(1, ya, [(8, n)])
             + _stream_cfg(2, ya, [(8, n)], write=True)
             + ["  ssr_enable",
                f"  li t0, {n}",
                "  frep t0, 1",
                "  fmadd.d ft2, ft0, fa0, ft1",
                "  ssr_disable",
                "  halt"])
    prog = assemble("\n".join(lines))

    def check(sim):
        _expect(sim, ya, ref, "axpy y")

    return KernelInstance("axpy_ssr", prog, n=n, flops=2 * n, check=check,
                          data=[(xa, _pack(x)), (ya, _pack(y)),
                                (aa, _pack([a]))])


# ------------------------------------------------------------------ matvec

def _matvec48(n, seed):
    """The layout, data and checker both matvec variants share: A at the
    scratchpad base, x padded one bank past A so its prefetcher trails A's
    bank walk instead of colliding with it, then y."""
    if n % 4 or n < 8:
        raise ValueError("n must be a multiple of 4, at least 8")
    aa = TCDM_BASE
    xa = aa + 8 * n * n + 8
    ya = xa + 8 * n + 8
    if ya + 8 * n > TCDM_END:
        raise ValueError("n too large for the scratchpad layout")
    rng = random.Random(seed)
    rows = [_rand_doubles(rng, n) for _ in range(n)]
    x = _rand_doubles(rng, n)
    ref = matvec_reference(rows, x)

    def check(sim):
        _expect(sim, ya, ref, "matvec y")

    data = [(aa, _pack([v for r in rows for v in r])), (xa, _pack(x))]
    return aa, xa, ya, data, check


def build_matvec48_baseline(n, seed):
    """y = A @ x, rows unrolled by four, with explicit loads."""
    aa, xa, ya, data, check = _matvec48(n, seed)
    lines = ["start:", f"  li t0, {ya}"]
    for r0 in range(0, n, 4):
        lines += _ZERO_ACC
        bases = [aa + 8 * n * (r0 + r) for r in range(4)]    # of A's rows
        for k in range(n):
            # each load/load/fmadd group is one string of three lines
            x_load = f"  fld ft1, {xa + 8 * k}(zero)\n"
            lines += [f"  fld ft0, {base + 8 * k}(zero)\n{x_load}{fmadd}"
                      for base, fmadd in zip(bases, _FMADD_ACC)]
        for r in range(4):
            lines.append(f"  fsd ft{3 + r}, {ya + 8 * (r0 + r)}(zero)")
    lines.append("  halt")
    return KernelInstance("matvec48_baseline", assemble("\n".join(lines)),
                          n=n, flops=2 * n * n, check=check, data=data)


def build_matvec48_ssr_frep(n, seed, filler_ints=0):
    """y = A @ x, rows unrolled by four: the 16-instruction loop whose
    replay covers 192 of every 204 FPU slots. `filler_ints` injects that
    many independent integer adds after the captured body to demonstrate
    integer-pipeline progress during replay."""
    if filler_ints < 0:
        raise ValueError(f"filler_ints must be >= 0, got {filler_ints}")
    aa, xa, ya, data, check = _matvec48(n, seed)
    row = 8 * n
    lines = (["start:"]
             + _stream_cfg(0, aa, [(row, 4), (8, n), (4 * row, n // 4)])
             + _stream_cfg(1, xa, [(0, 4), (8, n), (0, n // 4)])
             + ["  ssr_enable",
                f"  li t0, {ya}",
                "  li t1, 0",
                f"  li t2, {n}",
                f"  li t3, {n // 4}",
                "loop:"]
             + _ZERO_ACC + ["  frep t2, 4"] + _FMADD_ACC
             + ["  addi t4, t4, 1"] * filler_ints
             + [f"  fsd ft{3 + r}, {8 * r}(t0)" for r in range(4)]
             + ["  addi t0, t0, 32",
                "  addi t1, t1, 1",
                "loop_end: bltu t1, t3, loop",
                "  ssr_disable",
                "  halt"])
    return KernelInstance("matvec48_ssr_frep", assemble("\n".join(lines)),
                          n=n, flops=2 * n * n, check=check, data=data,
                          watch_label="loop_end")


# ------------------------------------------------------------------ matmul

# base banks per core: the A request set {alpha_i + c} for c in 0..3 and the
# B request set {beta_i} stay disjoint mod 32 at every cycle offset, including
# the prefetchers' fixed FIFO lead, so the sixteen saturated read streams
# never meet at a bank while the cores run in lockstep
_MM_A_BANKS = (0, 1, 2, 3, 16, 17, 18, 19)
_MM_B_BANKS = (10, 11, 12, 13, 26, 27, 28, 29)


def build_matmul_ssr_frep(n, seed):
    """C = A @ B on all eight cores, each owning four rows.

    Every fmadd pops both read streams, so each stream needs one grant per
    cycle and any lost arbitration is a lost FPU cycle. Three layout rules
    make the streams conflict-free by construction: A rows are padded to n+1
    doubles so the r walk moves one bank per pop; each core's private B copy
    is column-major with a 256-byte column stride, a whole bank rotation, so
    its bank depends on k alone; and the per-core base banks come from the
    disjoint sets above. C goes out through the write stream and its rare
    drains are the only remaining contention.
    """
    if n != 32:
        raise ValueError("layout is engineered for n=32 on 8 cores")
    rpc = n // N_CORES
    rng = random.Random(seed)
    a = [_rand_doubles(rng, n) for _ in range(n)]
    b = [_rand_doubles(rng, n) for _ in range(n)]
    ref = matmul_reference(a, b)

    prow = 8 * (n + 1)
    cursor = TCDM_BASE

    def place(size, bank):
        nonlocal cursor
        while (cursor // BANK_WIDTH) % TCDM_BANKS != bank:
            cursor += BANK_WIDTH
        base = cursor
        cursor += size
        return base

    # B column-major, each column padded to 256 bytes: every core's copy
    b_image = b"".join(_pack([b[k][j] for k in range(n)]).ljust(256, b"\0")
                       for j in range(n))
    data = []
    a_base, b_base, c_base = [], [], []
    for i in range(N_CORES):
        ab = place(rpc * prow, _MM_A_BANKS[i])
        a_base.append(ab)
        block = [v for r in range(rpc) for v in (a[rpc * i + r] + [0.0])]
        data.append((ab, _pack(block)))

        bb = place(n * 256, _MM_B_BANKS[i])
        b_base.append(bb)
        data.append((bb, b_image))

        c_base.append(place(rpc * prow, (_MM_A_BANKS[i] + 4) % TCDM_BANKS))

    blocks = []
    for i in range(N_CORES):
        blocks += ([f"core{i}:"]
                   + _stream_cfg(0, a_base[i], [(prow, rpc), (8, n), (0, n)])
                   + _stream_cfg(1, b_base[i], [(0, rpc), (8, n), (256, n)])
                   + _stream_cfg(2, c_base[i], [(prow, rpc), (8, n)],
                                 write=True)
                   + ["  ssr_enable",
                      "  li t1, 0",
                      f"  li t2, {n}",
                      f"  li t3, {n}",
                      f"col{i}:"]
                   + [f"  fmv.d.x ft{3 + r}, zero" for r in range(rpc)]
                   + [f"  frep t3, {rpc}"]
                   + [f"  fmadd.d ft{3 + r}, ft0, ft1, ft{3 + r}"
                      for r in range(rpc)]
                   + [f"  fmv.d ft2, ft{3 + r}" for r in range(rpc)]
                   + ["  addi t1, t1, 1",
                      f"  bltu t1, t2, col{i}",
                      "  ssr_disable",
                      "  halt"])
    prog = assemble("\n".join(blocks))

    def check(sim):
        for r in range(n):
            _expect(sim, c_base[r // rpc] + (r % rpc) * prow, ref[r],
                    f"matmul c[{r}]")

    return KernelInstance("matmul_ssr_frep", prog, active_cores=N_CORES,
                          n=n, flops=2 * n * n * n, check=check, data=data,
                          entries=[f"core{i}" for i in range(N_CORES)])


# ------------------------------------------------------------------ DMA stream

_DMA_CHUNK = 4096       # bytes per descriptor


def build_dma_stream(n, seed):
    """Stream n bytes from L2 into the scratchpad through the DMA engine,
    one descriptor per 4 KiB chunk."""
    if n % _DMA_CHUNK or n < _DMA_CHUNK:
        raise ValueError(f"n must be a positive multiple of {_DMA_CHUNK}")
    if n > TCDM_SIZE:
        raise ValueError("n exceeds the scratchpad")
    rng = random.Random(seed)
    # byte k is the top byte of the generator's k-th 32-bit output, as
    # getrandbits(8) draws it; made one descriptor chunk at a time
    payload = b"".join(rng.randbytes(4 * _DMA_CHUNK)[3::4]
                       for _ in range(n // _DMA_CHUNK))
    lines = ["start:", f"  li t2, {_DMA_CHUNK}"]
    for off in range(0, n, _DMA_CHUNK):
        lines += [f"  li t0, {L2_BASE + off}",
                  "  dm_src t0",
                  f"  li t1, {TCDM_BASE + off}",
                  "  dm_dst t1",
                  "  dm_copy t2"]
    lines += ["poll:",
              "  dm_poll t3",
              "  bne t3, zero, poll",
              "  halt"]
    prog = assemble("\n".join(lines))

    def check(sim):
        got = sim.mem.read(TCDM_BASE, n)
        if got != payload:
            raise AssertionError("DMA payload mismatch")

    return KernelInstance("dma_stream", prog, n=n, traffic_bytes=n,
                          check=check, data=[(L2_BASE, payload)])


# ------------------------------------------------------------------ TCDM probes

def _tcdm_probe(name, n, shift, stride):
    """All cores issue n back-to-back loads with the given per-core base
    shift and per-access stride (bytes)."""
    if n < 1:
        raise ValueError("n must be positive")
    last = TCDM_BASE + ((N_CORES - 1) << shift) + stride * (n - 1)
    if last + 4 > TCDM_END:
        raise ValueError("n too large for the scratchpad layout")
    lines = ["start:",
             f"  li t0, {TCDM_BASE}",
             f"  slli t1, a0, {shift}",
             "  add t0, t0, t1"]
    lines += [f"  lw t2, {stride * j}(t0)" for j in range(n)]
    lines.append("  halt")
    return KernelInstance(name, assemble("\n".join(lines)), active_cores=N_CORES,
                          n=n)


def build_tcdm_unit_stride(n, seed):
    """Core i walks banks (i + 8t) mod 32: all eight cores hit distinct banks
    every cycle, so conflict stalls stay at zero."""
    return _tcdm_probe("tcdm_unit_stride", n, shift=3, stride=64)


def build_tcdm_same_bank(n, seed):
    """Stride of one full bank rotation (256 B): every access of every core
    lands in bank 0 and the arbiter serializes them eight to one."""
    return _tcdm_probe("tcdm_same_bank", n, shift=11, stride=256)


# ------------------------------------------------------------------ registry

KERNELS = {
    "dot_baseline": (build_dot_baseline, "unrolled load/load/fmadd dot product", 256),
    "dot_ssr": (build_dot_ssr, "dot product on two read streams, integer loop", 256),
    "dot_ssr_frep": (build_dot_ssr_frep, "dot product, streams plus replay", 256),
    "axpy_ssr": (build_axpy_ssr, "y = a*x + y with a write stream", 256),
    "matvec48_baseline": (build_matvec48_baseline, "matrix-vector, explicit loads", 48),
    "matvec48_ssr_frep": (build_matvec48_ssr_frep, "matrix-vector, the 16-instruction loop", 48),
    "matmul_ssr_frep": (build_matmul_ssr_frep, "blocked matmul on all cores", 32),
    "dma_stream": (build_dma_stream, "bulk L2 to scratchpad copy via DMA", 32768),
    "tcdm_unit_stride": (build_tcdm_unit_stride, "8-core conflict-free bank walk", 128),
    "tcdm_same_bank": (build_tcdm_same_bank, "8-core single-bank serialization", 128),
}


def names():
    return sorted(KERNELS)


def build(name, n=None, seed=0, **kw) -> KernelInstance:
    if name not in KERNELS:
        raise KeyError(name)
    builder, _, default_n = KERNELS[name]
    return builder(n=default_n if n is None else n, seed=seed, **kw)
