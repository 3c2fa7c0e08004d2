"""Frozen SHA-256 digests of every corpus kernel's stats and trace text, of
hand-written programs that reach the stall and DMA paths no kernel reaches,
and of every assembled program; and the decoded form or error message of
statements written in styles the corpus does not use.

A refactor of the simulator must not move a single simulated cycle, so each
kernel's `stats_lines` output and its `run(trace=True)` text are compared
against digests taken before the refactor. Two runs of the same code agreeing
would not catch a shifted stall; these digests do. Likewise a refactor of the
assembler must not move one decoded field, data byte, label or entry point.

To re-freeze after a change that is meant to alter simulated behaviour, run

    PYTHONPATH=src python tests/test_golden.py

and give the reason in CHANGES.md.
"""

import functools
import hashlib
import json
import struct
from collections import Counter
from pathlib import Path

import pytest

from streamsim import kernels
from streamsim.asm import assemble
from streamsim.errors import SimError
from streamsim.isa import OPS, Domain, decode
from streamsim.cluster import (DMA_BUS_WIDTH, FP_SLOTS, INT_STALLS, L2_BASE,
                               N_CORES, TCDM_BASE, ClusterSim, stats_lines)

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
GOLDEN_PROGRAMS = GOLDEN.with_name("programs.json")
GOLDEN_DECODE = GOLDEN.with_name("decode.json")

# case name -> (kernel, run_kernel keyword arguments); every kernel at its
# default n and seed 0, plus the icache-miss path, which no kernel reaches
# with the warm-started icache: on one core, and on eight cores that miss
# the same lines in the same cycle
CASES = {name: (name, {}) for name in kernels.names()}
for _kernel in ("dot_baseline", "matmul_ssr_frep"):
    CASES[f"{_kernel} cold_start_icache"] = (_kernel, {"cold_start_icache": True})


def _lines(*lines):
    return "\n".join(lines)


# case name -> (assembly, active cores, the stall counter the program exists
# to reach): stall paths that no corpus kernel reaches
STALL_PROGRAMS = {
    # the int pipe fills the FP queue behind a chain of dependent fmadds
    "queue_full": (_lines(
        "fmv.d.x ft0, zero",
        "fmv.d.x ft1, zero",
        *["fmadd.d ft3, ft0, ft1, ft3"] * 14,
        "halt"), 1, "stall_queue_full"),
    # eight cores on one bank: an lw waits for the FPU's loads to leave the
    # data port, and an lw that lost its grant while the FPU ran the fadd
    # meets the next fld on the port when it is planned again
    "port_vs_held_lw": (_lines(
        f"li t0, {TCDM_BASE}",
        "slli t1, a0, 11",
        "add t0, t0, t1",
        *["fld ft0, 0(t0)", "fadd.d ft1, ft0, ft0", "fld ft2, 512(t0)",
          "lw t2, 256(t0)", "lw t3, 768(t0)"] * 6,
        "halt"), N_CORES, "stall_bank_conflict"),
    # 32 descriptors for an 8-deep queue: dm_copy waits for room, at plan
    # time and, when another core took the last place, at commit
    "dma_full_8_cores": (_lines(
        "slli t4, a0, 12",
        f"li t0, {L2_BASE}",
        "add t0, t0, t4",
        f"li t1, {TCDM_BASE}",
        "add t1, t1, t4",
        "li t2, 512",
        *["dm_src t0", "dm_dst t1", "dm_copy t2",
          "addi t0, t0, 512", "addi t1, t1, 512"] * 4,
        "poll:",
        "dm_poll t3",
        "bne t3, zero, poll",
        "halt"), N_CORES, "stall_dma_full"),
    # integer stores and loads that take the L2 wait
    "l2_lw_sw": (_lines(
        "slli t1, a0, 3",
        f"li t0, {L2_BASE}",
        "add t0, t0, t1",
        "sw a0, 0(t0)",
        "lw t2, 0(t0)",
        "addi t2, t2, 1",
        "sw t2, 4(t0)",
        "lw t3, 4(t0)",
        "halt"), 2, "stall_mem"),
    # three streams that walk bank 0 at stride 256 under one frep: the
    # fmadd waits for the prefetchers and the write stream, which take the
    # bank in turn
    "stream_same_bank": (_lines(
        *[line for slot, base in enumerate((0, 8192, 16384))
          for line in (f"ssr_cfg_write {slot}, base, {TCDM_BASE + base}",
                       f"ssr_cfg_write {slot}, stride0, 256",
                       f"ssr_cfg_write {slot}, bound0, 32")],
        "ssr_cfg_write 2, dir, 1",
        "ssr_enable",
        "li t0, 32",
        "frep t0, 1",
        "fmadd.d ft2, ft0, ft1, ft3",
        "ssr_disable",
        "halt"), 1, "fp_stall_stream"),
    # core 0 halts with its read stream still on and room in its FIFO,
    # while core 1's loads keep taking the stream's bank: from the halt on,
    # the stream must request no bank
    "halt_with_stream": (_lines(
        "bne a0, zero, loads",
        f"ssr_cfg_write 0, base, {TCDM_BASE}",
        "ssr_cfg_write 0, stride0, 256",
        "ssr_cfg_write 0, bound0, 64",
        "ssr_enable",
        *["fmv.d ft3, ft0"] * 6,
        "halt",
        "loads:",
        f"li t0, {TCDM_BASE + 8192}",
        "li t1, 16",
        "loop:",
        *["lw t2, 0(t0)"] * 8,
        "addi t1, t1, -1",
        "bne t1, zero, loop",
        "halt"), 2, "stall_bank_conflict"),
}


def _fill(n, seed):
    """.word lines for n bytes (n a multiple of 4), none of them zero."""
    data = bytes((seed + 37 * k) % 255 + 1 for k in range(n))
    return [f".word {int.from_bytes(data[k:k + 4], 'little')}"
            for k in range(0, n, 4)]


# DMA_PROGRAMS' data: eight 256-byte sources from the scratchpad base, and
# each core's unaligned 200-byte copy from its source to a destination 133
# bytes into its block of 256 from 0x800: a window's source banks (8k..8k+8
# from its start) and destination banks (8k+16..8k+24) never meet
_VS_SRC = TCDM_BASE
_VS_DST = TCDM_BASE + 0x800 + 133

# case name -> (assembly, active cores, [(src, dst, length)] of its copies,
# the stall counter the cores reach or None): scratchpad-to-scratchpad DMA
# copies whose windows no kernel makes, their sources non-zero
DMA_PROGRAMS = {
    # each core copies its block, then lw-walks the source and the
    # destination banks of another core's window while the engine runs, so
    # the engine loses some banks of a window to the cores and takes them
    # on a later cycle
    "dma_vs_lw": (_lines(
        "slli t4, a0, 8",
        f"li t0, {_VS_SRC + 3}",
        "add t0, t0, t4",
        f"li t1, {_VS_DST}",
        "add t1, t1, t4",
        "li t2, 200",
        "dm_src t0",
        "dm_dst t1",
        "dm_copy t2",
        "li t5, 7",
        "sub t5, t5, a0",
        "slli t5, t5, 8",
        f"li t6, {_VS_SRC}",
        "add t6, t6, t5",
        *[f"lw t3, {8 * j}(t6)" for j in range(25)],
        f"li t6, {_VS_DST + 3}",
        "add t6, t6, t5",
        *[f"lw t3, {8 * j}(t6)" for j in range(25)],
        "poll:",
        "dm_poll t3",
        "bne t3, zero, poll",
        "halt",
        ".data",
        *_fill(8 * 256, 1)), N_CORES,
        [(_VS_SRC + 256 * i + 3, _VS_DST + 256 * i, 200) for i in range(N_CORES)],
        "stall_bank_conflict"),
    # two copies whose source and destination share every bank (gap 256),
    # aligned and not, so each window reads on one grant and writes on the
    # next; then one whose banks are all distinct (gap 128)
    "dma_same_bank": (_lines(
        *[line for src, dst, n in ((0, 256, 256), (515, 771, 200),
                                   (1025, 1153, 120))
          for line in (f"li t0, {TCDM_BASE + src}", "dm_src t0",
                       f"li t1, {TCDM_BASE + dst}", "dm_dst t1",
                       f"li t2, {n}", "dm_copy t2")],
        "poll:",
        "dm_poll t3",
        "bne t3, zero, poll",
        "halt",
        ".data",
        *_fill(256, 2), ".space 256",
        *_fill(256, 3), ".space 256",
        *_fill(128, 4)), 1,
        [(TCDM_BASE + 0, TCDM_BASE + 256, 256),
         (TCDM_BASE + 515, TCDM_BASE + 771, 200),
         (TCDM_BASE + 1025, TCDM_BASE + 1153, 120)],
        None),
}


def _queued_ops(staged):
    """A RAW chain of fmadd.d ft3 that holds two fadd.d reading ft0 in the
    FP queue while ssr_enable commits, then two more after it; with staged,
    slot 0 streams four doubles into ft0."""
    return _lines(
        *(("ssr_cfg_write 0, base, xs",
           "ssr_cfg_write 0, stride0, 8",
           "ssr_cfg_write 0, bound0, 4") if staged else ()),
        "li t0, out",
        "fmv.d.x ft3, zero",
        *["fmadd.d ft3, ft1, ft2, ft3"] * 3,
        "fadd.d ft4, ft0, ft3",
        "fadd.d ft5, ft0, ft4",
        "ssr_enable",
        "fadd.d ft6, ft0, ft5",
        "fadd.d ft7, ft0, ft6",
        "ssr_disable",
        *[f"fsd ft{4 + k}, {8 * k}(t0)" for k in range(4)],
        "halt",
        ".data",
        "xs:", *[f".double {x}" for x in (1.5, 2.5, 3.5, 4.5)],
        "out:", *[".double 7.0"] * 4)


# case name -> (assembly, active cores, {address: the 64-bit word the run
# leaves there}): what a queue entry latches at dispatch and what it splits
# under the stream map, in combinations no kernel makes
DISPATCH_PROGRAMS = {
    # an frep body of fld, fsd and fmv.d.x whose base and x source change
    # while the body replays: every iteration reuses the offsets and the
    # value latched when the body was dispatched, so ft2 sums x[0] (3) and
    # ft3 sums t1 (2) four times; their stored sum (20) sets the loop count
    "frep_latched_operands": (_lines(
        "li t0, xs",
        "li t1, 2",
        "li t2, 4",
        "fmv.d.x ft2, zero",
        "fmv.d.x ft3, zero",
        "frep t2, 6",
        "fld ft0, 0(t0)",
        "fadd.d ft2, ft2, ft0",
        "fmv.d.x ft1, t1",
        "fadd.d ft3, ft3, ft1",
        "fsd ft2, 16(t0)",
        "fsd ft3, 24(t0)",
        "addi t0, t0, 8",
        "addi t1, t1, 1",
        "ssr_disable",              # a drain: the replay and its stores end
        "li t0, xs",
        "lw t3, 16(t0)",
        "lw t4, 24(t0)",
        "add t3, t3, t4",
        "spin:",
        "addi t3, t3, -1",
        "bne t3, zero, spin",
        "halt",
        ".data",
        "xs:", ".word 3", ".word 0", ".word 100", ".word 0",
        ".space 32"), 1,
        {TCDM_BASE + 16: 12, TCDM_BASE + 24: 8}),
    # one shared fmadd.d Instruction sits in the FP queue as plain ops
    # behind their RAW chain while its next statement is dispatched as the
    # capture pass of a three-fold frep: six plain issues and three replays
    # add 2.0 nine times
    "shared_plain_and_capture": (_lines(
        "li t0, ab",
        "fld ft0, 0(t0)",
        "fld ft1, 8(t0)",
        "fmv.d.x ft3, zero",
        *["fmadd.d ft3, ft0, ft1, ft3"] * 6,
        "li t1, 3",
        "frep t1, 1",
        "fmadd.d ft3, ft0, ft1, ft3",
        "fsd ft3, 16(t0)",
        "halt",
        ".data",
        "ab:", ".double 1.0", ".double 2.0", ".space 8"), 1,
        {TCDM_BASE + 16: 0x4032000000000000}),     # 18.0
    # streams switch on while an frep replays fadd.d ft4, ft0, ft4: the
    # two iterations before the ssr_enable add ft0 (1.0), the 38 after it
    # pop its read stream (2.0 each): 78.0
    "ssr_enable_mid_replay": (_lines(
        "li t0, one",
        "fld ft0, 0(t0)",
        "fmv.d.x ft4, zero",
        "li t1, 40",
        "frep t1, 1",
        "fadd.d ft4, ft0, ft4",
        "ssr_cfg_write 0, base, twos",
        "ssr_cfg_write 0, stride0, 8",
        "ssr_cfg_write 0, bound0, 48",
        "ssr_enable",
        "ssr_disable",              # a drain: the replay ends first
        "fsd ft4, 8(t0)",
        "halt",
        ".data",
        "one:", ".double 1.0", ".space 8",
        "twos:", *[".double 2.0"] * 48), 1,
        {TCDM_BASE + 8: 0x4053800000000000}),      # 78.0
    # the two fadd.d queued before the ssr_enable pop the stream as the
    # two after it do: 1.5, 4.0, 7.5 and 12.0
    "ssr_enable_queued_ops": (_queued_ops(True), 1, {
        TCDM_BASE + 32: 0x3FF8000000000000, TCDM_BASE + 40: 0x4010000000000000,
        TCDM_BASE + 48: 0x401E000000000000, TCDM_BASE + 56: 0x4028000000000000}),
    # with nothing staged, ssr_enable maps no stream and every fadd.d reads
    # the register ft0, 0.0
    "ssr_enable_no_stream": (_queued_ops(False), 1,
                             {TCDM_BASE + 32 + 8 * k: 0 for k in range(4)}),
}


def _f32(x):
    """The binary32 bits of x."""
    return int.from_bytes(struct.pack("<f", x), "little")


def _f64(x):
    """The binary64 bits of x."""
    return int.from_bytes(struct.pack("<d", x), "little")


def _f32_pair(lo, hi):
    """The 64-bit word of two binary32 lanes."""
    return _f32(lo) | _f32(hi) << 32


# binary64 patterns: a signalling NaN, a negative NaN with a payload, -0.0,
# the smallest subnormal and the largest finite value
_EDGE_BITS = (0x7FF0000000000001, 0xFFF8000000012345, 1 << 63, 1,
              0x7FEFFFFFFFFFFFFF)
_OUT = TCDM_BASE + 64     # the result words of "fp_bits"


# case name -> (assembly, active cores, {address: (bytes, the value the run
# leaves there)}): the ops no kernel runs, each leaving a value that tells a
# wrong result, a wrong branch or a wrong link apart from the right one. The
# result words start non-zero, so a store that never happens shows too.
OP_PROGRAMS = {
    # each branch once taken and once not: a branch that falls through
    # sets its bit of s0, so s0 = 0b10101010; blt compares signed and bltu
    # unsigned, on -1 and 5. Then a call and return through jal and jalr,
    # a jalr whose link register is its base, and one whose target's low
    # bit is cleared, each link checked against its label; lui, auipc,
    # and ssr_cfg_read of a staged field, an unstaged one and a staged
    # register value
    "int_ops": (_lines(
        "li t0, out",
        "li t1, -1",
        "li t2, 5",
        "li s0, 0",
        *[line for k, branch in enumerate((
            "beq t2, t2", "beq t1, t2", "bne t1, t2", "bne t2, t2",
            "blt t1, t2", "blt t2, t1", "bltu t2, t1", "bltu t1, t2"))
          for line in (f"{branch}, b{k}", f"addi s0, s0, {1 << k}", f"b{k}:")],
        "sw s0, 0(t0)",
        "jal ra, func1",
        "ret1:",
        "li t4, func2",
        "jalr t4, 0(t4)",
        "ret2:",
        "li t5, func3",
        "jalr ra, 1(t5)",
        "ret3:",
        "lui a5, 0x80001",
        "sw a5, 16(t0)",
        "here:",
        "auipc a6, 3",
        "li t3, here",
        "sub a6, a6, t3",
        "sw a6, 20(t0)",
        "ssr_cfg_write 1, stride0, 264",
        "li t3, -8",
        "ssr_cfg_write 2, base, t3",
        "ssr_cfg_read a7, 1, stride0",
        "sw a7, 24(t0)",
        "ssr_cfg_read a7, 1, bound0",
        "sw a7, 28(t0)",
        "ssr_cfg_read a7, 2, base",
        "sw a7, 32(t0)",
        "halt",
        "func1:",
        "li t3, ret1",
        "sub a3, ra, t3",
        "addi a3, a3, 100",
        "sw a3, 4(t0)",
        "jalr zero, 0(ra)",
        "func2:",
        "li t3, ret2",
        "sub a3, t4, t3",
        "addi a3, a3, 200",
        "sw a3, 8(t0)",
        "jalr zero, 0(t4)",
        "func3:",
        "li t3, ret3",
        "sub a3, ra, t3",
        "addi a3, a3, 300",
        "sw a3, 12(t0)",
        "j ret3",
        ".data",
        "out:", *[".word 7"] * 9), 1,
        {TCDM_BASE: (4, 0b10101010),
         TCDM_BASE + 4: (4, 100), TCDM_BASE + 8: (4, 200),
         TCDM_BASE + 12: (4, 300),
         TCDM_BASE + 16: (4, 0x80001000), TCDM_BASE + 20: (4, 0x3000),
         TCDM_BASE + 24: (4, 264), TCDM_BASE + 28: (4, 0),
         TCDM_BASE + 32: (4, 0xFFFFFFF8)}),
    # every .s op on lanes that flw loads and fsw stores, an fmsub.s on the
    # two lanes of an fld, and the .d ops the kernels do not run
    "fp_ops": (_lines(
        "li t0, xs",
        "flw ft0, 0(t0)",
        "flw ft1, 4(t0)",
        "flw ft2, 8(t0)",
        "fadd.s ft3, ft0, ft1",
        "fsub.s ft4, ft0, ft1",
        "fmul.s ft5, ft0, ft1",
        "fmadd.s ft6, ft0, ft1, ft2",
        "fmsub.s ft7, ft0, ft1, ft2",
        *[f"fsw ft{3 + k}, {12 + 4 * k}(t0)" for k in range(5)],
        "fld ft0, 32(t0)",
        "fld ft1, 40(t0)",
        "fld ft2, 48(t0)",
        "fmsub.s ft3, ft0, ft1, ft2",
        "fsd ft3, 56(t0)",
        "fld ft0, 64(t0)",
        "fld ft1, 72(t0)",
        "fld ft2, 80(t0)",
        "fsub.d ft3, ft0, ft1",
        "fmul.d ft4, ft0, ft1",
        "fmsub.d ft5, ft0, ft1, ft2",
        "fsd ft3, 88(t0)",
        "fsd ft4, 96(t0)",
        "fsd ft5, 104(t0)",
        "halt",
        ".data",
        "xs:",
        *[f".word {_f32(x)}" for x in (1.5, 2.25, 0.5)],
        *[".word 7"] * 5,
        *[f".word {_f32(x)}" for x in (1.5, 3.0, 2.25, 2.0, 0.5, 0.5)],
        ".double 7.0",
        *[f".double {x}" for x in (1.5, 2.25, 0.5)],
        *[".double 7.0"] * 3), 1,
        {**{TCDM_BASE + 12 + 4 * k: (4, _f32(x)) for k, x in enumerate(
            (3.75, -0.75, 3.375, 3.875, 2.875))},
         TCDM_BASE + 56: (8, _f32_pair(2.875, 5.5)),
         TCDM_BASE + 88: (8, _f64(-0.75)),
         TCDM_BASE + 96: (8, _f64(3.375)),
         TCDM_BASE + 104: (8, _f64(2.875))}),
    # the _EDGE_BITS patterns, each through fld, fmv.d and fsd and then
    # through a read stream into a write stream; fmv.d.x of -1; flw then
    # fsd of one word; fsd then fsw of one value; fmsub.d of -0.0 * 1.0
    # minus a never-written register (-0.0), and of 1.0 * 1.0 minus the
    # signalling NaN, which gives the canonical NaN as every arithmetic op
    # with a NaN result does
    "fp_bits": (_lines(
        "li t0, pats",
        "li t1, out",
        *[line for k in range(5) for line in (
            f"fld ft3, {8 * k}(t0)", "fmv.d ft4, ft3",
            f"fsd ft4, {8 * k}(t1)")],
        "ssr_cfg_write 0, base, t0",
        "ssr_cfg_write 0, stride0, 8",
        "ssr_cfg_write 0, bound0, 5",
        "addi t2, t1, 40",
        "ssr_cfg_write 2, base, t2",
        "ssr_cfg_write 2, stride0, 8",
        "ssr_cfg_write 2, bound0, 5",
        "ssr_cfg_write 2, dir, 1",
        "ssr_enable",
        *["fmv.d ft2, ft0"] * 5,
        "ssr_disable",
        "li t3, -1",
        "fmv.d.x ft5, t3",
        "fsd ft5, 80(t1)",
        "flw ft6, 40(t0)",
        "fsd ft6, 88(t1)",
        "fld ft7, 48(t0)",
        "fsd ft7, 96(t1)",
        "fsw ft7, 104(t1)",
        "fld ft8, 16(t0)",
        "fld ft9, 56(t0)",
        "fmsub.d fs0, ft8, ft9, ft11",
        "fsd fs0, 112(t1)",
        "fld fs1, 0(t0)",
        "fmsub.d fs2, ft9, ft9, fs1",
        "fsd fs2, 120(t1)",
        "halt",
        ".data",
        "pats:",
        *[f".word {w >> s & 0xFFFFFFFF}" for w in (
            *_EDGE_BITS, 0xFFFFFFFF_89ABCDEF, 0x01234567_89ABCDEF)
          for s in (0, 32)],
        ".double 1.0",
        "out:", *[".word 7"] * 32), 1,
        {**{_OUT + 40 * r + 8 * k: (8, w) for r in range(2)
            for k, w in enumerate(_EDGE_BITS)},
         _OUT + 80: (8, 0xFFFFFFFF),
         _OUT + 88: (8, 0x89ABCDEF),
         _OUT + 96: (8, 0x01234567_89ABCDEF),
         _OUT + 104: (4, 0x89ABCDEF),
         _OUT + 108: (4, 7),
         _OUT + 112: (8, 1 << 63),
         _OUT + 120: (8, 0x7FF8000000000000)}),
}


HAND_WRITTEN = {**STALL_PROGRAMS, **DMA_PROGRAMS, **DISPATCH_PROGRAMS,
                **OP_PROGRAMS}
# every case with frozen digests
ALL_CASES = (sorted(CASES) + sorted(STALL_PROGRAMS) + sorted(DMA_PROGRAMS)
             + sorted(DISPATCH_PROGRAMS) + sorted(OP_PROGRAMS))


# program case name -> (kernel, n): every kernel at its default n, plus the
# two large unrolled baselines the benchmark assembles
PROGRAMS = {name: (name, None) for name in kernels.names()}
PROGRAMS.update({"dot_baseline n=4096": ("dot_baseline", 4096),
                 "matvec48_baseline n=96": ("matvec48_baseline", 96)})


# statements whose decoded `repr` is frozen: whitespace and comment styles
# the corpus never writes, pseudo-instructions and label offsets, every
# custom op without operands, both ssr_cfg_write operand forms, .s and .d
DECODE_LABELS = {"loop": 0x40, "loop.2": 0x48, "buf": TCDM_BASE + 0x100}
DECODE_STATEMENTS = [
    "addi\tt0,\tt1,\t-3",
    "addi   t0 ,  t1 ,   -3",
    "  fld ft0,   8(t0)   # load x",
    "fmadd.d\tft3,ft0,ft1,ft3\t# acc",
    "sw t2, -4(sp)#no space",
    "lw t0,0x10(a0)",
    "bne t3, zero, loop  # back",
    "jalr ra, 0(t0)",
    "jal ra, loop.2",
    "lui t0, 0x10",
    "auipc t0, 1",
    "slli t1, a0, 11",
    "add x5, x0, fp",
    "sub s11, t6, a7",
    "beq a0, a1, 8",
    "blt a0, a1, loop-8",
    "bltu t1, t2, loop",
    "nop",
    "nop # idle",
    "mv a0, t1",
    "j loop",
    "j 64",
    "j loop+4",
    "li t0, buf+4",
    "li t0, buf-8",
    "li a0, 0x80000000",
    "li t0, -1",
    "halt",
    "halt # done",
    "ssr_enable",
    "ssr_disable",
    "ssr_cfg_write 0, base, t0",
    "ssr_cfg_write 1, stride0, 264",
    "ssr_cfg_write 2, bound3, buf+8",
    "ssr_cfg_write\t0,dir,1",
    "ssr_cfg_read a0, 2, width",
    "frep t0, 4",
    "dm_src t0",
    "dm_dst t1",
    "dm_copy t2",
    "dm_poll t3",
    "fld ft0, 8(t0)",
    "flw ft0, 4(a0)",
    "fsd ft1, -8(a0)",
    "fsw ft1, 8(a0)",
    "fmadd.d fa0, fa1, fa2, fa3",
    "fmsub.d f0, f1, f2, f31",
    "fmadd.s fa0, fa1, fa2, fa3",
    "fmsub.s ft8, ft9, ft10, ft11",
    "fadd.d fs0, fs1, fs2",
    "fsub.d fs0, fs1, fs2",
    "fmul.d fs0, fs1, fs2",
    "fadd.s fs0, fs1, fs2",
    "fsub.s fs0, fs1, fs2",
    "fmul.s fs0, fs1, fs2",
    "fmv.d ft2, ft3",
    "fmv.d.x ft3, zero",
]
# malformed statements whose exception type and message are frozen
DECODE_ERRORS = [
    "",
    "  # only a comment",
    "FLD ft0, 0(t0)",
    "halt\tt0",
    "addi t0 t1, 3",
    "addi t0,, 3",
    "fld ft0, 8 (t0)",
    "fld ft0, 8(t0 )",
    "lw t0, (t1)",
    "lw t0, 4(t1",
    "lw t0, -(t1)",
    "lw t0, \u0663(t1)",
    "sw t0, 4+4(t1)",
    "fld ft0, 4(t1)(t2)",
    "lw t0, 4(ft1)",
    "lw t0, x1(t1)",
    "fld ft0, 0x(t0)",
    "li t0, nowhere",
    "li t0, t1",
    "j loop+",
    "frep t0, 0",
    "slli t0, t0, -1",
    "ssr_cfg_write 0, nosuch, 1",
    "ssr_cfg_write 0, base, ft0",
]


# an assembly source in the whitespace, comment and label styles the corpus
# does not use; its assembled listing is frozen
LAYOUT_SOURCE = (
    "# header comment\r\n"
    "\t.global main\n"
    "\n"
    "skip:\n"
    "main:\tli t0, buf   # pointer\n"
    "  \t\n"
    "loop: lw t1, 0(t0)\n"
    "\tlw\tt2,4(t0)\n"
    "  lw t1, 0(t0)  \n"
    "end_:  # label and comment only\n"
    "\tbne t1, t2, loop#tight\n"
    "\tj\tend_\n"
    "  .data\n"
    "buf:\t.word 7\n"
    "\t.word loop+4 # symbolic\n"
    "pad: .space 3\n"
    "val:  .double -1.5\n"
    "\t.text\n"
    "tail: halt\n")


def listing(prog):
    """Every instruction's `repr` by address, the data segments, the labels
    in definition order and the entry point of an assembled program."""
    lines = [f"{a:#x} {prog.instructions[a]!r}" for a in sorted(prog.instructions)]
    lines += [f"data {a:#x} {blob.hex()}" for a, blob in prog.data_segments]
    lines += [f"label {name} {a:#x}" for name, a in prog.labels.items()]
    lines.append(f"entry {prog.entry:#x}")
    return lines


def decoded(stmt):
    """The `repr` of a statement's Instruction, or its error's type and
    message."""
    try:
        return repr(decode(stmt, DECODE_LABELS))
    except SimError as e:
        return f"{type(e).__name__}: {e}"


def _sha256(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def run_program(source, cores, trace=False):
    """The simulator and the RunResult of one hand-written program."""
    sim = ClusterSim()
    sim.load_program(assemble(source), active_cores=cores)
    return sim, sim.run(trace=trace)


def run_case(case, trace=False):
    """The RunResult of one golden case and its number of active cores."""
    if case in HAND_WRITTEN:
        source, cores = HAND_WRITTEN[case][:2]
        return run_program(source, cores, trace)[1], cores
    kernel, overrides = CASES[case]
    inst = kernels.build(kernel)
    _, result = kernels.run_kernel(inst, **overrides, trace=trace)
    return result, inst.active_cores


@functools.cache
def untraced_run(case):
    """run_case(case), once per session: the digests and the tests of the
    paths the cases reach share it."""
    return run_case(case)


# how read_trace counts an int-pipe row that retires "<pc> <mnemonic>", and
# an FP-pipe row that issues an op or makes a capture pass
RETIRE, ISSUE = "<pc> <mnemonic>", "issue"


def read_trace(trace, cores):
    """The mnemonics a trace shows retired by an int pipe and those it
    shows issued by an FPU, capture passes aside; and per active core, how
    many of its rows show each int-pipe event and each FP-pipe event."""
    retired, issued = set(), set()
    events = [(Counter(), Counter()) for _ in range(cores)]
    for row in trace:
        _, core, int_ev, fp_ev = row.split(" | ")
        int_n, fp_n = events[int(core[len("core"):])]
        int_ev = int_ev.split()
        if len(int_ev) == 3:                # int-pipe: <pc> <mnemonic>
            retired.add(int_ev[2])
            int_n[RETIRE] += 1
        else:
            int_n[int_ev[1]] += 1
        fp_ev = fp_ev.split()[1]
        if fp_ev == "-" or fp_ev.startswith("stall:"):
            fp_n[fp_ev] += 1
        else:
            fp_n[ISSUE] += 1
            if fp_ev != "capture":
                issued.add(fp_ev)
    return retired, issued, events


@functools.cache
def traced_run(case):
    """The stats digest and trace digest of a traced run of one golden
    case, the ops it ran, its rows' events per active core and those
    cores' CoreStats, once per session."""
    result, cores = run_case(case, True)
    retired, issued, events = read_trace(result.trace, cores)
    return (_sha256(stats_lines(result, cores)), _sha256(result.trace),
            (retired, issued), events, result.core_stats[:cores])


def digests(case):
    """Stats digests of an untraced and a traced run, and the trace digest."""
    stats_traced, trace = traced_run(case)[:2]
    return {"stats": _sha256(stats_lines(*untraced_run(case))),
            "stats_traced": stats_traced, "trace": trace}


def program_digest(case):
    """Digest of the `repr` of every instruction by address, the data
    segments, the labels in definition order and the entry point."""
    kernel, n = PROGRAMS[case]
    return _sha256(listing(kernels.build(kernel, n=n).program))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "case", ALL_CASES)
def test_golden_digests(golden, case):
    got = digests(case)
    want = golden[case]
    assert got["stats"] == want["stats"], "stats moved"
    assert got["stats_traced"] == want["stats"], "tracing changed the stats"
    assert got["trace"] == want["trace"], "trace text moved"


@pytest.mark.parametrize("case", sorted(STALL_PROGRAMS))
def test_stall_program_reaches_its_path(case):
    """Each stall program still reaches the stall it guards, and its stall
    counters close as `test_stat_closure` requires of the kernels."""
    result, cores = untraced_run(case)
    counter = STALL_PROGRAMS[case][2]
    assert sum(getattr(s, counter) for s in result.core_stats) > 0
    for s in result.core_stats[:cores]:
        assert s.fetched + s.int_stalls() == s.cycles_at_halt
        assert s.fp_slots() == s.cycles_at_halt


# trace event -> the counter of its rows: of an int pipe that stalls, and of
# an FPU that stalls or idles
INT_EVENTS = {"stall:bank": "stall_bank_conflict",
              "stall:queue_full": "stall_queue_full",
              "stall:frep_wait": "stall_frep_wait",
              "stall:drain": "stall_drain",
              "stall:icache": "stall_icache",
              "stall:mem": "stall_mem",
              "stall:dma_full": "stall_dma_full"}
FP_EVENTS = {"-": "fp_idle", "stall:hazard": "fp_stall_hazard",
             "stall:stream": "fp_stall_stream", "stall:bank": "fp_stall_bank"}


@pytest.mark.parametrize("case", ALL_CASES)
def test_trace_events_count_the_counters(case):
    """A core's trace rows count its counters: the retire rows `fetched`,
    each int stall event its counter, and on the FP side the idle and stall
    events theirs and every other event `fp_executed`. int_replay_overlap
    is not shown by a row alone."""
    events, stats = traced_run(case)[3:]
    for (int_n, fp_n), s in zip(events, stats):
        want_int = Counter({RETIRE: s.fetched, **{
            ev: getattr(s, name) for ev, name in INT_EVENTS.items()}})
        want_fp = Counter({ISSUE: s.fp_executed, **{
            ev: getattr(s, name) for ev, name in FP_EVENTS.items()}})
        assert +int_n == +want_int
        assert +fp_n == +want_fp


def test_every_stall_counter_is_reached():
    """Every int stall and FP slot counter counts in at least one golden
    case, so the digests guard each stall path."""
    counters = {*INT_STALLS, *FP_SLOTS}
    assert len(counters) == 12
    reached = set()
    for case in ALL_CASES:
        result, cores = untraced_run(case)
        reached.update(c for c in counters
                       for s in result.core_stats[:cores] if getattr(s, c))
    assert sorted(counters - reached) == []


def test_every_op_is_run():
    """Every op of the table is retired by an int pipe or, for an FP op,
    issued by an FPU in at least one golden case, so the digests guard its
    record."""
    retired, issued = set(), set()
    for case in ALL_CASES:
        r, i = traced_run(case)[2]
        retired |= r
        issued |= i
    assert sorted(mn for mn, op in OPS.items() if mn not in (
        issued if op.domain is Domain.FP else retired)) == []


@pytest.mark.parametrize("case", sorted(DMA_PROGRAMS))
def test_dma_program_reaches_its_path(case):
    """Each DMA program copies its non-zero sources exactly, its engine
    needs more busy cycles than its copies have windows, and where cores
    load beside the engine they lose bank grants too."""
    source, cores, copies, counter = DMA_PROGRAMS[case]
    sim, result = run_program(source, cores)
    windows = sum(-(-n // DMA_BUS_WIDTH) for _, _, n in copies)
    assert result.dma_descriptors == len(copies)
    assert result.dma_bytes == sum(n for _, _, n in copies)
    assert result.dma_busy_cycles > windows
    for src, dst, n in copies:
        data = sim.mem.read(src, n)
        assert all(data)
        assert sim.mem.read(dst, n) == data
    if counter is not None:
        assert sum(getattr(s, counter) for s in result.core_stats) > 0
    for s in result.core_stats[:cores]:
        assert s.fetched + s.int_stalls() == s.cycles_at_halt
        assert s.fp_slots() == s.cycles_at_halt


@pytest.mark.parametrize("case", sorted(DISPATCH_PROGRAMS))
def test_dispatch_program_result(case):
    """Each dispatch program leaves the words that its latched operands,
    its capture pass and its stream split give, and its counters close."""
    source, cores, words = DISPATCH_PROGRAMS[case]
    sim, result = run_program(source, cores)
    got = {a: int.from_bytes(sim.mem.read(a, 8), "little") for a in words}
    assert got == words
    for s in result.core_stats[:cores]:
        assert s.fetched + s.int_stalls() == s.cycles_at_halt
        assert s.fp_slots() == s.cycles_at_halt


@pytest.mark.parametrize("case", sorted(OP_PROGRAMS))
def test_op_program_result(case):
    """Each op program leaves the values its ops compute, and its counters
    close."""
    source, cores, words = OP_PROGRAMS[case]
    sim, result = run_program(source, cores)
    got = {a: (n, int.from_bytes(sim.mem.read(a, n), "little"))
           for a, (n, _) in words.items()}
    assert got == words
    for s in result.core_stats[:cores]:
        assert s.fetched + s.int_stalls() == s.cycles_at_halt
        assert s.fp_slots() == s.cycles_at_halt


@pytest.mark.parametrize("case", sorted(PROGRAMS))
def test_golden_programs(case):
    want = json.loads(GOLDEN_PROGRAMS.read_text())[case]
    assert program_digest(case) == want, "assembled program moved"


def test_golden_decode():
    want = json.loads(GOLDEN_DECODE.read_text())
    got = {stmt: decoded(stmt) for stmt in DECODE_STATEMENTS}
    assert got == want["decode"], "decoded fields moved"


def test_golden_decode_errors():
    want = json.loads(GOLDEN_DECODE.read_text())
    got = {stmt: decoded(stmt) for stmt in DECODE_ERRORS}
    assert all(not v.startswith("Instruction(") for v in got.values())
    assert got == want["errors"], "error messages moved"


def test_golden_layout():
    want = json.loads(GOLDEN_DECODE.read_text())["layout"]
    assert listing(assemble(LAYOUT_SOURCE)) == want, "assembled listing moved"


if __name__ == "__main__":
    frozen = {}
    for case in ALL_CASES:
        d = digests(case)
        if d["stats_traced"] != d["stats"]:
            raise SystemExit(f"{case}: tracing changed the stats")
        frozen[case] = {"stats": d["stats"], "trace": d["trace"]}
    GOLDEN.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")
    programs = {case: program_digest(case) for case in sorted(PROGRAMS)}
    GOLDEN_PROGRAMS.write_text(json.dumps(programs, indent=2, sort_keys=True) + "\n")
    GOLDEN_DECODE.write_text(json.dumps(
        {"decode": {stmt: decoded(stmt) for stmt in DECODE_STATEMENTS},
         "errors": {stmt: decoded(stmt) for stmt in DECODE_ERRORS},
         "layout": listing(assemble(LAYOUT_SOURCE))},
        indent=2, ensure_ascii=False) + "\n")
    print(f"wrote {GOLDEN}, {GOLDEN_PROGRAMS} and {GOLDEN_DECODE}")
