"""Kernel corpus: reference oracles, layouts, builders, and run checks."""

from fractions import Fraction
import random

import pytest

from streamsim import kernels
from streamsim.asm import DATA_BASE
from streamsim.cluster import BANK_WIDTH, L2_BASE, TCDM_BANKS, TCDM_BASE
from streamsim.kernels import (axpy_reference, dot_reference, matmul_reference,
                               matvec_reference)

ALL_NAMES = ["axpy_ssr", "dma_stream", "dot_baseline", "dot_ssr",
             "dot_ssr_frep", "matmul_ssr_frep", "matvec48_baseline",
             "matvec48_ssr_frep", "tcdm_same_bank", "tcdm_unit_stride"]


# ------------------------------------------------------------- references

def test_dot_reference_exact_case():
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    y = [10.0, 100.0, 0.5, 2.0, 4.0, 0.25]
    # acc0=10+20=30, acc1=200+1.5=201.5, acc2=1.5, acc3=8, tree: 231.5+9.5
    assert dot_reference(x, y) == 241.0


def test_dot_reference_integer_property():
    # small integers keep every product and partial sum exactly representable,
    # so the rotated-accumulator fold must equal exact rational arithmetic
    rng = random.Random(11)
    for _ in range(100):
        n = 4 * rng.randint(1, 4)
        x = [float(rng.randint(-8, 8)) for _ in range(n)]
        y = [float(rng.randint(-8, 8)) for _ in range(n)]
        exact = sum(Fraction(a) * Fraction(b) for a, b in zip(x, y))
        assert dot_reference(x, y) == float(exact)


def test_axpy_reference():
    assert axpy_reference(3.0, [1.0, 2.0], [10.0, 20.0]) == [13.0, 26.0]
    assert axpy_reference(2.0, [], []) == []


def test_matvec_reference():
    a = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert matvec_reference(a, [7.0, 8.0, 9.0]) == [50.0, 122.0]


def test_matmul_reference():
    a = [[1.0, 2.0], [3.0, 4.0]]
    b = [[5.0, 6.0], [7.0, 8.0]]
    assert matmul_reference(a, b) == [[19.0, 22.0], [43.0, 50.0]]


def test_matmul_reference_integer_property():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        a = [[float(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        b = [[float(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        c = matmul_reference(a, b)
        for r in range(n):
            for j in range(n):
                exact = sum(Fraction(a[r][k]) * Fraction(b[k][j])
                            for k in range(n))
                assert c[r][j] == float(exact)


# ------------------------------------------------------------- registry

def test_names_and_build():
    assert kernels.names() == ALL_NAMES
    with pytest.raises(KeyError):
        kernels.build("nope")
    for name in ALL_NAMES:
        inst = kernels.build(name)
        assert inst.name == name
        assert inst.program.instructions
        assert inst.active_cores >= 1


def test_build_defaults_come_from_the_registry():
    for name in ALL_NAMES:
        assert kernels.build(name).n == kernels.KERNELS[name][2]


def test_builder_rejects():
    for bad in [dict(name="dot_baseline", n=3), dict(name="dot_baseline", n=0),
                dict(name="dot_ssr", n=6),
                dict(name="dot_ssr_frep", n=4), dict(name="axpy_ssr", n=0),
                dict(name="matmul_ssr_frep", n=16),
                dict(name="dma_stream", n=100),
                dict(name="matvec48_ssr_frep", n=6),
                dict(name="dot_baseline", n=8192),
                dict(name="tcdm_same_bank", n=457),
                dict(name="tcdm_unit_stride", n=2049),
                dict(name="tcdm_same_bank", n=0),
                dict(name="tcdm_unit_stride", n=-3),
                # a negative count would build the program of filler_ints=0
                dict(name="matvec48_ssr_frep", filler_ints=-3)]:
        with pytest.raises(ValueError):
            kernels.build(**bad)


# ------------------------------------------------------------- layouts

def bank_of(addr):
    """The TCDM bank of a scratchpad address."""
    return (addr - TCDM_BASE) // BANK_WIDTH % TCDM_BANKS


def test_dot_layout_offsets_streams():
    # y starts one bank after x so two lockstep unit-stride readers never meet
    inst = kernels.build("dot_baseline", n=256)
    xa, ya = inst.data[0][0], inst.data[1][0]
    assert bank_of(xa) == 0
    assert bank_of(ya) == (256 + 1) % 32
    assert bank_of(ya) != bank_of(xa)


def test_axpy_layout_separates_read_and_write():
    inst = kernels.build("axpy_ssr", n=256)
    xa, ya = inst.data[0][0], inst.data[1][0]
    assert bank_of(xa) == 0
    assert bank_of(ya) == 16


def test_matmul_base_banks_disjoint():
    banks = set(kernels._MM_A_BANKS) | set(kernels._MM_B_BANKS)
    assert len(banks) == 16
    inst = kernels.build("matmul_ssr_frep")
    placed = {bank_of(addr) for addr, _ in inst.data}
    assert placed == banks  # every blob starts on its reserved bank


# ------------------------------------------------------------- execution

@pytest.mark.parametrize("name,n", [("dot_baseline", 16), ("dot_ssr", 16),
                                    ("dot_ssr_frep", 16), ("axpy_ssr", 16),
                                    ("matvec48_baseline", 8),
                                    ("matvec48_ssr_frep", 8),
                                    ("dma_stream", 8192)])
def test_kernels_bit_exact_small(name, n):
    for seed in (0, 1, 2):
        inst = kernels.build(name, n=n, seed=seed)
        sim, _ = kernels.run_kernel(inst)
        inst.check(sim)


def test_matmul_runs_stall_free():
    inst = kernels.build("matmul_ssr_frep")
    sim, res = kernels.run_kernel(inst)
    inst.check(sim)
    for s in res.core_stats:
        assert s.fp_stall_stream == 0
        assert s.fp_stall_bank == 0
        assert s.stall_bank_conflict == 0
        assert s.utilization > 0.9
    # engineered lockstep: every core finishes on the same cycle
    assert len({s.cycles_at_halt for s in res.core_stats}) == 1


def test_tcdm_probes_contrast():
    inst = kernels.build("tcdm_unit_stride", n=32)
    _, free = kernels.run_kernel(inst)
    assert all(s.stall_bank_conflict == 0 for s in free.core_stats)
    inst = kernels.build("tcdm_same_bank", n=32)
    _, jam = kernels.run_kernel(inst)
    assert all(s.stall_bank_conflict > 0 for s in jam.core_stats)
    assert jam.cycles > 4 * free.cycles


def test_frozen_cycle_counts():
    # pinned from verified runs; a change here means timing semantics moved
    inst = kernels.build("matvec48_ssr_frep")
    _, res = kernels.run_kernel(inst)
    assert res.cycles == 2473
    inst = kernels.build("dot_ssr_frep", n=256)
    _, res = kernels.run_kernel(inst)
    assert res.cycles == 283


# every kernel at its default n (None) and at one other; matmul_ssr_frep's
# layout takes n=32 alone
FLOP_SIZES = [(name, None) for name in ALL_NAMES] + [
    ("dot_baseline", 16), ("dot_ssr", 16), ("dot_ssr_frep", 16),
    ("axpy_ssr", 16), ("matvec48_baseline", 8), ("matvec48_ssr_frep", 8),
    ("dma_stream", 8192), ("tcdm_same_bank", 32), ("tcdm_unit_stride", 32)]


@pytest.mark.parametrize("name,n", FLOP_SIZES)
def test_flops_match_simulation(name, n):
    # the roofline places a kernel by its `flops`: the FPUs must count them
    inst = kernels.build(name, n=n)
    _, res = kernels.run_kernel(inst)
    assert res.total_flops() == inst.flops


def test_check_detects_corruption():
    inst = kernels.build("dot_baseline", n=16)
    sim, _ = kernels.run_kernel(inst)
    ra = kernels._dot_layout(16)[2]
    sim.mem.write(ra, bytes(8))
    with pytest.raises(AssertionError):
        inst.check(sim)


def test_filler_ints_plumbing():
    inst = kernels.build("matvec48_ssr_frep", filler_ints=3)
    _, res = kernels.run_kernel(inst)
    base = kernels.build("matvec48_ssr_frep")
    _, res0 = kernels.run_kernel(base)
    # 3 extra integer adds per outer iteration (12 iterations at n=48)
    assert res.stats.int_retired == res0.stats.int_retired + 3 * 12
    assert res.stats.fma_executed == res0.stats.fma_executed


def test_builders_take_no_unused_options():
    # each matvec variant has its own builder, and dma_stream's chunk is fixed
    with pytest.raises(TypeError):
        kernels.build("matvec48_ssr_frep", streams=False)
    with pytest.raises(TypeError):
        kernels.build("dma_stream", chunk=1024)


@pytest.mark.parametrize("seed", [0, 12345])
@pytest.mark.parametrize("n", [4096, 131072])
def test_dma_payload_matches_bytewise_draw(seed, n):
    # the payload as it was once drawn, a byte at a time
    rng = random.Random(seed)
    want = bytes(rng.getrandbits(8) for _ in range(n))
    assert kernels.build("dma_stream", n=n, seed=seed).data == [(L2_BASE, want)]


def test_largest_n_builds():
    # one n more is refused (test_builder_rejects): the last core's last lw,
    # or the dot product's result, ends at the scratchpad end or before it
    for name, n in (("tcdm_same_bank", 456), ("tcdm_unit_stride", 2048),
                    ("dot_baseline", 8188)):
        assert kernels.build(name, n=n).n == n


def test_watch_label_resolves():
    inst = kernels.build("matvec48_ssr_frep")
    pcs = inst.watch_pcs()
    assert pcs == [inst.program.labels["loop_end"]]
    assert kernels.build("dot_baseline", n=16).watch_pcs() == []


def test_kernel_instances_own_their_data():
    prog = kernels.assemble("halt")
    a = kernels.KernelInstance("a", prog)
    b = kernels.KernelInstance("b", prog)
    assert (a.data, a.active_cores, a.check, a.entries) == ([], 1, None, None)
    a.data.append((DATA_BASE, b"\x01"))
    assert b.data == []
