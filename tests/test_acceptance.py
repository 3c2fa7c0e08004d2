"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Each test prints `criterion N: PASS|FAIL - detail` and enforces its runtime
budget. Expected figures are frozen from hand derivations: the 16-instruction
replay loop costs 204 FPU slots per outer iteration (12 capture tokens + 192
replayed FMAs + 12 writebacks overlap), the operating points follow
perf = cores x 2 flop x frequency, and the memory-side numbers follow from
64 bytes per DMA cycle and the per-bank round-robin arbitration law.
"""

import struct
import time

import pytest

from streamsim import cli, kernels, system
from streamsim.asm import DATA_BASE, assemble
from streamsim.cluster import ClusterSim, stats_lines


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _budget(num, t0, limit):
    dt = time.perf_counter() - t0
    assert dt < limit, f"criterion {num} took {dt:.1f}s, budget {limit}s"


def _matvec_windows():
    inst = kernels.build("matvec48_ssr_frep")
    _, res = kernels.run_kernel(inst)
    # the first outer iteration overlaps the stream-setup prologue and is
    # not steady state; windows between later loop-end retires are
    hits = res.watch_hits[1:]
    deltas = [(b["cycle"] - a["cycle"], b["fetched"] - a["fetched"],
               b["fp_executed"] - a["fp_executed"],
               b["fma_executed"] - a["fma_executed"])
              for a, b in zip(hits, hits[1:])]
    return res, deltas


def test_criterion_1_instruction_expansion():
    t0 = time.perf_counter()
    res, deltas = _matvec_windows()
    ok = len(deltas) >= 2 and all(d == (204, 16, 204, 192) for d in deltas)
    _report(1, ok, f"{len(deltas)} steady windows, each fetches 16 and "
                   f"executes 204 FPU ops (192 FMA); windows={set(deltas)}")
    _budget(1, t0, 1.0)


def test_criterion_2_utilization():
    t0 = time.perf_counter()
    _, deltas = _matvec_windows()
    fma_rate = min(d[3] / d[0] for d in deltas)
    fetch_rate = max(d[1] / d[0] for d in deltas)
    ok = 0.92 <= fma_rate <= 0.95 and fetch_rate <= 16 / 204 * 1.05
    _report(2, ok, f"steady-state FMA/cycle {fma_rate:.4f} in [0.92, 0.95], "
                   f"fetch/cycle {fetch_rate:.4f} <= 16/204 + 5%")
    _budget(2, t0, 1.0)


def test_criterion_3_baseline_ceiling():
    t0 = time.perf_counter()
    base_utils, frep_utils = {}, {}
    for n in (64, 256, 1024):
        _, res = kernels.run_kernel(kernels.build("dot_baseline", n=n))
        base_utils[n] = res.stats.utilization
    for n in (256, 512, 1024):
        _, res = kernels.run_kernel(kernels.build("dot_ssr_frep", n=n))
        frep_utils[n] = res.stats.utilization
    ok = (all(u <= 0.334 for u in base_utils.values())
          and all(u >= 0.90 for u in frep_utils.values()))
    _report(3, ok, "dot_baseline util "
            + ", ".join(f"n={n}:{u:.4f}" for n, u in base_utils.items())
            + " all <= 0.334; dot_ssr_frep "
            + ", ".join(f"n={n}:{u:.4f}" for n, u in frep_utils.items())
            + " all >= 0.90")
    _budget(3, t0, 5.0)


def test_criterion_4_pseudo_dual_issue():
    t0 = time.perf_counter()
    _, plain = kernels.run_kernel(kernels.build("matvec48_ssr_frep"))
    _, filled = kernels.run_kernel(
        kernels.build("matvec48_ssr_frep", filler_ints=150))
    windows = 48 // 4
    extra_ints = filled.stats.int_retired - plain.stats.int_retired
    growth = (filled.cycles - plain.cycles) / plain.cycles
    ok = (extra_ints == 150 * windows
          and filled.stats.fp_executed == plain.stats.fp_executed
          and growth <= 0.02)
    _report(4, ok, f"150 filler ints per replay window retired "
                   f"({extra_ints} total), cycle growth {100 * growth:.2f}% "
                   f"<= 2%")
    _budget(4, t0, 1.0)


def test_criterion_5_bank_conflicts():
    t0 = time.perf_counter()
    ratios, conflict_frac = [], []
    for n in (64, 96, 128):
        _, free = kernels.run_kernel(kernels.build("tcdm_unit_stride", n=n))
        _, jam = kernels.run_kernel(kernels.build("tcdm_same_bank", n=n))
        worst = max(s.stall_bank_conflict / s.cycles_at_halt
                    for s in free.core_stats)
        conflict_frac.append(worst)
        ratios.append(jam.cycles / free.cycles)
        assert all(s.stall_bank_conflict > 0 for s in jam.core_stats)
    ok = max(conflict_frac) < 0.02 and min(ratios) >= 7.0
    _report(5, ok, f"unit-stride conflict fraction <= {max(conflict_frac):.4f}"
                   f" < 2%; same-bank slowdown {min(ratios):.2f}x >= 7x "
                   f"over n in (64, 96, 128)")
    _budget(5, t0, 5.0)


def test_criterion_6_roofline_properties():
    t0 = time.perf_counter()
    model = system.load_system()
    point = model.point("high_performance")
    roof = system.cluster_roofline(point, model.tree)  # 8 cores, 32 GB/s
    over = []
    for name in kernels.names():
        inst = kernels.build(name)
        _, res = kernels.run_kernel(inst)
        measured = res.flops_per_cycle() * point.freq
        if inst.flops > 0:
            w = system.WorkloadDescriptor(name, float(inst.flops),
                                          float(inst.traffic_bytes))
            if measured > system.attainable_performance(w, roof):
                over.append(name)
        if name == "matmul_ssr_frep":
            mm_frac = res.flops_per_cycle() / 16.0  # 8 cores x 2 flop/cycle
        if name == "dma_stream":
            dma_frac = (res.dma_bytes / res.cycles) / 64.0
    ok = not over and mm_frac >= 0.80 and dma_frac >= 0.90
    _report(6, ok, f"no kernel above the roofline ({over or 'none'}); "
                   f"matmul at {100 * mm_frac:.1f}% of cluster peak >= 80%; "
                   f"DMA stream at {100 * dma_frac:.1f}% of uplink >= 90%")
    _budget(6, t0, 30.0)


def test_criterion_7_scaling_arithmetic(capsys):
    t0 = time.perf_counter()
    assert cli.main(["points", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
    hp24 = float(rows["high_performance"][3])
    hp4096 = float(rows["high_performance"][4])
    me4096 = float(rows["max_efficiency"][4])
    me_eff = float(rows["max_efficiency"][5])
    me_watts = float(rows["max_efficiency"][6])
    ok = (hp24 == 54.0e9 and hp4096 == 9.216e12
          and abs(me4096 - 4.3e12) <= 0.22e12
          and me_eff == 188.0
          and abs(me_watts - 0.133) <= 0.05 * 0.133)
    _report(7, ok, f"24-core {hp24 / 1e9:.0f} Gflop/s, 4096-core "
                   f"{hp4096 / 1e12:.3f} Tflop/s, efficiency point "
                   f"{me4096 / 1e12:.3f} Tflop/s (4.3 +/- 0.22), "
                   f"{me_eff:.0f} Gflop/s/W, {me_watts:.3f} W")
    _budget(7, t0, 1.0)


# --------------------------------------------------- criterion 8 machinery

_FREP_OPS = ("fmadd.d", "fmsub.d", "fadd.d", "fsub.d", "fmul.d", "fmv.d",
             "fld", "fsd")


def _gen_body(rng, k, buf):
    lines = []
    for _ in range(k):
        op = rng.choice(_FREP_OPS)
        r = lambda: f"ft{rng.randint(3, 7)}"
        slot = buf + 8 * rng.randint(0, 7)
        if op in ("fmadd.d", "fmsub.d"):
            lines.append(f"  {op} {r()}, {r()}, {r()}, {r()}")
        elif op in ("fadd.d", "fsub.d", "fmul.d"):
            lines.append(f"  {op} {r()}, {r()}, {r()}")
        elif op == "fmv.d":
            lines.append(f"  {op} {r()}, {r()}")
        elif op == "fld":
            lines.append(f"  fld {r()}, {slot}(zero)")
        else:
            lines.append(f"  fsd {r()}, {slot}(zero)")
    return lines


def _run_frep_variant(body, count, unroll, init, scratch):
    buf, init_a, out = DATA_BASE, DATA_BASE + 128, DATA_BASE + 256
    pro = [f"  fld ft{3 + i}, {init_a + 8 * i}(zero)" for i in range(5)]
    if unroll:
        mid = body * count
    else:
        mid = [f"  li t0, {count}", f"  frep t0, {len(body)}"] + body
    epi = [f"  fsd ft{3 + i}, {out + 8 * i}(zero)" for i in range(5)]
    prog = assemble("\n".join(pro + mid + epi + ["  halt"]))
    sim = ClusterSim()
    sim.load_program(prog, active_cores=1)
    sim.load_image([(buf, struct.pack("<8d", *scratch)),
                    (init_a, struct.pack("<5d", *init))])
    sim.run(max_cycles=200_000)
    return sim.mem.read(buf, 64) + sim.mem.read(out, 40)


def test_criterion_8_correctness_oracles():
    import random
    t0 = time.perf_counter()

    # bit-exact corpus checks across random data seeds; the fixed-geometry
    # 8-core matmul gets a smaller slice of the budget
    plan = [("dot_baseline", 8, 100), ("dot_ssr", 8, 100),
            ("dot_ssr_frep", 8, 100), ("axpy_ssr", 8, 100),
            ("matvec48_baseline", 8, 100), ("matvec48_ssr_frep", 8, 100),
            ("dma_stream", 4096, 100), ("matmul_ssr_frep", None, 12)]
    runs = 0
    for name, n, seeds in plan:
        for seed in range(seeds):
            inst = (kernels.build(name, n=n, seed=seed) if n
                    else kernels.build(name, seed=seed))
            sim, _ = kernels.run_kernel(inst)
            inst.check(sim)
            runs += 1

    # replay equivalence: frep + body behaves exactly like the explicit unroll
    rng = random.Random(2026)
    programs = 0
    for _ in range(1000):
        k, c = rng.randint(1, 4), rng.randint(1, 6)
        body = _gen_body(rng, k, DATA_BASE)
        init = [rng.uniform(-2.0, 2.0) for _ in range(5)]
        scratch = [rng.uniform(-2.0, 2.0) for _ in range(8)]
        a = _run_frep_variant(body, c, False, init, scratch)
        b = _run_frep_variant(body, c, True, init, scratch)
        assert a == b, f"replay diverged from unroll for body={body} count={c}"
        programs += 1

    ok = runs >= 100 and programs >= 1000
    _report(8, ok, f"{runs} seeded kernel runs bit-exact against scalar "
                   f"references; {programs} random frep programs match "
                   f"their explicit unrolls byte for byte")
    _budget(8, t0, 60.0)


def test_criterion_9_determinism():
    t0 = time.perf_counter()
    cases = [("matvec48_ssr_frep", None), ("dot_baseline", 256),
             ("dot_ssr_frep", 256), ("matmul_ssr_frep", None),
             ("dma_stream", 8192), ("tcdm_unit_stride", 64),
             ("tcdm_same_bank", 64)]
    ok = True
    for name, n in cases:
        outs = []
        for _ in range(2):
            inst = kernels.build(name, n=n) if n else kernels.build(name)
            _, res = kernels.run_kernel(inst, trace=True)
            outs.append(("\n".join(stats_lines(res)).encode(),
                         "\n".join(res.trace).encode()))
        ok = ok and outs[0] == outs[1]
    _report(9, ok, f"two runs of {len(cases)} acceptance kernels produced "
                   f"byte-identical stats and traces")
    _budget(9, t0, 10.0)
