"""Cluster-level behavior: arbitration, DMA, caches, stat closure, faults.

Cycle counts asserted here were derived by hand from the pipeline rules
(one integer retire-or-stall per cycle, one FPU slot per cycle, TCDM loads
usable next cycle, L2 at 10 extra cycles) before running the simulator.
"""

import random
import struct

import pytest

from streamsim.asm import DATA_BASE, assemble
from streamsim.cluster import (DMA_QUEUE_DEPTH, DMA_RID, L2_BASE, L2_SIZE,
                               N_CORES, N_REQUESTERS, TCDM_BASE, TCDM_SIZE,
                               ClusterSim, DmaEngine, Memory,
                               Tcdm, stats_lines)
from streamsim.errors import (CycleLimitExceeded, InvalidConfig,
                              InvalidDescriptor, MisalignedAccess,
                              NonFpInCapture, OutOfRangeAccess,
                              OverlappingTransfer, ReconfigWhileActive,
                              SimulationFault, StreamExhausted)
from streamsim.fp import f64_to_bits
from streamsim.isa import FREGS, SSR_FIELDS, XREGS
from streamsim import fp, kernels

N_REQ = N_REQUESTERS     # 8 cores x (int pipe + 3 streams) + DMA


def run_source(src, cores=1, cold_start_icache=False, max_cycles=20_000, **kw):
    sim = ClusterSim(cold_start_icache=cold_start_icache)
    sim.load_program(assemble(src), active_cores=cores)
    return sim, sim.run(max_cycles=max_cycles, **kw)


# ------------------------------------------------------------- arbitration

def request(requests, contested, bank, rid):
    """Ask bank for rid as the cluster's request sites do."""
    ids = requests.get(bank)
    if ids is None:
        requests[bank] = [rid]
    else:
        ids.append(rid)
        contested.add(bank)


def grant(t, reqs):
    """Arbitrate reqs, {bank: requester ids}, handed over as the request
    sites hand them; returns {bank: winner}. The grants are the request
    lists themselves, each still holding every requester."""
    requests = {}
    for bank, ids in reqs.items():
        for rid in ids:
            request(requests, t.contested, bank, rid)
    grants = t.arbitrate(requests)
    assert grants is requests and not t.contested
    for bank, ids in reqs.items():
        assert sorted(grants[bank]) == sorted(ids)
    return {bank: ids[0] for bank, ids in grants.items()}


def pointer(t, bank):
    """The round-robin pointer of bank: one past its last winner."""
    last = t.last.get(bank)
    return 0 if last is None else (last[0] + 1) % N_REQ


def reference_arbitrate(rr, n, requests):
    """The per-bank round-robin loop the arbiter ran before it granted in
    place, kept as the reference: requests {bank: collection of ids} ->
    {bank: winner}, stepping the pointer list rr."""
    grants = {}
    for bank, ids in requests.items():
        ptr = rr[bank]
        win, best = None, n
        for i in ids:
            d = (i - ptr) % n
            if d < best:
                win, best = i, d
        grants[bank] = win
        rr[bank] = (win + 1) % n
    return grants


def test_arbitrate_distinct_banks_all_granted():
    t = Tcdm()
    assert grant(t, {0: {5}, 1: {9}, 7: {2}, 31: {32}}) == {0: 5, 1: 9, 7: 2,
                                                           31: 32}
    assert [pointer(t, b) for b in (0, 1, 7, 31)] == [6, 10, 3, 0]


def test_arbitrate_same_bank_rotates():
    t = Tcdm()
    wins = [grant(t, {3: {4, 8, 12}})[3] for _ in range(6)]
    # pointer starts at 0: 4 wins, pointer 5 -> 8 wins, pointer 9 -> 12 ...
    assert wins == [4, 8, 12, 4, 8, 12]


def test_arbitrate_pointer_wraparound():
    t = Tcdm()
    t.last[0] = [29]                            # pointer 30
    assert grant(t, {0: {2, 31}})[0] == 31  # 31 is closer from 30 mod 33
    assert pointer(t, 0) == 32
    assert grant(t, {0: {2, 31}})[0] == 2


def test_arbitrate_fairness_and_legality():
    rng = random.Random(7)
    t = Tcdm()
    counts = {}
    for _ in range(400):
        reqs = {b: set(rng.sample(range(N_REQ), rng.randint(1, 5)))
                for b in rng.sample(range(32), 3)}
        grants = grant(t, reqs)
        for bank, win in grants.items():
            assert win in reqs[bank]
            assert pointer(t, bank) == (win + 1) % N_REQ
            counts[win] = counts.get(win, 0) + 1
    # persistent full contention on one bank serves every requester equally
    t2 = Tcdm()
    ids = {1, 6, 11, 16}
    wins = {i: 0 for i in ids}
    for _ in range(4 * 25):
        wins[grant(t2, {5: ids})[5]] += 1
    assert set(wins.values()) == {25}


def test_arbitrate_lists_match_sets():
    # the request sites hand arbitrate lists, each requester at most once
    # per bank; a repeated id is granted as the reference grants a set
    rng = random.Random(11)
    t, rr = Tcdm(), [0] * 32
    for _ in range(300):
        reqs = {b: rng.sample(range(N_REQ), rng.randint(1, 5))
                for b in rng.sample(range(32), 3)}
        dup = rng.choice(list(reqs))
        reqs[dup].append(reqs[dup][0])
        want = reference_arbitrate(rr, N_REQ,
                                   {b: set(ids) for b, ids in reqs.items()})
        assert grant(t, reqs) == want
        assert [pointer(t, b) for b in range(32)] == rr
    t = Tcdm()
    assert grant(t, {4: [N_REQ - 1, N_REQ - 1]}) == {4: N_REQ - 1}
    assert pointer(t, 4) == 0


def test_arbitrate_matches_reference():
    # cycles of mixed uncontested and contested banks, the DMA (id 32)
    # among the requesters, against the loop over every bank
    rng = random.Random(19)
    t, rr = Tcdm(), [0] * 32
    contested_banks = 0
    for _ in range(500):
        requests, order = {}, []
        for bank in rng.sample(range(32), rng.randint(1, 16)):
            k = rng.choice((1, 1, 1, 2, 3, 8))
            ids = rng.sample(range(N_REQ), k)
            if rng.random() < 0.2 and 32 not in ids:
                ids[-1] = 32
            order += [(bank, rid) for rid in ids]
        rng.shuffle(order)              # requests arrive site by site
        for bank, rid in order:
            request(requests, t.contested, bank, rid)
        contested_banks += len(t.contested)
        asked = {bank: list(ids) for bank, ids in requests.items()}
        want = reference_arbitrate(rr, N_REQ, asked)
        grants = t.arbitrate(requests)
        assert {bank: ids[0] for bank, ids in grants.items()} == want
        assert {b: sorted(ids) for b, ids in grants.items()} == \
            {b: sorted(ids) for b, ids in asked.items()}
        assert [pointer(t, b) for b in range(32)] == rr
    assert 500 < contested_banks


# ------------------------------------------------------------- memory

def test_l2_reads_zeros_where_unwritten():
    mem = Memory()
    assert mem.read(L2_BASE + 64, 8) == bytes(8)
    mem.write(L2_BASE + 8, b"\x01\x02")
    # a read across the written bytes, and past them, gives zeros there
    assert mem.read(L2_BASE + 8, 4) == b"\x01\x02\0\0"
    top = L2_BASE + L2_SIZE - 8
    mem.write(top, bytes(range(1, 9)))
    assert mem.read(top, 8) == bytes(range(1, 9))
    assert mem.read(top - 8, 8) == bytes(8)
    assert mem.read(L2_BASE + 16, 8) == bytes(8)
    with pytest.raises(OutOfRangeAccess):
        mem.read(top + 4, 8)
    with pytest.raises(OutOfRangeAccess):
        mem.write(L2_BASE + L2_SIZE, b"\0")


# ------------------------------------------------------------- DMA engine

def test_dma_flat_l2_to_tcdm():
    sim = ClusterSim()
    blob = bytes((i * 37) & 0xFF for i in range(4096))
    sim.mem.write(L2_BASE, blob)
    sim.dma.submit(L2_BASE, DATA_BASE, 4096)
    res = sim.run()
    # 64 bytes per busy cycle, sole requester: 4096/64 windows
    assert sim.dma.busy_cycles == 64
    assert res.cycles == 64
    assert res.dma_bytes == 4096
    assert res.dma_descriptors == 1
    assert sim.mem.read(DATA_BASE, 4096) == blob


@pytest.mark.parametrize("gap, banks, cycles", [
    # each source slice shares its bank with its own destination slice
    (256, range(8), 2),
    # source banks 0-7, destination banks 4-11: banks 4-7 are read by one
    # slice and written by another
    (288, range(12), 2),
    # source banks 0-7, destination banks 16-23: nothing shared
    (128, list(range(8)) + list(range(16, 24)), 1),
])
def test_dma_tcdm_copy_serves_one_access_per_bank(gap, banks, cycles):
    # the engine asks each bank once per cycle, and a granted bank serves
    # one access: a bank a slice reads serves that read first, and takes
    # the write on a later grant
    blob = bytes(range(1, 65))
    copy = (DATA_BASE, DATA_BASE + gap, 64)
    sim = ClusterSim()
    sim.dma.submit(*copy)
    requests = {}
    sim.dma.plan(requests, sim.tcdm.contested)
    assert requests == {b: [DMA_RID] for b in banks}
    assert not sim.tcdm.contested
    sim = ClusterSim()
    sim.mem.write(DATA_BASE, blob)
    sim.dma.submit(*copy)
    res = sim.run()
    assert sim.dma.busy_cycles == cycles
    assert res.dma_bytes == 64
    assert sim.mem.read(DATA_BASE + gap, 64) == blob


def test_dma_zero_length_completes_immediately():
    sim = ClusterSim()
    sim.dma.submit(L2_BASE, DATA_BASE, 0)
    res = sim.run()
    assert res.cycles == 0
    assert res.dma_descriptors == 1
    assert res.dma_bytes == 0


def test_dma_overlap_rejected():
    sim = ClusterSim()
    with pytest.raises(OverlappingTransfer):
        sim.dma.submit(DATA_BASE, DATA_BASE + 0x100, 512)
    with pytest.raises(OverlappingTransfer):
        sim.dma.submit(DATA_BASE + 0x100, DATA_BASE, 512)
    # ranges that only touch do not overlap
    sim.dma.submit(DATA_BASE, DATA_BASE + 512, 512)


def test_dma_bad_geometry_and_range():
    sim = ClusterSim()
    with pytest.raises(InvalidDescriptor):
        sim.dma.submit(src=L2_BASE, dst=DATA_BASE, length=-1)
    with pytest.raises(OutOfRangeAccess):
        sim.dma.submit(0x4000_0000, DATA_BASE, 64)


def test_dma_queue_depth():
    eng = DmaEngine(Memory())
    for i in range(DMA_QUEUE_DEPTH):
        eng.submit(L2_BASE + 64 * i, DATA_BASE + 64 * i, 64)
    with pytest.raises(InvalidDescriptor, match="queue full"):
        eng.submit(L2_BASE + 4096, DATA_BASE + 4096, 64)
    assert len(eng.queue) == DMA_QUEUE_DEPTH


def test_dma_submit_refusal_order():
    """With the queue full, submit still completes an empty descriptor and
    refuses a bad one for its own fault; only a valid one meets the full
    queue."""
    sim = ClusterSim()
    for i in range(DMA_QUEUE_DEPTH):
        sim.dma.submit(L2_BASE + 64 * i, DATA_BASE + 64 * i, 64)
    sim.dma.submit(L2_BASE, DATA_BASE, 0)
    assert sim.dma.descriptors_done == 1
    with pytest.raises(OverlappingTransfer):
        sim.dma.submit(DATA_BASE, DATA_BASE + 0x100, 512)
    with pytest.raises(InvalidDescriptor, match="^bad length -1$"):
        sim.dma.submit(L2_BASE, DATA_BASE, -1)
    with pytest.raises(OutOfRangeAccess):
        sim.dma.submit(0x4000_0000, DATA_BASE, 64)
    with pytest.raises(InvalidDescriptor, match="^DMA descriptor queue full$"):
        sim.dma.submit(L2_BASE + 4096, DATA_BASE + 4096, 64)
    assert len(sim.dma.queue) == DMA_QUEUE_DEPTH


def test_dma_idle_flag():
    """`idle` turns false on a queued submit, stays true across a
    zero-length descriptor, and turns true after the last window of the
    last queued transfer, not before."""
    eng = DmaEngine(Memory())
    assert eng.idle
    eng.submit(L2_BASE, DATA_BASE, 0)
    assert eng.idle and eng.descriptors_done == 1
    eng.submit(L2_BASE, DATA_BASE, 96)      # 2 windows
    eng.submit(L2_BASE + 96, DATA_BASE + 96, 64)
    assert not eng.idle
    all_banks = {bank: [DMA_RID] for bank in range(32)}
    for left in (2, 1, 0):                  # windows of 64, 32 and 64 bytes
        eng.plan({}, set())
        assert not eng.idle
        eng.commit(all_banks)
        assert eng.idle == (left == 0)
    assert eng.descriptors_done == 3 and eng.bytes_moved == 160


def test_dma_from_program_with_poll():
    src = f"""
        li t0, {L2_BASE}
        dm_src t0
        li t1, {DATA_BASE}
        dm_dst t1
        li t2, 256
        dm_copy t2
    wait:
        dm_poll t3
        bne t3, zero, wait
        halt
    """
    sim = ClusterSim()
    blob = bytes(range(256))
    prog = assemble(src)
    sim.load_program(prog, active_cores=1)
    sim.mem.write(L2_BASE, blob)
    res = sim.run(max_cycles=10_000)
    assert res.dma_descriptors == 1
    assert res.dma_bytes == 256
    assert sim.dma.busy_cycles == 4
    assert sim.mem.read(DATA_BASE, 256) == blob


def test_dma_poll_counts_queued_and_active():
    # the same 512-byte copy, 8 busy cycles, queued three times back to
    # back, then each dm_poll stored to L2 until one reads 0: the first poll
    # sees all three, and each store's L2 wait lets the engine move on
    src = f"""
        li t0, {L2_BASE}
        li t1, {DATA_BASE}
        li t2, 512
        li t4, {L2_BASE + 0x1000}
        dm_src t0
        dm_dst t1
        dm_copy t2
        dm_copy t2
        dm_copy t2
    poll:
        dm_poll t3
        sw t3, 0(t4)
        addi t4, t4, 4
        bne t3, zero, poll
        halt
    """
    sim, res = run_source(src)
    polls = struct.unpack("<4I", sim.mem.read(L2_BASE + 0x1000, 16))
    assert list(polls) == [3, 1, 0, 0]      # the fourth word was never stored
    assert res.dma_descriptors == 3 and res.dma_bytes == 1536
    assert res.dma_busy_cycles == 24 and res.cycles == 52


def test_dma_shares_banks_with_cores():
    # four unaligned copies inside the TCDM while all eight cores load from
    # their sources: a slice that loses a bank to a core waits for the
    # next cycle, and the window finishes only once every slice has moved
    src, dst = TCDM_BASE + 0x4003, TCDM_BASE + 0x8005
    rows = [bytes((r * 250 + k) * 7 & 0xFF for k in range(250)) for r in range(4)]
    sim = ClusterSim()
    lines = ["start:", f"li t0, {TCDM_BASE + 0x4000}", "slli t1, a0, 3",
             "add t0, t0, t1"] + [f"lw t2, {8 * j}(t0)" for j in range(16)]
    sim.load_program(assemble("\n".join(lines + ["halt"])), active_cores=8)
    for r, row in enumerate(rows):
        sim.mem.write(src + 256 * r, row)
        sim.dma.submit(src + 256 * r, dst + 256 * r, 250)
    res = sim.run()
    assert [sim.mem.read(dst + 256 * r, 250) for r in range(4)] == rows
    assert res.dma_bytes == 1000 and res.dma_descriptors == 4
    # 4 windows of at most 64 bytes per copy, and at least one retry
    assert sim.dma.busy_cycles > 16
    assert sum(s.stall_bank_conflict for s in res.core_stats) > 0


def test_dma_tcdm_to_l2():
    # write-back of a result: an unaligned copy out of the scratchpad, whose
    # windows need only source banks
    blob = bytes((k * 13 + 5) & 0xFF for k in range(1000))
    sim = ClusterSim()
    sim.mem.write(TCDM_BASE + 4, blob)
    sim.dma.submit(TCDM_BASE + 4, L2_BASE + 12, 1000)
    res = sim.run()
    assert sim.mem.read(L2_BASE + 12, 1000) == blob
    assert res.dma_bytes == 1000 and res.dma_descriptors == 1
    assert sim.dma.busy_cycles == 16        # one cycle per 64-byte window


def test_dma_tcdm_to_l2_shares_banks_with_cores():
    # the same copy while all eight cores load from its source banks: a
    # window that loses a source bank moves per slice, each slice with no
    # destination bank moving once its source bank is granted
    blob = bytes((k * 13 + 5) & 0xFF for k in range(1000))
    lines = [f"li t0, {TCDM_BASE}", "slli t1, a0, 3", "add t0, t0, t1"] + [
        f"lw t2, {8 * j}(t0)" for j in range(16)]
    sim = ClusterSim()
    sim.load_program(assemble("\n".join(lines + ["halt"])), active_cores=8)
    sim.mem.write(TCDM_BASE + 4, blob)
    sim.dma.submit(TCDM_BASE + 4, L2_BASE + 12, 1000)
    res = sim.run()
    assert sim.mem.read(L2_BASE + 12, 1000) == blob
    assert res.dma_bytes == 1000 and res.dma_descriptors == 1
    assert sim.dma.busy_cycles > 16
    assert sum(s.stall_bank_conflict for s in res.core_stats) > 0


def test_dma_and_read_stream_take_one_bank_in_turn(monkeypatch):
    # a read stream walks bank 0 (stride 256) under an frep replay while
    # six queued 8-byte L2->TCDM copies each write a word of bank 0: in
    # cycles 15 to 24 both ask, the bank alternates between them, and the
    # FPU waits on the stream in three of the cycles the DMA holds it
    n = 16
    src = "\n".join([
        f"li t0, {L2_BASE}", "dm_src t0", f"li t1, {TCDM_BASE + 0x8000}",
        "dm_dst t1", "li t2, 8", f"li t3, {TCDM_BASE + 0x1000}",
        "ssr_cfg_write 0, base, t3", "ssr_cfg_write 0, stride0, 256",
        f"ssr_cfg_write 0, bound0, {n}", "ssr_enable", f"li t4, {n}",
        "frep t4, 1", "fmv.d ft3, ft0", *["dm_copy t2"] * 6,
        "ssr_disable", "halt"])
    sim = ClusterSim()
    sim.load_program(assemble(src), active_cores=1)
    sim.mem.write(L2_BASE, bytes(range(1, 9)))
    contests = []
    arbitrate = Tcdm.arbitrate

    def watched(t, requests):
        contested = 0 in t.contested
        grants = arbitrate(t, requests)
        if contested:
            contests.append((sim.cycle, grants[0][0]))
        return grants
    monkeypatch.setattr(Tcdm, "arbitrate", watched)
    res = sim.run()
    slot_rid = sim.cores[0].slots[0].rid
    assert contests == [(c, (slot_rid, DMA_RID)[k % 2])
                        for k, c in enumerate(range(15, 25))]
    s = res.stats
    assert (res.cycles, s.fp_stall_stream, s.fp_executed) == (35, 3, 17)
    assert (res.dma_busy_cycles, res.dma_bytes, res.dma_descriptors) == (
        11, 48, 6)
    assert sim.mem.read(TCDM_BASE + 0x8000, 8) == bytes(range(1, 9))
    assert s.fetched + s.int_stalls() == s.cycles_at_halt == res.cycles
    assert s.fp_slots() == s.cycles_at_halt


# ------------------------------------------------------------- cycle oracles

def test_alu_loop_cycle_exact():
    sim, res = run_source("""
            li t0, 5
        loop:
            addi t0, t0, -1
            bne t0, zero, loop
            halt
    """)
    s = res.stats
    # li + 5x(addi,bne) + halt = 12 single-cycle retires
    assert s.cycles_at_halt == 12 and res.cycles == 12
    assert s.fetched == 12
    assert s.int_retired == 11 and s.custom_retired == 1
    assert s.int_stalls() == 0
    assert s.fp_idle == 12  # FPU never had work


def test_tcdm_load_store_cycle_exact():
    sim, res = run_source(f"""
        .data
        v: .word 7
        .text
            li t1, v
            lw t2, 0(t1)
            addi t2, t2, 1
            sw t2, 0(t1)
            halt
    """)
    assert res.stats.cycles_at_halt == 5
    assert res.stats.stall_bank_conflict == 0
    assert int.from_bytes(sim.mem.read(DATA_BASE, 4), "little") == 8


def test_l2_load_pays_latency():
    sim = ClusterSim()
    sim.mem.write(L2_BASE + 16, (1234).to_bytes(4, "little"))
    sim.load_program(assemble(f"""
        li t1, {L2_BASE}
        lw t2, 16(t1)
        sw t2, 0(t1)
        halt
    """), active_cores=1)
    res = sim.run()
    s = res.stats
    # each L2 access: 1 start + 9 wait + 1 complete = 11 cycles, 10 stalled
    assert s.cycles_at_halt == 1 + 11 + 11 + 1
    assert s.stall_mem == 20
    assert s.fetched == 4
    assert int.from_bytes(sim.mem.read(L2_BASE, 4), "little") == 1234


def test_icache_warm_by_default():
    _, res = run_source("nop\nhalt")
    assert res.stats.cycles_at_halt == 2
    assert res.stats.stall_icache == 0


def test_icache_cold_start_charges_per_line():
    _, res = run_source("nop\nhalt", cold_start_icache=True)
    s = res.stats
    assert s.stall_icache == 10  # one 32-byte line, one l2_latency charge
    assert s.cycles_at_halt == 12
    # 9 instructions span two lines (8 at 0x00-0x1c, one at 0x20)
    src = "\n".join(["nop"] * 8 + ["halt"])
    _, res2 = run_source(src, cold_start_icache=True)
    assert res2.stats.stall_icache == 20
    assert res2.stats.cycles_at_halt == 9 + 20


def test_icache_shared_by_the_cores():
    """Cores 0 and 1 miss line 0 in cycle 0 and core 2 misses line 1: each
    waits the whole fill, every row of it stall:icache. Core 2 then jumps
    to line 0, filled before, and hits."""
    prog = assemble("\n".join(["main:", *["nop"] * 7, "halt",
                               "late:", "j main"]))
    sim = ClusterSim(cold_start_icache=True)
    sim.load_program(prog, active_cores=3, entries=["main", "main", "late"])
    res = sim.run(trace=True)
    for i, s in enumerate(res.core_stats[:3]):
        events = [row.split(" | ")[2] for row in res.trace
                  if f"| core{i} |" in row]
        assert s.stall_icache == 10
        assert [ev for ev in events if "stall:" in ev] == events[:10]
        assert all(ev.split()[1] == "stall:icache" for ev in events[:10])
    assert [s.cycles_at_halt for s in res.core_stats[:3]] == [18, 18, 19]
    assert res.core_stats[2].fetched == 9


def test_two_cores_same_bank_serialize():
    sim, res = run_source(f"""
        li t1, {DATA_BASE}
        lw t2, 0(t1)
        halt
    """, cores=2)
    c0, c1 = res.core_stats[0], res.core_stats[1]
    # round-robin pointer starts at 0: core0 wins the shared cycle
    assert c0.cycles_at_halt == 3 and c0.stall_bank_conflict == 0
    assert c1.cycles_at_halt == 4 and c1.stall_bank_conflict == 1
    assert res.cycles == 4


def test_fp_pipeline_cycle_exact():
    sim, res = run_source(f"""
        .data
        a: .double 1.5
        b: .double 2.25
        .text
            li t1, a
            fld ft3, 0(t1)
            fld ft4, 8(t1)
            fadd.d ft5, ft3, ft4
            fsd ft5, 16(t1)
            halt
    """)
    s = res.stats
    assert sim.mem.read(DATA_BASE + 16, 8) == struct.pack("<d", 3.75)
    # dispatch runs one ahead of the FPU; fsd waits 1 on the fadd result,
    # halt waits 2 cycles for the queue to drain
    assert s.cycles_at_halt == 8
    assert s.fetched == 6
    assert s.stall_drain == 2
    assert s.fp_executed == 4
    assert s.fp_stall_hazard == 1
    assert s.fp_idle == 3
    assert s.fma_executed == 1 and s.flops == 1


def test_frep_capture_and_replay_cycle_exact():
    _, res = run_source("""
            li t0, 3
            frep t0, 1
            fadd.d ft3, ft4, ft4
            halt
    """)
    s = res.stats
    # capture occupies one FPU slot, then 3 replays; same-destination fadd
    # at latency 2 stalls every other replay
    assert s.fetched == 4
    assert s.fp_executed == 4          # 1 capture + 3 replays
    assert s.fma_executed == 3         # capture does no arithmetic
    assert s.flops == 3
    assert s.fp_stall_hazard == 2
    assert s.stall_drain == 6
    assert s.cycles_at_halt == 10


def test_write_stream_drains_to_memory():
    base = DATA_BASE + 0x40
    body = "\n".join(f"li t2, {41 + i}\nfmv.d.x ft2, t2" for i in range(4))
    sim, res = run_source(f"""
        li t1, {base}
        ssr_cfg_write 2, base, t1
        ssr_cfg_write 2, stride0, 8
        ssr_cfg_write 2, bound0, 4
        ssr_cfg_write 2, dir, 1
        ssr_enable
        {body}
        ssr_disable
        halt
    """)
    got = [int.from_bytes(sim.mem.read(base + 8 * i, 8), "little")
           for i in range(4)]
    assert got == [41, 42, 43, 44]


TWO_POPS = """
    .data
    x: .double 1.0
    .double 2.0
    .text
    li t1, x
    ssr_cfg_write 0, base, t1
    ssr_cfg_write 0, stride0, 8
    ssr_cfg_write 0, bound0, 2
    ssr_enable
pop:
    fmv.d ft3, ft0
    fmv.d ft4, ft0
    ssr_disable
    halt
"""


def test_stream_first_pop_waits_for_prefetch():
    sim, res = run_source(TWO_POPS, trace=True)
    fp = [row.rsplit("fp-pipe: ", 1)[1] for row in res.trace]
    # ssr_enable retires in cycle 4; in cycle 5 the slot fetches element 0
    # while fmv.d dispatches, and the element is poppable from cycle 6 on
    assert "ssr_enable" in res.trace[4]
    assert fp[:8] == ["-"] * 6 + ["fmv.d", "fmv.d"]
    assert res.stats.fp_stall_stream == 0
    f = sim.cores[0].f
    assert (f64_to_bits(f[3]), f64_to_bits(f[4])) == (
        struct.unpack("<QQ", struct.pack("<dd", 1.0, 2.0)))


def test_split_made_once_per_op_and_stream_map():
    # the two dispatches of one statement under one stream map issue as one
    # split; ssr_disable and ssr_enable make a fresh one, and a core that
    # does not stream issues the interned FpOp itself
    sim = ClusterSim()
    sim.load_program(assemble("""
        .data
        x: .double 1.0
        .double 2.0
        .double 3.0
        .text
        li t1, x
        ssr_cfg_write 0, base, t1
        ssr_cfg_write 0, stride0, 8
        ssr_cfg_write 0, bound0, 2
        ssr_enable
        fmv.d ft3, ft0
        fmv.d ft3, ft0
        ssr_disable
        addi t1, t1, 16
        ssr_cfg_write 0, base, t1
        ssr_cfg_write 0, bound0, 1
        ssr_enable
        fmv.d ft3, ft0
        ssr_disable
        fmv.d ft3, ft0
        halt
    """), active_cores=1)
    made = []
    map_operands = sim._map_operands

    def spy(core, op):
        made.append(map_operands(core, op))
        return made[-1]

    sim._map_operands = spy
    res = sim.run()
    assert res.stats.fp_executed == 4
    op = next(i.fp_op for i in sim.code.values() if i.mnemonic == "fmv.d")
    slot = sim.cores[0].slots[0]
    first, again, plain = made
    assert first is not again and plain is op
    for split in (first, again):
        assert split.operands == (slot,) and split.pops == ((slot, 1),)
        assert split.push is None and split.sb_regs == (3,)
    assert op.operands == (0,) and op.sb_regs == (0, 3)


def test_four_byte_streams_through_the_cluster():
    # a read stream of 4-byte elements zero-extends each into the register;
    # a 4-byte write stream stores the low 32 bits of a 64-bit result and
    # leaves the words around its elements untouched
    sim, res = run_source("""
        .data
        big: .word 0xDEADBEEF
        .word 0x01234567
        src: .word 0x11223344
        .word 0x55667788
        .word 0xFFFFFFFF
        dst: .word 0xFFFFFFFF
        .word 0xFFFFFFFF
        .word 0xFFFFFFFF
        .text
        li t1, src
        ssr_cfg_write 0, base, t1
        ssr_cfg_write 0, stride0, 4
        ssr_cfg_write 0, bound0, 2
        ssr_cfg_write 0, width, 4
        li t1, dst
        ssr_cfg_write 2, base, t1
        ssr_cfg_write 2, stride0, 4
        ssr_cfg_write 2, bound0, 2
        ssr_cfg_write 2, dir, 1
        ssr_cfg_write 2, width, 4
        li t1, big
        fld ft3, 0(t1)
        ssr_enable
        fmv.d ft2, ft0
        fmv.d ft4, ft0
        fmv.d ft2, ft3
        ssr_disable
        halt
    """)
    f = sim.cores[0].f
    assert f64_to_bits(f[3]) == 0x01234567_DEADBEEF
    assert f64_to_bits(f[4]) == 0x55667788
    dst = DATA_BASE + 20
    assert sim.mem.read(dst - 4, 16) == struct.pack(
        "<4I", 0xFFFFFFFF, 0x11223344, 0xDEADBEEF, 0xFFFFFFFF)


@pytest.mark.parametrize("offset", [256, 8])
def test_core_data_port_serves_fpu_first(offset):
    # fld and lw of one core share its data port, whether they hit the same
    # bank (offset 256) or not (offset 8): the lw waits one cycle
    sim, res = run_source(f"""
        .data
        x: .double 1.5
        .space 256
        .text
        li t0, x
        fld ft3, 0(t0)
        lw t1, {offset}(t0)
        halt
    """, trace=True)
    assert "stall:bank" in res.trace[2] and "fp-pipe: fld" in res.trace[2]
    assert "0x8 lw" in res.trace[3]
    assert res.stats.stall_bank_conflict == 1
    assert res.stats.cycles_at_halt == 5


def test_load_program_starts_a_new_run():
    sim = ClusterSim(cold_start_icache=True)
    prog = assemble(TWO_POPS)
    runs = []
    for _ in range(2):
        sim.load_program(prog, active_cores=1)
        # every core from reset, whatever the last run left: pc at the
        # entry, a0 = its index, a1 = N_CORES, all else zero, no streams
        assert sim.live == sim.cores[:1]
        for core in sim.cores:
            x = [0] * 32
            x[10:12] = core.index, N_CORES
            assert (core.pc, core.x, core.ssr_enabled) == (prog.entry, x, False)
            assert [f64_to_bits(v) for v in core.f] == [0] * 32
        res = sim.run(trace=True, watch_pcs=[prog.labels["pop"]])
        runs.append((stats_lines(res), res.trace, res.watch_hits))
        for core in sim.cores:
            core.pc, core.ssr_enabled = 0x40, True
            core.x[5], core.f[3] = 7, -0.0
    assert runs[1] == runs[0]
    assert len(runs[0][2]) == 1


def test_entries_and_boot_registers():
    prog = assemble(f"""
        .data
        out: .space 64
        .text
        main:
            li t1, out
            slli t2, a0, 3
            add t1, t1, t2
            sw a0, 0(t1)
            sw a1, 4(t1)
            halt
    """)
    sim = ClusterSim()
    sim.load_program(prog, active_cores=3)
    sim.run()
    for i in range(3):
        assert int.from_bytes(sim.mem.read(DATA_BASE + 8 * i, 4), "little") == i
        assert int.from_bytes(sim.mem.read(DATA_BASE + 8 * i + 4, 4), "little") == 8
    assert sim.mem.read(DATA_BASE + 24, 8) == bytes(8)  # cores 3+ stayed halted
    # the first active_cores cores are live, and they run alike
    for n, cycles in ((0, 0), (1, 6), (N_CORES, 6)):
        sim = ClusterSim()
        sim.load_program(prog, active_cores=n)
        assert [core.index for core in sim.live] == list(range(n))
        res = sim.run()
        assert res.cycles == cycles
        assert [s.cycles_at_halt for s in res.core_stats] == (
            [cycles] * n + [0] * (N_CORES - n))

    prog2 = assemble(f"""
        .data
        cell: .space 16
        .text
        pa: li t1, cell
            li t2, 11
            sw t2, 0(t1)
            halt
        pb: li t1, cell
            li t2, 22
            sw t2, 8(t1)
            halt
    """)
    sim2 = ClusterSim()
    sim2.load_program(prog2, active_cores=2, entries=["pa", "pb"])
    sim2.run()
    assert int.from_bytes(sim2.mem.read(DATA_BASE, 4), "little") == 11
    assert int.from_bytes(sim2.mem.read(DATA_BASE + 8, 4), "little") == 22


def test_watch_hits_record_retires():
    sim = ClusterSim()
    prog = assemble("""
            li t0, 3
        loop:
            addi t0, t0, -1
            bne t0, zero, loop
            halt
    """)
    sim.load_program(prog, active_cores=1)
    res = sim.run(watch_pcs=[prog.labels["loop"]])
    assert [h["cycle"] for h in res.watch_hits] == [1, 3, 5]
    assert [h["fetched"] for h in res.watch_hits] == [2, 4, 6]
    assert all(h["core"] == 0 for h in res.watch_hits)


RETIRE_PATHS = f"""
    .data
    d: .double 1.5
    v: .word 7
    .text
        li t1, d
        li t3, {L2_BASE}
        li t6, 2
    tcdm: lw t2, 8(t1)
    l2: lw t4, 0(t3)
    fpld: fld ft0, 0(t1)
        fmadd.d ft1, ft0, ft0, ft1
    alu: addi t6, t6, -1
    poll: dm_poll t5
        bne t6, zero, tcdm
        lw zero, 8(t1)
        lw zero, 0(t3)
        halt
"""


def test_watch_hits_on_every_retire_path():
    # a TCDM lw, an L2 lw, an FP dispatch, an ALU op and a custom op each
    # retire by their own path; no digest covers the hits, so they are
    # frozen here, counters as they stand after the retire
    sim = ClusterSim()
    prog = assemble(RETIRE_PATHS)
    sim.load_program(prog, active_cores=1)
    sim.mem.write(L2_BASE, (99).to_bytes(4, "little"))
    labels = ("tcdm", "l2", "fpld", "alu", "poll")
    res = sim.run(watch_pcs=[prog.labels[name] for name in labels])
    hit = ("cycle", "core", "fetched", "fp_executed", "fma_executed",
           "int_retired")
    assert {name: [tuple(h.values()) for h in sim.watch_hits[prog.labels[name]]]
            for name in labels} == {
        "tcdm": [(3, 0, 4, 0, 0, 4), (20, 0, 11, 2, 1, 8)],
        "l2": [(14, 0, 5, 0, 0, 5), (31, 0, 12, 2, 1, 9)],
        "fpld": [(15, 0, 6, 0, 0, 5), (32, 0, 13, 2, 1, 9)],
        "alu": [(17, 0, 8, 2, 1, 6), (34, 0, 15, 4, 2, 10)],
        "poll": [(18, 0, 9, 2, 1, 6), (35, 0, 16, 4, 2, 10)],
    }
    assert all(tuple(h) == hit for h in res.watch_hits)
    assert [h["cycle"] for h in res.watch_hits] == [
        3, 14, 15, 17, 18, 20, 31, 32, 34, 35]
    # lw zero from the TCDM and from L2 still retire, and x0 stays 0: 13
    # int retires are the three li, four per pass and the two lw zero
    x = sim.cores[0].x
    assert x[0] == 0 and (x[7], x[29]) == (7, 99)
    s = res.stats
    assert (s.fetched, s.int_retired, s.custom_retired) == (20, 13, 3)
    assert (s.cycles_at_halt, s.stall_mem) == (50, 30)


# ------------------------------------------------------------- stat closure

@pytest.mark.parametrize("name,n", [("dot_baseline", 64), ("dot_ssr", 64),
                                    ("dot_ssr_frep", 256), ("axpy_ssr", 64),
                                    ("matvec48_ssr_frep", None),
                                    ("matvec48_baseline", None),
                                    ("matmul_ssr_frep", None),
                                    ("dma_stream", None),
                                    ("tcdm_same_bank", None),
                                    ("tcdm_unit_stride", None)])
def test_stat_closure(name, n):
    inst = kernels.build(name, n=n) if n else kernels.build(name)
    sim, res = kernels.run_kernel(inst)
    for s in res.core_stats:
        if s.cycles_at_halt == 0:
            continue  # core never activated
        assert s.fetched + s.int_stalls() == s.cycles_at_halt
        assert s.fp_slots() == s.cycles_at_halt
    if inst.check is not None:  # the TCDM probes compute nothing to check
        inst.check(sim)


def test_determinism_bitwise():
    rows = []
    for _ in range(2):
        inst = kernels.build("dot_ssr_frep", n=64, seed=5)
        sim, res = kernels.run_kernel(inst, trace=True)
        rows.append(("\n".join(stats_lines(res)), "\n".join(res.trace)))
    assert rows[0] == rows[1]


def test_fp32_overflow_gives_inf_lanes():
    # 0x7F61B1E6 is about 3e38; its square overflows binary32 in both lanes
    sim, _ = run_source(f"""
        .data
        x: .word 0x7F61B1E6
        .word 0x7F61B1E6
        .text
        li t1, x
        fld ft0, 0(t1)
        fmul.s ft2, ft0, ft0
        fsd ft2, 8(t1)
        halt
    """)
    lo, hi = struct.unpack("<ff", sim.mem.read(DATA_BASE + 8, 8))
    assert lo == hi == float("inf")


# Each source form of an FPU issue, on a core that streams and on one that
# does not. While streaming, ft0 and ft1 read the streams over X and Y and
# ft2 writes the stream at OUT; without streams ft0 and ft1 hold X[0] and
# Y[0], and ft2 is a register. The operands are doubles whose two binary32
# lanes are moderate values, so the .s ops compute on ordinary lanes too.
def _pair(lo, hi):
    return struct.unpack("<d", struct.pack("<ff", lo, hi))[0]


FP_X = [_pair(1.5, -2.0), _pair(0.375, 3.25), _pair(-1.125, 0.5),
        _pair(7.0, 0.0625)]
FP_Y = [_pair(2.5, 1.75), _pair(-0.625, -4.0), _pair(3.0, 0.25),
        _pair(-8.5, 6.0)]
FP_REGS = {"ft4": _pair(0.1, -1.3), "ft5": _pair(-2.7, 0.9),
           "ft6": _pair(5.5, -0.4), "ft7": float("inf")}
FP_XVAL = 0xC0490FDB            # the integer source of fmv.d.x
FP_MARK = 0xA5A5A5A5_A5A5A5A5   # OUT before the run
_MUL_PAIR = fp.binary32_pair_op(fp.mul64)
FP_LANES = {"fmadd.d": fp.fma64,
            "fmsub.d": lambda a, b, c: fp.fma64(a, b, -c),
            "fmadd.s": fp.binary32_pair_op(fp.fma32),
            "fadd.d": fp.add64, "fsub.d": fp.sub64,
            "fmul.s": lambda a, b: _MUL_PAIR(a, b, 0.0)}
FP_COMMIT_FORMS = [
    # three sources: registers, two read streams, one stream as two sources
    "fmadd.d ft3, ft4, ft5, ft6",
    "fmadd.d ft3, ft0, ft1, ft4",
    "fmadd.d ft3, ft0, ft4, ft0",
    "fmsub.d ft3, ft4, ft5, ft6",
    "fmsub.d ft3, ft0, ft1, ft4",
    "fmsub.d ft3, ft0, ft4, ft0",
    "fmsub.d ft3, ft4, ft0, ft0",
    "fmadd.s ft3, ft4, ft5, ft6",
    "fmadd.s ft3, ft0, ft1, ft4",
    "fmadd.s ft3, ft0, ft4, ft0",
    "fmadd.d ft2, ft0, ft1, ft4",
    # two sources; ft0 twice pops two elements, and fsub shows their order
    "fadd.d ft3, ft4, ft5",
    "fadd.d ft3, ft0, ft1",
    "fadd.d ft2, ft0, ft0",
    "fsub.d ft2, ft0, ft0",
    "fsub.d ft3, ft7, ft7",
    "fmul.s ft3, ft4, ft5",
    "fmul.s ft3, ft0, ft1",
    "fmul.s ft2, ft0, ft0",
    # moves
    "fmv.d ft3, ft0",
    "fmv.d ft3, ft4",
    "fmv.d ft2, ft4",
    "fmv.d.x ft3, t2",
    "fmv.d.x ft2, t2",
    # stores to OUT
    "fsd ft4, 0(t3)",
    "fsd ft0, 0(t3)",
    "fsw ft5, 0(t3)",
    "fsw ft1, 0(t3)",
]


def _fp_words(values):
    return "\n".join(f".word {w:#x}" for v in values
                     for w in struct.unpack("<II", struct.pack("<d", v)))


def _fp_commit_program(stmt, streaming):
    if streaming:
        setup = """
            li t1, x
            ssr_cfg_write 0, base, t1
            ssr_cfg_write 0, stride0, 8
            ssr_cfg_write 0, bound0, 4
            li t1, y
            ssr_cfg_write 1, base, t1
            ssr_cfg_write 1, stride0, 8
            ssr_cfg_write 1, bound0, 4
            ssr_cfg_write 2, base, t3
            ssr_cfg_write 2, stride0, 8
            ssr_cfg_write 2, bound0, 1
            ssr_cfg_write 2, dir, 1
            ssr_enable"""
    else:
        setup = """
            li t1, x
            fld ft0, 0(t1)
            li t1, y
            fld ft1, 0(t1)"""
    return f"""
        .data
        x: {_fp_words(FP_X)}
        y: {_fp_words(FP_Y)}
        r: {_fp_words(FP_REGS.values())}
        out: .word {FP_MARK & 0xFFFFFFFF:#x}
        .word {FP_MARK >> 32:#x}
        .text
        li t1, r
        fld ft4, 0(t1)
        fld ft5, 8(t1)
        fld ft6, 16(t1)
        fld ft7, 24(t1)
        li t2, {FP_XVAL}
        li t3, out
        {setup}
        {stmt}
        {"ssr_disable" if streaming else ""}
        halt
    """


def _fp_commit_expected(stmt, streaming):
    """Where the statement's result goes, "out" or its register, and its
    bits: each source fetched left to right, a stream source popping its
    next element."""
    mn, rest = stmt.split(None, 1)
    ops = [o.strip() for o in rest.split(",")]
    pops = {"ft0": list(FP_X), "ft1": list(FP_Y)} if streaming else {}
    regs = {"ft0": FP_X[0], "ft1": FP_Y[0], **FP_REGS}

    def fetch(reg):
        return pops[reg].pop(0) if reg in pops else regs[reg]

    if mn in ("fsd", "fsw"):
        bits = f64_to_bits(fetch(ops[0]))
        if mn == "fsw":     # the low word only
            bits = FP_MARK & ~0xFFFFFFFF | bits & 0xFFFFFFFF
        return "out", bits
    if mn == "fmv.d.x":
        bits = FP_XVAL
    elif mn == "fmv.d":
        bits = f64_to_bits(fetch(ops[1]))
    else:
        bits = f64_to_bits(FP_LANES[mn](*[fetch(r) for r in ops[1:]]))
    return "out" if streaming and ops[0] == "ft2" else ops[0], bits


@pytest.mark.parametrize("streaming", [False, True],
                         ids=["no_streams", "streams"])
@pytest.mark.parametrize("stmt", FP_COMMIT_FORMS)
def test_fpu_commit_source_forms(stmt, streaming):
    sim, res = run_source(_fp_commit_program(stmt, streaming))
    where, bits = _fp_commit_expected(stmt, streaming)
    # OUT follows the twelve doubles of X, Y and the registers
    out = int.from_bytes(sim.mem.read(DATA_BASE + 8 * 12, 8), "little")
    if where == "out":
        assert out == bits
    else:
        assert out == FP_MARK
        assert f64_to_bits(sim.cores[0].f[FREGS[where]]) == bits
    # the four loads of ft4..ft7, those of ft0 and ft1 without streams, and
    # the statement, once
    assert res.stats.fp_executed == (4 if streaming else 6) + 1


# ------------------------------------------------------------- fault paths

def test_fault_no_instruction():
    with pytest.raises(SimulationFault) as ei:
        run_source("beq zero, zero, 16\nhalt")
    assert ei.value.pc == 16 and ei.value.core == 0
    assert "no instruction" in str(ei.value)


def test_fault_misaligned_lw():
    with pytest.raises(SimulationFault) as ei:
        run_source(f"li t1, {DATA_BASE + 2}\nlw t2, 0(t1)\nhalt")
    assert isinstance(ei.value.__cause__, MisalignedAccess)


def test_fault_misaligned_fld_and_non_tcdm():
    with pytest.raises(SimulationFault) as ei:
        run_source(f"li t1, {DATA_BASE + 4}\nfld ft3, 0(t1)\nhalt")
    assert isinstance(ei.value.__cause__, MisalignedAccess)
    with pytest.raises(SimulationFault) as ei:
        run_source(f"li t1, {L2_BASE}\nfld ft3, 0(t1)\nhalt")
    assert isinstance(ei.value.__cause__, OutOfRangeAccess)
    assert "outside TCDM" in str(ei.value)


def test_fault_lw_outside_memory_has_context():
    # tcdm_same_bank's walk at an n its builder refuses: the last loads of
    # core 7 run past the end of the TCDM; outside the TCDM they take the L2
    # path and fault when the access completes
    src = "\n".join([f"li t0, {TCDM_BASE}", "slli t1, a0, 11", "add t0, t0, t1"]
                    + [f"lw t2, {256 * j}(t0)" for j in range(460)] + ["halt"])
    with pytest.raises(SimulationFault) as ei:
        run_source(src, cores=N_CORES)
    f = ei.value
    assert isinstance(f.__cause__, OutOfRangeAccess)
    assert f.core == 7 and f.pc is not None and f.cycle is not None
    assert assemble(src).instructions[f.pc].mnemonic == "lw"
    assert "outside TCDM and L2" in str(f)


def test_op_table_is_closed():
    """Every mnemonic decode accepts resolves to one declared Op, every Op is
    reached from a mnemonic, and each has what runs it: an INT op but
    lw/sw its execute function, a custom op its handler, and an op a
    compute function exactly when it counts flops."""
    from streamsim import cluster, isa
    reached = set()
    for mn, (canon, values, _, _) in isa._FORMATS.items():
        assert values[isa._OP] is isa.OPS[canon], mn
        reached.add(canon)
    assert reached == set(isa.OPS)
    for mn, op in isa.OPS.items():
        assert op.mnemonic == mn
        assert (op.execute is not None) == (
            op.domain is isa.Domain.INT and mn not in ("lw", "sw")), mn
        assert (op.compute is not None) == (op.flops > 0), mn
    assert set(cluster._CUSTOM_HANDLERS) == {
        mn for mn, op in isa.OPS.items() if op.domain is isa.Domain.CUSTOM}


def test_fault_int_op_in_capture():
    with pytest.raises(SimulationFault) as ei:
        run_source("li t0, 2\nfrep t0, 1\naddi t1, t1, 1\nhalt")
    assert isinstance(ei.value.__cause__, NonFpInCapture)


def test_fault_stream_exhausted():
    with pytest.raises(SimulationFault) as ei:
        run_source(f"""
            .data
            x: .double 1.0
            .double 2.0
            .text
            li t1, x
            ssr_cfg_write 0, base, t1
            ssr_cfg_write 0, stride0, 8
            ssr_cfg_write 0, bound0, 2
            ssr_enable
            fmv.d ft3, ft0
            fmv.d ft4, ft0
            fmv.d ft5, ft0
            ssr_disable
            halt
        """)
    assert isinstance(ei.value.__cause__, StreamExhausted)


def test_fault_stream_over_read_in_one_op():
    # the second fadd needs two elements with one left: a fault, not a stall
    # until the cycle limit
    with pytest.raises(SimulationFault) as ei:
        run_source(f"""
            li t1, {DATA_BASE}
            ssr_cfg_write 0, base, t1
            ssr_cfg_write 0, stride0, 8
            ssr_cfg_write 0, bound0, 3
            ssr_enable
            fadd.d ft3, ft0, ft0
            fadd.d ft3, ft0, ft0
            ssr_disable
            halt
        """, max_cycles=20)
    assert isinstance(ei.value.__cause__, StreamExhausted)


def test_fault_stream_direction():
    head = f"""
        .data
        x: .double 1.0
        .text
        li t1, x
    """
    with pytest.raises(SimulationFault) as ei:
        run_source(head + """
            ssr_cfg_write 0, base, t1
            ssr_cfg_write 0, bound0, 1
            ssr_enable
            fadd.d ft0, ft3, ft3
            halt
        """)
    assert "write to read-stream" in str(ei.value)
    with pytest.raises(SimulationFault) as ei:
        run_source(head + """
            ssr_cfg_write 2, base, t1
            ssr_cfg_write 2, bound0, 1
            ssr_cfg_write 2, dir, 1
            ssr_enable
            fmv.d ft3, ft2
            halt
        """)
    assert "read of write-stream" in str(ei.value)
    with pytest.raises(SimulationFault) as ei:
        run_source(head + """
            ssr_cfg_write 0, base, t1
            ssr_cfg_write 0, bound0, 1
            ssr_enable
            fld ft0, 0(t1)
            halt
        """)
    assert "stream-mapped" in str(ei.value)


TCDM_END = TCDM_BASE + TCDM_SIZE


def read_stream_at(base):
    return f"""
        li t1, {base}
        ssr_cfg_write 0, base, t1
        ssr_cfg_write 0, stride0, 8
        ssr_cfg_write 0, bound0, 2
        ssr_enable
        fmv.d ft3, ft0
        fmv.d ft4, ft0
        ssr_disable
        halt
    """


def test_fault_stream_base_outside_tcdm():
    with pytest.raises(SimulationFault) as ei:
        run_source(read_stream_at(L2_BASE), max_cycles=50)
    assert ei.value.core == 0
    assert isinstance(ei.value.__cause__, OutOfRangeAccess)
    assert "outside TCDM" in str(ei.value)


def test_fault_stream_element_straddles_tcdm_end():
    # the second 8-byte element starts 4 bytes before the end of the TCDM
    with pytest.raises(SimulationFault) as ei:
        run_source(read_stream_at(TCDM_END - 12), max_cycles=50)
    assert ei.value.core == 0
    assert isinstance(ei.value.__cause__, OutOfRangeAccess)
    assert "outside TCDM" in str(ei.value)


def test_fault_stream_footprint_at_ssr_enable():
    # a write stream past the TCDM that is disabled before any element is
    # pushed: its footprint faults at the ssr_enable, not at an element
    src = f"""
        li t1, {TCDM_END}
        ssr_cfg_write 2, base, t1
        ssr_cfg_write 2, stride0, 8
        ssr_cfg_write 2, bound0, 4
        ssr_cfg_write 2, dir, 1
        enable: ssr_enable
        ssr_disable
        halt
    """
    with pytest.raises(SimulationFault) as ei:
        run_source(src)
    assert ei.value.pc == assemble(src).labels["enable"]
    assert isinstance(ei.value.__cause__, OutOfRangeAccess)
    assert "stream 2" in str(ei.value) and "outside TCDM" in str(ei.value)


@pytest.mark.parametrize("base, stride, width", [
    (TCDM_BASE + 4, 8, 8),      # every element covers two bank words
    (TCDM_BASE, 12, 8),         # the second element does
    (TCDM_BASE + 2, 4, 4),
])
def test_fault_stream_misaligned_at_ssr_enable(base, stride, width):
    # a stream element lies in one bank word, as an fld/fsd's does
    src = f"""
        li t1, {base}
        ssr_cfg_write 0, base, t1
        ssr_cfg_write 0, stride0, {stride}
        ssr_cfg_write 0, bound0, 2
        ssr_cfg_write 0, width, {width}
        enable: ssr_enable
        fmv.d ft3, ft0
        fmv.d ft3, ft0
        ssr_disable
        halt
    """
    with pytest.raises(SimulationFault) as ei:
        run_source(src)
    assert ei.value.pc == assemble(src).labels["enable"]
    assert isinstance(ei.value.__cause__, MisalignedAccess)
    assert "stream 0" in str(ei.value)
    # a 4-byte stream at the same base and stride 4 runs
    if base % 4 == 0:
        aligned = src.replace(f"stride0, {stride}", "stride0, 4")
        run_source(aligned.replace(f"width, {width}", "width, 4"))


def test_fault_stream_walks_below_tcdm():
    # a negative stride walks the third element below the scratchpad base
    src = f"""
        li t1, {TCDM_BASE + 8}
        ssr_cfg_write 0, base, t1
        ssr_cfg_write 0, stride0, -8
        ssr_cfg_write 0, bound0, 3
        enable: ssr_enable
        fmv.d ft3, ft0
        ssr_disable
        halt
    """
    with pytest.raises(SimulationFault) as ei:
        run_source(src)
    assert ei.value.pc == assemble(src).labels["enable"]
    assert isinstance(ei.value.__cause__, OutOfRangeAccess)
    assert "outside TCDM" in str(ei.value)
    # the same stream from one element higher stays inside and runs
    run_source(src.replace(f"{TCDM_BASE + 8}", f"{TCDM_BASE + 16}"))


def test_fault_ssr_enable_reconfigures_while_streaming():
    # config staged before the first ssr_enable stays staged, so a second
    # ssr_enable reconfigures slot 0 while it streams
    with pytest.raises(SimulationFault) as ei:
        run_source(f"""
            li t1, {DATA_BASE}
            ssr_cfg_write 0, base, t1
            ssr_cfg_write 0, bound0, 1
            ssr_enable
            ssr_enable
            halt
        """)
    assert isinstance(ei.value.__cause__, ReconfigWhileActive)
    assert "slot 0 reconfigured while streaming" in str(ei.value)


@pytest.mark.parametrize("slot, writes, message", [
    (0, {"dims": 0}, "dims 0 outside 1..4"),
    (0, {"dims": 5}, "dims 5 outside 1..4"),
    (1, {"bound0": 0}, "dimension bound 0 < 1"),
    (2, {"width": 2}, "element width 2 not 4 or 8"),
    (0, {"dir": 1}, "slot 0 is not write-capable"),
], ids=["dims-0", "dims-5", "bound0-0", "width-2", "dir-1-on-slot-0"])
def test_fault_ssr_write_on_read_only_slot(slot, writes, message):
    # a valid one-element read stream, then the one bad field write
    fields = {"bound0": 1, **writes}
    cfg = "\n".join(f"ssr_cfg_write {slot}, {f}, {v}" for f, v in fields.items())
    with pytest.raises(SimulationFault) as ei:
        run_source(f"""
            li t1, {DATA_BASE}
            ssr_cfg_write {slot}, base, t1
            {cfg}
            ssr_enable
            halt
        """)
    assert isinstance(ei.value.__cause__, InvalidConfig)
    assert str(ei.value.__cause__) == message


def test_ssr_cfg_read_returns_staged_value():
    sim, _ = run_source(f"""
        li t1, {DATA_BASE}
        ssr_cfg_write 1, base, t1
        ssr_cfg_write 1, stride0, -8
        ssr_cfg_read t2, 1, base
        ssr_cfg_read t3, 1, stride0
        ssr_cfg_read t4, 1, bound3
        ssr_cfg_read t5, 2, base
        halt
    """)
    t1, t2, t3, t4, t5 = (sim.cores[0].x[XREGS[r]]
                          for r in ("t1", "t2", "t3", "t4", "t5"))
    assert t2 == t1 == DATA_BASE
    assert t3 == -8 & 0xFFFFFFFF
    assert t4 == t5 == 0   # never written


def _cfg_write_outcome(field, value, operand):
    """Stage `value` into slot 0's `field` through `operand` (the immediate
    or t1, which holds it either way) over a one-element read stream, read
    it back and enable: the staged value, the readback, and the fault or
    the stats."""
    sim = ClusterSim()
    sim.load_program(assemble(f"""
        li t0, {DATA_BASE}
        ssr_cfg_write 0, base, t0
        ssr_cfg_write 0, bound0, 1
        li t1, {value}
        ssr_cfg_write 0, {field}, {operand}
        ssr_cfg_read t2, 0, {field}
        ssr_enable
        halt
    """), active_cores=1)
    try:
        outcome = stats_lines(sim.run(max_cycles=200), 1)
    except SimulationFault as e:
        outcome = (str(e), type(e.__cause__), str(e.__cause__))
    core = sim.cores[0]
    return core.staged_cfg[0][field], core.x[XREGS["t2"]], outcome


@pytest.mark.parametrize("field", SSR_FIELDS)
def test_ssr_cfg_write_immediate_equals_register(field):
    # a config register holds 32 bits, so an immediate and a register with
    # the same value stage, read back and configure alike
    for value in (-(1 << 31), -8, -1, 0, 1, 2, 4, 8, 0xFFFF_FFFF, DATA_BASE):
        imm = _cfg_write_outcome(field, value, value)
        reg = _cfg_write_outcome(field, value, "t1")
        assert imm == reg, value
        assert imm[0] == imm[1] == value & 0xFFFF_FFFF


@pytest.mark.parametrize("stmt", ["ssr_cfg_write 3, base, t1",
                                  "ssr_cfg_read t0, 3, base"],
                         ids=["write", "read"])
def test_fault_ssr_cfg_no_slot(stmt):
    with pytest.raises(SimulationFault) as ei:
        run_source(f"""
            {stmt}
            halt
        """)
    assert isinstance(ei.value.__cause__, InvalidConfig)
    assert str(ei.value.__cause__) == "no stream slot 3"


def test_fault_dma_overlap_from_program():
    with pytest.raises(SimulationFault) as ei:
        run_source(f"""
            li t1, {DATA_BASE}
            dm_src t1
            dm_dst t1
            li t2, 64
            dm_copy t2
            halt
        """)
    assert isinstance(ei.value.__cause__, OverlappingTransfer)


# ------------------------------------------------------------- fault table
#
# One program per place in cluster.py that finds a fault, and the fault it
# ends in: the message, the core, pc and cycle it names, and the type of
# its cause.

ONE_ELEMENT_AT_X = """
    .data
    x: .double 1.0
    .text
    li t1, x
"""

FAULTS = {
    "no-instruction": ("beq zero, zero, 16\nhalt", 1,
        ("no instruction at pc 0x10 (core 0, pc 0x10, cycle 1)",
         0, 0x10, 1, "OutOfRangeAccess")),
    "non-fp-in-capture": ("li t0, 2\nfrep t0, 1\naddi t1, t1, 1\nhalt", 1,
        ("'addi' inside an frep capture range (core 0, pc 0x8, cycle 2)",
         0, 0x8, 2, "NonFpInCapture")),
    "lw-misaligned": (f"li t1, {DATA_BASE + 2}\nlw t2, 0(t1)\nhalt", 1,
        ("0x10002 not 4-byte aligned (core 0, pc 0x4, cycle 1)",
         0, 0x4, 1, "MisalignedAccess")),
    # the lw waits out the L2 latency, then faults as it completes
    "lw-outside-memory": (f"li t1, {L2_BASE + L2_SIZE}\nlw t2, 0(t1)\nhalt", 1,
        ("address 0x80200000+4 outside TCDM and L2 "
         "(core 0, pc 0x4, cycle 11)",
         0, 0x4, 11, "OutOfRangeAccess")),
    # core 1"s address is misaligned, core 0"s is not
    "lw-misaligned-core1": (f"li t1, {DATA_BASE}\nadd t1, t1, a0\n"
                            "lw t2, 0(t1)\nhalt", 2,
        ("0x10001 not 4-byte aligned (core 1, pc 0x8, cycle 2)",
         1, 0x8, 2, "MisalignedAccess")),
    # tcdm_same_bank"s walk past the end of the TCDM: core 7"s last loads
    # take the L2 path and fault as they complete
    "lw-outside-memory-core7": ("\n".join(
        [f"li t0, {TCDM_BASE}", "slli t1, a0, 11", "add t0, t0, t1"]
        + [f"lw t2, {256 * j}(t0)" for j in range(460)] + ["halt"]), 8,
        ("address 0x30000+4 outside TCDM and L2 "
         "(core 7, pc 0x72c, cycle 3661)",
         7, 0x72c, 3661, "OutOfRangeAccess")),
    "fld-misaligned": (f"li t1, {DATA_BASE + 4}\nfld ft3, 0(t1)\nhalt", 1,
        ("0x10004 not 8-byte aligned (core 0, pc 0x4, cycle 1)",
         0, 0x4, 1, "MisalignedAccess")),
    "fld-outside-tcdm": (f"li t1, {L2_BASE}\nfld ft3, 0(t1)\nhalt", 1,
        ("FP memory access 0x80000000 outside TCDM "
         "(core 0, pc 0x4, cycle 1)",
         0, 0x4, 1, "OutOfRangeAccess")),
    "stream-read-past": ("""
        .data
        x: .double 1.0
        .double 2.0
        .text
        li t1, x
        ssr_cfg_write 0, base, t1
        ssr_cfg_write 0, stride0, 8
        ssr_cfg_write 0, bound0, 2
        ssr_enable
        fmv.d ft3, ft0
        fmv.d ft4, ft0
        fmv.d ft5, ft0
        ssr_disable
        halt
    """, 1,
        ("stream 0 read past its 2 elements (core 0, pc 0x20, cycle 8)",
         0, 0x20, 8, "StreamExhausted")),
    # the fadd waits two cycles on the fmadd, then pushes a second element
    "stream-written-past": (f"""
        li t0, {TCDM_BASE}
        ssr_cfg_write 2, base, t0
        ssr_cfg_write 2, bound0, 1
        ssr_cfg_write 2, dir, 1
        ssr_enable
        fmv.d ft2, ft3
        fmadd.d ft4, ft3, ft3, ft3
        fadd.d ft2, ft4, ft4
        halt
    """, 1,
        ("stream 2 written past its 1 elements (core 0, pc 0x20, cycle 10)",
         0, 0x20, 10, "StreamExhausted")),
    "write-to-read-stream": (ONE_ELEMENT_AT_X + """
        ssr_cfg_write 0, base, t1
        ssr_cfg_write 0, bound0, 1
        ssr_enable
        fadd.d ft0, ft3, ft3
        halt
    """, 1,
        ("write to read-stream f0 (core 0, pc 0x14, cycle 5)",
         0, 0x14, 5, "InvalidConfig")),
    "read-of-write-stream": (ONE_ELEMENT_AT_X + """
        ssr_cfg_write 2, base, t1
        ssr_cfg_write 2, bound0, 1
        ssr_cfg_write 2, dir, 1
        ssr_enable
        fmv.d ft3, ft2
        halt
    """, 1,
        ("read of write-stream f2 (core 0, pc 0x18, cycle 6)",
         0, 0x18, 6, "InvalidConfig")),
    "load-to-stream": (ONE_ELEMENT_AT_X + """
        ssr_cfg_write 0, base, t1
        ssr_cfg_write 0, bound0, 1
        ssr_enable
        fld ft0, 0(t1)
        halt
    """, 1,
        ("load destination f0 is stream-mapped (core 0, pc 0x14, cycle 5)",
         0, 0x14, 5, "InvalidConfig")),
    "frep-count-zero": ("li t0, 0\nfrep t0, 1\nfmv.d ft2, ft3\nhalt", 1,
        ("frep with repetition count 0 (core 0, pc 0x4, cycle 1)",
         0, 0x4, 1, "CountZero")),
    "cfg-write-while-streaming": (f"""
        li t1, {DATA_BASE}
        ssr_cfg_write 0, base, t1
        ssr_cfg_write 0, bound0, 1
        ssr_enable
        ssr_cfg_write 0, bound0, 2
        halt
    """, 1,
        ("slot 0 reconfigured while streaming (core 0, pc 0x10, cycle 4)",
         0, 0x10, 4, "ReconfigWhileActive")),
    "cfg-write-no-slot": ("ssr_cfg_write 3, base, t1\nhalt", 1,
        ("no stream slot 3 (core 0, pc 0x0, cycle 0)",
         0, 0x0, 0, "InvalidConfig")),
    "cfg-read-no-slot": ("ssr_cfg_read t0, 3, base\nhalt", 1,
        ("no stream slot 3 (core 0, pc 0x0, cycle 0)",
         0, 0x0, 0, "InvalidConfig")),
    "enable-reconfigures": (f"""
        li t1, {DATA_BASE}
        ssr_cfg_write 0, base, t1
        ssr_cfg_write 0, bound0, 1
        ssr_enable
        ssr_enable
        halt
    """, 1,
        ("slot 0 reconfigured while streaming (core 0, pc 0x10, cycle 4)",
         0, 0x10, 4, "ReconfigWhileActive")),
    "enable-bad-config": (f"""
        li t1, {DATA_BASE}
        ssr_cfg_write 0, base, t1
        ssr_cfg_write 0, bound0, 1
        ssr_cfg_write 0, dir, 1
        ssr_enable
        halt
    """, 1,
        ("slot 0 is not write-capable (core 0, pc 0x10, cycle 4)",
         0, 0x10, 4, "InvalidConfig")),
    "enable-footprint-outside": (f"""
        li t1, {TCDM_BASE + TCDM_SIZE}
        ssr_cfg_write 2, base, t1
        ssr_cfg_write 2, stride0, 8
        ssr_cfg_write 2, bound0, 4
        ssr_cfg_write 2, dir, 1
        ssr_enable
        ssr_disable
        halt
    """, 1,
        ("stream 2 footprint [0x30000, 0x30020) outside TCDM "
         "(core 0, pc 0x14, cycle 5)",
         0, 0x14, 5, "OutOfRangeAccess")),
    "enable-misaligned": (f"""
        li t1, {TCDM_BASE + 4}
        ssr_cfg_write 0, base, t1
        ssr_cfg_write 0, stride0, 8
        ssr_cfg_write 0, bound0, 2
        ssr_enable
        fmv.d ft3, ft0
        fmv.d ft3, ft0
        ssr_disable
        halt
    """, 1,
        ("stream 0 base or stride not 8-byte aligned "
         "(core 0, pc 0x10, cycle 4)",
         0, 0x10, 4, "MisalignedAccess")),
    "dm-copy-overlap": (f"""
        li t1, {DATA_BASE}
        dm_src t1
        dm_dst t1
        li t2, 64
        dm_copy t2
        halt
    """, 1,
        ("src [0x10000,0x10040) overlaps dst [0x10000,0x10040) "
         "(core 0, pc 0x10, cycle 4)",
         0, 0x10, 4, "OverlappingTransfer")),
    "dm-copy-outside-memory": (f"""
        li t1, {DATA_BASE}
        dm_dst t1
        li t1, 4
        dm_src t1
        li t2, 64
        dm_copy t2
        halt
    """, 1,
        ("address 0x4+64 outside TCDM and L2 (core 0, pc 0x14, cycle 5)",
         0, 0x14, 5, "OutOfRangeAccess")),
}


@pytest.mark.parametrize("name", FAULTS)
def test_fault_table(name):
    src, cores, expected = FAULTS[name]
    with pytest.raises(SimulationFault) as ei:
        run_source(src, cores=cores)
    f = ei.value
    assert (str(f), f.core, f.pc, f.cycle,
            type(f.__cause__).__name__) == expected


def test_cycle_limit():
    with pytest.raises(CycleLimitExceeded):
        run_source("loop: j loop", max_cycles=100)
