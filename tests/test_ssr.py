"""Stream address generation and slot FIFO behavior.

Oracle: a brute-force nested-loop enumerator, written independently of the
address walk in the package, produces the expected address order. The FIFO
checks configure a slot as ssr_enable does, from its base minus TCDM_BASE,
and drive it through the cluster's own stream plan and commit, with every
bank request granted.
"""

import random
import tracemalloc

import pytest

from streamsim.cluster import TCDM_BASE as TCDM, ClusterSim
from streamsim.errors import InvalidConfig, StreamExhausted
from streamsim.fp import bits_to_f64, f64_to_bits
from streamsim.isa import MASK32, decode
from streamsim.ssr import FIFO_DEPTH, WRITE_SLOTS, StreamSlot


def fields(base, dims, **extra):
    """The config-bus fields of a stream over dims, (stride, bound) pairs
    innermost first, as ssr_cfg_write stages them: each stride a 32-bit
    register value."""
    out = {"base": base, "dims": len(dims), **extra}
    for d, (stride, bound) in enumerate(dims):
        out[f"stride{d}"] = stride & MASK32
        out[f"bound{d}"] = bound
    return out


def iter_addresses(staged):
    """All addresses of a configured stream, in issue order, as the slot
    steps through them."""
    slot = StreamSlot(0)
    slot.configure(staged)
    while slot.off is not None:
        yield slot.off
        slot.off = next(slot.walk, None)


def brute_force(base, dims):
    # dims innermost first; enumerate outer to inner with explicit loops
    bounds = [bound for _, bound in dims]
    strides = [stride for stride, _ in dims]
    out = []

    def rec(level, offset):
        if level < 0:
            out.append(offset)
            return
        for i in range(bounds[level]):
            rec(level - 1, offset + i * strides[level])

    rec(len(dims) - 1, base)
    return out


def test_one_dim_walk():
    staged = fields(0x100, [(8, 5)])
    assert list(iter_addresses(staged)) == [0x100, 0x108, 0x110, 0x118, 0x120]
    # dims defaults to 1 and an unwritten stride to 0
    assert list(iter_addresses({"base": 0x40, "bound0": 3})) == [0x40] * 3


def test_frozen_three_dim():
    staged = fields(0, [(8, 2), (-16, 2), (100, 2)])
    want = [0, 8, -16, -8, 100, 108, 84, 92]
    assert list(iter_addresses(staged)) == want


def test_matches_brute_force():
    rng = random.Random(23)
    for _ in range(300):
        nd = rng.randint(1, 4)
        dims = [(rng.choice([-24, -8, 0, 8, 16, 264]), rng.randint(1, 4))
                for _ in range(nd)]
        base = rng.randrange(0, 1 << 16, 8)
        assert list(iter_addresses(fields(base, dims))) == brute_force(base, dims)


def test_total_and_exhaustion():
    staged = fields(0, [(8, 3), (0, 4)])
    slot = make_slot(0, staged)
    assert slot.total == 12
    assert slot.is_read and slot.width == 8   # dir 0 and width 8 by default
    assert len(list(iter_addresses(staged))) == 12


def test_walk_is_lazy():
    # an outer dimension of stride 0 may be legally huge: configuring it
    # must not materialize its counters or addresses
    staged = fields(0x100, [(8, 3), (0, 1 << 24)])
    tracemalloc.start()
    try:
        slot = make_slot(0, staged)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert slot.total == 3 << 24
    got = [slot.off, *(next(slot.walk) for _ in range(6))]
    assert got == [0x100, 0x108, 0x110] * 2 + [0x100]


def test_validate_rejects():
    one = fields(0, [(8, 1)])
    for bad in ({"dims": 0}, {"dims": 5}, {"bound0": 0}, {"width": 2}):
        with pytest.raises(InvalidConfig):
            StreamSlot(0).configure({**one, **bad})
    # slot 0 and 1 cannot write, slot 2 can
    with pytest.raises(InvalidConfig):
        StreamSlot(0).configure({**one, "dir": 1})
    StreamSlot(2).configure({**one, "dir": 1})
    StreamSlot(2).configure(one)


def make_slot(idx, staged):
    slot = StreamSlot(idx)
    slot.configure(staged)
    return slot


def streaming_core(*slots):
    """Core 0 of a fresh cluster with these slots in place, streaming on,
    and the only live core."""
    sim = ClusterSim()
    core = sim.cores[0]
    for slot in slots:
        slot.rid = core.slots[slot.index].rid
        core.slots[slot.index] = slot
    core.ssr_enabled = True
    sim.live = [core]
    sim._remap(core)
    return sim, core


def stream_cycle(sim, core):
    """Plan and commit one cycle of the cluster's stream accesses, every
    request granted; return the addresses the core's slots accessed."""
    requests = {}
    plans = sim._plan_streams(requests)
    assert all(len(ids) == 1 for ids in requests.values())
    sim._commit_streams(plans, requests)    # each lone request granted
    return [TCDM + off for slot, off, _ in plans if slot in core.slots]


def test_read_slot_fifo():
    base = TCDM + 0x40
    slot = make_slot(0, fields(base - TCDM, [(8, 6)]))
    sim, core = streaming_core(slot)
    for k in range(6):
        # the address as the data
        sim.mem.write(base + 8 * k, (base + 8 * k).to_bytes(8, "little"))
    # the slot prefetches one element per cycle until the fifo fills
    got = [stream_cycle(sim, core) for _ in range(4)]
    assert got == [[base], [base + 0x8], [base + 0x10], [base + 0x18]]
    assert stream_cycle(sim, core) == []  # full
    assert len(slot.fifo) == 4
    assert f64_to_bits(slot.fifo.popleft()) == base
    assert stream_cycle(sim, core) == [base + 0x20]  # slot freed


def test_read_slot_exhaustion():
    slot = make_slot(1, fields(0, [(8, 2)]))
    sim, core = streaming_core(slot)
    assert stream_cycle(sim, core) + stream_cycle(sim, core) == [TCDM, TCDM + 8]
    assert stream_cycle(sim, core) == []  # nothing left to fetch
    slot.fifo.popleft()
    slot.fifo.popleft()
    assert not slot.fifo
    assert slot.off is None


def test_write_slot_drain_order():
    base = TCDM + 0x200
    slot = make_slot(2, fields(base - TCDM, [(16, 3)], dir=1))
    sim, core = streaming_core(slot)
    vals = [11, 22, 33]
    for v in vals:
        assert len(slot.write_buf) < FIFO_DEPTH
        slot.push(bits_to_f64(v))
    with pytest.raises(StreamExhausted):
        slot.push(44)  # the stream has three elements
    drained = [stream_cycle(sim, core) for _ in range(4)]
    assert drained == [[base], [base + 0x10], [base + 0x20], []]
    assert [int.from_bytes(sim.mem.read(base + 16 * k, 8), "little")
            for k in range(3)] == vals
    assert not slot.write_buf


def test_write_slot_backpressure():
    slot = make_slot(2, fields(0, [(8, 8)], dir=1))
    sim, core = streaming_core(slot)
    for v in range(FIFO_DEPTH):
        slot.push(v)
    # a full write buffer holds back an FP op that writes the stream,
    # dispatched from pc 0 by the int pipe's plan
    sim.code = {0: decode("fmv.d ft2, ft3")}
    core.fq.append(sim._plan_int(core, {}))
    assert sim._plan_fpu(core, core.fq[0], {}) == "stall:stream"
    assert stream_cycle(sim, core) == [TCDM]
    assert len(slot.write_buf) == FIFO_DEPTH - 1
    assert sim._plan_fpu(core, core.fq[0], {}) is core.fq[0]


def test_engine_slot_roles():
    # each core owns one slot per stream register f0..f2, all read-capable
    # and only the last write-capable; the cluster tests cover the faults
    core = ClusterSim().cores[0]
    assert [s.index for s in core.slots] == [0, 1, 2]
    assert WRITE_SLOTS == (2,)
    assert not any(s.active for s in core.slots)
