"""Stream address generation and slot FIFO behavior.

Oracle: a brute-force nested-loop enumerator, written independently of the
odometer in the package, produces the expected address order.
"""

import random

import pytest

from streamsim.cluster import ClusterSim
from streamsim.errors import InvalidConfig
from streamsim.ssr import (READ_SLOTS, WRITE_SLOTS, Direction, SsrConfig,
                           SsrDim, StreamSlot, iter_addresses)


def brute_force(base, dims):
    # dims innermost first; enumerate outer to inner with explicit loops
    bounds = [d.bound for d in dims]
    strides = [d.stride for d in dims]
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
    cfg = SsrConfig(base=0x100, dims=(SsrDim(8, 5),))
    assert list(iter_addresses(cfg)) == [0x100, 0x108, 0x110, 0x118, 0x120]


def test_frozen_three_dim():
    cfg = SsrConfig(base=0, dims=(SsrDim(8, 2), SsrDim(-16, 2), SsrDim(100, 2)))
    want = [0, 8, -16, -8, 100, 108, 84, 92]
    assert list(iter_addresses(cfg)) == want


def test_matches_brute_force():
    rng = random.Random(23)
    for _ in range(300):
        nd = rng.randint(1, 4)
        dims = tuple(SsrDim(rng.choice([-24, -8, 0, 8, 16, 264]),
                            rng.randint(1, 4)) for _ in range(nd))
        base = rng.randrange(0, 1 << 16, 8)
        cfg = SsrConfig(base=base, dims=dims)
        assert list(iter_addresses(cfg)) == brute_force(base, dims)


def test_total_and_exhaustion():
    cfg = SsrConfig(base=0, dims=(SsrDim(8, 3), SsrDim(0, 4)))
    assert cfg.total == 12
    assert len(list(iter_addresses(cfg))) == 12


def test_validate_rejects():
    with pytest.raises(InvalidConfig):
        SsrConfig(base=0, dims=()).validate()
    with pytest.raises(InvalidConfig):
        SsrConfig(base=0, dims=tuple(SsrDim(8, 1) for _ in range(5))).validate()
    with pytest.raises(InvalidConfig):
        SsrConfig(base=0, dims=(SsrDim(8, 0),)).validate()
    with pytest.raises(InvalidConfig):
        SsrConfig(base=0, dims=(SsrDim(8, 1),), element_width=2).validate()
    # slot 0 and 1 cannot write, slot 2 can
    w = SsrConfig(base=0, dims=(SsrDim(8, 1),), direction=Direction.WRITE)
    with pytest.raises(InvalidConfig):
        w.validate(slot=0)
    w.validate(slot=2)
    r = SsrConfig(base=0, dims=(SsrDim(8, 1),))
    r.validate(slot=2)


def make_slot(idx, cfg, fifo_depth=4):
    cfg.validate(idx)
    slot = StreamSlot(idx, fifo_depth)
    slot.configure(cfg)
    return slot


def test_read_slot_fifo():
    slot = make_slot(0, SsrConfig(base=0x40, dims=(SsrDim(8, 6),)))
    # prefetcher requests one address per cycle until the fifo fills
    got = []
    for _ in range(4):
        a = slot.want_prefetch()
        assert a is not None
        got.append(a)
        slot.commit_prefetch(raw=a)  # store the address as the data
    assert got == [0x40, 0x48, 0x50, 0x58]
    assert slot.want_prefetch() is None  # full
    assert slot.can_pop(4) and not slot.can_pop(5)
    assert slot.pop() == 0x40
    assert slot.want_prefetch() == 0x60  # slot freed


def test_read_slot_exhaustion():
    slot = make_slot(1, SsrConfig(base=0, dims=(SsrDim(8, 2),)))
    for _ in range(2):
        slot.commit_prefetch(raw=slot.want_prefetch())
    assert slot.want_prefetch() is None  # nothing left to fetch
    slot.pop()
    slot.pop()
    assert not slot.can_pop(1)
    assert slot.gen.exhausted


def test_write_slot_drain_order():
    slot = make_slot(2, SsrConfig(base=0x200, dims=(SsrDim(16, 3),),
                                  direction=Direction.WRITE))
    vals = [11, 22, 33]
    for v in vals:
        assert slot.can_push()
        slot.push(v)
    drained = []
    while True:
        a = slot.want_drain()
        if a is None:
            break
        drained.append((a, slot.commit_drain()[1]))
    assert drained == [(0x200, 11), (0x210, 22), (0x220, 33)]
    assert slot.drained


def test_write_slot_backpressure():
    slot = make_slot(2, SsrConfig(base=0, dims=(SsrDim(8, 8),),
                                  direction=Direction.WRITE),
                     fifo_depth=2)
    slot.push(1)
    slot.push(2)
    assert not slot.can_push()
    slot.commit_drain()
    assert slot.can_push()


def test_engine_slot_roles():
    # each core owns one slot per stream register f0..f2, all read-capable
    # and only the last write-capable; the cluster tests cover the faults
    core = ClusterSim().cores[0]
    assert [s.index for s in core.slots] == [0, 1, 2]
    assert READ_SLOTS == (0, 1, 2) and WRITE_SLOTS == (2,)
    assert not any(s.active for s in core.slots)
