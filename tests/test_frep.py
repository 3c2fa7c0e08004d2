"""Sequencer capture/replay state machine and the FPU scoreboard check."""

import pytest

from streamsim.cluster import TCDM_BASE, ClusterSim
from streamsim.errors import CountZero, NestedFrep
from streamsim.frep import BUFFER_DEPTH, Mode, Sequencer
from streamsim.isa import (FP_DECODE, LAT_ADDMUL, LAT_FMA, LAT_LOAD, LAT_MOVE,
                           LAT_STORE, decode)


def entry(text, x=()):
    """The FP queue entry that core 0 of a new cluster dispatches for
    `text`, after setting each (x register, value) of `x`."""
    sim = ClusterSim()
    core = sim.cores[0]
    for reg, value in x:
        core.state.x[reg] = value
    return sim._fp_entry(core, decode(text))


def test_latency_table():
    assert FP_DECODE["fmadd.d"].lat == LAT_FMA == 3
    assert FP_DECODE["fadd.d"].lat == LAT_ADDMUL == 2
    assert FP_DECODE["fmv.d"].lat == LAT_MOVE == 1
    assert FP_DECODE["fld"].lat == LAT_LOAD == 1
    assert FP_DECODE["fsd"].lat == LAT_STORE == 1
    assert "addi" not in FP_DECODE


def test_capture_then_replay_full_iterations():
    seq = Sequencer()
    seq.arm(count=3, n_instr=2)
    assert seq.mode == Mode.CAPTURING
    body = [entry("fmadd.d ft3, ft0, ft1, ft3"), entry("fmadd.d ft4, ft0, ft1, ft4")]
    seq.load_slot(body[0])
    assert seq.mode == Mode.CAPTURING
    seq.load_slot(body[1])
    assert seq.mode == Mode.REPLAYING
    # replay performs count complete passes over the body
    seen = []
    while seq.mode == Mode.REPLAYING:
        seen.append(seq.replay_op())
        seq.advance_replay()
    assert seen == body * 3
    assert seq.idle


def test_replay_position():
    seq = Sequencer()
    seq.arm(count=2, n_instr=1)
    op = entry("fadd.d ft3, ft4, ft5")
    seq.load_slot(op)
    assert seq.replay_position() == (1, 2)
    seq.advance_replay()
    assert seq.replay_position() == (2, 2)
    seq.advance_replay()
    assert seq.idle


def test_replayed_op_identity():
    # the buffer stores the queue entry itself, so latched operands persist
    seq = Sequencer()
    seq.arm(count=2, n_instr=1)
    op = entry("fmv.d.x ft3, t0", x=[(5, 42)])
    seq.load_slot(op)
    assert seq.replay_op() is op
    seq.advance_replay()
    assert seq.replay_op() is op


def test_nested_frep_rejected():
    seq = Sequencer()
    seq.arm(count=2, n_instr=1)
    with pytest.raises(NestedFrep):
        seq.arm(count=2, n_instr=1)
    seq.load_slot(entry("fadd.d ft3, ft4, ft5"))
    with pytest.raises(NestedFrep):  # still replaying
        seq.arm(count=1, n_instr=1)


def test_arm_bounds():
    seq = Sequencer()
    with pytest.raises(CountZero):
        seq.arm(count=0, n_instr=1)
    with pytest.raises(NestedFrep):
        seq.arm(count=1, n_instr=BUFFER_DEPTH + 1)
    seq.arm(count=1, n_instr=BUFFER_DEPTH)


def plan_at(cycle, text, pending=()):
    """The FPU plan of core 0 at `cycle` with `text` at the head of its FP
    queue, after the scoreboard took each (issue cycle, dest, latency) of
    `pending`; the bank requests it made go to `requests`."""
    sim = ClusterSim()
    core = sim.cores[0]
    core.state.x[6] = TCDM_BASE          # t1, the base of FP loads/stores
    for now, dest, lat in pending:
        core.sb.issue(now, dest, lat)
    sim.cycle = cycle
    core.fq.append(sim._fp_entry(core, decode(text)))
    requests = {}
    return sim._plan_fpu(core, requests), core, requests


def test_plan_fpu_raw():
    pending = [(10, 3, 3)]
    for cycle in (11, 12):
        plan, core, _ = plan_at(cycle, "fadd.d ft5, ft3, ft3", pending)
        assert plan == "stall:hazard" and core.stats.fp_stall_hazard == 1
    plan, core, _ = plan_at(13, "fadd.d ft5, ft3, ft3", pending)
    assert plan is core.fq[0]
    plan, core, _ = plan_at(11, "fadd.d ft5, ft4, ft4", pending)
    assert plan is core.fq[0]


def test_plan_fpu_waw():
    # WAW: the op waits for the older write to its destination to land
    pending = [(0, 5, 3)]
    assert plan_at(1, "fmv.d ft5, ft4", pending)[0] == "stall:hazard"
    plan, core, _ = plan_at(3, "fmv.d ft5, ft4", pending)
    assert plan is core.fq[0]


def test_plan_fpu_store_without_destination():
    # stores write no register, so issuing one leaves nothing pending
    plan, core, requests = plan_at(0, "fsd ft4, 0(t1)", [(0, None, 3)])
    assert plan is core.fq[0] and core.stats.fp_stall_hazard == 0
    assert requests == {0: [core.int_rid]}
