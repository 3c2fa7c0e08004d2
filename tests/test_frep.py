"""Sequencer capture/replay state machine and the FPU scoreboard check."""

import pytest

from streamsim.asm import assemble
from streamsim.cluster import TCDM_BASE, ClusterSim
from streamsim.errors import CountZero
from streamsim.fp import f64_to_bits
from streamsim.frep import BUFFER_DEPTH, Mode, Sequencer
from streamsim.isa import (LAT_ADDMUL, LAT_FMA, LAT_LOAD, LAT_MOVE, LAT_STORE,
                           OPS, Domain)


def test_latency_table():
    assert OPS["fmadd.d"].lat == LAT_FMA == 3
    assert OPS["fadd.d"].lat == LAT_ADDMUL == 2
    assert OPS["fmv.d"].lat == LAT_MOVE == 1
    assert OPS["fld"].lat == LAT_LOAD == 1
    assert OPS["fsd"].lat == LAT_STORE == 1
    assert OPS["addi"].domain is not Domain.FP and OPS["addi"].lat == 0


def fp_issues(source):
    """The fp-pipe trace events of core 0 running `source` that capture or
    issue an op, and the core after its halt."""
    sim = ClusterSim()
    sim.load_program(assemble(source), active_cores=1)
    events = [row.split("fp-pipe: ")[1] for row in sim.run(trace=True).trace]
    return [e for e in events if e != "-" and not e.startswith("stall:")], \
        sim.cores[0]


def test_capture_then_replay_full_iterations():
    # each body op passes once to fill the buffer, then replay performs
    # count complete passes over the body
    events, core = fp_issues(
        "li t0, 3\nfrep t0, 2\nfmadd.d ft3, ft0, ft1, ft3\n"
        "fadd.d ft4, ft0, ft4\nhalt")
    assert events == ["capture fmadd.d", "capture fadd.d"] + [
        f"{mn} [iter {i}/3]" for i in (1, 2, 3) for mn in ("fmadd.d", "fadd.d")]
    assert core.seq.mode is Mode.IDLE and core.seq.buffer == []


def test_replay_position():
    events, core = fp_issues("li t0, 2\nfrep t0, 1\nfadd.d ft3, ft4, ft5\nhalt")
    assert events == ["capture fadd.d", "fadd.d [iter 1/2]", "fadd.d [iter 2/2]"]
    assert core.seq.mode is Mode.IDLE


def test_replayed_op_identity():
    # the buffer stores the queue entry itself, so the x source latched at
    # dispatch persists while t0 changes under the replay
    events, core = fp_issues("li t0, 42\nli t1, 3\nfrep t1, 1\n"
                             "fmv.d.x ft3, t0\nli t0, 7\nhalt")
    assert events == ["capture fmv.d.x"] + [
        f"fmv.d.x [iter {i}/3]" for i in (1, 2, 3)]
    assert core.state.x[5] == 7 and f64_to_bits(core.state.f[3]) == 42


def test_arm_bounds():
    seq = Sequencer()
    with pytest.raises(CountZero):
        seq.arm(count=0, n_instr=1)
    seq.arm(count=1, n_instr=BUFFER_DEPTH)


def plan_at(cycle, text, pending=()):
    """The FPU plan of core 0 at `cycle` with `text`, dispatched by the int
    pipe's plan, at the head of its FP queue, after the scoreboard took
    each (issue cycle, dest, latency) of `pending`; the bank requests it
    made go to `requests`."""
    sim = ClusterSim()
    sim.load_program(assemble(text), active_cores=1)
    core = sim.cores[0]
    core.state.x[6] = TCDM_BASE          # t1, the base of FP loads/stores
    for now, dest, lat in pending:
        core.sb.issue(now, dest, lat)
    sim.cycle = cycle
    core.fq.append(sim._plan_int(core, {}))
    requests = {}
    return sim._plan_fpu(core, core.fq[0], requests), core, requests


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
