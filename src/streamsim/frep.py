"""FP repetition sequencer and FPU issue bookkeeping.

The sequencer owns a 16-entry micro-loop buffer. An frep diverts the next
n_instr FP instructions into the buffer: each one passes through the FPU issue
slot once as a buffer-fill operation (capture pass, no arithmetic, no stream
pops), then the buffer replays autonomously for the full repetition count.
Replay has priority over the FP queue and is never interleaved with it.

The scoreboard models a fully pipelined FPU with per-class latencies; issue
stalls while a source is in flight (RAW) or the destination has a pending
write (WAW). Stream-mapped registers bypass the scoreboard entirely.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import CountZero, NestedFrep
from .isa import FP_FMA, FP_ADDMUL, FP_LOAD, FP_STORE, FP_MOVE, Instruction

BUFFER_DEPTH = 16
FP_QUEUE_DEPTH = 8

# issue-to-result latencies, cycles
LAT_FMA = 3
LAT_ADDMUL = 2
LAT_MOVE = 1
LAT_LOAD = 1
LAT_STORE = 1


class Mode(Enum):
    IDLE = "idle"
    CAPTURING = "capturing"
    REPLAYING = "replaying"


class Sequencer:
    def __init__(self):
        self.buffer = []
        self.n_instr = 0
        self.total_iters = 0
        self.iter_idx = 0
        self.inst_ptr = 0
        self.mode = Mode.IDLE

    @property
    def idle(self):
        return self.mode is Mode.IDLE

    def arm(self, count: int, n_instr: int):
        """Begin a capture of n_instr instructions to be run count times."""
        if not self.idle:
            raise NestedFrep("frep issued while the sequencer is busy")
        if count == 0:
            raise CountZero("frep with repetition count 0")
        if not 1 <= n_instr <= BUFFER_DEPTH:
            raise NestedFrep(f"frep body of {n_instr} exceeds the "
                             f"{BUFFER_DEPTH}-entry buffer")
        self.buffer = []
        self.n_instr = n_instr
        self.total_iters = count
        self.iter_idx = 0
        self.inst_ptr = 0
        self.mode = Mode.CAPTURING

    def load_slot(self, op):
        """Commit one capture pass; starts replay once the body is complete.

        The buffer holds queue entries, so operands latched at dispatch
        (TCDM offsets, integer move sources) stay fixed across iterations.
        """
        assert self.mode == Mode.CAPTURING
        self.buffer.append(op)
        if len(self.buffer) == self.n_instr:
            self.mode = Mode.REPLAYING
            self.iter_idx = 1
            self.inst_ptr = 0

    def replay_op(self):
        return self.buffer[self.inst_ptr]

    def replay_position(self):
        return self.iter_idx, self.total_iters

    def advance_replay(self):
        self.inst_ptr += 1
        if self.inst_ptr == self.n_instr:
            self.inst_ptr = 0
            self.iter_idx += 1
            if self.iter_idx > self.total_iters:
                self.mode = Mode.IDLE
                self.buffer = []


class Scoreboard:
    """Per FP register, the cycle at which its pending result becomes
    usable; the FPU plan reads `ready` in place."""

    def __init__(self):
        self.ready = [0] * 32

    def issue(self, now, dest, lat):
        if dest is not None:
            self.ready[dest] = now + lat


# FP queue entry kinds
OP_ARITH = "arith"      # compute or register move
OP_LOAD = "load"        # fld/flw: memory -> FP reg at FPU issue
OP_STORE = "store"      # fsd/fsw: FP reg -> memory at FPU issue


@dataclass(frozen=True)
class FpDecode:
    """What the FPU needs of one FP mnemonic, looked up once per dispatch."""
    kind: str          # OP_ARITH, OP_LOAD or OP_STORE
    srcs: tuple        # Instruction fields of the FP sources, in operand order
    lat: int           # issue-to-result latency, cycles
    flops: int         # per op; nonzero exactly for the compute ops that
                       # occupy the FMA datapath, which utilization counts
    width: int         # bytes accessed by a load or store


def _decode_entry(mn):
    if mn in FP_LOAD:
        return FpDecode(OP_LOAD, (), LAT_LOAD, 0, 8 if mn == "fld" else 4)
    if mn in FP_STORE:
        return FpDecode(OP_STORE, ("rs2",), LAT_STORE, 0, 8 if mn == "fsd" else 4)
    lanes = 2 if mn.endswith(".s") else 1
    if mn in FP_FMA:
        return FpDecode(OP_ARITH, ("rs1", "rs2", "rs3"), LAT_FMA, 2 * lanes, 8)
    if mn in FP_ADDMUL:
        return FpDecode(OP_ARITH, ("rs1", "rs2"), LAT_ADDMUL, lanes, 8)
    if mn == "fmv.d":
        return FpDecode(OP_ARITH, ("rs1",), LAT_MOVE, 0, 8)
    return FpDecode(OP_ARITH, (), LAT_MOVE, 0, 8)  # fmv.d.x: x source


FP_DECODE = {mn: _decode_entry(mn)
             for mn in sorted(FP_FMA | FP_ADDMUL | FP_MOVE | FP_LOAD | FP_STORE)}


@dataclass(slots=True)
class QueuedOp:
    kind: str
    instr: Instruction
    off: int | None = None    # TCDM offset of a load/store, latched at dispatch
    xval: int | None = None   # latched integer source for fmv.d.x
    capture: bool = False     # first pass fills the sequencer buffer instead
                              # of executing; cleared when the op is stored
    # decoded at dispatch from FP_DECODE, so neither the queue nor a replay
    # inspects the mnemonic again
    srcs: tuple = ()          # FP source registers, in operand order
    dest: int | None = None   # FP destination register
    lat: int = 0
    flops: int = 0
    width: int = 8
    # the registers split under the stream map `mapped` into stream pops, a
    # stream push and scoreboard registers; split at first issue and reused
    # by every replay
    mapped: dict | None = None
    operands: tuple = ()      # per source: its register, or the slot to pop
    pops: tuple = ()          # (read slot, pops) per stream source
    push: object = None       # write slot taking the result
    sb_regs: tuple = ()       # sources and destination not stream-mapped
    bank: int | None = None   # TCDM bank of a load/store, latched at dispatch
