"""FP repetition sequencer and FPU issue bookkeeping.

The sequencer owns a 16-entry micro-loop buffer. An frep diverts the next
n_instr FP instructions into the buffer: each one passes through the FPU issue
slot once as a buffer-fill operation (capture pass, no arithmetic, no stream
pops), then the buffer replays autonomously for the full repetition count.
Replay has priority over the FP queue and is never interleaved with it.

The scoreboard models a fully pipelined FPU with per-class latencies; issue
stalls while a source is in flight (RAW) or the destination has a pending
write (WAW). Stream-mapped registers bypass the scoreboard entirely.

The FP queue and the sequencer buffer hold one FpEntry per dispatch.
"""

from enum import Enum

from .errors import CountZero

BUFFER_DEPTH = 16
FP_QUEUE_DEPTH = 8


class Mode(Enum):
    IDLE = "idle"
    CAPTURING = "capturing"
    REPLAYING = "replaying"


class Sequencer:
    """The micro-loop buffer and its one counter. `arm` starts a capture of
    n_instr entries, which the FPU commit appends to `buffer`, the queue's
    entries themselves, so operands latched at dispatch (TCDM offsets,
    integer move sources) stay fixed across iterations. The full buffer
    then replays: `issued` counts its issues, the next is
    buffer[issued % n_instr], and the replay ends when `issued` reaches
    `end`, n_instr times the repetition count."""

    def __init__(self):
        self.buffer = []
        self.n_instr = 0
        self.issued = 0
        self.end = 0
        self.mode = Mode.IDLE

    def arm(self, count: int, n_instr: int):
        """Begin a capture of n_instr instructions to be run count times.
        An frep reaches here only with the sequencer idle, since it waits
        on FREP_WAIT and faults inside a capture range, and with a body
        that decode bounded to 1..BUFFER_DEPTH."""
        if count == 0:
            raise CountZero("frep with repetition count 0")
        self.buffer = []
        self.n_instr = n_instr
        self.issued = 0
        self.end = n_instr * count
        self.mode = Mode.CAPTURING


class Scoreboard:
    """Per FP register, the cycle at which its pending result becomes
    usable; the FPU plan reads `ready` in place."""

    def __init__(self):
        self.ready = [0] * 32

    def issue(self, now, dest, lat):
        if dest is not None:
            self.ready[dest] = now + lat


class FpEntry:
    """One dispatch of an FP instruction, as the FP queue and the sequencer
    buffer hold it. Dispatch sets each field; the FpOp comes from decode,
    the rest is what only this dispatch knows:

    - op:      the instruction's interned FpOp
    - capture: this pass fills the sequencer buffer instead of executing;
               cleared when the entry is stored
    - off, bank: TCDM offset and bank of a load or store, latched at
               dispatch, so every replay accesses the same word
    - xval:    the latched integer source of fmv.d.x

    The entry issues as the split its core keeps for op (`Core.splits`).
    """
    __slots__ = ("op", "capture", "off", "bank", "xval")
