"""Stream semantic registers: affine address generators feeding prefetch FIFOs.

A configured slot turns reads/writes of FP registers f0..f2 into a strided
memory stream. Addresses follow the odometer law

    addr_k = base + sum_d idx_d(k) * stride_d

with dimension 0 fastest. As in hardware, a slot is a set of loop counters
and one address adder in front of its FIFO. Each core owns three slots; the
cluster reads their counters and FIFOs in place every cycle and issues the
element accesses itself, so stream traffic contends for TCDM banks like any
other requester.
"""

from dataclasses import dataclass
from collections import deque
from enum import Enum

from .errors import InvalidConfig, StreamExhausted

N_SLOTS = 3
# elements a read slot prefetches ahead, and stores a write slot buffers; one
# FP op pops a stream up to three times, so below 3 such an op never issues
FIFO_DEPTH = 4
MAX_DIMS = 4
READ_SLOTS = (0, 1, 2)
WRITE_SLOTS = (2,)


class Direction(Enum):
    READ = 0
    WRITE = 1


@dataclass(frozen=True)
class SsrDim:
    stride: int   # bytes, signed
    bound: int    # iterations in this dimension, >= 1


@dataclass(frozen=True)
class SsrConfig:
    base: int
    dims: tuple          # 1..4 SsrDim entries, innermost first
    direction: Direction = Direction.READ
    element_width: int = 8

    def validate(self, slot=None):
        if not 1 <= len(self.dims) <= MAX_DIMS:
            raise InvalidConfig(f"{len(self.dims)} dims outside 1..{MAX_DIMS}")
        for d in self.dims:
            if d.bound < 1:
                raise InvalidConfig(f"dimension bound {d.bound} < 1")
        if self.element_width not in (4, 8):
            raise InvalidConfig(f"element width {self.element_width} not 4 or 8")
        if not isinstance(self.direction, Direction):
            raise InvalidConfig(f"bad direction {self.direction!r}")
        if slot is not None:
            if self.direction == Direction.READ and slot not in READ_SLOTS:
                raise InvalidConfig(f"slot {slot} is not read-capable")
            if self.direction == Direction.WRITE and slot not in WRITE_SLOTS:
                raise InvalidConfig(f"slot {slot} is not write-capable")

    @property
    def total(self):
        n = 1
        for d in self.dims:
            n *= d.bound
        return n


class StreamSlot:
    """One stream register slot: the loop counters and address adder of its
    generator, and its FIFO.

    The cluster reads the fields in place: a read slot prefetches the element
    at `addr` while `issued < total` and `fifo` holds fewer than FIFO_DEPTH
    elements, and the FPU pops `fifo` directly; a write slot takes up to
    FIFO_DEPTH stores into `write_buf` and drains it from its head.
    """

    __slots__ = ("index", "active", "is_read", "total", "width",
                 "fifo", "write_buf", "addr", "idx", "steps", "issued")

    def __init__(self, index):
        self.index = index
        self.reset()

    def reset(self):
        self.active = False
        self.is_read = False
        self.total = 0             # elements in the configured stream
        self.width = 8             # bytes per element
        self.fifo = deque()        # prefetched raw values (read streams)
        self.write_buf = deque()   # pending (addr, raw) stores (write streams)
        self.addr = 0              # address of the next element to issue
        self.idx = []              # odometer position, dimension 0 first
        self.steps = ()            # (stride, bound) per dimension
        self.issued = 0            # elements fetched or pushed so far

    def configure(self, config: SsrConfig):
        """Reset the slot and load an already validated configuration."""
        self.reset()
        self.active = True
        self.is_read = config.direction == Direction.READ
        self.total = config.total
        self.width = config.element_width
        self.addr = config.base
        self.idx = [0] * len(config.dims)
        self.steps = tuple((d.stride, d.bound) for d in config.dims)

    def advance(self):
        """Step the odometer to the next element, moving `addr` by one
        stride per dimension that turns over or steps."""
        self.issued += 1
        idx = self.idx
        pos = 0
        for stride, bound in self.steps:
            i = idx[pos] + 1
            if i < bound:
                idx[pos] = i
                self.addr += stride
                return
            idx[pos] = 0
            self.addr -= stride * (bound - 1)
            pos += 1

    def push(self, raw):
        """Queue raw for the write stream's next address."""
        if self.issued >= self.total:
            raise StreamExhausted(f"stream {self.index} written past its "
                                  f"{self.total} elements")
        self.write_buf.append((self.addr, raw))
        self.advance()
