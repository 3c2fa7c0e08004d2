"""Stream semantic registers: affine address generators feeding prefetch FIFOs.

A configured slot turns reads/writes of FP registers f0..f2 into a strided
memory stream. Addresses follow the odometer law

    addr_k = base + sum_d idx_d(k) * stride_d

with dimension 0 fastest. Each core owns three slots; the cluster drives them
through per-cycle prefetch/drain requests, so stream traffic contends for
TCDM banks like any other requester.
"""

from dataclasses import dataclass
from collections import deque
from enum import Enum

from .errors import InvalidConfig, StreamExhausted

N_SLOTS = 3
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


class AddressGen:
    """Odometer over the configured dimensions.

    The current address is kept as a running sum, moved by one stride per
    step, so reading it costs nothing.
    """

    def __init__(self, config: SsrConfig):
        self.idx = [0] * len(config.dims)
        self.issued = 0
        self.total = config.total
        self.addr = config.base
        self.steps = tuple((d.stride, d.bound) for d in config.dims)

    @property
    def exhausted(self):
        return self.issued >= self.total

    def advance(self):
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


class StreamSlot:
    """One stream register slot with its FIFO state."""

    def __init__(self, index, fifo_depth=4):
        self.index = index
        self.fifo_depth = fifo_depth
        self.reset()

    def reset(self):
        self.gen = None
        self.active = False
        self.is_read = False
        self.is_write = False
        self.total = 0             # elements in the configured stream
        self.width = 8             # bytes per element
        self.fifo = deque()        # prefetched raw values (read streams)
        self.write_buf = deque()   # pending (addr, raw) stores (write streams)
        self.popped = 0
        self.pushed = 0

    def configure(self, config: SsrConfig):
        """Reset the slot and load an already validated configuration."""
        self.reset()
        self.gen = AddressGen(config)
        self.active = True
        self.is_read = config.direction == Direction.READ
        self.is_write = not self.is_read
        self.total = self.gen.total
        self.width = config.element_width

    def want_prefetch(self):
        if self.is_read and not self.gen.exhausted and len(self.fifo) < self.fifo_depth:
            return self.gen.addr
        return None

    def commit_prefetch(self, raw):
        self.fifo.append(raw)
        self.gen.advance()

    def can_pop(self, n=1):
        return len(self.fifo) >= n

    def pop(self):
        if self.popped >= self.total:
            raise StreamExhausted(f"stream {self.index} read past its "
                                  f"{self.total} elements")
        self.popped += 1
        return self.fifo.popleft()

    def can_push(self):
        return len(self.write_buf) < self.fifo_depth

    def push(self, raw):
        if self.pushed >= self.total:
            raise StreamExhausted(f"stream {self.index} written past its "
                                  f"{self.total} elements")
        self.write_buf.append((self.gen.addr, raw))
        self.gen.advance()
        self.pushed += 1

    def want_drain(self):
        return self.write_buf[0][0] if self.write_buf else None

    def commit_drain(self):
        return self.write_buf.popleft()

    @property
    def drained(self):
        return not self.write_buf


def iter_addresses(config: SsrConfig):
    """All addresses of a configured stream, in issue order."""
    gen = AddressGen(config)
    while not gen.exhausted:
        yield gen.addr
        gen.advance()
