"""Stream semantic registers: affine address generators feeding prefetch FIFOs.

A configured slot turns reads/writes of FP registers f0..f2 into a strided
memory stream. Addresses follow the law

    addr_k = base + sum_d idx_d(k) * stride_d

with dimension 0 fastest. As in hardware, a slot is a set of loop counters
and one address adder in front of its FIFO. Here the counters are a lazy
walk over the stream's offsets from a base (the cluster gives its slots
bases relative to the scratchpad), built once at configure: each dimension
maps every offset of the one outside it to a `range` (a `repeat` for
stride 0) with `itertools`, so the walk steps in C. Each core owns three
slots; the cluster reads their FIFOs in place every cycle and issues the
element accesses of every live core's slots in one pass, so stream traffic
contends for TCDM banks like any other requester.
"""

from collections import deque
from itertools import chain, repeat, tee
from operator import add

from .errors import InvalidConfig, StreamExhausted
from .fp import ELEMENT
from .isa import sext32

N_SLOTS = 3
# elements a read slot prefetches ahead, and stores a write slot buffers; one
# FP op pops a stream up to three times, so below 3 such an op never issues
FIFO_DEPTH = 4
MAX_DIMS = 4
WRITE_SLOTS = (2,)      # every slot reads; only the last one writes


def _rows(stride, bound, starts):
    """For each offset in starts, the bound offsets from it stride apart,
    chained; every step runs in C."""
    if not stride:
        return chain.from_iterable(map(repeat, starts, repeat(bound)))
    starts, again = tee(starts)
    return chain.from_iterable(map(range, starts,
                                   map(add, again, repeat(stride * bound)),
                                   repeat(stride)))


def _walk(base, steps):
    """An iterator over the offsets of a stream from base, (stride, bound)
    per dimension in steps, dimension 0 fastest. Each dimension maps the
    offsets of the one outside it lazily to its rows, so building the walk
    allocates O(dims) whatever the bounds."""
    offs = iter((base,))
    for stride, bound in reversed(steps):
        offs = _rows(stride, bound, offs)
    return offs


class StreamSlot:
    """One stream register slot: the offset walk of its generator, and its
    FIFO.

    The cluster reads and steps the fields in place: a read slot prefetches
    the element at offset `off` while `fifo` holds fewer than FIFO_DEPTH
    elements, taking the next offset from `walk`, and the FPU pops `fifo`
    directly; a write slot takes up to FIFO_DEPTH stores into `write_buf`
    and drains it from its head. Past the walk's last element `off` is
    None, for a read and a write slot alike. Each access carries the
    slot's TCDM requester id `rid`, which its core sets, and moves its
    element, a binary64 value, with `elem`, the FP element format of its
    width.
    """

    __slots__ = ("index", "rid", "active", "is_read", "total", "width", "elem",
                 "fifo", "write_buf", "off", "steps", "walk")

    def __init__(self, index, rid=None):
        self.index = index
        self.rid = rid
        self.reset()

    def reset(self):
        self.active = False
        self.is_read = False
        self.total = 0             # elements in the configured stream
        self.width = 8             # bytes per element
        self.elem = ELEMENT[8]
        self.fifo = deque()        # prefetched values (read streams)
        self.write_buf = deque()   # pending (off, value) stores (writes)
        self.off = None            # next element's offset, None past the last
        self.steps = ()            # (stride, bound) per dimension
        self.walk = iter(())       # the offsets after `off`

    def configure(self, fields):
        """Validate the slot's staged config-bus fields (names from
        isa.SSR_FIELDS; one never written reads as dims 1, width 8 or 0)
        and reset the slot to the start of that stream."""
        ndims = fields.get("dims", 1)
        if not 1 <= ndims <= MAX_DIMS:
            raise InvalidConfig(f"dims {ndims} outside 1..{MAX_DIMS}")
        steps = tuple((sext32(fields.get(f"stride{d}", 0)),
                       fields.get(f"bound{d}", 0)) for d in range(ndims))
        total = 1
        for _, bound in steps:
            if bound < 1:
                raise InvalidConfig(f"dimension bound {bound} < 1")
            total *= bound
        width = fields.get("width", 8)
        if width not in (4, 8):
            raise InvalidConfig(f"element width {width} not 4 or 8")
        is_read = not fields.get("dir", 0)
        if not is_read and self.index not in WRITE_SLOTS:
            raise InvalidConfig(f"slot {self.index} is not write-capable")
        self.reset()
        self.active = True
        self.is_read = is_read
        self.total = total
        self.width = width
        self.elem = ELEMENT[width]
        self.steps = steps
        self.walk = _walk(fields.get("base", 0), steps)
        self.off = next(self.walk)

    def footprint(self):
        """The [low, high) offsets the elements of a just-configured stream
        cover, `off` still at its base: per dimension, the walk reaches
        stride * (bound - 1) from it, up or down."""
        low = high = self.off
        for stride, bound in self.steps:
            reach = stride * (bound - 1)
            if reach < 0:
                low += reach
            else:
                high += reach
        return low, high + self.width

    def push(self, value):
        """Queue value for the write stream's next element."""
        if self.off is None:
            raise StreamExhausted(f"stream {self.index} written past its "
                                  f"{self.total} elements")
        self.write_buf.append((self.off, value))
        self.off = next(self.walk, None)
