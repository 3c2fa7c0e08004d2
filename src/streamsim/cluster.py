"""Cycle-stepped model of the compute cluster.

Eight single-issue integer cores share a banked scratchpad (TCDM) and one DMA
engine. Each core owns an FPU fed through a small FP queue, an FREP sequencer
and three stream slots. Every cycle runs in three phases so lockstep stays
deterministic:

  1. plan    - every unit inspects start-of-cycle state. An outcome that needs
               no bank grant and touches only its own core is settled and
               counted here, and the plan is its trace event string: an idle
               FPU, a stream or hazard stall, or an int-pipe wait. Any other
               plan is the record commit applies, and registers the TCDM bank
               request it needs. An idle FPU (no replay, an empty FP queue)
               costs no plan call: the cycle loop counts it. An int-pipe wait
               (on an icache fill or L2, the sequencer, a drain, DMA queue
               room) has one test that counts its stall; a wait planned last
               cycle runs only that test, not the plan, and an lw/sw that
               waits on L2, its bank or the data port is held and not
               fetched, decoded or addressed again. A wait for FP queue room
               is re-tested by planning again. Nothing else the plan read can
               change while the int pipe stalls. The icache is shared: every
               core that fetches a cold line in the cycle of its first miss
               misses, and from the next cycle on the line hits,
  2. grant   - each bank grants one request (round robin, persistent pointer).
               A request is granted in place: each request map entry is a
               list of requester ids whose first is the grant, and only a
               bank that two requesters asked is arbitrated, its winner
               swapped to the front,
  3. commit  - units apply their planned action if granted, else record a
               stall: a lost bank grant, or DMA queue room that another
               core's commit took. The stream slots of all cores commit
               first, in one pass, then each core's FPU and int pipe.
               Everything that retires an instruction stays here. A TCDM
               access commits at the scratchpad offset its plan found, an
               lw/sw to L2 at the one its wait located. A DMA window that
               got every bank it needs moves in one copy, unless a bank is
               both read and written; any other window moves per bank slice.
               The int commit counts every retire at one point, with the pc
               the cycle started at.

Bank exclusivity (one grant per bank per cycle) makes commit order irrelevant
for memory, so a sequential sweep is safe. A core has one data port: its FP
and integer load/store units share it, with the FPU first. A fault is raised
as its typed SimError where it is found; _step turns it into a
SimulationFault naming the core, pc and cycle, with the SimError as cause.
"""

import mmap
import struct
from collections import deque

from .isa import (Domain, CoreState, FpOp, Instruction, fp_compute, MASK32,
                  OPS, OP_ARITH, OP_LOAD, ICACHE_WAIT, MEM_WAIT, QUEUE_FULL,
                  FREP_WAIT, DRAIN, DMA_FULL)
from .frep import Sequencer, Scoreboard, FpEntry, Mode, FP_QUEUE_DEPTH
from .fp import ELEMENT, bits_to_f64
from .ssr import StreamSlot, N_SLOTS, FIFO_DEPTH, WRITE_SLOTS
from .errors import (CycleLimitExceeded, InvalidConfig,
                     InvalidDescriptor, MisalignedAccess, NonFpInCapture,
                     OutOfRangeAccess, OverlappingTransfer, ReconfigWhileActive,
                     SimError, SimulationFault, StreamExhausted)


# The cluster's one geometry: eight cores, 32 banks of 64 bits, 128 KiB of
# scratchpad, as in the Snitch cluster that Manticore tiles.
N_CORES = 8
TCDM_BASE = 0x0001_0000
TCDM_SIZE = 128 * 1024
TCDM_BANKS = 32
BANK_WIDTH = 8            # bytes per bank word
L2_BASE = 0x8000_0000
L2_SIZE = 2 * 1024 * 1024
L2_LATENCY = 10           # extra cycles for an L2 access or icache fill
DMA_BUS_WIDTH = 64        # bytes per busy cycle (512-bit bus)
DMA_QUEUE_DEPTH = 8
ICACHE_LINE = 32          # bytes
MAX_CYCLES = 2_000_000    # a run's cycle budget unless the caller sets one
# TCDM requester ids: core i's int pipe 4*i and slots 4*i+1+slot, then DMA
DMA_RID = 4 * N_CORES
N_REQUESTERS = DMA_RID + 1


# A core's counters: every cycle up to its halt is one fetch or one of
# INT_STALLS, and one of FP_SLOTS
INT_STALLS = ("stall_bank_conflict", "stall_queue_full", "stall_frep_wait",
              "stall_drain", "stall_icache", "stall_mem", "stall_dma_full")
FP_SLOTS = ("fp_executed", "fp_stall_hazard", "fp_stall_stream",
            "fp_stall_bank", "fp_idle")
# a core's stats_lines after its "cycles", in order: each counter, and the
# derived utilization; int_replay_overlap counts the int instructions
# retired during replay
CORE_LINES = ("fetched", "int_retired", "custom_retired", "fp_executed",
              "fma_executed", "flops", "utilization", "int_replay_overlap",
              *INT_STALLS, *FP_SLOTS[1:])


class CoreStats:
    __slots__ = ("cycles_at_halt",
                 *(name for name in CORE_LINES if name != "utilization"))

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def int_stalls(self):
        return sum(getattr(self, name) for name in INT_STALLS)

    def fp_slots(self):
        return sum(getattr(self, name) for name in FP_SLOTS)

    @property
    def utilization(self):
        return self.fma_executed / self.cycles_at_halt if self.cycles_at_halt else 0.0


class Memory:
    """Byte-backed TCDM + L2 regions behind one address map.

    L2 is an anonymous mapping, so the host backs only the pages written.
    """

    def __init__(self):
        self.tcdm = bytearray(TCDM_SIZE)
        self.l2 = mmap.mmap(-1, L2_SIZE)

    def _locate(self, addr, n):
        off = addr - TCDM_BASE
        if 0 <= off and off + n <= TCDM_SIZE:
            return self.tcdm, off
        off = addr - L2_BASE
        if 0 <= off and off + n <= L2_SIZE:
            return self.l2, off
        raise OutOfRangeAccess(f"address 0x{addr:x}+{n} outside TCDM and L2")

    def read(self, addr, n):
        buf, off = self._locate(addr, n)
        return bytes(buf[off:off + n])

    def write(self, addr, data):
        buf, off = self._locate(addr, len(data))
        buf[off:off + len(data)] = data


class Tcdm:
    """Per-bank round-robin arbitration with persistent pointers, granted
    in place.

    A request map is {bank: list of distinct requester ids}. A request
    site stores [rid] for a bank not yet asked this cycle; only when a
    second requester asks does it append and add the bank to `contested`.
    A grant is the first id of a bank's list, so an uncontested request is
    granted as it stands. `last` maps each bank to the list it last
    granted: its pointer is that winner + 1, or 0 for a bank never granted.
    """

    def __init__(self):
        self.contested = set()     # banks asked by two or more this cycle
        self.last = {}

    def arbitrate(self, requests):
        """Grant every bank of requests, which it returns as the grants:
        on a contested bank, the first requester at or after the bank's
        pointer, counting modulo the number of requesters, is swapped to
        the front of its list. No list changes length."""
        last = self.last
        n = N_REQUESTERS
        for bank in self.contested:
            ids = requests[bank]
            prev = last.get(bank)
            ptr = prev[0] + 1 if prev is not None else 0
            win, best = 0, n
            for k, i in enumerate(ids):
                d = (i - ptr) % n
                if d < best:
                    win, best = k, d
            ids[0], ids[win] = ids[win], ids[0]
        self.contested.clear()
        last.update(requests)
        return requests


class DmaDescriptor:
    def __init__(self, src, dst, length):
        self.src = src
        self.dst = dst
        self.length = length    # bytes


class DmaEngine:
    """One transfer in flight, descriptor queue behind it, 64 B per busy
    cycle. A transfer is its cursor, [src buf, src off, dst buf, dst off,
    bytes left], located at submit; its window is the cursor's next
    min(DMA_BUS_WIDTH, bytes left) bytes, and only `_next_window` steps it."""

    def __init__(self, mem: Memory):
        self.mem = mem
        self.queue = deque()   # cursors of the queued transfers
        self.active = None     # cursor of the transfer in flight
        self.disjoint = False  # no bank of the window is both read and written
        self.slices = None     # the window's pending (src buf, src off, dst
                               # buf, dst off, n, src bank, dst bank) pieces,
                               # once cut
        self.banks = {}        # bank still needed -> True while it is read
        self.idle = True       # no transfer active or queued
        self.busy_cycles = 0
        self.bytes_moved = 0
        self.descriptors_done = 0

    def submit(self, desc: DmaDescriptor):
        """Queue desc as its cursor. It is refused, in this order, for a
        negative length, a range outside one region, overlapping ranges and
        a full queue; an empty one completes at once, with no cycles."""
        s, d, n = desc.src, desc.dst, desc.length
        if n < 0:
            raise InvalidDescriptor(f"bad length {n}")
        if n == 0:
            self.descriptors_done += 1
            return
        sbuf, so = self.mem._locate(s, n)
        dbuf, do = self.mem._locate(d, n)
        if s < d + n and d < s + n:
            raise OverlappingTransfer(
                f"src [0x{s:x},0x{s + n:x}) overlaps dst [0x{d:x},0x{d + n:x})")
        if len(self.queue) >= DMA_QUEUE_DEPTH:
            raise InvalidDescriptor("DMA descriptor queue full")
        self.queue.append([sbuf, so, dbuf, do, n])
        self.idle = False

    def _open_window(self):
        """Find the banks the cursor's next window needs: each bank word of
        a TCDM side once, True where the window reads it. A bank it reads
        serves the read before it takes a write."""
        sbuf, so, dbuf, do, left = self.active
        n = min(DMA_BUS_WIDTH, left)
        self.slices = None
        tcdm = self.mem.tcdm
        banks = self.banks = {}
        if sbuf is tcdm:
            for w in range(so // BANK_WIDTH, (so + n - 1) // BANK_WIDTH + 1):
                banks[w % TCDM_BANKS] = True
        read = len(banks)
        if dbuf is tcdm:
            first = do // BANK_WIDTH
            last = (do + n - 1) // BANK_WIDTH
            for w in range(first, last + 1):
                banks.setdefault(w % TCDM_BANKS, False)
            self.disjoint = len(banks) - read == last - first + 1
        else:
            self.disjoint = True

    def _cut(self):
        """Cut the window into slices that each touch one bank per TCDM side."""
        sbuf, so, dbuf, do, left = self.active
        n = min(DMA_BUS_WIDTH, left)
        tcdm = self.mem.tcdm
        cuts = {0, n}
        for buf, off in ((sbuf, so), (dbuf, do)):
            if buf is tcdm:
                cuts.update(range(BANK_WIDTH - off % BANK_WIDTH, n, BANK_WIDTH))
        edges = sorted(cuts)
        sbank = sbuf is tcdm
        dbank = dbuf is tcdm
        return [(sbuf, so + a, dbuf, do + a, b - a,
                 (so + a) // BANK_WIDTH % TCDM_BANKS if sbank else None,
                 (do + a) // BANK_WIDTH % TCDM_BANKS if dbank else None)
                for a, b in zip(edges, edges[1:])]

    def plan(self, requests, contested):
        """Request each bank the current window still needs, once per
        bank, as every TCDM requester does: [id] for a bank not yet asked,
        else append the id and add the bank to contested. Called only
        while the engine is not idle."""
        if self.active is None:
            self.active = self.queue.popleft()
            self._open_window()
        rid = DMA_RID
        for bank in self.banks:
            if bank in requests:
                requests[bank].append(rid)
                contested.add(bank)
            else:
                requests[bank] = [rid]

    def commit(self, grants):
        """Move what the granted banks allow of the window. A granted bank
        serves one access: a slice reads when its source bank is granted,
        and writes when its destination bank is granted and no slice still
        reads it. A slice that has read but cannot write keeps the bytes for
        a later grant, so a slice within one bank takes two grants. When the
        window gets every bank it needs and none is both read and written,
        every slice moves, and the window moves in one copy. Called only
        after a plan, which made a transfer active."""
        self.busy_cycles += 1
        rid = DMA_RID
        banks = self.banks
        slices = self.slices
        if slices is None:
            if self.disjoint:
                for bank in banks:
                    if grants[bank][0] != rid:
                        break
                else:
                    sbuf, so, dbuf, do, left = self.active
                    n = min(DMA_BUS_WIDTH, left)
                    dbuf[do:do + n] = sbuf[so:so + n]
                    self.bytes_moved += n
                    self._next_window()
                    return
            slices = self._cut()
        remaining = []
        moved = 0
        for piece in slices:
            sbuf, so, dbuf, do, n, sb, db = piece
            if sb is not None:
                if grants[sb][0] != rid:
                    remaining.append(piece)
                    continue
                sbuf, so, sb = sbuf[so:so + n], 0, None
            if db is None or (grants[db][0] == rid and not banks[db]):
                dbuf[do:do + n] = sbuf[so:so + n]
                moved += n
            else:
                remaining.append((sbuf, so, dbuf, do, n, sb, db))
        self.bytes_moved += moved
        if remaining:
            self.slices = remaining
            banks = self.banks = {}
            for piece in remaining:
                if piece[5] is not None:
                    banks[piece[5]] = True
                if piece[6] is not None:
                    banks.setdefault(piece[6], False)
            return
        self._next_window()

    def _next_window(self):
        """Step the cursor past its window and open the next one; finish
        the transfer after its last window."""
        cur = self.active
        left = cur[4]
        if left > DMA_BUS_WIDTH:
            cur[1] += DMA_BUS_WIDTH
            cur[3] += DMA_BUS_WIDTH
            cur[4] = left - DMA_BUS_WIDTH
            self._open_window()
        else:
            self.active = None
            self.descriptors_done += 1
            self.idle = not self.queue


class Core:
    """One processor: integer pipe, FP queue, FPU + sequencer, stream slots."""

    def __init__(self, index):
        self.index = index
        self.state = CoreState()
        self.halted = True
        self.stats = CoreStats()
        self.fq = deque()
        self.seq = Sequencer()
        self.sb = Scoreboard()
        self.int_rid = 4 * index
        self.slots = [StreamSlot(i, 4 * index + 1 + i) for i in range(N_SLOTS)]
        self.write_slots = tuple(self.slots[i] for i in WRITE_SLOTS)
        self.capture_pending = 0
        self.staged_cfg = [dict() for _ in range(N_SLOTS)]
        self.dma_src = 0
        self.dma_dst = 0
        self.wait_end = 0           # the cycle an icache or L2 wait ends
        self.held_access = None     # lw/sw plan held over an L2 wait or a
                                    # lost bank grant
        self.stream_map = {}        # FP register -> its active slot
        self.splits = {}            # FpOp -> its split under stream_map
        self._int_plan = None
        self._fpu_plan = None


class RunResult:
    def __init__(self, cluster):
        self.cycles = cluster.cycle
        self.core_stats = [c.stats for c in cluster.cores]
        self.dma_bytes = cluster.dma.bytes_moved
        self.dma_busy_cycles = cluster.dma.busy_cycles
        self.dma_descriptors = cluster.dma.descriptors_done
        self.trace = cluster.trace_rows
        # flat, cycle-ordered list across all watched pcs
        self.watch_hits = sorted((h for hits in cluster.watch_hits.values()
                                  for h in hits), key=lambda h: h["cycle"])

    @property
    def stats(self):
        return self.core_stats[0]

    def total_flops(self):
        return sum(s.flops for s in self.core_stats)

    def flops_per_cycle(self):
        return self.total_flops() / self.cycles if self.cycles else 0.0


def stats_lines(result: RunResult, active_cores=None):
    """Flat, stable key-value serialization of a run's statistics."""
    lines = [f"cluster.cycles {result.cycles}",
             f"cluster.dma_bytes {result.dma_bytes}",
             f"cluster.dma_busy_cycles {result.dma_busy_cycles}",
             f"cluster.dma_descriptors {result.dma_descriptors}",
             f"cluster.flops {result.total_flops()}",
             f"cluster.flops_per_cycle {result.flops_per_cycle():.6f}"]
    for i, s in enumerate(result.core_stats[:active_cores]):
        p = f"core{i}."
        lines.append(f"{p}cycles {s.cycles_at_halt}")
        for name in CORE_LINES:
            value = getattr(s, name)
            if name == "utilization":
                value = f"{value:.6f}"
            lines.append(f"{p}{name} {value}")
    return lines


class ClusterSim:
    def __init__(self, cold_start_icache=False):
        # the loader streams the binary through the shared icache, so fetch
        # hits from cycle 0; cold_start_icache charges L2_LATENCY on the first
        # touch of each line instead, holding the untouched lines cold
        self.cold_start_icache = cold_start_icache
        self.mem = Memory()
        self.code = {}
        self.trace_enabled = False
        self.watch_pcs = frozenset()
        self._new_run()

    def _new_run(self):
        """Build the state of one run: cores, DMA engine, arbitration
        pointers, icache, clock, trace and watch hits. Memory is kept."""
        self.cores = [Core(i) for i in range(N_CORES)]
        self.live = []              # cores not halted, in index order
        self.streams = []           # the live cores' active slots, in core
                                    # order, then slot order
        self.dma = DmaEngine(self.mem)
        self.tcdm = Tcdm()
        self.cycle = 0
        self.icache_cold = {}       # cold line -> the cycle of its first
                                    # miss, None before it
        self.trace_rows = []
        self.watch_hits = {}

    # ------------------------------------------------------------- loading

    def load_program(self, program, active_cores=None, entries=None):
        """Install an assembled program and start a new run on it.

        `entries` may give a per-core entry pc/label; cores beyond
        `active_cores` stay halted. At reset a0 = core index, a1 = N_CORES.
        """
        self._new_run()
        self.code = program.instructions     # shared: nothing writes it
        if self.cold_start_icache:
            self.icache_cold = dict.fromkeys(
                addr // ICACHE_LINE for addr in self.code)
        self.load_image(program.data_segments)
        n_active = active_cores if active_cores is not None else N_CORES
        for i, core in enumerate(self.cores):
            core.state.x[10] = i
            core.state.x[11] = N_CORES
            core.halted = i >= n_active
            if not core.halted:
                if entries is not None:
                    e = entries[i] if i < len(entries) else None
                    core.state.pc = program.resolve(e) if e is not None else program.entry
                else:
                    core.state.pc = program.entry
        self.live = [c for c in self.cores if not c.halted]

    def load_image(self, records):
        for addr, data in records:
            self.mem.write(addr, data)

    # ------------------------------------------------------------- FPU phase
    #
    # The FPU plan is the trace event of an outcome settled at plan time (idle,
    # stream or hazard stall), or the FpEntry that issues or makes its
    # capture pass. _step picks the FPU's next entry and settles an idle
    # FPU without a call. An entry issues as the split that its core keeps
    # for its FpOp (core.splits) until _remap changes the stream map.

    def _map_operands(self, core, op):
        """Make and keep op's split under the core's stream map: op itself
        on a core that does not stream, else a copy whose f0..f2 sources
        name the read slots they pop and whose f0..f2 destination pushes
        to its write slot; the rest go through the scoreboard."""
        smap = core.stream_map
        if not smap:
            core.splits[op] = op
            return op
        dest = op.dest
        operands, sb_regs, pops = [], [], {}
        for reg in op.operands:
            slot = smap.get(reg)
            if slot is None:
                operands.append(reg)
                sb_regs.append(reg)
            elif not slot.is_read:
                raise InvalidConfig(f"read of write-stream f{reg}")
            else:
                operands.append(slot)
                pops[slot] = pops.get(slot, 0) + 1
        push = smap.get(dest)
        if push is not None:
            if op.kind == OP_LOAD:
                raise InvalidConfig(f"load destination f{dest} is stream-mapped")
            if push.is_read:
                raise InvalidConfig(f"write to read-stream f{dest}")
        elif dest is not None:
            sb_regs.append(dest)
        split = core.splits[op] = FpOp(
            op.mnemonic, op.kind, tuple(operands), dest, op.lat, op.flops,
            op.width, op.compute, op.latches_x, tuple(dict.fromkeys(sb_regs)))
        split.pops = tuple(pops.items())
        split.push = push
        return split

    def _plan_fpu(self, core, entry, requests):
        if entry.capture:
            return entry
        try:
            split = core.splits[entry.op]
        except KeyError:
            split = self._map_operands(core, entry.op)
        for slot, n in split.pops:
            if len(slot.fifo) < n:
                if slot.off is None:    # no further element will come
                    raise StreamExhausted(
                        f"stream {slot.index} read past its {slot.total} elements")
                core.stats.fp_stall_stream += 1
                return "stall:stream"
        push = split.push
        if push is not None and len(push.write_buf) >= FIFO_DEPTH:
            core.stats.fp_stall_stream += 1
            return "stall:stream"
        # the scoreboard: a source in flight (RAW) or a pending write to the
        # destination (WAW) holds the op back
        ready = core.sb.ready
        for r in split.sb_regs:
            if ready[r] > self.cycle:
                core.stats.fp_stall_hazard += 1
                return "stall:hazard"
        bank = entry.bank
        if bank is not None:
            # FP loads/stores contend under the core's own request id
            if bank in requests:
                requests[bank].append(core.int_rid)
                self.tcdm.contested.add(bank)
            else:
                requests[bank] = [core.int_rid]
        return entry

    def _commit_fpu(self, core, grants):
        """Apply the FPU plan, an FpEntry; return the trace event, or None
        for an event that is only formatted while tracing. An issue fetches
        each source in its fixed position, left to right: a register read,
        or a pop of the read stream's FIFO, which the plan found holding
        enough elements, so a stream that feeds two sources pops in operand
        order. It sets its destination's scoreboard entry here, as
        `Scoreboard.issue` would; a replay steps the sequencer's one
        counter here, and a capture pass fills its buffer."""
        entry = core._fpu_plan
        op = entry.op
        st = core.stats
        if op.kind == OP_ARITH and not entry.capture:
            # the common case first: a compute op or a move, replayed or
            # from the queue; it needs no bank
            split = core.splits[op]
            f = core.state.f
            srcs = split.operands
            if op.flops:
                a = srcs[0]
                a = f[a] if a.__class__ is int else a.fifo.popleft()
                b = srcs[1]
                b = f[b] if b.__class__ is int else b.fifo.popleft()
                if len(srcs) == 3:
                    c = srcs[2]
                    res = fp_compute(op, a, b, f[c] if c.__class__ is int
                                     else c.fifo.popleft())
                else:
                    res = fp_compute(op, a, b)
                st.fma_executed += 1
                st.flops += op.flops
            elif srcs:                                  # fmv.d
                a = srcs[0]
                res = f[a] if a.__class__ is int else a.fifo.popleft()
            else:                                       # fmv.d.x
                res = bits_to_f64(entry.xval & MASK32)
            push = split.push
            if push is None:
                f[op.dest] = res
                core.sb.ready[op.dest] = self.cycle + op.lat
            else:
                push.push(res)
        elif entry.capture:
            # the body's last capture pass starts the replay
            entry.capture = False
            seq = core.seq
            seq.buffer.append(entry)
            if len(seq.buffer) == seq.n_instr:
                seq.mode = _REPLAYING
            core.fq.popleft()
            st.fp_executed += 1
            return f"capture {op.mnemonic}" if self.trace_enabled else None
        elif grants[entry.bank][0] != core.int_rid:
            st.fp_stall_bank += 1
            return "stall:bank"
        elif op.kind == OP_LOAD:
            core.state.f[op.dest] = ELEMENT[op.width].unpack_from(
                self.mem.tcdm, entry.off)[0]
            core.sb.ready[op.dest] = self.cycle + op.lat
        else:  # OP_STORE
            a = core.splits[op].operands[0]
            ELEMENT[op.width].pack_into(
                self.mem.tcdm, entry.off,
                core.state.f[a] if a.__class__ is int else a.fifo.popleft())

        st.fp_executed += 1
        seq = core.seq
        if seq.mode is _REPLAYING:
            ev = None
            if self.trace_enabled:
                ev = (f"{op.mnemonic} [iter {seq.issued // seq.n_instr + 1}"
                      f"/{seq.end // seq.n_instr}]")
            seq.issued += 1
            if seq.issued == seq.end:
                seq.mode = _IDLE
                seq.buffer = []
            return ev
        core.fq.popleft()
        return op.mnemonic

    # ------------------------------------------------------------- stream phase
    #
    # Each cycle, one call plans and one commits the accesses of every slot
    # in self.streams. The plan only reads. The commit runs before the cores'
    # commits and touches only a FIFO's tail and a write buffer's head, while
    # the FPU pops a FIFO's head and pushes at a write buffer's tail: so the
    # FPU pops the elements its plan counted, and a drain stores the store
    # its plan chose, whichever goes first.

    def _remap(self, core):
        """Resolve which FP registers of core are streams, drop the
        core's splits made under its old map, and rebuild self.streams:
        once per ssr_enable, ssr_disable or halt rather than once per
        operand. While streaming is on, f0..f2 map to their active slots."""
        if core.state.ssr_enabled:
            core.stream_map = {s.index: s for s in core.slots if s.active}
        else:
            core.stream_map = {}
        core.splits.clear()
        self.streams = [slot for c in self.live
                        for slot in c.stream_map.values()]

    def _plan_streams(self, requests):
        """Bank requests of the streaming slots: a read slot with elements
        left and FIFO room prefetches the element at its offset, a write
        slot drains its oldest store. The offsets are the scratchpad's,
        inside the footprint ssr_enable checked. Returns (slot, TCDM
        offset, bank) per request."""
        plans = []
        contested = self.tcdm.contested
        for slot in self.streams:
            if slot.is_read:
                off = slot.off
                if off is None or len(slot.fifo) >= FIFO_DEPTH:
                    continue
            elif slot.write_buf:
                off = slot.write_buf[0][0]
            else:
                continue
            bank = off // BANK_WIDTH % TCDM_BANKS
            if bank in requests:
                requests[bank].append(slot.rid)
                contested.add(bank)
            else:
                requests[bank] = [slot.rid]
            plans.append((slot, off, bank))
        return plans

    def _commit_streams(self, plans, grants):
        """Move each granted element; a read steps its slot's walk."""
        tcdm = self.mem.tcdm
        for slot, off, bank in plans:
            if grants[bank][0] != slot.rid:
                continue  # lost arbitration, retry next cycle
            if slot.is_read:
                slot.fifo.append(slot.elem.unpack_from(tcdm, off)[0])
                slot.off = next(slot.walk, None)
            else:
                slot.elem.pack_into(tcdm, off, slot.write_buf.popleft()[1])

    # ------------------------------------------------------------- integer phase
    #
    # The int plan is the trace event of an outcome settled at plan time, or
    # one of the records commit applies: the FpEntry it dispatches, the ALU
    # or custom Instruction, or an lw/sw access. An access is (instr, TCDM
    # offset, bank), or (instr, address, None) for an L2 completion, which
    # commit locates. A wait is a token. _waits tests its condition when the
    # next cycle re-tests it and when a dm_copy commits after another core
    # filled the DMA queue; the plan tests it where it meets the wait, and
    # plans again after a QUEUE_FULL wait.

    def _waits(self, core, wait):
        """Whether the int pipe still waits on `wait`, counting the stall if
        it does. Any other plan, QUEUE_FULL too, does not wait here: the
        int pipe plans again."""
        st = core.stats
        if wait is MEM_WAIT:
            if self.cycle >= core.wait_end:
                return False
            st.stall_mem += 1
        elif wait is FREP_WAIT:
            if core.seq.mode is _IDLE:
                return False
            st.stall_frep_wait += 1
        elif wait is DRAIN:
            # drained: the FP queue, the sequencer and the write streams are
            # empty; only a write slot can hold stores
            if not core.fq and core.seq.mode is _IDLE:
                for slot in core.write_slots:
                    if slot.write_buf:
                        break
                else:
                    return False
            st.stall_drain += 1
        elif wait is DMA_FULL:
            if len(self.dma.queue) < DMA_QUEUE_DEPTH:
                return False
            st.stall_dma_full += 1
        elif wait is ICACHE_WAIT:
            if self.cycle >= core.wait_end:
                return False
            st.stall_icache += 1
        else:
            return False
        return True

    def _plan_int(self, core, requests):
        """Fetch at the pc and meet the statement's wait; an FP statement
        gets the FP queue entry of this dispatch. A TCDM lw/sw, fresh or
        held, requests its bank, unless the FPU's load or store holds the
        core's one data port: then it waits, held for the next cycle."""
        access = core.held_access
        if access is not None:
            core.held_access = None
            if access[2] is None:       # the L2 wait is over
                return access
        else:
            pc = core.state.pc
            instr = self.code.get(pc)
            if instr is None:
                raise OutOfRangeAccess(f"no instruction at pc 0x{pc:x}")
            line = pc // ICACHE_LINE
            if line in self.icache_cold:
                # the shared icache: each core that fetches the line in the
                # cycle of its first miss misses; from the next cycle it hits
                cold = self.icache_cold
                missed = cold[line]
                if missed is None:          # the first miss
                    missed = cold[line] = self.cycle
                if missed == self.cycle:
                    core.wait_end = self.cycle + L2_LATENCY
                    core.stats.stall_icache += 1
                    return ICACHE_WAIT
                del cold[line]
            if core.capture_pending > 0 and instr.domain is not _FP:
                raise NonFpInCapture(
                    f"'{instr.mnemonic}' inside an frep capture range")
            wait = instr.op.wait
            if wait is None:
                return instr
            if wait is QUEUE_FULL:
                if len(core.fq) >= FP_QUEUE_DEPTH:
                    core.stats.stall_queue_full += 1
                    return QUEUE_FULL
                # the entry holds the interned FpOp and what this dispatch
                # latches; an frep replay reuses it for every iteration
                op = instr.fp_op
                entry = FpEntry()
                entry.op = op
                entry.capture = core.capture_pending > 0
                if op.kind == OP_ARITH:
                    entry.bank = None
                    if op.latches_x:
                        entry.xval = core.state.x[instr.rs1]
                    return entry
                addr = (core.state.x[instr.rs1] + instr.imm) & MASK32
                if addr % op.width:
                    raise MisalignedAccess(
                        f"0x{addr:x} not {op.width}-byte aligned")
                off = addr - TCDM_BASE
                if not 0 <= off < TCDM_SIZE:
                    raise OutOfRangeAccess(
                        f"FP memory access 0x{addr:x} outside TCDM")
                entry.off = off
                entry.bank = off // BANK_WIDTH % TCDM_BANKS
                return entry
            if wait is not MEM_WAIT:
                return wait if self._waits(core, wait) else instr
            addr = (core.state.x[instr.rs1] + instr.imm) & MASK32
            if addr % 4:
                raise MisalignedAccess(f"0x{addr:x} not 4-byte aligned")
            off = addr - TCDM_BASE
            if not 0 <= off < TCDM_SIZE:
                # held over the L2 wait, whose first cycle this is
                core.held_access = (instr, addr, None)
                core.wait_end = self.cycle + L2_LATENCY
                core.stats.stall_mem += 1
                return MEM_WAIT
            access = (instr, off, off // BANK_WIDTH % TCDM_BANKS)
        fp = core._fpu_plan
        if fp.__class__ is FpEntry and fp.bank is not None and not fp.capture:
            core.held_access = access
            core.stats.stall_bank_conflict += 1
            return "stall:bank"
        bank = access[2]
        if bank in requests:
            requests[bank].append(core.int_rid)
            self.tcdm.contested.add(bank)
        else:
            requests[bank] = [core.int_rid]
        return access

    def _commit_int(self, core, grants):
        """Apply the int plan, a record; return a stall event, or the
        instruction that retired from the pc the cycle started at, counted
        at the one retire point at the end."""
        plan = core._int_plan
        cls = plan.__class__
        state = core.state
        pc = state.pc
        if cls is Instruction:
            instr = plan
            if instr.domain is _CUSTOM:
                # another core may have filled the DMA queue earlier this cycle
                if instr.op.wait is DMA_FULL and self._waits(core, DMA_FULL):
                    core._int_plan = DMA_FULL
                    return DMA_FULL
                _CUSTOM_HANDLERS[instr.mnemonic](self, core, instr)
                if not core.halted:
                    state.pc = pc + 4
            else:
                instr.op.execute(state, instr)
        elif cls is FpEntry:
            core.fq.append(plan)
            if plan.capture:
                core.capture_pending -= 1
            instr = self.code[pc]       # the statement dispatched
            state.pc = pc + 4
        else:                           # an lw/sw access
            instr, off, bank = plan
            buf = self.mem.tcdm
            if bank is None:            # the L2 wait is over
                buf, off = self.mem._locate(off, 4)
            elif grants[bank][0] != core.int_rid:
                core.held_access = plan
                core.stats.stall_bank_conflict += 1
                return "stall:bank"
            if instr.op.kind == OP_LOAD:
                if instr.rd:            # x0 is hardwired to zero
                    state.x[instr.rd] = _WORD.unpack_from(buf, off)[0]
            else:
                _WORD.pack_into(buf, off, state.x[instr.rs2])
            state.pc = pc + 4
        st = core.stats
        st.fetched += 1
        domain = instr.domain
        if domain is _INT:
            st.int_retired += 1
            if core.seq.mode is _REPLAYING:
                st.int_replay_overlap += 1
        elif domain is _CUSTOM:
            st.custom_retired += 1
        if pc in self.watch_pcs:
            self.watch_hits.setdefault(pc, []).append({
                "cycle": self.cycle,
                "core": core.index,
                "fetched": st.fetched,
                "fp_executed": st.fp_executed,
                "fma_executed": st.fma_executed,
                "int_retired": st.int_retired,
            })
        return instr

    # ------------------------------------------------------------- custom ops
    #
    # The method named _<mnemonic> applies a custom op at commit;
    # _commit_int then retires it and steps the pc past it, unless it halted
    # the core.

    def _frep(self, core, instr):
        core.seq.arm(core.state.x[instr.rs1], instr.n_instr)
        core.capture_pending = instr.n_instr

    def _ssr_cfg_write(self, core, instr):
        state = core.state
        if state.ssr_enabled:
            raise ReconfigWhileActive(
                f"slot {instr.slot} reconfigured while streaming")
        if not 0 <= instr.slot < N_SLOTS:
            raise InvalidConfig(f"no stream slot {instr.slot}")
        # a config register is 32 bits wide, whatever the value's source
        value = instr.imm if instr.rs1 is None else state.x[instr.rs1]
        core.staged_cfg[instr.slot][instr.field] = value & MASK32

    def _ssr_cfg_read(self, core, instr):
        if not 0 <= instr.slot < N_SLOTS:
            raise InvalidConfig(f"no stream slot {instr.slot}")
        core.state.set_x(instr.rd,
                         core.staged_cfg[instr.slot].get(instr.field, 0))

    def _ssr_enable(self, core, instr):
        state = core.state
        for slot, staged in zip(core.slots, core.staged_cfg):
            if staged:
                if state.ssr_enabled:
                    raise ReconfigWhileActive(
                        f"slot {slot.index} reconfigured while streaming")
                # the slot walks scratchpad offsets
                slot.configure(dict(
                    staged, base=staged.get("base", 0) - TCDM_BASE))
                low, high = slot.footprint()
                if low < 0 or high > TCDM_SIZE:
                    raise OutOfRangeAccess(
                        f"stream {slot.index} footprint "
                        f"[0x{low + TCDM_BASE:x}, 0x{high + TCDM_BASE:x}) "
                        f"outside TCDM")
                # an element lies in one bank word, as for fld/fsd
                width = slot.width
                if slot.off % width or any(
                        stride % width for stride, _ in slot.steps):
                    raise MisalignedAccess(
                        f"stream {slot.index} base or stride not "
                        f"{width}-byte aligned")
        state.ssr_enabled = True
        self._remap(core)

    def _ssr_disable(self, core, instr):
        # the drain plan has already emptied the write buffers
        for slot in core.slots:
            slot.reset()
        for staged in core.staged_cfg:
            staged.clear()
        core.state.ssr_enabled = False
        self._remap(core)

    def _dm_src(self, core, instr):
        core.dma_src = core.state.x[instr.rs1]

    def _dm_dst(self, core, instr):
        core.dma_dst = core.state.x[instr.rs1]

    def _dm_copy(self, core, instr):
        # the commit tested queue room first
        self.dma.submit(DmaDescriptor(core.dma_src, core.dma_dst,
                                      core.state.x[instr.rs1]))

    def _dm_poll(self, core, instr):
        # the transfers queued and in flight
        core.state.set_x(instr.rd, len(self.dma.queue)
                         + (self.dma.active is not None))

    def _halt(self, core, instr):
        core.halted = True
        core.stats.cycles_at_halt = self.cycle + 1
        self.live = [c for c in self.live if c is not core]
        self._remap(core)

    # ------------------------------------------------------------- main loop

    def run(self, max_cycles=MAX_CYCLES, trace=False, watch_pcs=None) -> RunResult:
        self.trace_enabled = trace
        self.watch_pcs = frozenset(watch_pcs or ())
        while self.live or not self.dma.idle:
            if self.cycle >= max_cycles:
                raise CycleLimitExceeded(
                    f"simulation exceeded {max_cycles} cycles")
            self._step()
        return RunResult(self)

    def _step(self):
        """One cycle over the units that can act: cores not halted, the
        slots of those that stream, and the DMA engine while it has work."""
        requests = {}               # bank -> requester ids
        live = self.live
        try:
            for core in live:
                # the FPU's next entry: the replay's, else the FP queue's
                if core.seq.mode is _REPLAYING:
                    seq = core.seq
                    core._fpu_plan = self._plan_fpu(
                        core, seq.buffer[seq.issued % seq.n_instr], requests)
                elif core.fq:
                    core._fpu_plan = self._plan_fpu(core, core.fq[0], requests)
                else:
                    core.stats.fp_idle += 1
                    core._fpu_plan = "-"
                # a wait planned last cycle re-tests only its own condition:
                # pc, registers and held access are as when planned; the
                # sequencer wait, which frep replays hold longest, is tested
                # here as _waits would, and a wait for FP queue room is
                # planned again
                plan = core._int_plan
                if plan.__class__ is str:
                    if plan is FREP_WAIT:
                        if core.seq.mode is not _IDLE:
                            core.stats.stall_frep_wait += 1
                            continue
                    elif self._waits(core, plan):
                        continue
                core._int_plan = self._plan_int(core, requests)
            # the stream pass and the DMA raise nothing: ssr_enable checked
            # every stream's footprint, and submit every descriptor
            streams = self._plan_streams(requests) if self.streams else None
            dma_busy = not self.dma.idle
            if dma_busy:
                self.dma.plan(requests, self.tcdm.contested)
            # the grants are the request lists, each winner first
            grants = self.tcdm.arbitrate(requests) if requests else requests
            if streams:
                self._commit_streams(streams, grants)
            trace = self.trace_enabled
            for core in live:
                if trace:
                    pc = core.state.pc
                # a settled plan is its own trace event
                fp_ev = core._fpu_plan
                if fp_ev.__class__ is not str:
                    fp_ev = self._commit_fpu(core, grants)
                int_ev = core._int_plan
                if int_ev.__class__ is not str:
                    int_ev = self._commit_int(core, grants)
                if trace:
                    if int_ev.__class__ is not str:
                        int_ev = f"{pc:#x} {int_ev.mnemonic}"
                    self.trace_rows.append(
                        f"{self.cycle:8d} | core{core.index} | "
                        f"int-pipe: {int_ev:<24} | fp-pipe: {fp_ev}")
            if dma_busy:
                self.dma.commit(grants)
            self.cycle += 1
        except SimError as e:
            raise SimulationFault(str(e), core=core.index, pc=core.state.pc,
                                  cycle=self.cycle) from e


_REPLAYING, _IDLE = Mode.REPLAYING, Mode.IDLE
_FP, _INT, _CUSTOM = Domain.FP, Domain.INT, Domain.CUSTOM
_WORD = struct.Struct("<I")     # the int pipe's lw/sw word

# custom mnemonic -> its handler, a ClusterSim method (sim, core, instr)
_CUSTOM_HANDLERS = {mn: getattr(ClusterSim, f"_{mn}")
               for mn, op in OPS.items() if op.domain is _CUSTOM}
