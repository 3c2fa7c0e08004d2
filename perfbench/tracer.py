"""Spans around streamsim's layer entry points, recorded from outside.

The program is not edited: `Tracer.install` replaces the public entry points
of each layer with wrappers that record a span per call, and
`Tracer.uninstall` puts the originals back. A span is (name, start, end,
parent span, op), where op identifies the kernel instance the span belongs
to. Spans are held in memory in flat arrays and written out once, at the end
of the run.

Self time of a span is its duration minus the durations of its child spans.
Spans nest strictly (one thread), so children never overlap and the self
times of a tree sum exactly to the duration of its root.
"""

import json
import time
from array import array

ROOT = "bench.instance"

# layer span name -> (owner path, attribute names); an attribute list of None
# means every public method of the class. Properties are not wrapped.
HOOKS = [
    ("kernels.build", "kernels", ["build"]),
    ("asm.assemble", "kernels", ["assemble"]),      # as the builders call it
    ("cluster.construct", "cluster.ClusterSim", ["__init__"]),
    ("cluster.load", "cluster.ClusterSim", ["load_program", "load_image"]),
    ("cluster.run", "cluster.ClusterSim", ["run"]),
    ("cluster.arbitrate", "cluster.Tcdm", ["arbitrate"]),
    ("cluster.dma", "cluster.DmaEngine", ["plan", "commit"]),
    ("isa.fp_compute", "cluster", ["fp_compute"]),  # as the cluster calls it
    ("ssr.slot", "ssr.StreamSlot", None),
    ("frep.sequencer", "frep.Sequencer", None),
    ("frep.scoreboard", "frep.Scoreboard", None),
]


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _public_methods(cls):
    return sorted(n for n, v in vars(cls).items()
                  if callable(v) and not n.startswith("_"))


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_op = [0]
        self.tcdm_pairs = 0     # (bank, requester) pairs put to arbitration
        self.tcdm_grants = 0
        self.missing = []       # hooks the program no longer has
        self._saved = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name):
        """Return fn wrapped so that each call records one span."""
        nid = self._name_id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack, op = self.start, self.end, self.stack, self.current_op
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op[0])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _wrap_arbitrate(self, fn):
        span = self.wrap(fn, "cluster.arbitrate")

        def arbitrate(tcdm, requests):
            grants = span(tcdm, requests)
            self.tcdm_pairs += sum(map(len, requests.values()))
            self.tcdm_grants += len(grants)
            return grants

        return arbitrate

    def install(self, package):
        for name, path, attrs in HOOKS:
            self._name_id(name)
            try:
                owner = _resolve(package, path)
            except AttributeError:
                self.missing.append(path)
                continue
            for attr in attrs if attrs is not None else _public_methods(owner):
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{path}.{attr}")
                    continue
                self._saved.append((owner, attr, fn))
                wrapped = (self._wrap_arbitrate(fn) if name == "cluster.arbitrate"
                           else self.wrap(fn, name))
                setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def __len__(self):
        return len(self.start)

    def layer_totals(self, first, last):
        """Per span name: [calls, total ns, self ns] over spans first..last-1."""
        child = [0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        totals = {n: [0, 0, 0] for n in self.names}
        for i in range(first, last):
            t = totals[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            t[0] += 1
            t[1] += dur
            t[2] += dur - child[i - first]
        return totals

    def write(self, path, header):
        """Write a JSON header line, then the arrays name, parent, op, start
        and end back to back in native byte order."""
        header = dict(header, spans=len(self), names=self.names,
                      fields=[["name", "i"], ["parent", "i"], ["op", "i"],
                              ["start_ns", "q"], ["end_ns", "q"]])
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(f)
