"""Split the run time of the cluster simulator by the phases of one cycle.

Usage, from the root of a checkout:

    python3 tools/phases.py [--passes N] [--workload NAME ...]

For every workload that perfbench/workloads.py names (or the ones given),
this builds each kernel instance at seed 0 and runs it N times (default 3)
with the phases of `ClusterSim._step` wrapped from outside, as
perfbench/tracer.py wraps its layers; the program has no hook for it. The
phases are each core's FPU and int plans, the stream plan, the DMA plan,
arbitration, the stream commit, each core's FPU and int commits, and the
DMA commit. The stream plan and commit are one call each per cycle, over
the slots of every live core that streams.

Per workload it prints each phase's call count, its time per pass, and its
share of the time of the wrapped `ClusterSim.run`; the row "rest" is what
the phases leave of that time: the loops of `run` and `_step` themselves
and the wrappers' own cost. Each pass runs every instance once more with no
wrapper, and the time of those runs is printed to show that cost.

Each pass also builds every instance anew, and a second table splits that
set-up per pass: `kernels.build`'s own time, `kernels.assemble`, the scalar
references, `ClusterSim()` with `load_program` and `load_image` (of the
unwrapped run), and the check after it. Its row "gc" is the time the cyclic
garbage collector ran during those steps, inside their rows. A traced
benchmark run reports neither the collector's time nor the references on
their own: it counts the references in `kernels.build_self_s`.
"""

import argparse
import gc
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))
sys.path.insert(0, str(CHECKOUT / "perfbench"))

from streamsim import cluster, kernels  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# phase name -> (owner, method), in the order _step runs them
PHASES = [
    ("fpu plan", cluster.ClusterSim, "_plan_fpu"),
    ("int plan", cluster.ClusterSim, "_plan_int"),
    ("stream plan", cluster.ClusterSim, "_plan_streams"),
    ("dma plan", cluster.DmaEngine, "plan"),
    ("arbitrate", cluster.Tcdm, "arbitrate"),
    ("stream commit", cluster.ClusterSim, "_commit_streams"),
    ("fpu commit", cluster.ClusterSim, "_commit_fpu"),
    ("int commit", cluster.ClusterSim, "_commit_int"),
    ("dma commit", cluster.DmaEngine, "commit"),
]


# set-up step name -> (owner, attribute), each wrapped while `kernels.build`
# runs; the builders look these names up in `kernels`
SETUP = [
    ("assemble", kernels, "assemble"),
    ("references", kernels, "dot_reference"),
    ("references", kernels, "axpy_reference"),
    ("references", kernels, "matvec_reference"),
    ("references", kernels, "matmul_reference"),
]


def timed(fn, totals):
    """fn wrapped so that each call adds one to totals[0] and its
    nanoseconds to totals[1]."""
    clock = time.perf_counter_ns

    def wrapper(*args):
        t0 = clock()
        try:
            return fn(*args)
        finally:
            totals[1] += clock() - t0
            totals[0] += 1
    return wrapper


def swap(fns):
    for (owner, attr), fn in fns.items():
        setattr(owner, attr, fn)


class SetUp:
    """Calls and host nanoseconds of each set-up step, summed over the
    passes, and of the cyclic collector's runs inside a step."""

    def __init__(self):
        self.totals = {name: [0, 0] for name in
                       ("build", "assemble", "references", "load", "check",
                        "gc")}
        self.in_step = False
        self.gc_start = 0

    def collected(self, phase, info):
        """The gc.callbacks entry."""
        if self.in_step:
            if phase == "start":
                self.gc_start = time.perf_counter_ns()
            else:
                self.totals["gc"][1] += time.perf_counter_ns() - self.gc_start
                self.totals["gc"][0] += 1

    def step(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs), timed as one call of step name."""
        totals = self.totals[name]
        self.in_step = True
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[1] += time.perf_counter_ns() - t0
            totals[0] += 1
            self.in_step = False

    def build(self, workload):
        """The workload's instances, each built as one step, with the steps
        of SETUP wrapped inside it."""
        plain = {(owner, attr): getattr(owner, attr) for _, owner, attr in SETUP}
        swap({(owner, attr): timed(plain[owner, attr], self.totals[name])
              for name, owner, attr in SETUP})
        try:
            return [self.step("build", kernels.build, k, n=n, seed=DEFAULT_SEED,
                              **kw)
                    for k, n, kw in WORKLOADS[workload]]
        finally:
            swap(plain)

    def rows(self, passes):
        """(step, calls per pass, ns) of each step, kernels.build's own time
        first."""
        t = self.totals
        inner = t["assemble"][1] + t["references"][1]
        return ([("build self", t["build"][0] // passes, t["build"][1] - inner)]
                + [(name, c // passes, ns) for name, (c, ns) in t.items()
                   if name != "build"])


def load(inst):
    sim = cluster.ClusterSim()
    sim.load_program(inst.program, active_cores=inst.active_cores,
                     entries=inst.entries)
    sim.load_image(inst.data)
    return sim


def run(sim, inst):
    """Host nanoseconds of one run of the loaded instance."""
    t0 = time.perf_counter_ns()
    sim.run(watch_pcs=inst.watch_pcs())
    return time.perf_counter_ns() - t0


def split(workload, passes):
    totals = {name: [0, 0] for name, _, _ in PHASES}
    plain = {(owner, attr): getattr(owner, attr) for _, owner, attr in PHASES}
    wrapped = {(owner, attr): timed(plain[owner, attr], totals[name])
               for name, owner, attr in PHASES}
    setup = SetUp()
    plain_ns = wrapped_ns = 0
    gc.callbacks.append(setup.collected)
    try:
        for _ in range(passes):
            for inst in setup.build(workload):
                sim = setup.step("load", load, inst)
                plain_ns += run(sim, inst)
                setup.step("check", inst.check, sim)
                sim = load(inst)
                swap(wrapped)
                wrapped_ns += run(sim, inst)
                swap(plain)
    finally:
        swap(plain)
        gc.callbacks.remove(setup.collected)
    rows = [(name, c // passes, ns) for name, (c, ns) in totals.items()]
    rows.append(("rest", "", wrapped_ns - sum(ns for _, ns in totals.values())))
    ms = 1e-6 / passes
    print(f"# {workload}: run {wrapped_ns * ms:.1f} ms per pass wrapped, "
          f"{plain_ns * ms:.1f} ms plain; {passes} passes")
    print(f"{'phase':<14} {'calls':>9} {'ms':>9} {'share':>7}")
    for name, c, ns in rows:
        print(f"{name:<14} {c:>9} {ns * ms:>9.1f} {100 * ns / wrapped_ns:>6.1f}%")
    rows = setup.rows(passes)
    setup_ns = sum(ns for name, _, ns in rows if name != "gc")
    print(f"# {workload}: set-up {setup_ns * ms:.1f} ms per pass, the "
          f"collector's runs inside it; {passes} passes")
    print(f"{'step':<14} {'calls':>9} {'ms':>9}")
    for name, c, ns in rows:
        print(f"{name:<14} {c:>9} {ns * ms:>9.1f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        split(workload, args.passes)


if __name__ == "__main__":
    main()
