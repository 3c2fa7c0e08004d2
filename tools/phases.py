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
"""

import argparse
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


def run(inst):
    """Host nanoseconds of one run of the instance."""
    sim = cluster.ClusterSim()
    sim.load_program(inst.program, active_cores=inst.active_cores,
                     entries=inst.entries)
    sim.load_image(inst.data)
    t0 = time.perf_counter_ns()
    sim.run(watch_pcs=inst.watch_pcs())
    return time.perf_counter_ns() - t0


def split(workload, passes):
    instances = [kernels.build(k, n=n, seed=DEFAULT_SEED, **kw)
                 for k, n, kw in WORKLOADS[workload]]
    totals = {name: [0, 0] for name, _, _ in PHASES}
    plain = {(owner, attr): getattr(owner, attr) for _, owner, attr in PHASES}
    wrapped = {(owner, attr): timed(plain[owner, attr], totals[name])
               for name, owner, attr in PHASES}
    plain_ns = wrapped_ns = 0
    try:
        for _ in range(passes):
            for inst in instances:
                plain_ns += run(inst)
                for (owner, attr), fn in wrapped.items():
                    setattr(owner, attr, fn)
                wrapped_ns += run(inst)
                for (owner, attr), fn in plain.items():
                    setattr(owner, attr, fn)
    finally:
        for (owner, attr), fn in plain.items():
            setattr(owner, attr, fn)
    rows = [(name, c // passes, ns) for name, (c, ns) in totals.items()]
    rows.append(("rest", "", wrapped_ns - sum(ns for _, ns in totals.values())))
    ms = 1e-6 / passes
    print(f"# {workload}: run {wrapped_ns * ms:.1f} ms per pass wrapped, "
          f"{plain_ns * ms:.1f} ms plain; {passes} passes")
    print(f"{'phase':<14} {'calls':>9} {'ms':>9} {'share':>7}")
    for name, c, ns in rows:
        print(f"{name:<14} {c:>9} {ns * ms:>9.1f} {100 * ns / wrapped_ns:>6.1f}%")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        split(workload, args.passes)


if __name__ == "__main__":
    main()
