"""Count the bytecodes, Python calls and builtin calls of each simulator
function per core-cycle.

Usage, from the root of a checkout:

    python3 tools/opcount.py [--workload NAME ...] [--top N]

For each workload given (default matmul8; the option repeats), this builds
every kernel instance that perfbench/workloads.py names for it at seed 0
and runs each once under `sys.settrace` with opcode events on
(`f_trace_opcodes`), and under `sys.setprofile`, whose `c_call` events see
each call of a builtin function or method. Only
`ClusterSim.run` is counted, not the build or the load. For each Python
function it counts the bytecodes run in its own frames, the calls into it
and the builtin calls it makes, and prints them per core-cycle (one cycle
of one active core up to its halt, as perfbench counts them), the N
functions with the most bytecodes first (default 25), then the totals: one
table per workload.

Host load moves timings from run to run, but not these counts: the same code
prints the same table every time, so a change to one layer shows as a change
of its row. Code that runs in C (`struct`, `deque`, `math.fsum`) runs no
bytecode and makes no Python call; it shows only in the builtin-call column,
and a builtin call can cost many bytecodes' time. So size a change by its
time, reading the bytecodes and the builtin calls together.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))
sys.path.insert(0, str(CHECKOUT / "perfbench"))

from streamsim import cluster, kernels  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def label(code):
    """file:qualified name of a code object."""
    return f"{Path(code.co_filename).name}:{getattr(code, 'co_qualname', code.co_name)}"


def count(instances):
    """Run each instance once under the tracer and the profiler; return its
    core-cycles and, per function label, [bytecodes, calls, builtin
    calls]."""
    ops, calls, c_calls = Counter(), Counter(), Counter()

    def on_opcode(frame, event, arg):
        if event == "opcode":
            ops[frame.f_code] += 1
        return on_opcode

    def on_call(frame, event, arg):
        calls[frame.f_code] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_opcode

    def on_profile(frame, event, arg):
        if event == "c_call":
            c_calls[frame.f_code] += 1

    core_cycles = 0
    for inst in instances:
        sim = cluster.ClusterSim()
        sim.load_program(inst.program, active_cores=inst.active_cores,
                         entries=inst.entries)
        sim.load_image(inst.data)
        saved, saved_profile = sys.gettrace(), sys.getprofile()
        sys.settrace(on_call)
        sys.setprofile(on_profile)
        try:
            result = sim.run(watch_pcs=inst.watch_pcs())
        finally:
            sys.setprofile(saved_profile)
            sys.settrace(saved)
        core_cycles += sum(s.cycles_at_halt
                           for s in result.core_stats[:inst.active_cores])
    per_function = {}
    for code in ops.keys() | calls.keys() | c_calls.keys():
        row = per_function.setdefault(label(code), [0, 0, 0])
        row[0] += ops[code]
        row[1] += calls[code]
        row[2] += c_calls[code]
    return core_cycles, per_function


def report(core_cycles, per_function, top):
    """The table of the `top` functions with the most bytecodes, per
    core-cycle, and a line of totals."""
    rows = sorted(per_function.items(), key=lambda kv: (-kv[1][0], kv[0]))
    lines = [f"{'function':<52} {'bytecodes':>10} {'calls':>8} {'C calls':>8}"]
    totals = [sum(r[k] for r in per_function.values()) for k in range(3)]
    for name, (n_ops, n_calls, n_c) in rows[:top] + [("total", totals)]:
        lines.append(f"{name:<52} {n_ops / core_cycles:>10.1f} "
                     f"{n_calls / core_cycles:>8.2f} "
                     f"{n_c / core_cycles:>8.2f}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args(argv)
    for workload in args.workload or ["matmul8"]:
        instances = [kernels.build(k, n=n, seed=DEFAULT_SEED, **kw)
                     for k, n, kw in WORKLOADS[workload]]
        core_cycles, per_function = count(instances)
        print(f"# {workload}: {core_cycles} core-cycles; per core-cycle")
        print("\n".join(report(core_cycles, per_function, args.top)))


if __name__ == "__main__":
    main()
