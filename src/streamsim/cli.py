"""Command-line front end: run kernels, assemble sources, print roofline and
operating-point tables.

Every failure after the arguments are parsed exits through one mapped code
with a single-line diagnostic `error: <ExceptionName>: <message>` on stderr.
The first matching line of this table, as `EXIT_CODES` holds it, gives the
code:

  2  usage: bad sweep syntax, a file that cannot be read or written
  3  assembly parse error
  4  unknown kernel name
  6  cycle limit exceeded
  7  bad config / model input, kwargs a kernel does not take
  5  any other simulation fault, or a failed result check

argparse's own errors (an unknown flag, a missing or mistyped argument) print
its usage text instead, and exit 2.
"""

import argparse
import math
import sys
from pathlib import Path

from . import asm, kernels
from .cluster import MAX_CYCLES, N_CORES, stats_lines
from .errors import (ConfigError, CycleLimitExceeded, MissingEnergyData,
                     ParseError, SimError)

CSV_COLUMNS = ("kernel", "n", "seed", "active_cores", "cycles", "fetched",
               "fp_executed", "fma_executed", "flops", "flops_per_cycle",
               "utilization")


class CheckFailed(SimError):
    pass


class UnknownKernel(SimError):
    pass


class UsageError(SimError):
    pass


EXIT_CODES = ((UsageError, 2), (OSError, 2), (ParseError, 3),
              (UnknownKernel, 4), (CycleLimitExceeded, 6), (ConfigError, 7),
              (MissingEnergyData, 7), (SimError, 5))


def _write_out(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _csv_row(inst, result, seed):
    active = [result.core_stats[i] for i in range(inst.active_cores)]
    fetched = sum(s.fetched for s in active)
    fp = sum(s.fp_executed for s in active)
    fma = sum(s.fma_executed for s in active)
    flops = sum(s.flops for s in active)
    util = fma / (result.cycles * inst.active_cores) if result.cycles else 0.0
    row = {"kernel": inst.name, "n": inst.n, "seed": seed, "active_cores":
           inst.active_cores, "cycles": result.cycles, "fetched": fetched,
           "fp_executed": fp, "fma_executed": fma, "flops": flops,
           "flops_per_cycle": f"{flops / result.cycles:.6f}" if result.cycles
           else "0", "utilization": f"{util:.6f}"}
    return ",".join(str(row[c]) for c in CSV_COLUMNS)


def _run_one(args, n, trace):
    extra = {}
    if args.filler is not None:
        extra["filler_ints"] = args.filler
    try:
        inst = kernels.build(args.kernel, n=n, seed=args.seed, **extra)
    except KeyError:
        raise UnknownKernel(f"unknown kernel '{args.kernel}'; see list-kernels")
    except (TypeError, ValueError) as e:
        # the builder refused an n, or a kwarg such as --filler it does not take
        raise ConfigError(str(e))
    sim, result = kernels.run_kernel(inst, cold_start_icache=args.cold_icache,
                                     max_cycles=args.max_cycles, trace=trace)
    if args.check and inst.check is not None:
        try:
            inst.check(sim)
        except AssertionError as e:
            raise CheckFailed(str(e))
    return inst, result


def cmd_run(args):
    sizes = [args.n]
    if args.sweep:
        try:
            key, _, vals = args.sweep.partition("=")
            if key.strip() != "n":
                raise ValueError
            sizes = [int(v) for v in vals.split(",")]
        except ValueError:
            raise UsageError(f"bad --sweep '{args.sweep}', "
                             "expected n=16,64,256")

    # only the last size's trace is written, so only that run records one
    runs = [_run_one(args, n, trace=False) for n in sizes[:-1]]
    runs.append(_run_one(args, sizes[-1], trace=args.trace_out is not None))
    inst, result = runs[-1]
    if args.trace_out is not None:
        _write_out(args.trace_out, "\n".join(result.trace) + "\n")
    if args.format == "csv" or args.sweep:
        out = [",".join(CSV_COLUMNS)]
        out += [_csv_row(i, r, args.seed) for i, r in runs]
    else:
        out = stats_lines(result, inst.active_cores)
    _write_out(args.stats_out, "\n".join(out) + "\n")
    return 0


def cmd_assemble(args):
    try:
        text = Path(args.source).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{args.source} is not UTF-8 text: {e.reason} at "
                         f"byte {e.start}")
    prog = asm.assemble(text)
    lines = []
    for addr in sorted(prog.instructions):
        lines.append(f"0x{addr:08x}: {prog.instructions[addr].text}")
    for addr, blob in prog.data_segments:
        lines.append(f".data 0x{addr:08x} {len(blob)} bytes")
    _write_out(args.output, "\n".join(lines) + "\n")
    return 0


def _fmt_flops(v):
    if v >= 1e12:
        return f"{v / 1e12:.3f} Tflop/s"
    return f"{v / 1e9:.3f} Gflop/s"


def cmd_points(args):
    from . import system    # only points and roofline use the system model
    model = system.load_system(args.config)
    if not model.points:
        raise ConfigError("config defines no operating points")
    cores = model.tree.n_clusters * N_CORES     # of the whole machine
    if args.format == "csv":
        out = [f"name,vdd,freq_ghz,perf_24core,perf_{cores}core,"
               "efficiency_gflops_w,power_24core_w"]
    else:
        out = [f"{'point':<18} {'vdd':>5} {'GHz':>6} {'24-core':>16} "
               f"{f'{cores}-core':>16} {'Gflop/s/W':>10} {'power(24c)':>11}"]
    for name, p in model.points.items():
        vdd, ghz = f"{p.vdd:.2f}", f"{p.freq / 1e9:.3f}"
        p24 = system.scale_performance(p, system.GROUP_CORES)
        pall = system.scale_performance(p, cores)
        try:
            power, eff = system.power_and_efficiency(p, system.GROUP_CORES)
            eff, watts, unit = f"{eff / 1e9:.1f}", f"{power:.3f}", " W"
        except MissingEnergyData:
            eff, watts, unit = "n/a", "n/a", ""
        if args.format == "csv":
            out.append(f"{name},{vdd},{ghz},{p24:.6g},{pall:.6g},{eff},{watts}")
        else:
            out.append(f"{name:<18} {vdd:>5} {ghz:>6} {_fmt_flops(p24):>16} "
                       f"{_fmt_flops(pall):>16} {eff:>10} {watts + unit:>11}")
    _write_out(args.stats_out, "\n".join(out) + "\n")
    return 0


def _read_measured(pairs):
    """--measured NAME=STATSFILE: flop/s = flops_per_cycle from the stats file
    times the operating-point frequency (applied by the caller)."""
    out = {}
    for pair in pairs or []:
        name, _, path = pair.partition("=")
        if not name or not path:
            raise ConfigError(f"bad --measured '{pair}', expected NAME=PATH")
        fpc = None
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path} is not UTF-8 text: {e.reason} at "
                              f"byte {e.start}")
        for line in text.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] == "cluster.flops_per_cycle":
                try:
                    fpc = float(parts[1])
                    ok = math.isfinite(fpc) and fpc >= 0
                except ValueError:
                    ok = False
                if not ok:
                    raise ConfigError(f"{path}: cluster.flops_per_cycle "
                                      f"'{parts[1]}' is not a finite number >= 0")
        if fpc is None:
            raise ConfigError(f"{path} has no cluster.flops_per_cycle line")
        out[name] = fpc
    return out


def cmd_roofline(args):
    from . import system
    model = system.load_system(args.config)
    point = model.point(args.point)
    workloads = system.load_workloads(args.workloads)
    tree = model.tree       # by default, one chiplet's cores and uplink
    if args.roofline_cores is None:
        args.roofline_cores = tree.n_clusters // tree.chiplets * N_CORES
    if args.bandwidth is None:
        args.bandwidth = tree.levels[-1].uplink_bandwidth
    roof = system.RooflineParams(
        peak_flops=system.scale_performance(point, args.roofline_cores),
        mem_bandwidth=args.bandwidth)
    measured = {name: fpc * point.freq
                for name, fpc in _read_measured(args.measured).items()}
    rows = system.roofline_report(workloads, roof, measured)

    def fmt_det(d):
        return "" if d is None else f"{100 * d:.1f}%"

    if args.format == "csv":
        out = ["name,intensity,kind,attainable_flops,measured_flops,detachment"]
        for r in rows:
            m = "" if r["measured"] is None else f"{r['measured']:.6g}"
            d = "" if r["detachment"] is None else f"{r['detachment']:.4f}"
            out.append(f"{r['name']},{r['intensity']:.6g},{r['kind']},"
                       f"{r['attainable']:.6g},{m},{d}")
    else:
        out = [f"# peak {_fmt_flops(roof.peak_flops)}, bandwidth "
               f"{roof.mem_bandwidth / 1e9:.1f} GB/s, ridge "
               f"{roof.ridge_intensity:.3f} flop/byte",
               f"{'workload':<22} {'flop/B':>8} {'bound':>8} "
               f"{'attainable':>16} {'measured':>16} {'detach':>7}"]
        for r in rows:
            m = "" if r["measured"] is None else _fmt_flops(r["measured"])
            out.append(f"{r['name']:<22} {r['intensity']:>8.3g} "
                       f"{r['kind']:>8} {_fmt_flops(r['attainable']):>16} "
                       f"{m:>16} {fmt_det(r['detachment']):>7}")
    _write_out(args.stats_out, "\n".join(out) + "\n")
    return 0


def cmd_list_kernels(args):
    for name in kernels.names():
        _, summary, default_n = kernels.KERNELS[name]
        print(f"{name:<22} n={default_n:<8} {summary}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="streamsim",
        description="Cycle-approximate simulator for a stream/replay RISC-V "
                    "compute cluster, plus analytic system reports.")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="assemble and simulate a corpus kernel")
    run.add_argument("kernel")
    run.add_argument("--n", type=int, default=None,
                     help="problem size (kernel-specific default)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--filler", type=int, default=None,
                     help="independent integer filler instructions per "
                          "replay window (matvec48_ssr_frep)")
    run.add_argument("--sweep", default=None, metavar="n=16,64,256",
                     help="run several sizes, one CSV row each")
    run.add_argument("--max-cycles", type=int, default=MAX_CYCLES)
    run.add_argument("--cold-icache", action="store_true",
                     help="charge first-touch instruction fetch misses")
    run.add_argument("--check", action="store_true",
                     help="verify results against the scalar reference")
    run.add_argument("--trace-out", default=None)
    run.add_argument("--stats-out", default=None)
    run.add_argument("--format", choices=("text", "csv"), default="text")
    run.set_defaults(fn=cmd_run)

    asmp = sub.add_parser("assemble", help="assemble a source file and list it")
    asmp.add_argument("source")
    asmp.add_argument("-o", "--output", default=None)
    asmp.set_defaults(fn=cmd_assemble)

    roof = sub.add_parser("roofline", help="attainable-performance table")
    roof.add_argument("--config", default=None)
    roof.add_argument("--workloads", default=None,
                      help="CSV of name,flops,bytes")
    roof.add_argument("--measured", action="append", metavar="NAME=STATSFILE")
    roof.add_argument("--point", default="high_performance")
    roof.add_argument("--roofline-cores", type=int, default=None,
                      help="cores behind the peak (default one chiplet's "
                           "cores in the tree: 1024 in the bundled one)")
    roof.add_argument("--bandwidth", type=float, default=None,
                      help="memory bandwidth in bytes/s (default the tree's "
                           "chiplet uplink: 256e9 in the bundled one)")
    roof.add_argument("--stats-out", default=None)
    roof.add_argument("--format", choices=("text", "csv"), default="text")
    roof.set_defaults(fn=cmd_roofline)

    pts = sub.add_parser("points", help="operating-point table")
    pts.add_argument("--config", default=None)
    pts.add_argument("--stats-out", default=None)
    pts.add_argument("--format", choices=("text", "csv"), default="text")
    pts.set_defaults(fn=cmd_points)

    lst = sub.add_parser("list-kernels", help="names in the kernel corpus")
    lst.set_defaults(fn=cmd_list_kernels)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SimError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(e, cls))


if __name__ == "__main__":
    sys.exit(main())
