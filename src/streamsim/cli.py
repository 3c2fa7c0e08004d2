"""Command-line front end: run kernels, assemble sources, print roofline and
operating-point tables.

Every failure exits through one mapped code with a single-line diagnostic
`error: <ExceptionName>: <message>` on stderr:

  2  usage (bad flags, bad sweep syntax, kwargs a kernel does not take)
  3  assembly parse error
  4  unknown kernel name
  5  simulation fault or failed result check
  6  cycle limit exceeded
  7  bad config / model input
"""

import argparse
import math
import sys
from pathlib import Path

from . import asm, kernels
from .cluster import stats_lines
from .errors import (ConfigError, CycleLimitExceeded, MissingEnergyData,
                     ParseError, SimError)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_UNKNOWN_KERNEL = 4
EXIT_FAULT = 5
EXIT_CYCLE_LIMIT = 6
EXIT_CONFIG = 7

CSV_COLUMNS = ("kernel", "n", "seed", "active_cores", "cycles", "fetched",
               "fp_executed", "fma_executed", "flops", "flops_per_cycle",
               "utilization")


class CheckFailed(SimError):
    pass


class UnknownKernel(SimError):
    pass


def _write_out(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _csv_row(inst, result):
    active = [result.core_stats[i] for i in range(inst.active_cores)]
    fetched = sum(s.fetched for s in active)
    fp = sum(s.fp_executed for s in active)
    fma = sum(s.fma_executed for s in active)
    flops = sum(s.flops for s in active)
    util = fma / (result.cycles * inst.active_cores) if result.cycles else 0.0
    return {"kernel": inst.name, "n": inst.n, "seed": "", "active_cores":
            inst.active_cores, "cycles": result.cycles, "fetched": fetched,
            "fp_executed": fp, "fma_executed": fma, "flops": flops,
            "flops_per_cycle": f"{flops / result.cycles:.6f}" if result.cycles
            else "0", "utilization": f"{util:.6f}"}


def _run_one(args, n):
    extra = {}
    if args.filler is not None:
        extra["filler_ints"] = args.filler
    try:
        inst = kernels.build(args.kernel, n=n, seed=args.seed, **extra)
    except KeyError:
        raise UnknownKernel(f"unknown kernel '{args.kernel}'; see list-kernels")
    except TypeError as e:
        # builder rejected a kwarg such as --filler on a non-matvec kernel
        raise ConfigError(str(e))
    except ValueError as e:
        raise ConfigError(str(e))
    sim, result = kernels.run_kernel(inst, cold_start_icache=args.cold_icache,
                                     max_cycles=args.max_cycles,
                                     trace=args.trace_out is not None)
    if args.check and inst.check is not None:
        try:
            inst.check(sim)
        except AssertionError as e:
            raise CheckFailed(str(e))
    return inst, sim, result


def cmd_run(args):
    sizes = [args.n]
    if args.sweep:
        try:
            key, _, vals = args.sweep.partition("=")
            if key.strip() != "n" or not vals:
                raise ValueError
            sizes = [int(v) for v in vals.split(",")]
        except ValueError:
            print(f"error: UsageError: bad --sweep '{args.sweep}', expected "
                  "n=16,64,256", file=sys.stderr)
            return EXIT_USAGE

    rows = []
    trace_text = None
    for n in sizes:
        inst, sim, result = _run_one(args, n)
        seed_col = str(args.seed)
        row = _csv_row(inst, result)
        row["seed"] = seed_col
        rows.append((inst, result, row))
        if args.trace_out is not None:
            trace_text = "\n".join(result.trace) + "\n"

    if args.trace_out is not None and trace_text is not None:
        _write_out(args.trace_out, trace_text)

    if args.format == "csv" or args.sweep:
        out = [",".join(CSV_COLUMNS)]
        out += [",".join(str(r[c]) for c in CSV_COLUMNS) for _, _, r in rows]
        _write_out(args.stats_out, "\n".join(out) + "\n")
    else:
        inst, result, _ = rows[-1]
        _write_out(args.stats_out,
                   "\n".join(stats_lines(result, inst.active_cores)) + "\n")
    return EXIT_OK


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
    return EXIT_OK


def _fmt_flops(v):
    if v >= 1e12:
        return f"{v / 1e12:.3f} Tflop/s"
    return f"{v / 1e9:.3f} Gflop/s"


def cmd_points(args):
    from . import system    # only points and roofline use the system model
    model = system.load_system(args.config)
    if not model.points:
        raise ConfigError("config defines no operating points")
    rows = []
    for name, p in model.points.items():
        row = {"name": name, "vdd": f"{p.vdd:.2f}",
               "freq_ghz": f"{p.freq / 1e9:.3f}",
               "perf_24core": system.scale_performance(p, 24),
               "perf_4096core": system.scale_performance(p, 4096)}
        try:
            power, eff = system.power_and_efficiency(p, 24)
            row["efficiency"] = f"{eff / 1e9:.1f}"
            row["power_24core_w"] = f"{power:.3f}"
            row["power_cell"] = f"{power:.3f} W"
        except MissingEnergyData:
            row["efficiency"] = "n/a"
            row["power_24core_w"] = "n/a"
            row["power_cell"] = "n/a"
        rows.append(row)

    if args.format == "csv":
        out = ["name,vdd,freq_ghz,perf_24core,perf_4096core,"
               "efficiency_gflops_w,power_24core_w"]
        for r in rows:
            out.append(f"{r['name']},{r['vdd']},{r['freq_ghz']},"
                       f"{r['perf_24core']:.6g},{r['perf_4096core']:.6g},"
                       f"{r['efficiency']},{r['power_24core_w']}")
        _write_out(args.stats_out, "\n".join(out) + "\n")
    else:
        out = [f"{'point':<18} {'vdd':>5} {'GHz':>6} {'24-core':>16} "
               f"{'4096-core':>16} {'Gflop/s/W':>10} {'power(24c)':>11}"]
        for r in rows:
            out.append(f"{r['name']:<18} {r['vdd']:>5} {r['freq_ghz']:>6} "
                       f"{_fmt_flops(r['perf_24core']):>16} "
                       f"{_fmt_flops(r['perf_4096core']):>16} "
                       f"{r['efficiency']:>10} {r['power_cell']:>11}")
        _write_out(args.stats_out, "\n".join(out) + "\n")
    return EXIT_OK


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
    return EXIT_OK


def cmd_list_kernels(args):
    for name in kernels.names():
        _, summary, default_n = kernels.KERNELS[name]
        print(f"{name:<22} n={default_n:<8} {summary}")
    return EXIT_OK


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
    run.add_argument("--max-cycles", type=int, default=2_000_000)
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
                      help="CSV of name,flops,bytes[,kind]")
    roof.add_argument("--measured", action="append", metavar="NAME=STATSFILE")
    roof.add_argument("--point", default="high_performance")
    roof.add_argument("--roofline-cores", type=int, default=1024,
                      help="cores behind the peak (default one chiplet quarter)")
    roof.add_argument("--bandwidth", type=float, default=256.0e9,
                      help="memory bandwidth in bytes/s")
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
        if isinstance(e, ParseError):
            code = EXIT_PARSE
        elif isinstance(e, UnknownKernel):
            code = EXIT_UNKNOWN_KERNEL
        elif isinstance(e, CycleLimitExceeded):
            code = EXIT_CYCLE_LIMIT
        elif isinstance(e, (ConfigError, MissingEnergyData)):
            code = EXIT_CONFIG
        elif isinstance(e, OSError):
            code = EXIT_USAGE
        else:
            code = EXIT_FAULT
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
