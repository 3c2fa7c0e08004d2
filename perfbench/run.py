"""streamsim benchmark: host speed of the cycle-stepped cluster simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --freeze

One run drives one workload of perfbench/workloads.py through the public API
(kernels.build, ClusterSim, load_program/load_image, run, the kernel's check)
in this single process, with no threads. It repeats passes over the workload
for S seconds and prints a header, one line per metric, and as its last line
a JSON object {"correct", "attempted", "failed", "metrics"}.

Every pass follows a calibration (perfbench/calibrate.py), and the timed
end-to-end metrics are in units of the calibration's mean time in the same
run, so they do not move with the load on a shared host. The header also
prints them in plain host seconds.

--trace 0 reports the end-to-end metrics, measured with no wrappers.
--trace 1 first repeats untraced passes for S/2 seconds, then installs the
wrappers of perfbench/tracer.py and repeats traced passes for S/2 seconds,
and reports the per-layer metrics. Spans are written to .bench_out/.

Every kernel instance counts as failed when it raises, when its check fails,
when a per-core accounting law breaks, or when its simulated statistics do
not hash to the fingerprint stored for the default seed. At another seed the
run prints that seed's fingerprints without gating on them, then runs one
untimed pass at the default seed, which is gated.

--freeze rewrites perfbench/fingerprints.json from the current program.
Do that only for a change that is meant to alter simulated statistics.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".bench_out"
FINGERPRINTS = HERE / "fingerprints.json"

sys.path.insert(0, str(HERE))
from calibrate import calibrate  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402
from workloads import (DEFAULT_SEED, HELD_OUT_SEED, TRACE_INSTANCE,  # noqa: E402
                       WORKLOADS, instance_key)

MAX_CYCLES = 2_000_000       # as kernels.run_kernel
MIN_PASSES = 3               # untraced passes per timed phase, at least
SETUP_SAMPLES = 9            # fresh-interpreter set-up probes per run
CAL_SHARE = 0.25             # calibration time per pass, as a share of the
                             # previous pass's time
SELF_SUM_TOL = 0.02          # traced layer self times must cover the traced
                             # wall time to within this share

# summed over active cores, then the two cluster-wide counts
SIM_KEYS = ("fma_executed", "stall_bank_conflict", "fp_stall_stream",
            "fp_stall_bank", "flops", "dma_busy_cycles")


class BenchError(Exception):
    """The benchmark cannot run here, e.g. the program is missing."""


def import_program():
    pkg = SRC / "streamsim"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no program source at {pkg}")
    sys.path.insert(0, str(SRC))
    import streamsim
    if Path(streamsim.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"streamsim imported from {streamsim.__file__}, "
                         f"not from {pkg}")
    return streamsim


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------------ one pass

class Instance:
    """What one build-load-run-check of a kernel instance gave."""

    def __init__(self, key):
        self.key = key
        self.error = None
        self.wall_s = self.run_s = 0.0
        self.cycles = self.core_cycles = self.instrs = self.program_len = 0
        self.sim = {}
        self.fingerprint = None

    def fail(self, why):
        if self.error is None:
            self.error = why


def execute(ss, spec, seed, tracer=None, trace=False):
    """Build, load, run and check one instance; return it with its result
    and the host seconds of (run, whole)."""
    kernel, n, kw = spec
    t0 = time.perf_counter()
    inst = ss.kernels.build(kernel, n=n, seed=seed, **kw)
    sim = ss.ClusterSim()
    sim.load_program(inst.program, active_cores=inst.active_cores,
                     entries=inst.entries)
    sim.load_image(inst.data)
    t1 = time.perf_counter()
    result = sim.run(max_cycles=MAX_CYCLES, trace=trace,
                     watch_pcs=inst.watch_pcs())
    t2 = time.perf_counter()
    if inst.check is not None:
        check = inst.check if tracer is None else tracer.wrap(inst.check,
                                                              "kernels.check")
        check(sim)
    t3 = time.perf_counter()
    return inst, result, (t2 - t1, t3 - t0)


def evaluate(ss, out, inst, result):
    """Fill `out` from a finished run and apply the accounting laws."""
    active = result.core_stats[:inst.active_cores]
    out.program_len = len(inst.program.instructions)
    out.cycles = result.cycles
    out.core_cycles = sum(s.cycles_at_halt for s in active)
    out.instrs = sum(s.int_retired + s.custom_retired + s.fp_executed
                     for s in active)
    out.sim = {k: sum(getattr(s, k) for s in active) for k in SIM_KEYS[:4]}
    out.sim["flops"] = result.total_flops()
    out.sim["dma_busy_cycles"] = result.dma_busy_cycles
    out.fingerprint = sha256("\n".join(ss.stats_lines(result, inst.active_cores))
                             + "\n")
    for i, s in enumerate(active):
        if s.fetched + s.int_stalls() != s.cycles_at_halt:
            out.fail(f"core{i}: fetched + int stalls != cycles_at_halt")
        if s.fp_slots() != s.cycles_at_halt:
            out.fail(f"core{i}: fp slots != cycles_at_halt")


def run_pass(ss, workload, seed, tracer=None, op_base=0):
    """One pass over the workload's instances."""
    outs = []
    for j, spec in enumerate(WORKLOADS[workload]):
        out = Instance(instance_key(*spec))
        fn = execute
        if tracer is not None:
            tracer.current_op[0] = op_base + j
            fn = tracer.wrap(execute, ROOT)
        try:
            inst, result, (out.run_s, out.wall_s) = fn(
                ss, spec, seed, tracer)
            evaluate(ss, out, inst, result)
        except Exception as e:   # every failure is a failed operation
            out.fail(f"{type(e).__name__}: {e}")
        outs.append(out)
    return outs


def timed_passes(ss, workload, seed, seconds, min_passes, tracer=None,
                 between=None):
    """Repeat passes for `seconds`, each right after calibrations that take
    CAL_SHARE of the previous pass's time, so the calibration samples the
    host as densely as the passes do. Return the passes, the calibration
    times and, when traced, the span range and TCDM counts of each pass.
    `between` runs before each pass; its time does not count against
    `seconds`."""
    passes, cals, spans = [], [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        if between is not None:
            t = time.perf_counter()
            between()
            deadline += time.perf_counter() - t
        gc.collect()
        budget = CAL_SHARE * (pass_totals(passes[-1])["wall_s"] if passes
                              else 0.0)
        spent = 0.0
        while not spent or spent < budget:
            cals.append(calibrate())
            spent += cals[-1]
        first = len(tracer) if tracer is not None else 0
        tcdm = ((tracer.tcdm_pairs, tracer.tcdm_grants) if tracer is not None
                else None)
        passes.append(run_pass(ss, workload, seed, tracer,
                               op_base=len(passes) * len(WORKLOADS[workload])))
        if tracer is not None:
            spans.append((first, len(tracer), tracer.tcdm_pairs - tcdm[0],
                          tracer.tcdm_grants - tcdm[1]))
    return passes, cals, spans


def trace_text_fingerprint(ss, workload, seed):
    spec = WORKLOADS[workload][TRACE_INSTANCE[workload]]
    _, result, _ = execute(ss, spec, seed, trace=True)
    return instance_key(*spec), sha256("\n".join(result.trace) + "\n")


# ------------------------------------------------------------------ set-up

def setup_sample(workload, seed):
    """Host seconds of set-up in a fresh interpreter, run to completion."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                           workload, str(seed)], cwd=CHECKOUT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# ------------------------------------------------------------------ metrics

def pass_totals(outs):
    return {k: sum(getattr(o, k) for o in outs)
            for k in ("wall_s", "run_s", "cycles", "core_cycles", "instrs")}


def calibrated(passes, cals):
    """Mean pass time, and the three rates over the run time of all passes,
    in units of the mean calibration time `cal` of the same passes."""
    cal = statistics.fmean(cals)
    tot = pass_totals([o for p in passes for o in p])
    run_s = max(tot["run_s"], 1e-9)
    return {
        "wall": tot["wall_s"] / len(passes) / cal,
        "cycles": tot["cycles"] / run_s * cal,
        "core_cycles": tot["core_cycles"] / run_s * cal,
        "instrs": tot["instrs"] / run_s * cal,
        "cal_s": cal,
    }


def end_to_end(passes, cals, setup_samples):
    c = calibrated(passes, cals)
    return {
        "wall_cal": (c["wall"], "cal"),
        "setup_s": (min(setup_samples), "s"),
        "sim_cycles_per_cal": (c["cycles"], "1/cal"),
        "core_cycles_per_cal": (c["core_cycles"], "1/cal"),
        "sim_instrs_per_cal": (c["instrs"], "1/cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def host_seconds(passes, cals):
    """The end-to-end quantities in plain host seconds, as measured."""
    c = calibrated(passes, cals)
    cal = c["cal_s"]
    return {
        "host.wall_s": (c["wall"] * cal, "s"),
        "host.sim_cycles_per_s": (c["cycles"] / cal, "1/s"),
        "host.core_cycles_per_s": (c["core_cycles"] / cal, "1/s"),
        "host.sim_ips": (c["instrs"] / cal, "1/s"),
        "host.calibration_s": (cal, "s"),
    }


def per_layer(tracer, untraced, traced, spans, fail_ratio):
    """Per-layer metrics: medians over traced passes of layer self times and
    call counts, the simulated statistics of the first untraced pass, and
    the untraced passes in host seconds. `untraced` and `traced` are
    (passes, calibration times) pairs."""
    host = host_seconds(*untraced)
    overhead = calibrated(*traced)["wall"] / calibrated(*untraced)["wall"]
    untraced, traced = untraced[0], traced[0]
    med = statistics.median
    base = untraced[0]
    cycles = sum(o.cycles for o in base) or 1
    sim = {k: sum(o.sim.get(k, 0) for o in base) for k in SIM_KEYS}
    rows = []
    for first, last, pairs, grants in spans:
        t = tracer.layer_totals(first, last)
        s = {name: v[2] / 1e9 for name, v in t.items()}
        c = {name: v[0] for name, v in t.items()}
        root_s = t[ROOT][1] / 1e9
        rows.append({
            "asm.assemble_s": (s["asm.assemble"], "s"),
            "kernels.build_self_s": (s["kernels.build"], "s"),
            "kernels.check_s": (s["kernels.check"], "s"),
            "cluster.construct_s": (s["cluster.construct"], "s"),
            "cluster.load_s": (s["cluster.load"], "s"),
            "cluster.run_self_s": (s["cluster.run"], "s"),
            "cluster.run_self_us_per_cycle": (s["cluster.run"] / cycles * 1e6,
                                              "us/cycle"),
            "cluster.arbitrate_s": (s["cluster.arbitrate"], "s"),
            "cluster.arbitrate_calls": (c["cluster.arbitrate"], "count"),
            "cluster.tcdm_requests": (pairs, "count"),
            "cluster.tcdm_grant_ratio": (grants / pairs if pairs else 0.0,
                                         "ratio"),
            "cluster.dma_s": (s["cluster.dma"], "s"),
            "cluster.dma_calls": (c["cluster.dma"], "count"),
            "ssr.slot_s": (s["ssr.slot"], "s"),
            "ssr.slot_calls": (c["ssr.slot"], "count"),
            "ssr.calls_per_cycle": (c["ssr.slot"] / cycles, "1/cycle"),
            "frep.sequencer_s": (s["frep.sequencer"], "s"),
            "frep.scoreboard_s": (s["frep.scoreboard"], "s"),
            "frep.calls": (c["frep.sequencer"] + c["frep.scoreboard"], "count"),
            "isa.fp_compute_s": (s["isa.fp_compute"], "s"),
            "isa.fp_compute_calls": (c["isa.fp_compute"], "count"),
            "trace.self_sum_ratio": ((root_s - s[ROOT]) / root_s, "ratio"),
        })
    metrics = {k: (med(r[k][0] for r in rows), rows[0][k][1]) for k in rows[0]}
    metrics.update({
        "asm.instructions": (sum(o.program_len for o in base), "count"),
        "sim.cycles": (cycles, "cycle"),
        "sim.fpu_util": (sim["fma_executed"]
                         / (sum(o.core_cycles for o in base) or 1), "ratio"),
        "sim.flops_per_cycle": (sim["flops"] / cycles, "flop/cycle"),
        "sim.stall_bank_conflict": (sim["stall_bank_conflict"], "cycle"),
        "sim.fp_stall_stream": (sim["fp_stall_stream"], "cycle"),
        "sim.fp_stall_bank": (sim["fp_stall_bank"], "cycle"),
        "sim.dma_busy_cycles": (sim["dma_busy_cycles"], "cycle"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "fail_ratio": (fail_ratio, "ratio"),
    })
    metrics.update(host)
    return metrics


# ------------------------------------------------------------------ gates

class Ledger:
    """Attempted and failed instances, with the reason for each failure, and
    the benchmark's own checks that failed."""

    def __init__(self, workload, seed, stored):
        self.workload = workload
        self.seed = seed
        self.stored = stored
        self.attempted = 0
        self.failures = []
        self.broken_checks = []
        self.seen = {}          # (kind, key) -> fingerprint at this seed

    def gated(self, seed):
        return seed == DEFAULT_SEED

    def match(self, kind, key, fingerprint, seed):
        want = self.stored.get(kind, {}).get(self.workload, {}).get(key)
        if seed == self.seed:
            self.seen[(kind, key)] = fingerprint
        if self.gated(seed) and fingerprint != want:
            return f"{kind} fingerprint {fingerprint[:16]} != stored {want}"
        return None

    def add_pass(self, outs, seed):
        for o in outs:
            self.attempted += 1
            if o.error is None and o.fingerprint is not None:
                o.fail(self.match("stats", o.key, o.fingerprint, seed))
            if o.error is not None:
                self.failures.append(f"{o.key} seed={seed}: {o.error}")

    def add_trace(self, ss, seed):
        self.attempted += 1
        try:
            key, fp = trace_text_fingerprint(ss, self.workload, seed)
        except Exception as e:
            self.failures.append(f"trace seed={seed}: {type(e).__name__}: {e}")
            return
        why = self.match("trace", key, fp, seed)
        if why:
            self.failures.append(f"{key} trace seed={seed}: {why}")


def load_fingerprints():
    return json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}


# ------------------------------------------------------------------ runs

def run(ss, workload, seed, seconds, traced):
    load_start = os.getloadavg()[0]
    ledger = Ledger(workload, seed, load_fingerprints())
    order = []
    notes = []
    if not traced:
        samples = []

        def probe():
            if len(samples) < SETUP_SAMPLES:
                samples.append(setup_sample(workload, seed))

        passes, cals, _ = timed_passes(ss, workload, seed, seconds,
                                       MIN_PASSES, between=probe)
        while len(samples) < SETUP_SAMPLES:
            probe()
        order.append(f"{len(passes)} untraced passes, each right after one "
                     f"calibration; {SETUP_SAMPLES} set-up probes in fresh "
                     "interpreters, one before each of the first passes, "
                     "each run to completion")
        for p in passes:
            ledger.add_pass(p, seed)
        metrics = end_to_end(passes, cals, samples)
        walls = [pass_totals(p)["wall_s"] for p in passes]
        for name, values in (("pass wall_s", walls), ("calibration_s", cals),
                             ("setup_s", samples)):
            notes.append(f"samples {name} (n={len(values)}, in run order) "
                         + " ".join(f"{v:.4f}" for v in values))
        for name, (value, unit) in host_seconds(passes, cals).items():
            notes.append(f"{name} = {value:.6g} {unit}")
    else:
        untraced, ucals, _ = timed_passes(ss, workload, seed, seconds / 2,
                                          MIN_PASSES)
        order.append(f"{len(untraced)} untraced passes, each right after "
                     "one calibration")
        tracer = Tracer()
        tracer.install(ss)
        try:
            traced, tcals, spans = timed_passes(ss, workload, seed,
                                                seconds / 2, 1, tracer)
        finally:
            tracer.uninstall()
        order.append(f"{len(traced)} traced passes, each right after one "
                     "calibration")
        if tracer.missing:
            notes.append(f"hooks missing from the program: {tracer.missing}")
        for p in untraced + traced:
            ledger.add_pass(p, seed)
        ledger.add_trace(ss, seed)
        order.append(f"trace text at seed {seed}")
    if seed != DEFAULT_SEED:
        ledger.add_pass(run_pass(ss, workload, DEFAULT_SEED), DEFAULT_SEED)
        order.append(f"gate pass at default seed {DEFAULT_SEED}")
        if traced:
            ledger.add_trace(ss, DEFAULT_SEED)
            order.append(f"trace text at default seed {DEFAULT_SEED}")
    fail_ratio = len(ledger.failures) / ledger.attempted
    if traced:
        metrics = per_layer(tracer, (untraced, ucals), (traced, tcals), spans,
                            fail_ratio)
        cover = metrics["trace.self_sum_ratio"][0]
        if abs(1 - cover) > SELF_SUM_TOL:
            ledger.broken_checks.append(
                f"layer self times cover {cover:.4f} of the traced wall time; "
                f"tolerance {SELF_SUM_TOL}")
        OUT.mkdir(exist_ok=True)
        out = OUT / f"spans-{workload}.bin"
        tracer.write(out, {"workload": workload, "seed": seed,
                           "passes": [list(s) for s in spans]})
        notes.append(f"spans written to {out.relative_to(CHECKOUT)}")
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load1_start": load_start,
        "load1_end": os.getloadavg()[0],
        "run_order": order,
    }
    return metrics, ledger, env, notes


def report(workload, seed, seconds, traced, metrics, ledger, env, notes):
    seed_kind = ("default" if seed == DEFAULT_SEED else
                 "held-out" if seed == HELD_OUT_SEED else "other")
    print(f"# streamsim benchmark: workload={workload} seed={seed} ({seed_kind}; "
          f"default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) "
          f"seconds={seconds:g} trace={int(traced)}")
    print(f"# env {json.dumps(env)}")
    for (kind, key), fp in sorted(ledger.seen.items()):
        gate = "gated" if ledger.gated(seed) else "not gated"
        print(f"# fingerprint {kind} [{key}] seed={seed} {fp} ({gate})")
    for note in notes:
        print(f"# {note}")
    for why in ledger.failures + ledger.broken_checks:
        print(f"# FAILED {why}")
    for name, (value, unit) in metrics.items():
        print(f"# metric {workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not (ledger.failures or ledger.broken_checks),
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def freeze(ss):
    """Store the simulated-statistics fingerprints of the default seed."""
    stored = {"seed": DEFAULT_SEED, "stats": {}, "trace": {}}
    for workload in WORKLOADS:
        for o in run_pass(ss, workload, DEFAULT_SEED):
            if o.error is not None:
                raise BenchError(f"{workload} {o.key}: {o.error}")
            stored["stats"].setdefault(workload, {})[o.key] = o.fingerprint
        key, fp = trace_text_fingerprint(ss, workload, DEFAULT_SEED)
        stored["trace"][workload] = {key: fp}
    FINGERPRINTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINTS.relative_to(CHECKOUT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--freeze", action="store_true",
                    help="rewrite the stored default-seed fingerprints")
    args = ap.parse_args(argv)
    if not args.freeze and args.workload is None:
        ap.error("--workload is required")
    try:
        ss = import_program()
        if args.freeze:
            freeze(ss)
            return 0
        out = run(ss, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, args.seconds, bool(args.trace), *out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
