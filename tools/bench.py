"""Repeat the benchmark's untraced runs and summarise them in a JSON file.

Usage, from the root of a checkout:

    python3 tools/bench.py --out BENCH.json [--base DIR [--base-rev REV]]
                           [--runs 5]

Each run is one `python3 perfbench/run.py --workload NAME --seed 0 --seconds S
--trace 0` in a fresh interpreter, in the checkout that holds this file, for
every workload BENCHMARK.json names, with S its `run_seconds`. With
`--base DIR` every run is paired with one in the checkout at DIR, and the side
that runs first alternates from pair to pair, so that drift in the host's load
falls on both sides alike.

Each checkout's tier-1 suite, `python -m pytest -q --durations=0` with its
own `src` on PYTHONPATH, runs as many times in the same alternating pairs.

The output records the host (nproc, Python version, whether the interpreter
writes bytecode), the git revision of each checkout, and per workload and
checkout the failed and attempted operations and, for every end-to-end
metric that BENCHMARK.json names, each run's value with their median and
quartiles. A base that is no git work
tree, such as a `git archive` export, has no revision of its own: give it
with `--base-rev REV`, which is recorded in place of what git reports.
With a base it also gives, per metric, the ratio of the medians and the
number of pairs the change won.
Under "suite" it records, per checkout, the suite's wall time and the call
time of the correctness-oracle criterion, each run with median and
quartiles. Under "source_lines" it records, per checkout, the line count of
each src/streamsim/*.py (as `wc -l` counts them) and their total.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
ORACLE_TEST = "test_criterion_8_correctness_oracles"


def host():
    """The host's facts that a run's times depend on. An interpreter that
    writes no bytecode (PYTHONDONTWRITEBYTECODE, -B) compiles the whole
    package in every fresh interpreter, which set-up times count, and the
    runs inherit this interpreter's setting."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode)}


def revision(checkout):
    """The checkout's HEAD commit, marked "+dirty" when tracked files differ
    from it; None outside a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True, check=True).stdout
    try:
        rev = git("rev-parse", "HEAD").strip()
        dirty = git("status", "--porcelain", "--untracked-files=no").strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return rev + ("+dirty" if dirty else "")


def revisions(sides, base_rev=None):
    """The revision of each side's checkout; base_rev, where given, stands
    for the base's."""
    revs = {side: revision(path) for side, path in sides.items()}
    if base_rev is not None:
        revs["base"] = base_rev
    return revs


def bench_once(checkout, workload, seconds):
    """The JSON summary line of one untraced benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"bench: {' '.join(cmd)} in {checkout} exited "
                         f"{out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def suite_once(checkout):
    """Host seconds of one tier-1 suite run, and the call time pytest
    reports for ORACLE_TEST."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--durations=0",
           "-p", "no:cacheprovider"]
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                         text=True)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise SystemExit(f"bench: {' '.join(cmd)} in {checkout} exited "
                         f"{out.returncode}:\n{out.stdout[-2000:]}")
    m = re.search(rf"^([\d.]+)s call\s+\S+::{ORACLE_TEST}$", out.stdout,
                  re.MULTILINE)
    if m is None:
        raise SystemExit(f"bench: no call time of {ORACLE_TEST} in {checkout}")
    return wall, float(m.group(1))


def source_lines(checkout):
    """Newlines in each src/streamsim/*.py of the checkout, and their sum."""
    files = {p.name: p.read_bytes().count(b"\n")
             for p in sorted((checkout / "src" / "streamsim").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def paired(sides, runs, label, once):
    """once(checkout) `runs` times per side, the side that goes first
    alternating from pair to pair; the results per side, in run order."""
    out = {side: [] for side in sides}
    for i in range(runs):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            out[side].append(once(sides[side]))
            print(f"bench: {label} {side} run {i + 1}/{runs}", file=sys.stderr)
    return out


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--base", type=Path, default=None,
                    help="checkout to pair every run with")
    ap.add_argument("--base-rev", default=None,
                    help="revision to record for the --base checkout")
    ap.add_argument("--runs", type=int, default=5,
                    help="runs (pairs, with --base) per workload; at least 5")
    args = ap.parse_args(argv)
    if args.runs < 5:
        ap.error("--runs must be at least 5")
    if args.base_rev is not None and args.base is None:
        ap.error("--base-rev needs --base")
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"change": CHECKOUT}
    if args.base is not None:
        sides["base"] = args.base.resolve()

    result = {
        "host": host(),
        "settings": {"runs": args.runs, "seconds": seconds, "seed": 0},
        "revisions": revisions(sides, args.base_rev),
        "source_lines": {side: source_lines(path)
                         for side, path in sides.items()},
        "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = paired(sides, args.runs, workload,
                      lambda checkout: bench_once(checkout, workload, seconds))
        entry = {}
        for side, outs in runs.items():
            entry[side] = {
                "failed": sum(o["failed"] for o in outs),
                "attempted": sum(o["attempted"] for o in outs),
                "metrics": {name: dict(summary([o["metrics"][name]["value"]
                                                for o in outs]),
                                       unit=outs[0]["metrics"][name]["unit"])
                            for name in metrics},
            }
        if "base" in runs:
            entry["compare"] = {}
            for name, m in metrics.items():
                new = entry["change"]["metrics"][name]
                old = entry["base"]["metrics"][name]
                sign = 1 if m["better"] == "higher" else -1
                entry["compare"][name] = {
                    "better": m["better"],
                    "change_over_base": new["median"] / old["median"],
                    "change_won": sum(sign * (a - b) > 0 for a, b in
                                      zip(new["runs"], old["runs"])),
                    "pairs": args.runs,
                }
        result["workloads"][workload] = entry
    times = paired(sides, args.runs, "suite", suite_once)
    result["suite"] = {
        side: {"wall_s": summary([w for w, _ in runs]),
               f"{ORACLE_TEST}_s": summary([c for _, c in runs])}
        for side, runs in times.items()}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
