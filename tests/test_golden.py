"""Frozen SHA-256 digests of every corpus kernel's stats and trace text, and
of every assembled program.

A refactor of the simulator must not move a single simulated cycle, so each
kernel's `stats_lines` output and its `run(trace=True)` text are compared
against digests taken before the refactor. Two runs of the same code agreeing
would not catch a shifted stall; these digests do. Likewise a refactor of the
assembler must not move one decoded field, data byte, label or entry point.

To re-freeze after a change that is meant to alter simulated behaviour, run

    PYTHONPATH=src python tests/test_golden.py

and give the reason in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from streamsim import kernels
from streamsim.cluster import stats_lines

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
GOLDEN_PROGRAMS = GOLDEN.with_name("programs.json")

# case name -> (kernel, run_kernel keyword arguments); every kernel at its
# default n and seed 0, plus the icache-miss path, which no kernel reaches
# with the warm-started icache: on one core, and on eight cores that miss
# the same lines in the same cycle
CASES = {name: (name, {}) for name in kernels.names()}
for _kernel in ("dot_baseline", "matmul_ssr_frep"):
    CASES[f"{_kernel} cold_start_icache"] = (_kernel, {"cold_start_icache": True})

# program case name -> (kernel, n): every kernel at its default n, plus the
# two large unrolled baselines the benchmark assembles
PROGRAMS = {name: (name, None) for name in kernels.names()}
PROGRAMS.update({"dot_baseline n=4096": ("dot_baseline", 4096),
                 "matvec48_baseline n=96": ("matvec48_baseline", 96)})


def _sha256(lines):
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def digests(case):
    """Stats digests of an untraced and a traced run, and the trace digest."""
    kernel, overrides = CASES[case]
    inst = kernels.build(kernel)
    out = {}
    for trace in (False, True):
        _, result = kernels.run_kernel(inst, **overrides, trace=trace)
        out["stats_traced" if trace else "stats"] = _sha256(
            stats_lines(result, inst.active_cores))
    out["trace"] = _sha256(result.trace)
    return out


def program_digest(case):
    """Digest of the `repr` of every instruction by address, the data
    segments, the labels in definition order and the entry point."""
    kernel, n = PROGRAMS[case]
    prog = kernels.build(kernel, n=n).program
    lines = [f"{a:#x} {prog.instructions[a]!r}" for a in sorted(prog.instructions)]
    lines += [f"data {a:#x} {blob.hex()}" for a, blob in prog.data_segments]
    lines += [f"label {name} {a:#x}" for name, a in prog.labels.items()]
    lines.append(f"entry {prog.entry:#x}")
    return _sha256(lines)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digests(golden, case):
    got = digests(case)
    want = golden[case]
    assert got["stats"] == want["stats"], "stats moved"
    assert got["stats_traced"] == want["stats"], "tracing changed the stats"
    assert got["trace"] == want["trace"], "trace text moved"


@pytest.mark.parametrize("case", sorted(PROGRAMS))
def test_golden_programs(case):
    want = json.loads(GOLDEN_PROGRAMS.read_text())[case]
    assert program_digest(case) == want, "assembled program moved"


if __name__ == "__main__":
    frozen = {}
    for case in sorted(CASES):
        d = digests(case)
        if d["stats_traced"] != d["stats"]:
            raise SystemExit(f"{case}: tracing changed the stats")
        frozen[case] = {"stats": d["stats"], "trace": d["trace"]}
    GOLDEN.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")
    programs = {case: program_digest(case) for case in sorted(PROGRAMS)}
    GOLDEN_PROGRAMS.write_text(json.dumps(programs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} and {GOLDEN_PROGRAMS}")
