"""The simulator names that the measuring tools wrap exist on the package,
the bytecode counter counts, and the benchmark summary records its base's
revision.

`tools/phases.py` and `perfbench/tracer.py` time the simulator by replacing
its methods from outside, by name. A renamed method would otherwise show up
only as a `missing` note in the header of a traced benchmark run, or as a
phase that no longer counts anything.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import streamsim

CHECKOUT = Path(__file__).resolve().parent.parent


def _load(path):
    """Import the module at path, keeping sys.path as it was."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_phases_wrap_existing_methods():
    phases = _load(CHECKOUT / "tools" / "phases.py")
    assert phases.PHASES
    for name, owner, attr in phases.PHASES:
        assert callable(getattr(owner, attr, None)), f"{name}: {attr}"
    assert phases.SETUP
    for name, owner, attr in phases.SETUP:
        assert callable(getattr(owner, attr, None)), f"{name}: {attr}"


def test_phases_split_set_up(monkeypatch, capsys):
    phases = _load(CHECKOUT / "tools" / "phases.py")
    monkeypatch.setitem(phases.WORKLOADS, "tiny", [("dot_baseline", 8, {})])
    names = [(owner, attr, getattr(owner, attr))
             for _, owner, attr in phases.PHASES + phases.SETUP]
    phases.split("tiny", 2)
    for owner, attr, fn in names:
        assert getattr(owner, attr) is fn, f"{attr} not restored"
    setup = capsys.readouterr().out.split("# tiny: set-up ")[1].splitlines()
    calls = {row.split()[0]: row.split()[-2] for row in setup[2:]}
    assert calls == {"build": "1", "assemble": "1", "references": "1",
                     "load": "1", "check": "1", "gc": calls["gc"]}


def test_tracer_hooks_resolve():
    tracer = _load(CHECKOUT / "perfbench" / "tracer.py")
    hooked = []
    for name, path, attrs in tracer.HOOKS:
        owner = tracer._resolve(streamsim, path)
        attrs = attrs if attrs is not None else tracer._public_methods(owner)
        assert attrs, name
        for attr in attrs:
            fn = getattr(owner, attr, None)
            assert callable(fn), f"{name}: {path}.{attr}"
            hooked.append((owner, attr, fn))
    t = tracer.Tracer()
    t.install(streamsim)
    try:
        assert t.missing == []
    finally:
        t.uninstall()
    for owner, attr, fn in hooked:
        assert getattr(owner, attr) is fn, f"{attr} not restored"


def test_opcount_counts_one_run():
    opcount = _load(CHECKOUT / "tools" / "opcount.py")
    inst = streamsim.kernels.build("dot_ssr_frep", n=64)
    core_cycles, per_function = opcount.count([inst])
    result = streamsim.run_kernel(inst)[1]
    assert core_cycles == result.stats.cycles_at_halt > 0
    # one _step per cycle, one stream plan in each of them while streaming
    step = per_function["cluster.py:ClusterSim._step"]
    assert step[1] == result.cycles and step[0] > step[1]
    assert 0 < per_function["cluster.py:ClusterSim._plan_streams"][1] <= step[1]
    # a core splits each distinct FpOp at most once under each stream map:
    # the one before ssr_enable and the one it sets
    code = inst.program.instructions.values()
    fp_ops = {i.fp_op for i in code if i.fp_op is not None}
    enables = sum(i.mnemonic == "ssr_enable" for i in code)
    splits = per_function["cluster.py:ClusterSim._map_operands"][1]
    assert 0 < splits <= len(fp_ops) * (1 + enables)
    # builtin calls: every stream commit accesses the scratchpad through a
    # struct method, and each fma64 calls at least math.fsum
    commit = per_function["cluster.py:ClusterSim._commit_streams"]
    assert commit[2] >= commit[1] > 0
    fma = per_function["fp.py:fma64"]
    assert fma[2] >= fma[1] > 0
    # the replay steps in cluster.py alone: its one frep.py call is the arm
    frep_calls = {name: counts[1] for name, counts in per_function.items()
                  if name.startswith("frep.py:")}
    assert frep_calls == {"frep.py:Sequencer.arm": 1}
    lines = opcount.report(core_cycles, per_function, top=3)
    assert len(lines) == 5 and lines[-1].startswith("total")
    assert lines[0].split()[-2:] == ["C", "calls"]
    assert [len(line.split()) for line in lines[1:]] == [4] * 4


def test_opcount_prints_one_table_per_workload(monkeypatch, capsys):
    opcount = _load(CHECKOUT / "tools" / "opcount.py")
    built = []
    monkeypatch.setattr(opcount.kernels, "build",
                        lambda name, **kw: built.append(name) or name)
    monkeypatch.setattr(opcount, "count", lambda instances: (1, {}))
    opcount.main(["--workload", "memsys", "--workload", "matmul8"])
    opcount.main([])
    heads = [line.split(":")[0] for line in capsys.readouterr().out.split("\n")
             if line.startswith("#")]
    assert heads == ["# memsys", "# matmul8", "# matmul8"]
    assert built == ["tcdm_same_bank", "tcdm_unit_stride", "dma_stream",
                     "matmul_ssr_frep", "matmul_ssr_frep"]


def test_bench_records_base_rev(tmp_path):
    # a git archive export is no work tree: git gives it no revision, and
    # --base-rev stands in for one
    bench = _load(CHECKOUT / "tools" / "bench.py")
    sides = {"change": CHECKOUT, "base": tmp_path}
    assert bench.revisions(sides)["base"] is None
    revs = bench.revisions(sides, "0123abc")
    assert revs["base"] == "0123abc"
    assert revs["change"] == bench.revision(CHECKOUT)
    with pytest.raises(SystemExit):
        bench.main(["--out", str(tmp_path / "out.json"), "--base-rev", "x"])
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flag", [0, 1])
def test_bench_records_bytecode_writing(flag, monkeypatch):
    # set-up times differ by whether bytecode is written, so the host
    # record says which, as the interpreter's flag gives it
    bench = _load(CHECKOUT / "tools" / "bench.py")
    flags = SimpleNamespace(dont_write_bytecode=flag)
    monkeypatch.setattr(bench, "sys", SimpleNamespace(flags=flags))
    assert bench.host()["dont_write_bytecode"] is bool(flag)


@pytest.mark.parametrize("name, n, pairs, grants", [
    # no two requesters meet at a bank: one grant per (bank, requester) pair
    ("matmul_ssr_frep", 32, 66560, 66560),
    # eight cores on bank 0: one grant per cycle among the eight requests
    ("tcdm_same_bank", 128, 8164, 1024),
])
def test_tracer_counts_arbitration(name, n, pairs, grants):
    # the tracer's arbitrate wrapper sums the request lists' lengths after
    # the call and counts the banks of the grants it returns; the counts
    # were frozen on the arbiter that returned {bank: winner}
    tracer = _load(CHECKOUT / "perfbench" / "tracer.py")
    inst = streamsim.kernels.build(name, n=n)
    t = tracer.Tracer()
    t.install(streamsim)
    try:
        streamsim.run_kernel(inst)
    finally:
        t.uninstall()
    assert (t.tcdm_pairs, t.tcdm_grants) == (pairs, grants)


def test_opcount_idle_fpu_and_int_pipe_calls():
    # on a kernel of plain lw/sw with every FPU idle throughout, no FPU is
    # planned, and the int pipe costs one plan and one commit call per
    # core-cycle: the whole run stays at or below 3 Python calls per
    # core-cycle
    opcount = _load(CHECKOUT / "tools" / "opcount.py")
    core_cycles, per_function = opcount.count(
        [streamsim.kernels.build("tcdm_unit_stride", n=64)])
    assert "cluster.py:ClusterSim._plan_fpu" not in per_function
    calls = sum(row[1] for row in per_function.values())
    assert calls / core_cycles <= 3.0
