"""The simulator names that the measuring tools wrap exist on the package,
and the bytecode counter counts.

`tools/phases.py` and `perfbench/tracer.py` time the simulator by replacing
its methods from outside, by name. A renamed method would otherwise show up
only as a `missing` note in the header of a traced benchmark run, or as a
phase that no longer counts anything.
"""

import importlib.util
import sys
from pathlib import Path

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
    lines = opcount.report(core_cycles, per_function, top=3)
    assert len(lines) == 5 and lines[-1].startswith("total")
