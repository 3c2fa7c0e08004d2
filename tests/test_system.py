"""Analytic multi-cluster model: bandwidth thinning, roofline, scaling.

Expected numbers are worked out from the topology by hand:
512 clusters behind 4 chiplets x 2 x 4 x 4 fanout, 4 HBM channels at
256 GB/s (1.024 TB/s root), interconnect uplinks 32/64/128/256 GB/s.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import streamsim
from streamsim.errors import ConfigError, MissingEnergyData
from streamsim.system import (FLOPS_PER_FMA, HierarchyTree, Level,
                              OperatingPoint, RooflineParams, SystemModel,
                              WorkloadDescriptor, WorkloadKind,
                              attainable_performance, cluster_roofline,
                              load_system, load_workloads,
                              power_and_efficiency, roofline_report,
                              scale_performance,
                              sustainable_cluster_bandwidth)

TREE = load_system().tree
HP = load_system().point("high_performance")
ME = load_system().point("max_efficiency")


# ------------------------------------------------------------- topology

def test_tree_shape():
    assert TREE.n_clusters == 512
    assert TREE.root_bandwidth == 4 * 256.0e9 == 1.024e12


def test_tree_validation():
    with pytest.raises(ConfigError):
        HierarchyTree(levels=(), chiplets=4, hbm_channels=(256.0e9,))
    with pytest.raises(ConfigError):
        HierarchyTree(levels=(Level("a", 0, 1.0e9),), chiplets=1,
                      hbm_channels=(1.0e9,))
    with pytest.raises(ConfigError):
        HierarchyTree(levels=(Level("a", 2, 1.0e9),), chiplets=1,
                      hbm_channels=())


@pytest.mark.parametrize("make, message", [
    (lambda: HierarchyTree(levels=(), chiplets=4, hbm_channels=(1.0e9,)),
     "topology needs levels, chiplets and HBM channels"),
    (lambda: HierarchyTree(levels=(Level("a", 2, 1.0e9),), chiplets=0,
                           hbm_channels=(1.0e9,)),
     "topology needs levels, chiplets and HBM channels"),
    (lambda: HierarchyTree((Level("s1", 2, 1.0e9), Level("s2", 2, 0.0)), 1,
                           (1.0e9,)),
     "level 's2' has a non-positive fanout or bandwidth"),
    (lambda: RooflineParams(float("nan"), 1.0),
     "roofline parameters must be finite and positive"),
    (lambda: RooflineParams(peak_flops=1.0, mem_bandwidth=float("inf")),
     "roofline parameters must be finite and positive"),
    (lambda: WorkloadDescriptor("w", flops=1.0, bytes=-1.0),
     "workload 'w' needs non-negative flops/bytes, not both zero"),
    (lambda: OperatingPoint("far", 0.9, 1.0e9, 50.5e9, 1.0),
     "operating point 'far': stated 5.05e+10 flop/s is more than 5% from "
     "24 x 2 x 1e+09 Hz"),
])
def test_record_check_messages(make, message):
    with pytest.raises(ConfigError) as ei:
        make()
    assert str(ei.value) == message


def test_records_keep_their_fields():
    lvl = Level("s1", 4, 32.0e9)
    assert (lvl.name, lvl.fanout, lvl.uplink_bandwidth) == ("s1", 4, 32.0e9)
    tree = HierarchyTree((lvl,), 2, (1.0e9, 2.0e9))
    assert (tree.levels, tree.chiplets, tree.hbm_channels) == (
        (lvl,), 2, (1.0e9, 2.0e9))
    assert (tree.n_clusters, tree.root_bandwidth) == (8, 3.0e9)
    rp = RooflineParams(2.0, 4.0)
    assert (rp.peak_flops, rp.mem_bandwidth, rp.ridge_intensity) == (2.0, 4.0, 0.5)
    w = WorkloadDescriptor(name="w", flops=8.0, bytes=2.0)
    assert (w.name, w.flops, w.bytes, w.intensity) == ("w", 8.0, 2.0, 4.0)
    p = OperatingPoint("p", vdd=0.9, freq=1.0e9, perf_24core=48.0e9)
    assert (p.name, p.vdd, p.freq, p.perf_24core, p.efficiency) == (
        "p", 0.9, 1.0e9, 48.0e9, None)
    model = SystemModel(tree=tree, points={"p": p})
    assert (model.tree, model.point("p")) == (tree, p)


def test_bandwidth_endpoints():
    assert sustainable_cluster_bandwidth(TREE, 1) == 32.0e9
    assert sustainable_cluster_bandwidth(TREE, 4) == 32.0e9
    # fully active: the root pipe splits 512 ways
    assert sustainable_cluster_bandwidth(TREE, 512) == 2.0e9


def test_bandwidth_thinning_by_hand():
    # 32 active: root gives 32, chiplet uplinks 256*4/32 = 32 -> still 32
    assert sustainable_cluster_bandwidth(TREE, 32) == 32.0e9
    # 64 active: chiplet level thins to 256*4/64 = 16, root to 16
    assert sustainable_cluster_bandwidth(TREE, 64) == 16.0e9
    # 128 active: root 8, chiplet 8
    assert sustainable_cluster_bandwidth(TREE, 128) == 8.0e9
    with pytest.raises(ConfigError):
        sustainable_cluster_bandwidth(TREE, 0)
    with pytest.raises(ConfigError):
        sustainable_cluster_bandwidth(TREE, 513)


def test_bandwidth_monotone_and_capacity():
    prev = None
    for a in range(1, 513):
        bw = sustainable_cluster_bandwidth(TREE, a)
        if prev is not None:
            assert bw <= prev + 1e-6
        assert a * bw <= TREE.root_bandwidth * (1 + 1e-12)
        prev = bw


# Fanouts 2, 3, 2 under 2 chiplets: 24 clusters behind 12 a, 4 b and 2 c
# uplinks. In each case one node binds: a level at a count of active
# clusters above its own uplink count and at most the count one level
# nearer the leaves, so a walk that counts that level's uplinks one level
# late or early gets another share.
@pytest.mark.parametrize("uplinks, root, active, share", [
    # c: 2 uplinks x 8 / 4 = 4; a and b 16; root 64 / 4 = 16
    ((16.0, 16.0, 8.0), 64.0, 4, 4.0),
    # b: 4 uplinks x 12 / 12 = 4; a 16; c 2 x 48 / 12 = 8; root 96 / 12 = 8
    ((16.0, 12.0, 48.0), 96.0, 12, 4.0),
    # a: 12 uplinks x 4 / 24 = 2; b 4 x 18 / 24 = 3; c 2 x 48 / 24 = 4;
    # root 96 / 24 = 4
    ((4.0, 18.0, 48.0), 96.0, 24, 2.0),
    # root: 24 / 12 = 2; a 16; b 4 x 16 / 12 = 5.3; c 2 x 16 / 12 = 2.7
    ((16.0, 16.0, 16.0), 24.0, 12, 2.0),
], ids=["c", "b", "a", "root"])
def test_bandwidth_binds_at_each_level(uplinks, root, active, share):
    levels = tuple(Level(name, fanout, bw) for name, fanout, bw
                   in zip("abc", (2, 3, 2), uplinks))
    tree = HierarchyTree(levels=levels, chiplets=2, hbm_channels=(root,))
    assert tree.n_clusters == 24
    assert sustainable_cluster_bandwidth(tree, active) == share


# ------------------------------------------------------------- roofline

def test_ridge_intensity():
    rp = RooflineParams(peak_flops=2.048e12, mem_bandwidth=256.0e9)
    assert rp.ridge_intensity == 8.0
    with pytest.raises(ConfigError):
        RooflineParams(peak_flops=0.0, mem_bandwidth=1.0)
    with pytest.raises(ConfigError):
        RooflineParams(peak_flops=1.0, mem_bandwidth=-2.0)


def test_workload_intensity_and_classify():
    rp = RooflineParams(2.048e12, 256.0e9)
    w = WorkloadDescriptor("conv", flops=16.0, bytes=2.0)
    assert w.intensity == 8.0
    assert w.classify(rp) is WorkloadKind.COMPUTE_BOUND  # boundary is compute
    assert WorkloadDescriptor("pool", 1.0, 4.0).classify(rp) \
        is WorkloadKind.MEMORY_BOUND
    assert WorkloadDescriptor("gen", 5.0, 0.0).intensity == float("inf")
    with pytest.raises(ConfigError):
        WorkloadDescriptor("bad", -1.0, 2.0)
    with pytest.raises(ConfigError):
        WorkloadDescriptor("bad", 0.0, 0.0)


def test_attainable_performance():
    rp = RooflineParams(2.048e12, 256.0e9)
    mem = WorkloadDescriptor("m", 1.0, 4.0)       # intensity 0.25
    assert attainable_performance(mem, rp) == 0.25 * 256.0e9
    comp = WorkloadDescriptor("c", 64.0, 1.0)     # far right of the ridge
    assert attainable_performance(comp, rp) == 2.048e12
    inf = WorkloadDescriptor("i", 5.0, 0.0)
    assert attainable_performance(inf, rp) == 2.048e12


def test_attainable_is_continuous_at_ridge():
    rp = RooflineParams(2.048e12, 256.0e9)
    lo = WorkloadDescriptor("lo", 8.0 * 256.0, 256.0)
    assert attainable_performance(lo, rp) == 2.048e12  # bw*8 == peak exactly


def test_roofline_report():
    rp = RooflineParams(2.048e12, 256.0e9)
    ws = [WorkloadDescriptor("a", 1.0, 4.0), WorkloadDescriptor("b", 64.0, 1.0)]
    rows = roofline_report(ws, rp, measured={"a": 32.0e9})
    assert [r["name"] for r in rows] == ["a", "b"]
    assert rows[0]["kind"] == "memory"
    assert rows[1]["kind"] == "compute"
    assert rows[0]["attainable"] == 64.0e9
    assert rows[0]["measured"] == 32.0e9
    assert rows[0]["detachment"] == pytest.approx(0.5)
    assert rows[1]["measured"] is None and rows[1]["detachment"] is None
    with pytest.raises(ConfigError):
        roofline_report([], rp)
    # a measurement with no row would be dropped without a word
    with pytest.raises(ConfigError, match="table: c, d$"):
        roofline_report(ws, rp, measured={"c": 1.0, "a": 32.0e9, "d": 2.0})


# ------------------------------------------------------------- operating points

def test_point_invariant():
    # stated 24-core figure must sit within 5% of 24 cores x 2 flop x freq
    OperatingPoint("ok", 0.9, 1.0e9, perf_24core=48.0e9)
    OperatingPoint("edge", 0.9, 1.0e9, perf_24core=50.4e9)  # exactly +5%
    with pytest.raises(ConfigError):
        OperatingPoint("far", 0.9, 1.0e9, perf_24core=50.5e9)
    with pytest.raises(ConfigError):
        OperatingPoint("neg", 0.9, -1.0e9, perf_24core=48.0e9)


def test_scale_performance_frozen():
    assert scale_performance(HP, 24) == pytest.approx(54.0e9)
    assert scale_performance(HP, 4096) == pytest.approx(9.216e12)
    assert scale_performance(ME, 4096) == pytest.approx(4.096e12)
    # the published 4096-core figure band
    assert abs(scale_performance(ME, 4096) - 4.3e12) <= 0.22e12
    with pytest.raises(ConfigError):
        scale_performance(HP, 0)


def test_power_and_efficiency_frozen():
    watts, eff = power_and_efficiency(ME, 24)
    assert eff == 188.0e9
    assert watts == pytest.approx(0.13298, rel=1e-4)
    watts4096, _ = power_and_efficiency(ME, 4096)
    assert watts4096 == pytest.approx(25.0e9 * 4096 / 24 / 188.0e9, rel=1e-12)
    assert watts4096 == pytest.approx(22.695, abs=0.001)
    with pytest.raises(MissingEnergyData):
        power_and_efficiency(HP, 24)
    with pytest.raises(ConfigError):
        power_and_efficiency(ME, 0)


def test_scaling_linearity_property():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 8192)
        assert scale_performance(HP, n) == pytest.approx(
            n * FLOPS_PER_FMA * HP.freq)


def test_cluster_roofline():
    rp = cluster_roofline(HP, TREE)
    assert rp.peak_flops == 8 * 2 * 1.125e9
    assert rp.mem_bandwidth == 32.0e9
    assert rp.ridge_intensity == pytest.approx(0.5625)


# ------------------------------------------------------------- loaders

def test_load_system_defaults():
    model = load_system()
    assert set(model.points) == {"high_performance", "max_efficiency"}
    assert model.point("high_performance").freq == 1.125e9
    assert model.point("max_efficiency").vdd == 0.6
    with pytest.raises(ConfigError):
        model.point("nope")


def test_load_workloads_defaults():
    ws = load_workloads()
    assert len(ws) == 9
    assert [w.intensity for w in ws] == [0.25, 0.5, 1.0, 2.0, 4.0, 8.0,
                                         16.0, 32.0, 64.0]


def test_package_import_leaves_yaml_out():
    # only load_system imports the YAML parser
    code = ("import sys, streamsim; assert 'yaml' not in sys.modules; "
            "streamsim.load_system(); assert 'yaml' in sys.modules")
    src = str(Path(streamsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_package_import_leaves_system_model_out():
    # the system-model names load streamsim.system on first use
    code = ("import sys, streamsim; "
            "assert 'streamsim.system' not in sys.modules; "
            "assert isinstance(streamsim.load_system(), streamsim.SystemModel); "
            "assert 'streamsim.system' in sys.modules; "
            "ns = {}; exec('from streamsim import *', ns); "
            "assert all(name in ns for name in streamsim.__all__); "
            "assert ns['RooflineParams'] is sys.modules['streamsim.system'].RooflineParams")
    src = str(Path(streamsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        streamsim.nosuch


def test_cli_import_leaves_system_model_out():
    # only the points and roofline commands import the system model
    code = ("import sys, streamsim.cli; "
            "assert 'streamsim.system' not in sys.modules")
    src = str(Path(streamsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_leaves_dataclasses_and_inspect_out():
    # the records are plain classes: importing the package generates no
    # code and loads neither module, beyond what a bare interpreter
    # started the same way has already loaded
    src = str(Path(streamsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)

    def loaded(imports):
        code = (f"import sys{imports}; print(' '.join(sorted("
                "{'dataclasses', 'inspect'} & set(sys.modules))))")
        return set(subprocess.run([sys.executable, "-c", code], env=env,
                                  check=True, capture_output=True,
                                  text=True).stdout.split())

    bare = loaded("")
    for module in ("streamsim", "streamsim.cli", "streamsim.system"):
        assert loaded(f", {module}") == bare, module


def test_loader_errors(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("operating_points: {}\n")
    with pytest.raises(ConfigError):
        load_system(bad)
    worse = tmp_path / "worse.yaml"
    worse.write_text(": : :\n")
    with pytest.raises(ConfigError):
        load_system(worse)
    with pytest.raises(ConfigError):
        load_system(tmp_path / "absent.yaml")
    csvp = tmp_path / "w.csv"
    csvp.write_text("name,flops,bytes\nx,notanumber,2\n")
    with pytest.raises(ConfigError):
        load_workloads(csvp)
    empty = tmp_path / "e.csv"
    empty.write_text("name,flops,bytes\n")
    with pytest.raises(ConfigError):
        load_workloads(empty)
