"""Analytic system model: bandwidth thinning, rooflines, operating points.

The interconnect is a tree: clusters feed S1 groups, S1 groups feed S2, S2
feed S3, S3 feed a chiplet's memory channel. Each level thins bandwidth, so a
lone cluster sees its full S1 uplink while all clusters together are bound by
the root. Everything here is closed-form; nothing simulates cycles.

Performance accounting is double precision with one FMA = 2 flops; every peak
derives from cores x 2 x frequency. A cluster's roofline takes its cores from
the cluster model and its bandwidth from the tree.
"""

import csv
import math
from enum import Enum
from pathlib import Path

from .cluster import N_CORES
from .errors import ConfigError, MissingEnergyData

FLOPS_PER_FMA = 2
GROUP_CORES = 24                 # cores behind an operating point's stated figure

_DATA_DIR = Path(__file__).parent / "data"
DEFAULT_SYSTEM_YAML = _DATA_DIR / "system.yaml"
DEFAULT_WORKLOADS_CSV = _DATA_DIR / "workloads.csv"


class Level:
    def __init__(self, name, fanout, uplink_bandwidth):
        self.name = name
        self.fanout = fanout                        # members per parent node
        self.uplink_bandwidth = uplink_bandwidth    # bytes/s per uplink


class HierarchyTree:
    def __init__(self, levels, chiplets, hbm_channels):
        if not levels or chiplets < 1 or not hbm_channels:
            raise ConfigError("topology needs levels, chiplets and HBM channels")
        for lvl in levels:
            if lvl.fanout < 1 or lvl.uplink_bandwidth <= 0:
                raise ConfigError(f"level '{lvl.name}' has a non-positive "
                                  "fanout or bandwidth")
        self.levels = levels                # leaf to root, chiplet level last
        self.chiplets = chiplets
        self.hbm_channels = hbm_channels    # bytes/s per channel

    @property
    def n_clusters(self):
        n = self.chiplets
        for lvl in self.levels:
            n *= lvl.fanout
        return n

    @property
    def root_bandwidth(self):
        return sum(self.hbm_channels)


def sustainable_cluster_bandwidth(tree: HierarchyTree, active_clusters: int):
    """Bytes/s one cluster can sustain from root memory with
    `active_clusters` streaming uniformly.

    Each level contributes min(own uplink, fair share of that level's
    aggregate); the result is the tightest level, never more than the root
    divided across all active clusters.
    """
    if not 1 <= active_clusters <= tree.n_clusters:
        raise ConfigError(f"active_clusters {active_clusters} outside "
                          f"1..{tree.n_clusters}")
    share = tree.root_bandwidth / active_clusters
    count = tree.n_clusters
    for lvl in tree.levels:
        count //= lvl.fanout        # this level's uplinks in the whole system
        if active_clusters > count:
            level_share = lvl.uplink_bandwidth * count / active_clusters
        else:
            level_share = lvl.uplink_bandwidth
        share = min(share, level_share)
    return share


# ------------------------------------------------------------------ roofline

class RooflineParams:
    def __init__(self, peak_flops, mem_bandwidth):
        # written so that NaN fails too
        if not (0 < peak_flops < math.inf and 0 < mem_bandwidth < math.inf):
            raise ConfigError("roofline parameters must be finite and positive")
        self.peak_flops = peak_flops
        self.mem_bandwidth = mem_bandwidth

    @property
    def ridge_intensity(self):
        return self.peak_flops / self.mem_bandwidth


class WorkloadKind(Enum):
    COMPUTE_BOUND = "compute"
    MEMORY_BOUND = "memory"


class WorkloadDescriptor:
    def __init__(self, name, flops, bytes):
        if flops < 0 or bytes < 0 or (flops == 0 and bytes == 0):
            raise ConfigError(f"workload '{name}' needs non-negative "
                              "flops/bytes, not both zero")
        self.name = name
        self.flops = flops
        self.bytes = bytes

    @property
    def intensity(self):
        if self.bytes == 0:
            return math.inf
        return self.flops / self.bytes

    def classify(self, roofline: RooflineParams) -> WorkloadKind:
        return (WorkloadKind.COMPUTE_BOUND
                if self.intensity >= roofline.ridge_intensity
                else WorkloadKind.MEMORY_BOUND)


def attainable_performance(workload: WorkloadDescriptor, roofline: RooflineParams):
    """Flop/s bound: min(peak, bandwidth x intensity)."""
    i = workload.intensity
    if math.isinf(i):
        return roofline.peak_flops
    return min(roofline.peak_flops, roofline.mem_bandwidth * i)


def roofline_report(workloads, roofline: RooflineParams, measured=None):
    """Rows of (name, intensity, kind, attainable, measured, detachment).

    `measured` maps workload name to achieved flop/s, and a name with no
    workload is refused; detachment is the relative shortfall below the
    bound.
    """
    if not workloads:
        raise ConfigError("no workloads to report on")
    measured = measured or {}
    names = {w.name for w in workloads}
    unknown = [name for name in measured if name not in names]
    if unknown:
        raise ConfigError("measured workloads not in the workload table: "
                          + ", ".join(unknown))
    rows = []
    for w in workloads:
        bound = attainable_performance(w, roofline)
        m = measured.get(w.name)
        rows.append({
            "name": w.name,
            "intensity": w.intensity,
            "kind": w.classify(roofline).value,
            "attainable": bound,
            "measured": m,
            "detachment": None if m is None else 1.0 - m / bound,
        })
    return rows


# ------------------------------------------------------------------ DVFS points

class OperatingPoint:
    def __init__(self, name, vdd, freq, perf_24core, efficiency=None):
        computed = GROUP_CORES * FLOPS_PER_FMA * freq
        if abs(perf_24core - computed) > 0.05 * computed:
            raise ConfigError(
                f"operating point '{name}': stated {perf_24core:g} "
                f"flop/s is more than 5% from {GROUP_CORES} x {FLOPS_PER_FMA} "
                f"x {freq:g} Hz")
        self.name = name
        self.vdd = vdd
        self.freq = freq
        self.perf_24core = perf_24core    # stated figure of GROUP_CORES cores
        self.efficiency = efficiency      # flop/s per watt, or None


def scale_performance(point: OperatingPoint, n_cores: int):
    """Peak flop/s of n_cores at this point (derived, not the stated figure)."""
    if n_cores < 1:
        raise ConfigError(f"n_cores {n_cores} must be at least 1")
    return n_cores * FLOPS_PER_FMA * point.freq


def power_and_efficiency(point: OperatingPoint, n_cores: int):
    """(watts, flop/s/W) for n_cores; power follows the stated performance
    figure linearly, so the efficiency is invariant under core count."""
    if point.efficiency is None:
        raise MissingEnergyData(
            f"operating point '{point.name}' carries no efficiency figure")
    if n_cores < 1:
        raise ConfigError(f"n_cores {n_cores} must be at least 1")
    perf = point.perf_24core * n_cores / GROUP_CORES
    return perf / point.efficiency, point.efficiency


def cluster_roofline(point: OperatingPoint, tree: HierarchyTree):
    """Roofline of one cluster streaming alone through `tree` at an operating
    point: the smallest unit the cycle-level simulator can be compared
    against."""
    return RooflineParams(peak_flops=scale_performance(point, N_CORES),
                          mem_bandwidth=sustainable_cluster_bandwidth(tree, 1))


# ------------------------------------------------------------------ config IO

class SystemModel:
    def __init__(self, tree: HierarchyTree, points):
        self.tree = tree
        self.points = points    # name -> OperatingPoint

    def point(self, name):
        try:
            return self.points[name]
        except KeyError:
            raise ConfigError(f"unknown operating point '{name}'") from None


def load_system(path=None) -> SystemModel:
    # imported here, not with the package, so that a simulation run never
    # pays for importing the YAML parser
    import yaml

    path = Path(path) if path is not None else DEFAULT_SYSTEM_YAML
    try:
        raw = yaml.safe_load(path.read_text())
    except (OSError, yaml.YAMLError) as e:
        raise ConfigError(f"cannot load system config {path}: {e}") from e
    try:
        topo = raw["topology"]
        levels = tuple(Level(str(l["name"]), int(l["fanout"]),
                             float(l["uplink_bandwidth"]))
                       for l in topo["levels"])
        tree = HierarchyTree(levels=levels, chiplets=int(topo["chiplets"]),
                             hbm_channels=tuple(float(b) for b in
                                                topo["hbm_channels"]))
        points = {}
        for name, p in raw["operating_points"].items():
            points[name] = OperatingPoint(
                name=name, vdd=float(p["vdd"]), freq=float(p["freq"]),
                perf_24core=float(p["perf_24core"]),
                efficiency=float(p["efficiency"]) if "efficiency" in p else None)
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"malformed system config {path}: {e}") from e
    return SystemModel(tree=tree, points=points)


def load_workloads(path=None):
    path = Path(path) if path is not None else DEFAULT_WORKLOADS_CSV
    out = []
    try:
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                out.append(WorkloadDescriptor(name=row["name"].strip(),
                                              flops=float(row["flops"]),
                                              bytes=float(row["bytes"])))
    except (OSError, KeyError, ValueError) as e:
        raise ConfigError(f"cannot load workloads {path}: {e}") from e
    if not out:
        raise ConfigError(f"no workloads in {path}")
    return out
