"""Cycle-approximate simulator for an eight-core RISC-V compute cluster with
stream semantic registers and FP-repetition, plus the analytic system model
layered above it.

No simulation uses the system model, so `import streamsim` leaves
`streamsim.system` out; its names load it on first use."""

from . import errors
from .asm import AsmProgram, assemble
from .cluster import ClusterSim, CoreStats, RunResult, stats_lines
from .fp import bits_to_f64, f64_to_bits, fma64
from .kernels import KERNELS, KernelInstance, build, names, run_kernel

__version__ = "0.1.0"

_SYSTEM_NAMES = (
    "HierarchyTree", "OperatingPoint", "RooflineParams", "SystemModel",
    "WorkloadDescriptor", "WorkloadKind", "attainable_performance",
    "cluster_roofline", "load_system", "load_workloads",
    "power_and_efficiency", "roofline_report", "scale_performance",
    "sustainable_cluster_bandwidth",
)

__all__ = [
    "AsmProgram", "assemble",
    "ClusterSim", "CoreStats", "RunResult",
    "stats_lines",
    "bits_to_f64", "f64_to_bits", "fma64",
    "KERNELS", "KernelInstance", "build", "names", "run_kernel",
    *_SYSTEM_NAMES,
    "errors",
]


def __getattr__(name):
    """Resolve a system-model name from `streamsim.system`, which the first
    such name imports."""
    if name in _SYSTEM_NAMES:
        from . import system
        return getattr(system, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
