"""Cycle-approximate simulator for an eight-core RISC-V compute cluster with
stream semantic registers and FP-repetition, plus the analytic system model
layered above it."""

from . import errors
from .asm import AsmProgram, assemble
from .cluster import ClusterSim, CoreStats, DmaDescriptor, RunResult, stats_lines
from .fp import bits_to_f64, f64_to_bits, fma64
from .kernels import KERNELS, KernelInstance, build, names, run_kernel
from .system import (HierarchyTree, OperatingPoint, RooflineParams,
                     SystemModel, WorkloadDescriptor, WorkloadKind,
                     attainable_performance, cluster_roofline, load_system,
                     load_workloads, power_and_efficiency, roofline_report,
                     scale_performance, sustainable_cluster_bandwidth)

__version__ = "0.1.0"

__all__ = [
    "AsmProgram", "assemble",
    "ClusterSim", "CoreStats", "DmaDescriptor", "RunResult",
    "stats_lines",
    "bits_to_f64", "f64_to_bits", "fma64",
    "KERNELS", "KernelInstance", "build", "names", "run_kernel",
    "HierarchyTree", "OperatingPoint", "RooflineParams", "SystemModel",
    "WorkloadDescriptor", "WorkloadKind", "attainable_performance",
    "cluster_roofline", "load_system", "load_workloads",
    "power_and_efficiency", "roofline_report", "scale_performance",
    "sustainable_cluster_bandwidth",
    "errors",
]
