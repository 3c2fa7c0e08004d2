"""Time the set-up of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is everything before the first simulated cycle: `import streamsim`,
then for every instance of the workload `kernels.build`, `ClusterSim()` and
`load_program`/`load_image`. Prints the host seconds it took.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main(workload, seed):
    t0 = time.perf_counter()
    import streamsim
    for kernel, n, kw in WORKLOADS[workload]:
        inst = streamsim.kernels.build(kernel, n=n, seed=seed, **kw)
        sim = streamsim.ClusterSim()
        sim.load_program(inst.program, active_cores=inst.active_cores,
                         entries=inst.entries)
        sim.load_image(inst.data)
    print(f"{time.perf_counter() - t0:.9f}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
