"""Workload table of the streamsim benchmark.

Each workload is a list of corpus kernel instances, given as
(kernel name, n, extra builder arguments). One pass over a workload builds,
loads, runs and checks every instance in order.

This module must not import streamsim: the set-up probe imports it before it
starts the clock on `import streamsim`.
"""

DEFAULT_SEED = 0      # the seed the stored fingerprints were taken at
HELD_OUT_SEED = 7     # never used while the benchmark was tuned

WORKLOADS = {
    # all eight cores and 24 stream slots saturated under FREP replay
    "matmul8": [
        ("matmul_ssr_frep", 32, {}),
    ],
    # one active core, seven halted: SSR and FREP with a small fixed cost
    "stream1": [
        ("matvec48_ssr_frep", 120, {}),
        ("matvec48_ssr_frep", 96, {"filler_ints": 40}),
        ("dot_ssr_frep", 4096, {}),
        ("axpy_ssr", 4096, {}),
    ],
    # explicit fld/fld/fmadd: long programs, no streams, no replay
    "unrolled": [
        ("dot_baseline", 4096, {}),
        ("matvec48_baseline", 96, {}),
    ],
    # integer loads with and without bank contention, DMA into the TCDM
    "memsys": [
        ("tcdm_same_bank", 448, {}),
        ("tcdm_unit_stride", 1024, {}),
        ("dma_stream", 131072, {}),
    ],
}

# the instance of each workload whose run(trace=True) text is fingerprinted
TRACE_INSTANCE = {
    "matmul8": 0,
    "stream1": 3,
    "unrolled": 0,
    "memsys": 0,
}


def instance_key(kernel, n, kw):
    """Stable name of one kernel instance, used as a fingerprint key."""
    extra = "".join(f" {k}={v}" for k, v in sorted(kw.items()))
    return f"{kernel} n={n}{extra}"
