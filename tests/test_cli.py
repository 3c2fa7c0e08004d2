"""Command-line interface: exit codes, output formats, reproducibility."""

import pytest

from streamsim import cli, kernels
from streamsim.asm import assemble
from streamsim.cluster import N_CORES, TCDM_BASE, TCDM_SIZE


def run_cli(*argv):
    return cli.main(list(argv))


def parse_stats(text):
    out = {}
    for line in text.strip().splitlines():
        key, val = line.split()
        out[key] = val
    return out


# ------------------------------------------------------------- happy paths

def test_list_kernels(capsys):
    assert run_cli("list-kernels") == 0
    out = capsys.readouterr().out
    for name in ["dot_baseline", "dot_ssr", "dot_ssr_frep", "axpy_ssr",
                 "matvec48_baseline", "matvec48_ssr_frep", "matmul_ssr_frep",
                 "dma_stream", "tcdm_unit_stride", "tcdm_same_bank"]:
        assert name in out


def test_run_text_stats_self_consistent(capsys):
    assert run_cli("run", "dot_ssr_frep", "--n", "64", "--check") == 0
    st = parse_stats(capsys.readouterr().out)
    cycles = int(st["cluster.cycles"])
    assert cycles == int(st["core0.cycles"]) == 91  # pinned small-size run
    util = int(st["core0.fma_executed"]) / cycles
    assert float(st["core0.utilization"]) == pytest.approx(util, abs=1e-6)
    fpc = int(st["cluster.flops"]) / cycles
    assert float(st["cluster.flops_per_cycle"]) == pytest.approx(fpc, abs=1e-6)


def test_run_csv_format(capsys):
    assert run_cli("run", "dot_ssr", "--n", "16", "--format", "csv") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    row = dict(zip(cli.CSV_COLUMNS, lines[1].split(",")))
    assert row["kernel"] == "dot_ssr"
    assert row["n"] == "16" and row["seed"] == "0"
    assert int(row["fma_executed"]) == 16 + 3  # 16 fmadd + 3 reduce fadd


def test_sweep_emits_one_row_per_size(capsys):
    assert run_cli("run", "dot_ssr_frep", "--sweep", "n=16,32,64") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert [l.split(",")[1] for l in lines[1:]] == ["16", "32", "64"]
    # bigger size, better utilization: replay amortizes the scalar prologue
    utils = [float(l.split(",")[-1]) for l in lines[1:]]
    assert utils[0] < utils[1] < utils[2]


def test_sweep_traces_only_the_written_run(capsys, monkeypatch):
    # --trace-out writes the last size's trace, so only that run records one
    flags = []
    run_kernel = kernels.run_kernel

    def recording(inst, **kw):
        flags.append(kw["trace"])
        return run_kernel(inst, **kw)

    monkeypatch.setattr(kernels, "run_kernel", recording)
    assert run_cli("run", "dot_ssr_frep", "--sweep", "n=16,32",
                   "--trace-out", "-") == 0
    assert flags == [False, True]
    rows = capsys.readouterr().out.splitlines()[-2:]
    assert [r.split(",")[1] for r in rows] == ["16", "32"]


def test_stats_and_trace_files_reproducible(tmp_path):
    paths = []
    for tag in ("a", "b"):
        sp, tp = tmp_path / f"s{tag}.txt", tmp_path / f"t{tag}.txt"
        assert run_cli("run", "matvec48_ssr_frep", "--stats-out", str(sp),
                       "--trace-out", str(tp)) == 0
        paths.append((sp.read_bytes(), tp.read_bytes()))
    assert paths[0] == paths[1]
    assert b"core0.cycles 2473" in paths[0][0]
    assert paths[0][1].count(b"\n") > 2000  # one row per live core-cycle


def test_assemble_listing(tmp_path, capsys):
    src = tmp_path / "k.s"
    src.write_text(".data\nv: .double 1.5\n.text\nli t0, v\nhalt\n")
    assert run_cli("assemble", str(src)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0x00000000: li t0, 65536"
    assert out[1] == "0x00000004: halt"
    assert out[2] == ".data 0x00010000 8 bytes"
    dst = tmp_path / "k.lst"
    assert run_cli("assemble", str(src), "-o", str(dst)) == 0
    assert dst.read_text().splitlines() == out


def test_points_text_frozen(capsys):
    assert run_cli("points") == 0
    out = capsys.readouterr().out
    hp = next(l for l in out.splitlines() if l.startswith("high_performance"))
    me = next(l for l in out.splitlines() if l.startswith("max_efficiency"))
    assert "54.000 Gflop/s" in hp and "9.216 Tflop/s" in hp and "n/a" in hp
    assert "24.000 Gflop/s" in me and "4.096 Tflop/s" in me
    assert "188.0" in me and "0.133 W" in me


def test_points_csv_frozen(capsys):
    assert run_cli("points", "--format", "csv") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("name,vdd,freq_ghz,")
    rows = {l.split(",")[0]: l for l in lines[1:]}
    assert rows["high_performance"] == \
        "high_performance,0.90,1.125,5.4e+10,9.216e+12,n/a,n/a"
    assert rows["max_efficiency"] == \
        "max_efficiency,0.60,0.500,2.4e+10,4.096e+12,188.0,0.133"


def test_points_counts_the_trees_cores(tmp_path, capsys):
    # the bundled tree under 2 chiplets: 2 x 128 clusters of 8 cores
    from streamsim.system import DEFAULT_SYSTEM_YAML
    cfg = tmp_path / "two.yaml"
    cfg.write_text(DEFAULT_SYSTEM_YAML.read_text().replace(
        "chiplets: 4", "chiplets: 2"))
    assert run_cli("points", "--config", str(cfg)) == 0
    head, hp, _ = capsys.readouterr().out.splitlines()
    assert head.split()[4] == "2048-core"
    assert hp.split()[5:7] == ["4.608", "Tflop/s"]   # 2048 x 2 x 1.125 GHz
    assert run_cli("points", "--config", str(cfg), "--format", "csv") == 0
    head, hp, _ = capsys.readouterr().out.splitlines()
    assert head.split(",")[4] == "perf_2048core"
    assert hp.split(",")[4] == "4.608e+12"


def test_roofline_defaults_follow_the_tree(tmp_path, capsys):
    # S3 fanout 4 gives a chiplet 256 clusters of 8 cores; its uplink 512e9
    from streamsim.system import DEFAULT_SYSTEM_YAML
    cfg = tmp_path / "wide.yaml"
    cfg.write_text(DEFAULT_SYSTEM_YAML.read_text().replace(
        "{name: s3, fanout: 2,", "{name: s3, fanout: 4,").replace(
        "chiplet, fanout: 4, uplink_bandwidth: 256.0e+9",
        "chiplet, fanout: 4, uplink_bandwidth: 512.0e+9"))
    assert run_cli("roofline", "--config", str(cfg)) == 0
    # peak: 2048 cores x 2 flop x 1.125 GHz
    assert capsys.readouterr().out.splitlines()[0] == (
        "# peak 4.608 Tflop/s, bandwidth 512.0 GB/s, ridge 9.000 flop/byte")
    assert run_cli("roofline", "--config", str(cfg), "--roofline-cores",
                   "1024", "--bandwidth", "256e9") == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "# peak 2.304 Tflop/s, bandwidth 256.0 GB/s, ridge 9.000 flop/byte")


def test_roofline_text(capsys):
    assert run_cli("roofline") == 0
    out = capsys.readouterr().out.splitlines()
    # peak: 1024 cores x 2 flop x 1.125 GHz; ridge 2.304e12 / 256e9
    assert out[0] == ("# peak 2.304 Tflop/s, bandwidth 256.0 GB/s, "
                      "ridge 9.000 flop/byte")
    body = "\n".join(out)
    assert "pool_avg" in body and "conv_residual_block" in body
    pool = next(l for l in out if l.startswith("pool_avg"))
    assert "memory" in pool and "64.000 Gflop/s" in pool
    deep = next(l for l in out if l.startswith("conv_3x3_deep"))
    assert "compute" in deep and "2.304 Tflop/s" in deep


# The whole stdout of the system-model reports, frozen as text.
SYSTEM_REPORTS = {
    ("points",): [
        "point                vdd    GHz          24-core        4096-core  Gflop/s/W  power(24c)",
        "high_performance    0.90  1.125   54.000 Gflop/s    9.216 Tflop/s        n/a         n/a",
        "max_efficiency      0.60  0.500   24.000 Gflop/s    4.096 Tflop/s      188.0     0.133 W",
    ],
    ("points", "--format", "csv"): [
        "name,vdd,freq_ghz,perf_24core,perf_4096core,efficiency_gflops_w,power_24core_w",
        "high_performance,0.90,1.125,5.4e+10,9.216e+12,n/a,n/a",
        "max_efficiency,0.60,0.500,2.4e+10,4.096e+12,188.0,0.133",
    ],
    ("roofline",): [
        "# peak 2.304 Tflop/s, bandwidth 256.0 GB/s, ridge 9.000 flop/byte",
        "workload                 flop/B    bound       attainable         measured  detach",
        "pool_avg                   0.25   memory   64.000 Gflop/s" + " " * 25,
        "embedding_lookup            0.5   memory  128.000 Gflop/s" + " " * 25,
        "elementwise_add               1   memory  256.000 Gflop/s" + " " * 25,
        "linear_batch1                 2   memory  512.000 Gflop/s" + " " * 25,
        "conv_pointwise                4   memory    1.024 Tflop/s" + " " * 25,
        "conv_3x3_small                8   memory    2.048 Tflop/s" + " " * 25,
        "conv_3x3_mid                 16  compute    2.304 Tflop/s" + " " * 25,
        "conv_3x3_deep                32  compute    2.304 Tflop/s" + " " * 25,
        "conv_residual_block          64  compute    2.304 Tflop/s" + " " * 25,
    ],
    ("roofline", "--format", "csv"): [
        "name,intensity,kind,attainable_flops,measured_flops,detachment",
        "pool_avg,0.25,memory,6.4e+10,,",
        "embedding_lookup,0.5,memory,1.28e+11,,",
        "elementwise_add,1,memory,2.56e+11,,",
        "linear_batch1,2,memory,5.12e+11,,",
        "conv_pointwise,4,memory,1.024e+12,,",
        "conv_3x3_small,8,memory,2.048e+12,,",
        "conv_3x3_mid,16,compute,2.304e+12,,",
        "conv_3x3_deep,32,compute,2.304e+12,,",
        "conv_residual_block,64,compute,2.304e+12,,",
    ],
}


@pytest.mark.parametrize("argv", SYSTEM_REPORTS)
def test_system_reports_frozen(argv, capsys):
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out == "\n".join(SYSTEM_REPORTS[argv]) + "\n"


def test_roofline_measured_detachment(tmp_path, capsys):
    stats = tmp_path / "mv.txt"
    assert run_cli("run", "matvec48_ssr_frep", "--stats-out", str(stats)) == 0
    capsys.readouterr()
    assert run_cli("roofline", "--measured", f"conv_3x3_mid={stats}",
                   "--format", "csv") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = next(l for l in lines if l.startswith("conv_3x3_mid,"))
    cols = row.split(",")
    measured, detach = float(cols[4]), float(cols[5])
    fpc = float(parse_stats(stats.read_text())["cluster.flops_per_cycle"])
    assert measured == pytest.approx(fpc * 1.125e9, rel=1e-4)
    assert 0.0 < detach < 1.0
    # unmeasured rows leave both columns empty
    other = next(l for l in lines if l.startswith("pool_avg,"))
    assert other.endswith(",,")


# ------------------------------------------------------------- failure paths

def test_exit_unknown_kernel(capsys):
    assert run_cli("run", "nope") == 4
    err = capsys.readouterr().err
    assert err == "error: UnknownKernel: unknown kernel 'nope'; see list-kernels\n"


def test_exit_bad_size_is_config(capsys):
    assert run_cli("run", "dot_baseline", "--n", "3") == 7
    assert "error: ConfigError:" in capsys.readouterr().err


@pytest.mark.parametrize("kernel, n", [
    ("dot_baseline", 100000), ("dot_ssr", 100000), ("dot_ssr_frep", 100000),
    ("dot_baseline", 8192), ("tcdm_unit_stride", 100000),
    ("tcdm_same_bank", 457), ("axpy_ssr", 8192), ("matvec48_ssr_frep", 128),
    ("matvec48_baseline", 128)])
def test_exit_oversized_n_is_config(capsys, kernel, n):
    # refused when the kernel is built, before anything is assembled or run
    assert run_cli("run", kernel, "--n", str(n)) == 7
    assert capsys.readouterr().err == (
        "error: ConfigError: n too large for the scratchpad layout\n")


def test_exit_dma_past_scratchpad_is_config(capsys):
    n = TCDM_SIZE + 4096            # a whole number of 4 KiB descriptors
    assert run_cli("run", "dma_stream", "--n", str(n)) == 7
    assert capsys.readouterr() == (
        "", "error: ConfigError: n exceeds the scratchpad\n")


def test_exit_dma_payload_mismatch_is_check_failed(capsys, monkeypatch):
    # the copy always lands, so a TCDM byte overwritten after the run
    # stands in for a copy that went wrong
    run_kernel = kernels.run_kernel

    def corrupted(inst, **kw):
        sim, result = run_kernel(inst, **kw)
        byte = sim.mem.read(TCDM_BASE + 100, 1)[0]
        sim.mem.write(TCDM_BASE + 100, bytes([byte ^ 0xFF]))
        return sim, result
    monkeypatch.setattr(kernels, "run_kernel", corrupted)
    assert run_cli("run", "dma_stream", "--n", "4096", "--check") == 5
    assert capsys.readouterr().err == (
        "error: CheckFailed: DMA payload mismatch\n")


def test_exit_bad_kwarg_is_config(capsys):
    assert run_cli("run", "dot_baseline", "--filler", "5") == 7
    assert "error: ConfigError:" in capsys.readouterr().err


def test_exit_cycle_limit(capsys):
    assert run_cli("run", "matvec48_ssr_frep", "--max-cycles", "50") == 6
    assert "error: CycleLimitExceeded:" in capsys.readouterr().err


def test_exit_fault_outside_memory(capsys, monkeypatch):
    # every corpus kernel refuses an n its layout cannot hold, so a kernel
    # whose core 7 loads just past the scratchpad stands in for one
    def build_past_end(n, seed):
        source = (f"li t0, 7\nbne a0, t0, done\nli t1, {TCDM_BASE + TCDM_SIZE}\n"
                  "lw t2, 0(t1)\ndone: halt")
        return kernels.KernelInstance("past_end", assemble(source),
                                      active_cores=N_CORES)
    monkeypatch.setitem(kernels.KERNELS, "past_end", (build_past_end, "", 1))
    assert run_cli("run", "past_end") == 5
    err = capsys.readouterr().err
    assert err.startswith("error: SimulationFault:") and "core 7" in err


def test_exit_check_failed(capsys, monkeypatch):
    # every corpus kernel passes its check, so a kernel that expects 1.0
    # where its program stores nothing stands in for one that does not
    def build_unwritten(n, seed):
        return kernels.KernelInstance(
            "unwritten", assemble("halt"),
            check=lambda sim: kernels._expect(sim, TCDM_BASE, [1.0], "x"))
    monkeypatch.setitem(kernels.KERNELS, "unwritten", (build_unwritten, "", 1))
    assert run_cli("run", "unwritten") == 0
    capsys.readouterr()
    assert run_cli("run", "unwritten", "--check") == 5
    assert capsys.readouterr().err.startswith("error: CheckFailed: x[0]: got")


def test_exit_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.s"
    bad.write_text("frobnicate t0\n")
    assert run_cli("assemble", str(bad)) == 3
    assert "error: ParseError:" in capsys.readouterr().err


def test_exit_bad_directive_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.s"
    bad.write_text(".data\n.space -5\n")
    assert run_cli("assemble", str(bad)) == 3
    assert "error: ParseError: line 2:" in capsys.readouterr().err


@pytest.mark.parametrize("source, why", [
    ("nop\nj nowhere\n", "UnresolvedLabel: line 2: unknown symbol 'nowhere'"),
    ("x: nop\nx: halt\n", "DuplicateLabel: line 2: label 'x' redefined"),
])
def test_exit_label_errors_are_parse_errors(tmp_path, capsys, source, why):
    bad = tmp_path / "bad.s"
    bad.write_text(source)
    assert run_cli("assemble", str(bad)) == 3
    assert capsys.readouterr().err == f"error: {why}\n"


def test_exit_data_past_scratchpad_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.s"
    bad.write_text(".data\nbuf: .space 200000\n.text\nhalt\n")
    assert run_cli("assemble", str(bad)) == 3
    assert "error: ParseError: line 2: .space" in capsys.readouterr().err


def test_exit_missing_file_is_usage(tmp_path, capsys):
    assert run_cli("assemble", str(tmp_path / "absent.s")) == 2
    assert "error: FileNotFoundError:" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["m=1,2", "n=", "n=16,,32"])
def test_exit_bad_sweep_is_usage(capsys, spec):
    assert run_cli("run", "dot_ssr", "--sweep", spec) == 2
    assert capsys.readouterr().err == (
        f"error: UsageError: bad --sweep '{spec}', expected n=16,64,256\n")


def test_exit_negative_filler_is_config(capsys):
    # no filler and a negative count used to give the same program
    assert run_cli("run", "matvec48_ssr_frep", "--filler", "-1") == 7
    assert capsys.readouterr() == (
        "", "error: ConfigError: filler_ints must be >= 0, got -1\n")


def test_exit_unknown_measured_workload_is_config(tmp_path, capsys):
    # every --measured name must have a row; a typo used to print no value
    stats = tmp_path / "s.txt"
    stats.write_text("cluster.flops_per_cycle 1.5\n")
    assert run_cli("roofline", "--measured", f"conv_3x3_mid={stats}",
                   "--measured", f"nope={stats}",
                   "--measured", f"typo={stats}") == 7
    assert capsys.readouterr() == ("", "error: ConfigError: measured "
                                   "workloads not in the workload table: "
                                   "nope, typo\n")


def test_exit_bad_config_file(tmp_path, capsys):
    cfgp = tmp_path / "c.yaml"
    cfgp.write_text("topology: {}\n")
    assert run_cli("points", "--config", str(cfgp)) == 7
    assert "error: ConfigError:" in capsys.readouterr().err


def test_exit_config_without_points_is_config(tmp_path, capsys):
    from streamsim.system import DEFAULT_SYSTEM_YAML
    text = DEFAULT_SYSTEM_YAML.read_text()
    cfg = tmp_path / "nopoints.yaml"
    cfg.write_text(text[:text.index("operating_points:")]
                   + "operating_points: {}\n")
    assert run_cli("points", "--config", str(cfg)) == 7
    assert capsys.readouterr() == (
        "", "error: ConfigError: config defines no operating points\n")


def test_exit_measured_without_flops_line_is_config(tmp_path, capsys):
    stats = tmp_path / "s.txt"
    stats.write_text("cluster.cycles 10\ncluster.flops 20\n")
    assert run_cli("roofline", "--measured", f"conv_3x3_mid={stats}") == 7
    assert capsys.readouterr() == (
        "", f"error: ConfigError: {stats} has no cluster.flops_per_cycle "
        "line\n")


def test_exit_bad_measured_spec(capsys):
    assert run_cli("roofline", "--measured", "noequalsign") == 7
    assert "error: ConfigError:" in capsys.readouterr().err


def test_exit_non_utf8_source_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.s"
    bad.write_bytes(b"li t0, 1\n\xff\xfe halt\n")
    assert run_cli("assemble", str(bad)) == 3
    assert "error: ParseError:" in capsys.readouterr().err


def test_exit_bad_measured_value_is_config(tmp_path, capsys):
    stats = tmp_path / "s.txt"
    stats.write_text("cluster.flops_per_cycle abc\n")
    assert run_cli("roofline", "--measured", f"conv_3x3_mid={stats}") == 7
    assert "error: ConfigError:" in capsys.readouterr().err


@pytest.mark.parametrize("value", [b"nan", b"-3", b"\xff"])
def test_exit_bad_measured_file_is_config(value, tmp_path, capsys):
    # a value that is not a finite number >= 0, or a file that is not UTF-8,
    # ends in a mapped error rather than NaN or negative rows or a traceback
    stats = tmp_path / "s.txt"
    stats.write_bytes(b"cluster.flops_per_cycle " + value + b"\n")
    assert run_cli("roofline", "--measured", f"conv_3x3_mid={stats}") == 7
    assert "error: ConfigError:" in capsys.readouterr().err


@pytest.mark.parametrize("bw", ["nan", "inf"])
def test_exit_bad_bandwidth_is_config(bw, capsys):
    assert run_cli("roofline", "--bandwidth", bw) == 7
    assert "error: ConfigError:" in capsys.readouterr().err
