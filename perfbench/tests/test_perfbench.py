"""Tests of the benchmark itself: exact counts, checks, tracer bookkeeping, metric lists.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from reference import TICKS, SpeedSampler  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Command  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run.import_cli(run.ROOT)


def bench_for(cli, name: str, seed: int = DEFAULT_SEED) -> run.Bench:
    return run.Bench(cli, WORKLOADS[name], seed, run.load_golden()[name])


def assert_self_times_nonnegative(layer: dict) -> None:
    negative = {k: v for k, v in layer.items() if k.endswith(".self_s") and v < 0}
    assert not negative


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()


def test_every_workload_has_golden_values_and_a_reference_tick():
    golden = run.load_golden()
    for name, workload in WORKLOADS.items():
        assert set(golden[name]) == {cmd.name for cmd in workload.commands}
        assert workload.reference in TICKS


def test_speed_sampler_ticks_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler("python") as sampler:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.mean() > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_clt_2d_exact_counts(cli):
    bench = bench_for(cli, "clt_2d")
    _, layer = run.traced_pass(bench, Tracer())
    assert bench.failed == 0
    assert layer["innovation.sample_region.calls"] == 12000
    assert layer["montecarlo.samples_per_replicate_grid"] == 2.0
    assert layer["stats.rejected_checks"] == 0
    assert_self_times_nonnegative(layer)


@pytest.mark.parametrize("workload", ["exact_dependence", "dense_tables"])
def test_describe_builds_the_martingale_kernel_twice(cli, workload):
    bench = bench_for(cli, workload)
    tracer = Tracer()
    _, layer = run.traced_pass(bench, tracer)
    assert bench.failed == 0
    assert tracer.calls_by_command("dependence.martingale_kernel")["describe"] == 2
    assert layer["innovation.sample_region.calls"] == 0
    assert_self_times_nonnegative(layer)


def test_corrupted_report_and_nonzero_exit_count_as_failures(cli):
    bench = bench_for(cli, "exact_dependence")
    cmd = WORKLOADS["exact_dependence"].commands[0]
    _, code, out = bench.run_command(cmd)
    bench._check(cmd, code, out)
    assert (bench.attempted, bench.failed) == (1, 0)
    bench._check(cmd, 3, out)
    assert bench.failed == 1
    with open(out / "report.json", "ab") as fh:
        fh.write(b" ")
    bench._check(cmd, 0, out)
    assert (bench.attempted, bench.failed) == (3, 2)


def test_seeded_reports_need_a_consistent_exit_code_and_stable_bytes(cli, tmp_path):
    bench = bench_for(cli, "clt_2d", seed=7)
    cmd = Command("verify-clt", {}, seeded=True)

    def write(rejected: bool, seed: int = 7) -> Path:
        doc = {"meta": {"seed": seed}, "sections": [
            {"name": "ks", "columns": ["grid", "pass"], "rows": [["16;16", not rejected]]}
        ]}
        (tmp_path / "report.json").write_text(json.dumps(doc), encoding="utf-8")
        return tmp_path

    bench._check(cmd, 3, write(rejected=True))
    assert (bench.failed, bench.rejected_checks) == (0, 1)
    bench._check(cmd, 0, write(rejected=True))
    assert bench.failed == 1
    bench._check(cmd, 3, write(rejected=False))
    assert bench.failed == 2
    bench._check(cmd, 0, write(rejected=False, seed=8))
    assert bench.failed == 3
    bench._check(cmd, 2, write(rejected=True))
    assert bench.failed == 4


def test_tracer_wraps_every_binding_and_restores_it(cli):
    from orthofield import innovation, montecarlo

    original = innovation.sample_region
    describe = cli._COMMANDS["describe"]
    tracer = Tracer()
    tracer.install()
    try:
        assert montecarlo.sample_region is innovation.sample_region is not original
        assert cli._COMMANDS["describe"] is not describe
    finally:
        tracer.uninstall()
    assert montecarlo.sample_region is innovation.sample_region is original
    assert cli._COMMANDS["describe"] is describe


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans[:] = [
        ["coboundary.decompose", 0.0, 10.0, -1, "c", True],
        ["functional.integrate_sites", 1.0, 4.0, 0, "c", True],
        ["functional.integrate_sites", 5.0, 6.0, 0, "c", True],
    ]
    layer = tracer.metrics()
    assert layer["coboundary.decompose.s"] == 10.0
    assert layer["coboundary.decompose.self_s"] == 6.0
    assert layer["functional.integrate_sites.calls"] == 2


def test_setup_probe_times_a_fresh_interpreter(cli):
    assert 0.0 < bench_for(cli, "identity_suites").probe_setup() < 60.0


def test_without_the_package_source_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "clt_2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_has_exactly_the_end_to_end_metrics(capsys):
    assert run.main(["--workload", "identity_suites", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)  # warm-up + 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())
