"""The orthofield benchmark: one workload per process, end-to-end or per-layer metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload clt_2d --seed 7 --seconds 18 --trace 0

The process imports the package from ``src/`` and runs one closed loop: the
next pass over the workload's CLI commands starts when the previous pass has
finished, until the passes have taken ``--seconds``.  Every report of every pass is
checked.  At the default seed, and for every command that does not read the
seed, its files must match the golden SHA-256 values in ``golden.json`` with
exit code 0.  At another seed the seeded command must exit 0, or 3 exactly
when its report records a failed check, and write the same bytes on every
pass.  A command that fails a check counts in ``failed``.

``--trace 0`` measures the end-to-end metrics: pass wall time in units of a
reference tick timed during the pass (``reference.py``), the set-up time of
fresh interpreters and peak RSS.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead; the timed passes are never traced.

The last line on stdout is ``{"correct", "attempted", "failed", "metrics"}``.
The lines before it summarize the run; the full record, with environment
facts, goes to ``.bench_build/perfbench/results/`` and the spans of the last
traced pass to ``.bench_build/perfbench/<workload>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import SpeedSampler
from tracing import Tracer, layer_metric_names
from workloads import DEFAULT_SEED, WORKLOADS, Command, Workload, load_golden

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"

# Fresh interpreters timed before each pass for setup_s; the median is reported.
PROBES_PER_PASS = 2

# threads2_speedup: sample_paths on this grid, 1 vs 2 threads, median of rounds.
SPEEDUP_GRID = (64, 64)
SPEEDUP_REPLICATES = 500
SPEEDUP_ROUNDS = 3

END_TO_END = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics computed by the run rather than read off one traced pass.
# Ratios whose base a workload lacks (no sampling, no threads) read 0.
RUN_METRICS = (
    ("wall_s", "s"),
    ("montecarlo.samples_per_replicate_grid", "ratio"),
    ("montecarlo.threads2_speedup", "ratio"),
    ("stats.rejected_checks", "count"),
    ("replicate_grids_per_s", "1/s"),
    ("trace_overhead", "ratio"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    return layer_metric_names() + list(RUN_METRICS)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_cli(root: Path):
    """Import ``orthofield.cli`` from the checkout's ``src/`` and nowhere else."""
    package = root / "src" / "orthofield"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no package source under {package}; run from a source checkout")
    sys.path.insert(0, str(root / "src"))
    import orthofield.cli as cli

    return cli


def sha256_files(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def failed_checks(report: dict) -> int:
    """Rows of a JSON report whose ``pass`` column is false."""
    count = 0
    for section in report["sections"]:
        if "pass" in section["columns"]:
            k = section["columns"].index("pass")
            count += sum(1 for row in section["rows"] if row[k] is False)
    return count


def high_percentile(samples: list[float]) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples above it, if there is one."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return f"p{100 * (len(ordered) - 10) / len(ordered):.0f}", ordered[-11]


class Bench:
    """Runs and checks passes of one workload at one seed."""

    def __init__(self, cli, workload: Workload, seed: int, golden: dict) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.dir = WORK_DIR / workload.name
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rejected_checks = 0
        self._first_hashes: dict[str, dict] = {}
        self.config_paths = {}
        for cmd in workload.commands:
            path = self.dir / "configs" / f"{cmd.name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(cmd.config_for(seed), sort_keys=True), encoding="utf-8")
            self.config_paths[cmd.name] = path

    def run_command(self, cmd: Command, tracer: Tracer | None = None):
        """One CLI call into a fresh output directory: (seconds, exit code, directory)."""
        out = self.dir / "out" / cmd.name
        shutil.rmtree(out, ignore_errors=True)
        argv = [cmd.name, "--config", str(self.config_paths[cmd.name]), "--out", str(out)]
        argv += cmd.flags
        if tracer is not None:
            tracer.command = cmd.name
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        return time.perf_counter() - start, code, out

    def run_pass(self, tracer: Tracer | None = None) -> float:
        """Run and check every command once; returns the summed wall time of the CLI calls."""
        wall = 0.0
        self.rejected_checks = 0
        for cmd in self.workload.commands:
            seconds, code, out = self.run_command(cmd, tracer)
            wall += seconds
            self._check(cmd, code, out)
        return wall

    def _check(self, cmd: Command, code, out: Path) -> None:
        self.attempted += 1
        hashes = sha256_files(out)
        if cmd.seeded and self.seed != DEFAULT_SEED:
            problem = self._check_seeded(cmd, code, out, hashes)
        elif code != 0:
            problem = f"exit code {code}"
        else:
            expected = self.golden.get(cmd.name, {})
            bad = sorted(n for n in set(hashes) | set(expected) if hashes.get(n) != expected.get(n))
            problem = f"files differ from their golden SHA-256: {bad}" if bad else None
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{cmd.name}: {problem}")
            print(f"check failed: {self.workload.name} {cmd.name}: {problem}", file=sys.stderr)

    def _check_seeded(self, cmd: Command, code, out: Path, hashes: dict) -> str | None:
        if code not in (0, 3):
            return f"exit code {code}"
        try:
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            rejected = failed_checks(report)
            seed = report["meta"]["seed"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}"
        self.rejected_checks += rejected
        if seed != self.seed:
            return f"report seed {seed} != {self.seed}"
        if (code == 3) != (rejected > 0):
            return f"exit code {code} with {rejected} failed checks in the report"
        if hashes != self._first_hashes.setdefault(cmd.name, hashes):
            return "report bytes differ between passes at one seed"
        return None

    def probe_setup(self) -> float:
        """Seconds a fresh interpreter takes to import the CLI and resolve the configs."""
        env = {k: v for k, v in os.environ.items() if k != "ORTHOFIELD_THREADS"}
        argv = [sys.executable, str(BENCH_DIR / "probe.py"), str(ROOT / "src")]
        argv += [str(p) for p in self.config_paths.values()]
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=env, timeout=120, check=False
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        return float(proc.stdout.split()[-1])


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup: list[float] = []
    walls: list[float] = []
    ticks: list[float] = []
    # Untimed but checked: during a process's first pass the numpy tick ran up
    # to 40% slower than later, far more than the program did.
    bench.run_pass()
    while not walls or sum(walls) < seconds:
        # Probes between passes sample the same stretch of machine time as the passes.
        setup += [bench.probe_setup() for _ in range(PROBES_PER_PASS)]
        with SpeedSampler(bench.workload.reference) as sampler:
            walls.append(bench.run_pass())
        ticks.append(sampler.mean())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_ref": statistics.median(w / t for w, t in zip(walls, ticks)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kib / 1024,
    }
    details = {"wall_samples": walls, "tick_means": ticks, "setup_samples": setup}
    return metrics, details


def threads2_speedup(cli, bench: Bench) -> float | None:
    """``sample_paths`` wall time with 1 thread over 2 threads; None without a threads knob."""
    from orthofield import montecarlo

    if "threads" not in inspect.signature(montecarlo.sample_paths).parameters:
        return None
    cmd = next(c for c in bench.workload.commands if c.seeded)
    cfg = cli.resolve_config(cmd.config_for(bench.seed))
    t_grid = montecarlo.uniform_grid(cfg.dimension, cfg.t_resolution)
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(SPEEDUP_ROUNDS):
        for threads in (1, 2):
            start = time.perf_counter()
            montecarlo.sample_paths(
                cfg.functional, SPEEDUP_GRID, t_grid, SPEEDUP_REPLICATES, cfg.seed, threads=threads
            )
            times[threads].append(time.perf_counter() - start)
    return statistics.median(times[1]) / statistics.median(times[2])


def traced_pass(bench: Bench, tracer: Tracer) -> tuple[float, dict]:
    """One pass with the tracer installed: (wall time, per-layer metrics of the pass)."""
    tracer.reset()
    tracer.install()
    try:
        wall = bench.run_pass(tracer)
    finally:
        tracer.uninstall()
    layer = tracer.metrics()
    grids = bench.workload.replicate_grids
    layer["montecarlo.samples_per_replicate_grid"] = (
        layer["innovation.sample_region.calls"] / grids if grids else 0.0
    )
    layer["stats.rejected_checks"] = bench.rejected_checks
    return wall, layer


def traced_run(cli, bench: Bench, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    passes: list[dict] = []
    replicate_grids = bench.workload.replicate_grids
    bench.run_pass()  # warm-up, as in timed_run
    while not traced or sum(untraced) + sum(traced) < seconds:
        untraced.append(bench.run_pass())
        wall, layer = traced_pass(bench, tracer)
        traced.append(wall)
        passes.append(layer)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    wall = statistics.median(untraced)
    metrics["wall_s"] = wall
    metrics["trace_overhead"] = statistics.median(traced) / wall
    metrics["replicate_grids_per_s"] = replicate_grids / wall
    speedup = threads2_speedup(cli, bench) if replicate_grids else 0.0
    if speedup is not None:
        metrics["montecarlo.threads2_speedup"] = speedup
    tracer.write_jsonl(bench.dir / "spans.jsonl")
    details = {
        "wall_samples": untraced,
        "traced_wall_samples": traced,
        "martingale_kernel_calls_by_command": dict(
            tracer.calls_by_command("dependence.martingale_kernel")
        ),
    }
    ordered = {name: metrics[name] for name, _ in per_layer_metrics() if name in metrics}
    return ordered, details


def environment(threads_was_set: bool) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ORTHOFIELD_THREADS": "unset",
        "ORTHOFIELD_THREADS_was_set_by_caller": threads_was_set,
        "platform": platform.platform(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads_was_set = os.environ.pop("ORTHOFIELD_THREADS", None) is not None
    try:
        cli = import_cli(ROOT)
        workload = WORKLOADS[args.workload]
        bench = Bench(cli, workload, args.seed, load_golden()[workload.name])
        if args.trace:
            metrics, details = traced_run(cli, bench, args.seconds)
            units = dict(per_layer_metrics())
        else:
            metrics, details = timed_run(bench, args.seconds)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = environment(threads_was_set)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failed_ratio": bench.failed / bench.attempted,
        "problems": bench.problems,
        "metrics": metrics,
        **details,
    }
    results = WORK_DIR / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"({', '.join(f'{k}={v}' for k, v in env.items())})")
    walls = details["wall_samples"]
    high = high_percentile(walls)
    print(f"  untraced passes: {len(walls)}, median wall {statistics.median(walls):.4f} s, "
          f"highest percentile with ten passes above it: "
          f"{'%s %.4f s' % high if high else 'none (fewer than 11 passes)'}; "
          f"failed commands: {bench.failed}/{bench.attempted}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
