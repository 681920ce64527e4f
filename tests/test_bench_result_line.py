"""The benchmark still ends each traced workload with a full result line.

``perfbench/run.py`` prints its result as the last line on stdout.  A traced
run that exits 0 but lacks a metric, or prints something else last, cannot be
read.  This test runs every workload of ``BENCHMARK.json`` traced, for one
pass, and reads that line as a benchmark reader would.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def strict_json(line: str):
    """``line`` as JSON; ``NaN`` and ``Infinity`` are not JSON and are refused."""

    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads(line, parse_constant=refuse)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_ends_with_every_per_layer_metric(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = strict_json(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    missing = {m["name"] for m in BENCHMARK["per_layer"]} - set(result["metrics"])
    assert not missing, f"metrics missing from the result line: {sorted(missing)}"
