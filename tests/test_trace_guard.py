"""The benchmark's tracer still fits the program: a traced run of every sampled command works.

``perfbench/run.py --trace 1`` wraps the package's functions from outside and
reads their results (``sample_region(...).values``, ``materialize().values``,
the paths ``Report.write`` returns), and times ``sample_paths(..., threads=)``.
A change that breaks one of those reads makes the traced run end without a
result line.  This test imports the tracer read-only and runs small configs
of the commands the workloads run through ``cli.main`` with it installed.
"""

import importlib.util
import inspect
import json
from pathlib import Path

from orthofield.cli import main
from orthofield.montecarlo import sample_paths

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_exit_zero_and_yield_every_layer_metric(tmp_path):
    tracing = load_tracing()
    runs = [
        (
            "verify-clt",
            {"dimension": 2, "functional": "linear", "grids": [[16, 16]],
             "replicates": 200, "t_resolution": 2},
        ),
        ("describe", {"dimension": 2, "functional": "counterexample:2"}),
        ("decompose", {"functional": "counterexample:2", "order": 4}),
        ("counterexample", {"truncations": [1, 2, 3]}),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for k, (command, doc) in enumerate(runs):
            cfg = tmp_path / f"config{k}.json"
            cfg.write_text(json.dumps(doc))
            out = tmp_path / f"out{k}"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert set(metrics) == {name for name, _ in tracing.layer_metric_names()}
    # the counters read off the results the tracer wraps
    assert metrics["innovation.cells_sampled"] == 200 * 18 * 18
    assert metrics["functional.materialize.entries"] > 0
    assert metrics["report.bytes"] == sum(p.stat().st_size for p in tmp_path.rglob("report.*"))
    assert metrics["montecarlo.sample_paths.s"] > 0.0
    assert "threads" in inspect.signature(sample_paths).parameters
