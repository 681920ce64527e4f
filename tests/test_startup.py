"""Reading and checking a config loads no numpy; a command loads it when it first computes.

Each case runs in a fresh interpreter, since this one has numpy imported
already.  A ``numpy.`` prefix check holds on numpy 1.x (``numpy.core``) and
2.x (``numpy._core``) alike: the lazily registered ``numpy`` module itself is
in ``sys.modules`` from ``import orthofield`` on, but none of its submodules
is until something reads an attribute of it.  These cases also guard against
a new eager ``import numpy`` in the package.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PRELUDE = f"""
import sys
sys.path.insert(0, {str(SRC)!r})

def numpy_loaded():
    return sorted(m for m in sys.modules if m.startswith("numpy."))
"""

# The README's configs: the 2-D verify-clt example, the two describe configs
# the benchmark runs, and the all-defaults document.
README_CONFIGS = [
    {
        "dimension": 2,
        "functional": {"builtin": "linear", "a": 0.5},
        "grids": [[16, 16], [64, 64], [128, 128]],
        "replicates": 2000,
        "seed": 20260809,
    },
    {"functional": "counterexample:8"},
    {"dimension": 3, "functional": "counterexample:5"},
    {},
]


def run(body: str, extra_prelude: str = "") -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", extra_prelude + PRELUDE + body],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("doc", README_CONFIGS, ids=["verify-clt", "cx8", "cx5-d3", "defaults"])
def test_resolving_a_config_loads_no_numpy(doc):
    run(f"""
import json
import orthofield.cli
orthofield.cli.resolve_config(json.loads({json.dumps(doc)!r}))
assert numpy_loaded() == [], numpy_loaded()
assert "concurrent.futures" not in sys.modules
""")


def test_invalid_config_exits_1_without_loading_numpy(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dimension": 2, "functional": "counterexample_oops"}))
    proc = run(f"""
from orthofield.cli import main
code = main(["describe", "--config", {str(cfg)!r}])
assert code == 1, code
assert numpy_loaded() == [], numpy_loaded()
""")
    assert "unknown builtin" in proc.stderr


def test_a_command_loads_the_ordinary_numpy_module(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"functional": "counterexample:3"}))
    run(f"""
import types
from orthofield import (
    dependence, functional, innovation, lattice, montecarlo, report, stats, suites,
)
from orthofield.cli import main
assert main(["describe", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}]) == 0
assert numpy_loaded() != []
np = sys.modules["numpy"]
assert type(np) is types.ModuleType
for module in (dependence, functional, innovation, lattice, montecarlo, report, stats, suites):
    assert module.np is np, module.__name__
assert isinstance(np.zeros(3), np.ndarray)
""")


def test_missing_numpy_fails_at_import():
    run("""
try:
    import orthofield
except ModuleNotFoundError as exc:
    assert exc.name == "numpy", exc.name
else:
    raise AssertionError("import orthofield succeeded without numpy")
""", extra_prelude="import sys\nsys.modules['numpy'] = None\n")
