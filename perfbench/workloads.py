"""The benchmark's workloads: which CLI commands each one runs, on which configs.

Every command runs through ``orthofield.cli.main`` with ``--config`` and
``--out``.  Only ``clt_2d`` reads the benchmark's ``--seed``; the other
workloads are exact computations whose reports never depend on it, so their
golden SHA-256 values apply on every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20260809

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``orthofield <name> --config <config> --out DIR [flags]``.

    ``name`` also identifies the command within its workload.
    """

    name: str
    config: dict
    flags: tuple[str, ...] = ()
    seeded: bool = False

    def config_for(self, seed: int) -> dict:
        """The config document this command runs on for a benchmark seed."""
        return dict(self.config, seed=seed) if self.seeded else dict(self.config)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # Monte Carlo replicates times grids per pass (0 when nothing is sampled).
    replicate_grids: int = 0
    # The reference tick (reference.py) for the kind of code the workload spends its time in.
    reference: str = "python"


# The README's two-dimensional verify-clt example.
CLT_2D_CONFIG = {
    "dimension": 2,
    "functional": {"builtin": "linear", "a": 0.5},
    "grids": [[16, 16], [64, 64], [128, 128]],
    "replicates": 2000,
}

# Each workload stresses layers the others barely touch; README.md has the table.
WORKLOADS = {
    w.name: w
    for w in (
        # The sampling path: innovation, montecarlo, lattice, stats.
        Workload(
            "clt_2d",
            (Command("verify-clt", CLT_2D_CONFIG, seeded=True),),
            replicate_grids=CLT_2D_CONFIG["replicates"] * len(CLT_2D_CONFIG["grids"]),
            reference="numpy",
        ),
        # Few large functionals: functional, projection, dependence; no sampling.
        Workload(
            "exact_dependence",
            (
                Command("counterexample", {"truncations": list(range(1, 12))}),
                Command("describe", {"dimension": 3, "functional": "counterexample:5"}),
            ),
        ),
        # Many tiny functionals: the same symbolic layer in the opposite regime.
        Workload("identity_suites", (Command("selftest", {}),)),
        # The write path: materialize, the cli row loop and both report writers.
        Workload(
            "dense_tables",
            (
                Command("describe", {"functional": "counterexample:8"}),
                Command(
                    "decompose",
                    {"functional": "counterexample:7", "order": 14},
                    flags=("--format", "csv"),
                ),
            ),
            reference="text",
        ),
    )
}


def load_golden() -> dict:
    """``{workload: {command name: {file name: sha256}}}`` at the default seed."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
