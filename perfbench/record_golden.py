"""Record ``golden.json``: the SHA-256 of every report file at the default seed.

Usage, from the root of a source checkout: ``python3 perfbench/record_golden.py``.
Run it only for a change that is meant to alter report bytes; the benchmark
counts every other difference as a failed command.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, Bench, import_cli, sha256_files
from workloads import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS


def main() -> int:
    cli = import_cli(ROOT)
    golden: dict = {}
    for workload in WORKLOADS.values():
        bench = Bench(cli, workload, DEFAULT_SEED, {})
        for cmd in workload.commands:
            _, code, out = bench.run_command(cmd)
            if code != 0:
                print(f"error: {workload.name} {cmd.name} exited {code}", file=sys.stderr)
                return 1
            golden.setdefault(workload.name, {})[cmd.name] = sha256_files(out)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
