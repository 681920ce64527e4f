"""Set-up probe: one fresh interpreter imports the CLI and resolves a workload's configs.

Usage: ``python3 perfbench/probe.py SRC_DIR CONFIG.json [CONFIG.json ...]``

Prints the seconds from just before ``import orthofield.cli`` until every
config is resolved.  Reading the config files happens before the clock starts.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, *paths = argv
    docs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]
    sys.path.insert(0, src)
    start = time.perf_counter()
    from orthofield.cli import resolve_config

    for doc in docs:
        resolve_config(doc)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
