"""Rewrite ``pinned.json``: each workload's outputs on its default seed.

Run from the repository root after a change that is *meant* to move
simulated results (the benchmark counts any other drift as a failed
operation)::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from repro.results import result_metrics  # noqa: E402


def main() -> int:
    pins = {}
    for name in workloads.WORKLOADS:
        seed = workloads.DEFAULT_SEEDS[name]
        result = workloads.build_spec(name, seed).run()
        pins[name] = {"seed": seed, "metrics": result_metrics(result)}
        print(f"{name}: {pins[name]['metrics']}", file=sys.stderr)
    workloads.PINNED_PATH.write_text(
        json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
