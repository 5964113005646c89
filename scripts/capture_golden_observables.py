#!/usr/bin/env python
"""Regenerate tests/data/golden_observables.json from the current engine.

The golden file pins the observable digest of every reference
configuration (see ``repro.sim.observables.reference_configs``).  The
determinism tests assert the current code reproduces these digests
bit-for-bit, which is how engine rewrites prove they changed nothing
visible.

Only rerun this script for a *deliberate, documented* behaviour change;
an unexpected diff here means the engine's output changed and the tests
are doing their job.

Usage:
    PYTHONPATH=src python scripts/capture_golden_observables.py [--check]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.sim.observables import observable_digest, reference_configs  # noqa: E402
from repro.sim.simulator import SensorNetworkSimulator  # noqa: E402

GOLDEN_PATH = REPO / "tests" / "data" / "golden_observables.json"


def capture() -> dict[str, str]:
    digests: dict[str, str] = {}
    for name, config in reference_configs().items():
        start = time.perf_counter()
        result = SensorNetworkSimulator(config).run()
        digests[name] = observable_digest(result)
        print(f"  {name:30s} {digests[name][:16]}…  "
              f"({time.perf_counter() - start:.2f}s, "
              f"{len(result.delivery)} delivered)")
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="verify against the committed golden file instead of rewriting it",
    )
    args = parser.parse_args()

    digests = capture()
    if args.check:
        committed = json.loads(GOLDEN_PATH.read_text())["digests"]
        bad = {k for k in committed if committed[k] != digests.get(k)}
        missing = set(digests) - set(committed)
        if bad or missing:
            for k in sorted(bad):
                print(f"MISMATCH {k}: committed {committed[k][:16]}… "
                      f"got {digests.get(k, 'absent')[:16]}…")
            for k in sorted(missing):
                print(f"NOT IN GOLDEN FILE: {k}")
            return 1
        print(f"all {len(committed)} digests match")
        return 0

    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({"digests": digests}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
