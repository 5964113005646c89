#!/usr/bin/env python
"""CI gate on the import cost of ``repro fig2``.

Runs ``python -X importtime -c "import repro.experiments.fig2, repro.cli"``
in a fresh interpreter and checks two things:

1. **No heavy modules** -- no ``scipy``, ``networkx`` or ``asyncio``
   module appears in the import trace.  The fig2 path calls none of
   them; they are imported inside the functions that use them.

2. **Import-time ratio** -- the cumulative import time of
   ``repro.experiments.fig2`` plus ``repro.cli``, divided by the
   cumulative import time of ``numpy`` (which fig2 genuinely needs),
   is at most ``MAX_RATIO``.  A ratio rather than seconds, so the gate
   means the same on a slow or a busy runner.  The median of
   ``RUNS`` fresh interpreters is gated.

It prints the ratio of each run and the ten repro modules with the most
self time.  Exit code 0 on success; any failure prints a diagnostic and
exits 1.

    PYTHONPATH=src python scripts/ci_import_smoke.py
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TARGETS = ("repro.experiments.fig2", "repro.cli")
FORBIDDEN = ("scipy", "networkx", "asyncio")
MAX_RATIO = 3.0
RUNS = 3


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def import_trace() -> list[tuple[str, int, int, int]]:
    """``(module, depth, self_us, cumulative_us)`` per imported module."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {', '.join(TARGETS)}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=300,
    )
    if proc.returncode != 0:
        fail(f"import failed:\n{proc.stderr}")
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((name.strip(), depth, int(self_us), int(cumulative_us)))
    return rows


def main() -> None:
    ratios = []
    for _ in range(RUNS):
        rows = import_trace()
        heavy = sorted(
            name for name, *_ in rows if name.split(".")[0] in FORBIDDEN
        )
        if heavy:
            fail(f"fig2 import loads {', '.join(heavy[:10])}")
        top = {name: cumulative for name, depth, _, cumulative in rows if depth == 0}
        numpy_us = max(
            (cumulative for name, _, _, cumulative in rows if name == "numpy"),
            default=0,
        )
        if numpy_us == 0:
            fail("numpy does not appear in the import trace")
        ratio = sum(top.get(name, 0) for name in TARGETS) / numpy_us
        ratios.append(ratio)
        print(f"fig2 + cli import: {ratio:.2f}x numpy ({numpy_us / 1e3:.0f} ms)")
    print("repro modules by self time:")
    mine = sorted(
        ((self_us, name) for name, _, self_us, _ in rows if name.startswith("repro")),
        reverse=True,
    )
    for self_us, name in mine[:10]:
        print(f"  {self_us / 1e3:7.1f} ms  {name}")
    median = statistics.median(ratios)
    if median > MAX_RATIO:
        fail(f"median import ratio {median:.2f} exceeds {MAX_RATIO}")
    print(f"OK: no {'/'.join(FORBIDDEN)}; median ratio {median:.2f} <= {MAX_RATIO}")


if __name__ == "__main__":
    main()
