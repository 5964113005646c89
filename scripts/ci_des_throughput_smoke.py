#!/usr/bin/env python
"""CI gate on the fast path's speedup over the event engine.

Times the paper's highest-load Figure 2 cell (RCAD, 1/lambda = 2, 1,000
packets per flow, built by ``SimulationConfig.paper_baseline``) under
both engines in this one process: the event-driven engine
(``REPRO_FASTPATH=0``) and the vectorized fast path (``REPRO_FASTPATH``
unset).  The engines run in ``PAIRS`` back-to-back pairs, and the
measured speedup is the median of the pairs' event/fast ratios: the
two runs of a pair share whatever load the host is under, which a
best-of-N time per engine does not.

The gate is on the **ratio** event/fast, not on seconds: both engines
run on the same host in the same process, so their quotient cancels
the machine's raw speed.  It fails when the measured speedup falls
below ``max(ABSOLUTE_FLOOR, (1 - TOLERANCE) * RECORDED_SPEEDUP)``,
which catches a re-serialized hot path while tolerating ordinary noise.
Before timing, it checks that the cell is fast-path eligible (otherwise
both timings would be of the event engine); after, that both engines
processed the same number of events.

``RECORDED_SPEEDUP`` is the median of 20 runs of this script on a
2-vCPU x86-64 host under Python 3.11.  Re-record it when either engine
gets faster or slower on purpose.

Run from the repository root: ``python scripts/ci_des_throughput_smoke.py``.
Exit codes: 0 pass, 1 regression, 2 harness problem.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.sim.config import SimulationConfig  # noqa: E402
from repro.sim.fastpath import fastpath_eligible  # noqa: E402
from repro.sim.simulator import SensorNetworkSimulator  # noqa: E402

RECORDED_SPEEDUP = 36.7  # event/fast, median of 20 runs (2-vCPU x86-64)
TOLERANCE = 0.20  # fail below (1 - TOLERANCE) * RECORDED_SPEEDUP
ABSOLUTE_FLOOR = 3.0  # never accept less than this, tolerance aside
PAIRS = 7


def timed_run(config: SimulationConfig, fastpath: str | None) -> tuple[float, int]:
    """Wall time and event count of one run with ``REPRO_FASTPATH`` set
    to ``fastpath`` (None: unset)."""
    if fastpath is None:
        os.environ.pop("REPRO_FASTPATH", None)
    else:
        os.environ["REPRO_FASTPATH"] = fastpath
    start = time.perf_counter()
    result = SensorNetworkSimulator(config).run()
    return time.perf_counter() - start, result.events_processed


def main() -> int:
    config = SimulationConfig.paper_baseline(interarrival=2.0, case="rcad")
    if not fastpath_eligible(config):
        print("FAIL: the paper's RCAD cell is not fast-path eligible")
        return 2
    saved = os.environ.get("REPRO_FASTPATH")
    try:
        pairs = [
            (timed_run(config, "0"), timed_run(config, None)) for _ in range(PAIRS)
        ]
    finally:
        os.environ.pop("REPRO_FASTPATH", None)
        if saved is not None:
            os.environ["REPRO_FASTPATH"] = saved
    counts = {events for pair in pairs for _, events in pair}
    if len(counts) != 1:
        print(f"FAIL: engines disagree on event count: {sorted(counts)}")
        return 2
    measured = statistics.median(event / fast for (event, _), (fast, _) in pairs)
    event_s = statistics.median(event for (event, _), _ in pairs)
    fast_s = statistics.median(fast for _, (fast, _) in pairs)
    floor = max(ABSOLUTE_FLOOR, (1.0 - TOLERANCE) * RECORDED_SPEEDUP)
    print(
        f"fast path speedup: measured {measured:.1f}x, recorded "
        f"{RECORDED_SPEEDUP:g}x, floor {floor:.1f}x "
        f"(median event {event_s * 1e3:.0f} ms, fast {fast_s * 1e3:.0f} ms, "
        f"{counts.pop()} events)"
    )
    if measured < floor:
        print("FAIL: DES fast-path speedup regressed")
        return 1
    print("PASS: DES fast-path speedup gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
