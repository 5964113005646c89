#!/usr/bin/env python
"""Profile the DES hot path on a Figure 2 cell.

Runs the paper's highest-load RCAD cell under cProfile and prints the
top-20 functions by cumulative time -- the view that motivated (and now
monitors) the hot-path overhaul.  By default both engines are profiled:
the event-driven engine, one ``(when, seq, handle)`` heap
(``REPRO_FASTPATH=0``), first, then the vectorized fast path.

Usage:
    PYTHONPATH=src python scripts/profile_des.py [--packets N]
        [--mode event|fast|both] [--top K]
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.sim.config import SimulationConfig  # noqa: E402
from repro.sim.simulator import SensorNetworkSimulator  # noqa: E402


def profile_mode(mode: str, n_packets: int, top: int) -> None:
    config = SimulationConfig.paper_baseline(
        interarrival=2.0, case="rcad", n_packets=n_packets
    )
    saved = os.environ.get("REPRO_FASTPATH")
    os.environ["REPRO_FASTPATH"] = "0" if mode == "event" else "1"
    try:
        profiler = cProfile.Profile()
        profiler.enable()
        result = SensorNetworkSimulator(config).run()
        profiler.disable()
    finally:
        if saved is None:
            del os.environ["REPRO_FASTPATH"]
        else:
            os.environ["REPRO_FASTPATH"] = saved
    print(f"\n=== {mode} engine: {result.events_processed} events, "
          f"{len(result.delivery)} deliveries ===")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(top)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=1000,
                        help="packets per flow (default 1000, the paper's)")
    parser.add_argument("--mode", choices=["event", "fast", "both"],
                        default="both")
    parser.add_argument("--top", type=int, default=20,
                        help="rows of the cumulative-time table (default 20)")
    args = parser.parse_args()
    modes = ["event", "fast"] if args.mode == "both" else [args.mode]
    for mode in modes:
        profile_mode(mode, args.packets, args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
