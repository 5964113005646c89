"""Compare benchmark runs of a parent commit and a change.

    python3 bench/compare.py PARENT_1.json CHANGE_1.json PARENT_2.json CHANGE_2.json ...

Each file is a ``run.py --out`` report: one workload, or the list
``--workload all`` writes.  The files alternate parent, change, parent,
change, ... and each parent/change pair is matched by workload.  Run
the pairs alternating which side goes first.

One row per (workload, end-to-end metric) gives each side's median and
quartiles, the pairs the change won, and a verdict under the bounds in
``BENCHMARK.json``:

* ``win``  -- at least 10 pairs, the change better in at least 9/10 of
  them (ties count for neither side), and the medians further apart
  than the parent's interquartile range;
* ``unresolved`` -- the parent's own interquartile range is wider than
  the bound, so "no worse" cannot be shown, unless every change run
  beats every parent run;
* ``lose`` -- the change's median is worse than the parent's by more
  than the bound;
* ``same`` -- otherwise.

Exits 1 if any row is ``lose``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS_FOR_WIN = 10
WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """``(verdict, pairs the change won)`` for aligned per-pair values."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    gain = sign * (c_med - p_med)
    if len(parent) >= MIN_PAIRS_FOR_WIN and wins >= WIN_SHARE * len(parent) and gain > p_q3 - p_q1:
        return "win", wins
    if p_q3 - p_q1 > bound * abs(p_med):
        worst_change = min(change) if sign > 0 else max(change)
        best_parent = max(parent) if sign > 0 else min(parent)
        if sign * (worst_change - best_parent) <= 0:
            return "unresolved", wins
        return "same", wins
    if -gain > bound * abs(p_med):
        return "lose", wins
    return "same", wins


def load(path: str) -> dict[str, dict]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {run["workload"]: run for run in (data if isinstance(data, list) else [data])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+", help="PARENT CHANGE [PARENT CHANGE ...]")
    args = parser.parse_args(argv)
    if len(args.reports) % 2:
        parser.error("reports come in parent/change pairs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    pairs: dict[tuple[str, str], list[tuple[float, float]]] = defaultdict(list)
    failed: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # parent, change
    for parent_path, change_path in zip(args.reports[::2], args.reports[1::2]):
        parent, change = load(parent_path), load(change_path)
        for workload in sorted(parent.keys() & change.keys()):
            failed[workload][0] += parent[workload]["failed"]
            failed[workload][1] += change[workload]["failed"]
            for name in metrics:
                pairs[(workload, name)].append(
                    (parent[workload]["metrics"][name]["value"],
                     change[workload]["metrics"][name]["value"])
                )

    print(
        f"{'workload':<20} {'metric':<12} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'won':>6}  verdict"
    )
    lost = False
    for (workload, name), values in sorted(pairs.items()):
        parent = [p for p, _ in values]
        change = [c for _, c in values]
        result, wins = verdict(parent, change, metrics[name]["better"], metrics[name]["bound"])
        if result == "win" and failed[workload][1] > failed[workload][0]:
            result = "same"  # a gain does not count when more operations fail
        lost |= result == "lose"
        cells = []
        for side in (parent, change):
            q1, med, q3 = quartiles(side)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] {metrics[name]['unit']}")
        print(
            f"{workload:<20} {name:<12} {cells[0]:>34} {cells[1]:>34} "
            f"{wins:>2}/{len(values):<3}  {result}"
        )
    for workload, (parent_failed, change_failed) in sorted(failed.items()):
        print(f"{workload}: failed operations, parent {parent_failed}, change {change_failed}")
    return 1 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
