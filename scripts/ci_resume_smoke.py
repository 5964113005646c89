#!/usr/bin/env python
"""CI smoke test for checkpoint/resume: SIGINT a sweep, resume it.

Runs a small ``repro fig2`` sweep with ``--jobs 2`` against a throwaway
cache directory, sends SIGINT once the checkpoint journal shows
progress, then re-runs with ``--resume`` and asserts:

* the interrupted run exits with the conventional SIGINT code (130);
* the resumed run succeeds and reports journal hits for every cell the
  first run completed;
* no already-journaled cell is recomputed (journal ``resumed`` count +
  ``recorded`` count covers the whole sweep, and the cache reports no
  redundant stores for resumed cells).

A first run whose sweep finished before the signal landed (all
cells journaled, nothing left to resume) is a void attempt: it is
retried, up to three attempts, and never counts as a pass.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

N_CELLS = 9  # 3 cases x 3 interarrivals
ATTEMPTS = 3
ARGS = [
    "fig2",
    "--packets", "300",
    "--interarrivals", "2,3,4",
    "--jobs", "2",
]


def run_repro(cache_dir: str, extra: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *ARGS, "--cache-dir", cache_dir, *extra],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        timeout=600,
    )


def journal_cells(cache_dir: str) -> int:
    total = 0
    journal_dir = Path(cache_dir) / "journal"
    if journal_dir.is_dir():
        for path in journal_dir.glob("*.jsonl"):
            total += sum(
                1 for line in path.read_text().splitlines() if '"cell"' in line
            )
    return total


def interrupted_run(cache_dir: str) -> int | None:
    """SIGINT a sweep once a cell is journaled; the number of journaled
    cells, or None if the sweep finished before the signal landed."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *ARGS, "--cache-dir", cache_dir],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    # Wait until at least one cell is journaled, then interrupt.
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        if journal_cells(cache_dir) >= 1 or process.poll() is not None:
            break
        time.sleep(0.05)
    interrupted = process.poll() is None
    if interrupted:
        process.send_signal(signal.SIGINT)
    out, err = process.communicate(timeout=120)
    completed_cells = journal_cells(cache_dir)
    print(f"first run: exit={process.returncode} journaled={completed_cells} "
          f"interrupted={interrupted}")
    if completed_cells == N_CELLS:
        # Finished (exit 0), caught in its last cell's merge (130) or
        # past the CLI's handler (killed by the signal): a void attempt.
        assert process.returncode in (0, 130, -signal.SIGINT), (
            f"unexpected exit code {process.returncode}\n{out}\n{err}"
        )
        return None
    assert interrupted, (
        f"sweep exited {process.returncode} with {completed_cells} of "
        f"{N_CELLS} cells journaled\n{out}\n{err}"
    )
    assert process.returncode == 130, (
        f"expected SIGINT exit code 130, got {process.returncode}\n{out}\n{err}"
    )
    assert "--resume" in err, f"missing resume hint on stderr:\n{err}"
    assert 1 <= completed_cells < N_CELLS, f"journaled {completed_cells} cells"
    return completed_cells


def main() -> int:
    # One directory holds every attempt and is removed on pass and fail.
    with tempfile.TemporaryDirectory(prefix="repro-resume-smoke-") as root:
        return interrupt_and_resume(Path(root))


def interrupt_and_resume(root: Path) -> int:
    for number in range(1, ATTEMPTS + 1):
        cache_dir = str(root / f"attempt-{number}")
        completed_cells = interrupted_run(cache_dir)
        if completed_cells is not None:
            break
        print(f"attempt {number}: the sweep finished before the SIGINT; retrying")
    else:
        raise AssertionError(f"no sweep was interrupted in {ATTEMPTS} attempts")

    resumed_run = run_repro(cache_dir, ["--resume"])
    print(resumed_run.stdout)
    assert resumed_run.returncode == 0, (
        f"resume run failed ({resumed_run.returncode}):\n"
        f"{resumed_run.stdout}\n{resumed_run.stderr}"
    )
    match = re.search(
        r"journal: (\d+) resumed, (\d+) recorded", resumed_run.stdout
    )
    assert match, f"no journal stats line:\n{resumed_run.stdout}"
    resumed, recorded = int(match.group(1)), int(match.group(2))
    assert resumed == completed_cells, (
        f"resumed {resumed} cells, expected {completed_cells}"
    )
    assert resumed + recorded == N_CELLS, (
        f"resume covered {resumed}+{recorded} of {N_CELLS} cells"
    )
    # Cell-level accounting: resumed cells are served from the journal,
    # so the cache sees only the cells the first run never finished.
    cache_line = re.search(r"cache: (\d+) hits, (\d+) misses", resumed_run.stdout)
    assert cache_line, f"no cache stats line:\n{resumed_run.stdout}"
    hits, misses = int(cache_line.group(1)), int(cache_line.group(2))
    assert hits + misses <= N_CELLS - resumed, (
        f"resumed cells touched the cache: {hits} hits + {misses} misses "
        f"with {resumed} resumed"
    )

    # Third run, fully journaled: zero recomputation end to end.
    final_run = run_repro(cache_dir, ["--resume"])
    assert final_run.returncode == 0
    assert f"journal: {N_CELLS} resumed, 0 recorded" in final_run.stdout, (
        f"full resume missing:\n{final_run.stdout}"
    )
    print("resume smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
