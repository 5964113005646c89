"""The repository's benchmark: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--out PATH]

Run from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics: ``setup_s`` (median over three fresh interpreters),
``peak_rss_mb``, ``p50_ms`` (median latency of one operation) and
``rate_per_s`` (work done per second).  With ``--trace 1`` it measures
the per-layer metrics instead (see ``tracing.py``).  Either way every
output is checked, and the last line of standard output is one JSON
object::

    {"correct": true, "attempted": 5, "failed": 0,
     "metrics": {"setup_s": {"value": 1.21, "unit": "s"}, ...}}

``--workload all`` (the default) runs every workload in turn.  ``--out``
also writes the full report -- samples, digests, errors, layers -- as
JSON, the input of ``compare.py``.  Exits 1 if any check failed, 2 if
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
from stats import percentile, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
#: Fresh interpreters timed for ``setup_s``.
SETUP_SAMPLES = 3
#: No single child may outlive this; a whole run must end within 180 s.
CHILD_TIMEOUT_S = 150
#: Reports list every operation's latency unless there are more (the
#: service's tens of thousands of events).
MAX_LISTED_SAMPLES = 200


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def program_env(work: Path) -> dict[str, str]:
    """Environment for every child: the checkout's sources, a cache
    default inside the checkout, no engine override, and bytecode
    caching on -- a user's installed copy does not recompile its
    modules on every start, so set-up should not either."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    env.pop("REPRO_FASTPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(args, work: Path, env: dict, *extra: str) -> tuple[float, dict | None]:
    """Start a worker; returns (seconds until READY, its JSON report or None)."""
    command = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--work", str(work), *extra,
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    # A hung worker is killed, which ends the reads below with EOF.
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - started
        if line.strip() != "READY":
            raise RuntimeError(f"worker set-up failed: {command}")
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {command}")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def measure(args, work: Path) -> dict:
    """One workload's report: the result line's four keys plus detail."""
    env = program_env(work)
    if args.trace:
        _, result = run_worker(args, work, env, "--trace")
        metrics = {name: result["layers"][name] for name in units("per_layer")}
        kind = "per_layer"
    else:
        in_process = inputs.WORKLOADS[args.workload] != "fig2"
        setups = [
            run_worker(args, work, env, "--probe")[0]
            for _ in range(SETUP_SAMPLES - in_process)
        ]
        setup, result = run_worker(args, work, env)
        if in_process:
            setups.append(setup)
        samples_ms = [s * 1e3 for s in result["samples_s"]]
        metrics = {
            "setup_s": percentile(setups, 50),
            "peak_rss_mb": result["peak_rss_mb"],
            "p50_ms": percentile(samples_ms, 50),
            "rate_per_s": result["rate"],
        }
        result["setup_samples_s"] = setups
        result["samples"] = len(samples_ms)
        result["tail_ms"] = tail_percentile(samples_ms)
        if len(samples_ms) <= MAX_LISTED_SAMPLES:
            result["samples_ms"] = samples_ms
        kind = "end_to_end"
    unit = units(kind)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "detail": {k: v for k, v in result.items() if k != "samples_s"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all", choices=["all", *inputs.WORKLOADS],
        help="workload to run (default: all of them, in turn)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed the inputs are built from")
    parser.add_argument("--seconds", type=float, default=12.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the full report(s) as JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        args.workload = name
        work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            result = measure(args, work)
            if args.trace and args.out:
                shutil.copy(work / "spans.jsonl", f"{args.out}.{name}.spans.jsonl")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        for error in result["detail"]["errors"]:
            print(f"{name}: check failed: {error}", file=sys.stderr)
        reports.append(result)
        keys = ("correct", "attempted", "failed", "metrics")
        print(json.dumps({key: result[key] for key in keys}))
    with contextlib.suppress(OSError):  # still in use by a concurrent run
        (ROOT / ".bench_work").rmdir()
    if args.out:
        Path(args.out).write_text(
            json.dumps(reports if len(reports) > 1 else reports[0], indent=1) + "\n",
            encoding="utf-8",
        )
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
