"""Run one workload in a fresh interpreter, for ``run.py``.

    python3 bench/worker.py --workload NAME --seed N --seconds S --work DIR
                            [--probe | --trace]

Prints ``READY`` when set-up is done -- the parent times set-up up to
that line -- then measures for ``--seconds`` and prints one JSON object
as its last line.  ``--probe`` exits right after ``READY``; ``--trace``
measures half the time untraced and half with :mod:`tracing` installed.

Every operation's output is checked here: identical across operations,
equal to the digest committed in ``expected/digests.json`` for seed 0,
and conserving packets or events.  Each check that fails counts as a
failed operation.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from stats import percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected" / "digests.json"
#: A single ``repro`` command may take this long before it counts as hung.
COMMAND_TIMEOUT_S = 120


@dataclass
class Outcome:
    """What one measuring window saw."""

    samples: list[float] = field(default_factory=list)  # seconds per op
    rates: list[float] = field(default_factory=list)  # work per second
    ops: int = 0  # operations the per-layer metrics are divided by
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str | None = None
    extra: dict = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    @property
    def rate(self) -> float:
        return percentile(self.rates, 50) if self.rates else 0.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def committed_digest_error(key: str, seed: int, digest: str) -> str | None:
    """Why ``digest`` disagrees with the one committed in ``EXPECTED``, or None.

    Only seed 0 has a committed digest; other seeds are checked
    operation to operation.
    """
    if seed != 0:
        return None
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")).get(key)
    if digest != expected:
        return f"{key}: output digest {digest} != committed {expected}"
    return None


@contextlib.contextmanager
def operation(tracer, index: int):
    """Root span of one timed operation when tracing."""
    span = tracer.start_op(index) if tracer is not None else None
    try:
        yield
    finally:
        if span is not None:
            tracer.end(span)


# ----------------------------------------------------------------------
# fig2: one ``repro fig2`` command per operation
# ----------------------------------------------------------------------
#: The CLI's cache line for a run that missed, or hit, every cell.
COLD = f"cache: 0 hits, {inputs.FIG2_CELLS} misses"
WARM = f"cache: {inputs.FIG2_CELLS} hits, 0 misses"

class Fig2:
    def __init__(self, args) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.work = Path(args.work)
        self.warm = args.workload == "fig2-warm"
        self.in_process = args.trace
        self.reference: bytes | None = None
        self.fresh = 0

    def setup(self, probe: bool) -> None:
        # Set-up as a user pays it is the bare import.  A measuring
        # process that runs each command in a fresh interpreter imports
        # nothing of the program itself.
        if probe:
            import repro.experiments.fig2  # noqa: F401
            return
        if self.in_process:
            import repro.cli

            self.main = repro.cli.main
        if self.warm or self.in_process:
            # Fills the cache fig2-warm reads; in-process, also pays the
            # imports the CLI defers to its first command.
            _, text, output = self.command(self.work / "warm-cache")
            if COLD not in text:
                raise RuntimeError(f"warm-cache fill: expected '{COLD}' in:\n{text}")
            self.reference = output

    def command(self, cache_dir: Path) -> tuple[float, str, bytes]:
        """Run one command; returns (wall seconds, stdout, --json output)."""
        out = self.work / "fig2.json"
        argv = inputs.fig2_argv(self.workload, self.seed, str(cache_dir), str(out))
        started = time.perf_counter()
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = self.main(argv)
            text = buffer.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv], cwd=ROOT,
                capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
            )
            code, text = proc.returncode, proc.stdout + proc.stderr
        wall = time.perf_counter() - started
        if code != 0:
            raise RuntimeError(f"repro {' '.join(argv)} exited {code}:\n{text}")
        output = out.read_bytes() + Path(f"{out}.latency.json").read_bytes()
        return wall, text, output

    def measure(self, seconds: float, tracer=None) -> Outcome:
        outcome = Outcome()
        want = WARM if self.warm else COLD
        deadline = time.perf_counter() + seconds
        while not outcome.attempted or time.perf_counter() < deadline:
            self.fresh += 1
            cache_dir = self.work / ("warm-cache" if self.warm else f"cache-{self.fresh}")
            outcome.attempted += 1
            try:
                with operation(tracer, outcome.ops):
                    wall, text, output = self.command(cache_dir)
            except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
                outcome.fail(f"{self.workload}: {exc}")
                continue
            finally:
                if not self.warm:
                    shutil.rmtree(cache_dir, ignore_errors=True)
            outcome.ops += 1
            outcome.samples.append(wall)
            outcome.rates.append(inputs.FIG2_CELLS / wall)
            if outcome.digest is None:
                self.reference = self.reference or output
                outcome.digest = sha256(self.reference)
                error = committed_digest_error("fig2", self.seed, outcome.digest)
                if error:
                    outcome.fail(error)
            if want not in text:
                outcome.fail(f"{self.workload}: expected '{want}' in:\n{text}")
            elif output != self.reference:
                outcome.fail(f"{self.workload}: tables differ from the first run")
        return outcome


# ----------------------------------------------------------------------
# scenarios: one pass over a generated suite per operation
# ----------------------------------------------------------------------
class Scenarios:
    def __init__(self, args) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.first_pass: list[dict] | None = None

    def setup(self, probe: bool) -> None:
        from repro.scenarios import run_suite
        from repro.scenarios.runner import scenario_cell, scenario_cells
        from repro.sim.fastpath import fastpath_eligible

        self.run_suite = run_suite
        self.specs = inputs.scenario_suite(self.workload, self.seed)
        # The workload's premise: every cell on one engine.
        want_fast = self.workload == "scenarios-fastpath"
        for spec in self.specs:
            for compiled in spec.compile():
                if fastpath_eligible(compiled.config) != want_fast:
                    raise RuntimeError(
                        f"{compiled.scenario_id} does not run on the "
                        f"{'fast path' if want_fast else 'event engine'}"
                    )
        scenario_cell(scenario_cells(self.specs[-1:])[0])  # warm-up

    def measure(self, seconds: float, tracer=None) -> Outcome:
        outcome = Outcome()
        deadline = time.perf_counter() + seconds
        while not outcome.ops or time.perf_counter() < deadline:
            with operation(tracer, outcome.ops):
                started = time.perf_counter()
                summaries = [s.to_dict() for s in self.run_suite(self.specs)]
                wall = time.perf_counter() - started
            outcome.ops += 1
            outcome.attempted += len(summaries)
            packets = sum(cell["expected"] for cell in summaries)
            outcome.samples.append(wall)
            outcome.rates.append(packets / wall)
            self.check(summaries, outcome)
        return outcome

    def check(self, summaries: list[dict], outcome: Outcome) -> None:
        for cell in summaries:
            if cell["delivered"] + cell["drops"] != cell["expected"]:
                outcome.fail(
                    f"{cell['scenario']}/{cell['defense']}: delivered "
                    f"{cell['delivered']} + drops {cell['drops']} != "
                    f"expected {cell['expected']}"
                )
        if self.first_pass is None:
            self.first_pass = summaries
            outcome.digest = sha256(json.dumps(summaries, sort_keys=True).encode())
            error = committed_digest_error(self.workload, self.seed, outcome.digest)
            if error:
                outcome.fail(error, count=len(summaries))
            return
        changed = sum(
            1 for a, b in zip(self.first_pass, summaries)
            if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)
        ) + abs(len(self.first_pass) - len(summaries))
        if changed:
            outcome.fail(f"{changed} cells differ from the first pass", count=changed)


# ----------------------------------------------------------------------
# service: open-loop Poisson load, one event per operation
# ----------------------------------------------------------------------
class Service:
    def __init__(self, args) -> None:
        self.seed = args.seed
        self.seconds = args.seconds

    def setup(self, probe: bool) -> None:
        from repro.service import ServiceConfig

        self.steady, self.bursts = inputs.service_schedules(self.seed, self.seconds)
        self.config = ServiceConfig(
            **inputs.SERVICE_CONFIG,
            seed=inputs.derived_seed("service", self.seed, "delays"),
        )

    async def phase(self, offsets, outcome: Outcome, tracer=None) -> dict:
        """Offer one schedule to a fresh service and drain it."""
        from repro.service import StreamEvent, SubmitOutcome, TemporalPrivacyService

        loop = asyncio.get_running_loop()
        releases = []
        service = TemporalPrivacyService(
            self.config, clock=time.monotonic, on_release=releases.append
        )
        await service.start()
        flows = inputs.SERVICE_FLOWS
        submitted = Counter()
        lags = []
        start = loop.time()
        dues = [start + float(offset) for offset in offsets]
        with operation(tracer, outcome.ops):
            for index, due in enumerate(dues):
                # Open loop: wait for the due time, never for the service.
                # When behind, still yield so the shard pumps run.
                await asyncio.sleep(max(0.0, due - loop.time()))
                lags.append(loop.time() - due)
                event = StreamEvent(flow_id=index % flows, seq=index // flows)
                submitted[service.submit(event)] += 1
            admitted_until = loop.time()
            drained = await service.drain(timeout=30.0)
        outcome.ops += len(dues)
        outcome.attempted += len(dues)

        overheads = []
        for record in releases:
            if record.early:
                continue  # preempted: released ahead of schedule by design
            if record.released_at < record.release_time:
                outcome.fail(f"event {record.event} released before its release time")
            due = dues[record.event.seq * flows + record.event.flow_id]
            overheads.append(
                (record.released_at - record.release_time) + (record.admitted_at - due)
            )
        admitted = submitted[SubmitOutcome.ADMITTED] + submitted[SubmitOutcome.ADMITTED_PREEMPT]
        released = {(r.event.flow_id, r.event.seq) for r in releases}
        refused = submitted[SubmitOutcome.SHED] + submitted[SubmitOutcome.REJECTED]
        if refused:
            outcome.fail(f"{refused} events shed or rejected", count=refused)
        if len(released) != len(releases):
            outcome.fail("an event was released twice", count=len(releases) - len(released))
        if not drained or len(released) != admitted:
            outcome.fail(
                f"admitted {admitted} != released {len(released)}",
                count=abs(admitted - len(released)),
            )
        return {
            "lags": lags,
            "overheads": overheads,
            "capacity": len(dues) / (admitted_until - dues[0]),
        }

    def measure(self, seconds: float, tracer=None) -> Outcome:
        return asyncio.run(self._measure(seconds, tracer))

    async def _measure(self, seconds: float, tracer) -> Outcome:
        outcome = Outcome()
        deadline = time.perf_counter() + seconds
        share = seconds / self.seconds  # a traced run measures in two halves
        steady = self.steady[: int(len(self.steady) * share)]
        result = await self.phase(steady, outcome, tracer)
        outcome.samples = result["overheads"]
        for offsets in self.bursts:
            if len(outcome.rates) >= inputs.MIN_BURSTS and time.perf_counter() >= deadline:
                break
            burst = await self.phase(offsets, outcome, tracer)
            outcome.rates.append(burst["capacity"])
        overheads_ms = [x * 1e3 for x in result["overheads"]]
        outcome.extra = {
            "steady_events": len(steady),
            "gen_lag_p99_ms": percentile(result["lags"], 99) * 1e3,
            "overhead_p90_ms": percentile(overheads_ms, 90),
            "overhead_p99_ms": percentile(overheads_ms, 99),
            "overhead_p999_ms": percentile(overheads_ms, 99.9),
            "bursts": len(outcome.rates),
        }
        return outcome


FAMILIES = {"fig2": Fig2, "scenarios": Scenarios, "service": Service}


# ----------------------------------------------------------------------
def traced(runner, args) -> dict:
    """Half the time untraced, half traced; per-layer metrics from the latter."""
    import tracing

    half = args.seconds / 2
    untraced = runner.measure(half)
    tracer = tracing.Tracer(Path(args.work) / "trace", args.workload)
    tracing.install(tracer)
    traced_outcome = runner.measure(half, tracer)
    tracer.uninstall()
    spans, tallies = tracer.collect()
    with open(Path(args.work) / "spans.jsonl", "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    jobs = inputs.fig2_jobs(args.workload)
    layers = tracing.layer_metrics(spans, tallies, max(traced_outcome.ops, 1), jobs)
    layers.update(tracing.import_split(importtime(args.workload)))
    layers["trace.overhead_ratio"] = (
        untraced.rate / traced_outcome.rate - 1.0 if traced_outcome.rate else 0.0
    )
    for key in ("gen_lag_p99_ms", "overhead_p90_ms", "overhead_p99_ms", "overhead_p999_ms"):
        layers[f"service.{key}"] = untraced.extra.get(key, 0.0)
    outcome = Outcome(
        attempted=untraced.attempted + traced_outcome.attempted,
        failed=untraced.failed + traced_outcome.failed,
        errors=untraced.errors + traced_outcome.errors,
    )
    if layers["trace.self_time_violations"]:
        outcome.fail("children's self times exceed their parent span")
    return {**report(outcome), "layers": layers, "untraced_rate": untraced.rate,
            "traced_rate": traced_outcome.rate}


def importtime(workload: str) -> str:
    """``-X importtime`` output of a fresh interpreter's set-up imports."""
    modules = {
        "fig2": "repro.experiments.fig2, repro.cli",
        "scenarios": "repro.scenarios",
        "service": "repro.service",
    }[inputs.WORKLOADS[workload]]
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", f"import {modules}"],
        cwd=ROOT, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S, check=True,
    )
    return proc.stderr


def report(outcome: Outcome) -> dict:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "samples_s": outcome.samples,
        "rate": outcome.rate,
        "digest": outcome.digest,
        "extra": outcome.extra,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    runner = FAMILIES[inputs.WORKLOADS[args.workload]](args)
    runner.setup(probe=args.probe)
    print("READY", flush=True)
    if args.probe:
        return 0
    result = traced(runner, args) if args.trace else report(runner.measure(args.seconds))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
