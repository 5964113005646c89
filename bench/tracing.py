"""Spans around the program's layer boundaries, for ``--trace 1`` runs.

:func:`install` wraps public functions of each layer from outside the
program -- nothing under ``src/`` knows it is being traced -- and
:func:`layer_metrics` turns what the wrappers recorded into the
per-layer metrics.  Two kinds of record:

* a **span** (name, start, end, parent span, trace id
  ``workload/op-N/cell-K``) at coarse boundaries: a sweep, a cell, a
  simulation, a cache read.  Spans stay in memory and are written out
  when the run ends;
* a **tally** (calls, seconds, hits) for functions called per event --
  ``TemporalPrivacyCore.offer``, ``TemporalPrivacyService.submit``,
  registry lookups -- where one span per call would cost more than the
  call.  Tallied time is not subtracted from any span's self time.

Forked pool workers exit without running atexit handlers, so a worker
appends its spans and tally deltas to ``spans-<pid>.jsonl`` in the trace
directory after every cell; :meth:`Tracer.collect` merges those files
with the parent's own records.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Span stack, finished spans and tallies of one process."""

    def __init__(self, trace_dir: str | Path, workload: str) -> None:
        self.trace_dir = Path(trace_dir)
        self.workload = workload
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.tallies: dict[str, list] = {}  # name -> [calls, seconds, hits]
        self.cell_index: int | None = None  # set by a pool worker per cell
        self._cells = itertools.count()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def begin(self, name: str, trace_id: str | None = None) -> dict:
        parent = self.stack[-1] if self.stack else None
        if trace_id is None:
            trace_id = parent["trace"] if parent is not None else self.workload
        span = {
            "id": f"{os.getpid()}:{next(self._ids)}",
            "parent": parent["id"] if parent is not None else None,
            "name": name,
            "trace": trace_id,
            "pid": os.getpid(),
            "start": time.perf_counter(),
            "end": None,
        }
        self.stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.remove(span)
        self.spans.append(span)

    def start_op(self, index: int) -> dict:
        """Open the root span of one timed operation."""
        self._cells = itertools.count()
        return self.begin("op", trace_id=f"{self.workload}/op-{index}")

    def cell_trace(self) -> str:
        """Trace id for a cell starting now under the current op."""
        op = next((s["trace"] for s in self.stack if s["name"] == "op"), self.workload)
        index = self.cell_index if self.cell_index is not None else next(self._cells)
        return f"{op}/cell-{index}"

    # ------------------------------------------------------------------
    def after_fork(self) -> None:
        """In a forked child: drop the parent's records, keep its open spans."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self._forget()

    def flush(self) -> None:
        """Append this process's records to its per-pid file and forget them."""
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({"span": span}) + "\n")
            for name, tally in self.tallies.items():
                if tally[0]:
                    handle.write(json.dumps({"tally": name, "value": tally}) + "\n")
        self._forget()

    def _forget(self) -> None:
        self.spans = []
        for tally in self.tallies.values():
            tally[:] = [0, 0.0, 0]  # in place: the wrappers hold these lists

    def collect(self) -> tuple[list[dict], dict[str, list]]:
        """This process's records merged with every flushed worker file."""
        spans = list(self.spans)
        tallies = {name: list(t) for name, t in self.tallies.items()}
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                if "span" in record:
                    spans.append(record["span"])
                else:
                    total = tallies.setdefault(record["tally"], [0, 0.0, 0])
                    for i, value in enumerate(record["value"]):
                        total[i] += value
        return spans, tallies

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None, tally: bool = False, hit=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``after(span, args, result)`` runs once the span has ended, so
        bookkeeping it does is not charged to the span.  With
        ``tally=True`` the call is only counted and timed; ``hit(result)``
        then says whether to count it as a hit too.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw

        if tally:
            counts = self.tallies.setdefault(name, [0, 0.0, 0])

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                result = original(*args, **kwargs)
                counts[1] += time.perf_counter() - started
                counts[0] += 1
                if hit is not None and hit(result):
                    counts[2] += 1
                return result
        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = self.begin(name, self.cell_trace() if name == "cell" else None)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(span)
                if after is not None:
                    after(span, args, result)
                return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are read from."""
    from importlib import import_module

    from repro.core.adversary import Adversary
    from repro.core.metrics import LatencyStats
    from repro.core.privacy_core import CoreAction, TemporalPrivacyCore
    from repro.des.engine import Simulator
    from repro.runtime.cache import ResultCache
    from repro.runtime.journal import SweepJournal
    from repro.scenarios.spec import ScenarioSpec
    from repro.service.server import SubmitOutcome, TemporalPrivacyService
    from repro.sim.simulator import SensorNetworkSimulator
    from repro.telemetry.registry import MetricsRegistry
    from repro.traffic.generators import TrafficModel

    # Modules by path: several packages re-export a function under the
    # name of the module it lives in (``repro.analysis.sweep``).
    sweep, common, fig2, executors, runner, fastpath = (
        import_module(f"repro.{name}")
        for name in (
            "analysis.sweep", "experiments.common", "experiments.fig2",
            "runtime.executors", "scenarios.runner", "sim.fastpath",
        )
    )

    def entry_bytes(cache, config) -> int:
        path = cache._path_for(cache.key_for(config))
        return path.stat().st_size if path.is_file() else 0

    def on_get(span, args, result):
        span["hit"] = result is not None
        span["bytes"] = entry_bytes(*args) if result is not None else 0

    def on_put(span, args, result):
        span["bytes"] = entry_bytes(args[0], args[1])

    def on_fastpath(span, args, result):
        tracer.stack[-1]["engine"] = "fastpath"  # the enclosing sim.run

    def on_run(span, args, result):
        span.setdefault("engine", "event")
        span["events"] = int(result.events_processed)

    tracer.wrap(sweep, "supervised_map", "executor.map")
    original_invoke = executors._worker_invoke

    @functools.wraps(original_invoke)
    def worker_invoke(index):
        tracer.after_fork()
        tracer.cell_index = index
        span = tracer.begin("executor.cell", tracer.cell_trace())
        try:
            return original_invoke(index)
        finally:
            tracer.end(span)
            tracer.cell_index = None
            tracer.flush()

    executors._worker_invoke = worker_invoke
    tracer._patches.append((executors, "_worker_invoke", original_invoke))

    tracer.wrap(fig2, "fig2_cell", "cell")
    tracer.wrap(runner, "scenario_cell", "cell")
    tracer.wrap(ResultCache, "get", "cache.get", after=on_get)
    tracer.wrap(ResultCache, "put", "cache.put", after=on_put)
    tracer.wrap(SweepJournal, "record", "journal.record")
    tracer.wrap(ScenarioSpec, "compile", "scenarios.compile")
    for cls in _subclasses(TrafficModel):
        if "creation_times" in cls.__dict__:
            tracer.wrap(cls, "creation_times", "traffic.creation")
    tracer.wrap(SensorNetworkSimulator, "run", "sim.run", after=on_run)
    tracer.wrap(fastpath, "run_fastpath", "sim.fastpath", after=on_fastpath)
    tracer.wrap(Simulator, "run_until", "des.run_until")
    tracer.wrap(Adversary, "estimate_all", "adversary.estimate_all")
    tracer.wrap(common, "summarize_flow", "scoring.summarize")
    tracer.wrap(runner, "mse_of_estimator", "scoring.summarize")
    tracer.wrap(LatencyStats, "from_samples", "scoring.summarize")
    tracer.wrap(
        TemporalPrivacyCore, "offer", "privacy_core.offer", tally=True,
        hit=lambda decision: decision.action is CoreAction.PREEMPT,
    )
    tracer.wrap(TemporalPrivacyCore, "poll_due", "privacy_core.poll_due", tally=True)
    tracer.wrap(
        TemporalPrivacyService, "submit", "service.submit", tally=True,
        hit=lambda outcome: outcome is SubmitOutcome.ADMITTED_PREEMPT,
    )
    for method in ("counter", "gauge", "histogram"):
        tracer.wrap(MetricsRegistry, method, "telemetry.registry", tally=True)


def _subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# ----------------------------------------------------------------------
# Reading the records
# ----------------------------------------------------------------------
def self_times(spans: list[dict]) -> dict[str, float]:
    """span id -> its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children[span["id"]], key=lambda s: s["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


def self_time_violations(spans: list[dict], tolerance: float = 1e-9) -> int:
    """Spans whose children, per child process, sum to more self time than
    the span lasted.  Children in different pool workers run in
    parallel, so only children of one process must fit in the parent."""
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    sums: dict[tuple[str, int], float] = defaultdict(float)
    for span in spans:
        if span["parent"] in by_id:
            sums[(span["parent"], span["pid"])] += own[span["id"]]
    return sum(
        1
        for (parent, _), total in sums.items()
        if total > by_id[parent]["end"] - by_id[parent]["start"] + tolerance
    )


def _outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans called ``name`` that are not directly nested in one of the same name."""
    names = {span["id"]: span["name"] for span in spans}
    return [s for s in spans if s["name"] == name and names.get(s["parent"]) != name]


def layer_metrics(
    spans: list[dict], tallies: dict[str, list], ops: int, jobs: int
) -> dict[str, float]:
    """Per-operation layer metrics from merged spans and tallies."""

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in _outermost(spans, name))

    def count(name: str) -> int:
        return len(_outermost(spans, name))

    def tally(name: str) -> list:
        return tallies.get(name, [0, 0.0, 0])

    own = self_times(spans)
    runs = [s for s in spans if s["name"] == "sim.run"]
    event_runs = [s for s in runs if s.get("engine") == "event"]
    gets = [s for s in spans if s["name"] == "cache.get"]
    map_s = total("executor.map") / ops
    busy_s = total("cell") / ops
    run_until_s = total("des.run_until")
    des_events = sum(s["events"] for s in event_runs)
    offer, poll, submit, registry = (
        tally("privacy_core.offer"), tally("privacy_core.poll_due"),
        tally("service.submit"), tally("telemetry.registry"),
    )
    return {
        "executor.map_s": map_s,
        "executor.cells": count("cell") / ops,
        "executor.cell_busy_s": busy_s,
        "executor.overhead_s": map_s - busy_s / jobs if map_s else 0.0,
        "executor.efficiency": busy_s / (jobs * map_s) if map_s else 0.0,
        "cache.get_s": total("cache.get") / ops,
        "cache.put_s": total("cache.put") / ops,
        "cache.bytes_read": sum(s["bytes"] for s in gets) / ops,
        "cache.bytes_written": sum(
            s["bytes"] for s in spans if s["name"] == "cache.put"
        ) / ops,
        "cache.hits": sum(1 for s in gets if s["hit"]) / ops,
        "journal.record_s": total("journal.record") / ops,
        "scenarios.compile_s": total("scenarios.compile") / ops,
        "scenarios.compile_calls": count("scenarios.compile") / ops,
        "traffic.creation_s": total("traffic.creation") / ops,
        "fastpath.s": total("sim.fastpath") / ops,
        "fastpath.cells": count("sim.fastpath") / ops,
        "engine.fastpath_ratio": count("sim.fastpath") / len(runs) if runs else 0.0,
        "event.self_s": sum(own[s["id"]] for s in event_runs) / ops,
        "des.run_until_s": run_until_s / ops,
        "des.events": des_events / ops,
        "des.events_per_s": des_events / run_until_s if run_until_s else 0.0,
        "privacy_core.offer_calls": offer[0] / ops,
        "privacy_core.offer_s": offer[1] / ops,
        "privacy_core.preemptions": offer[2] / ops,
        "privacy_core.poll_due_s": poll[1] / ops,
        "adversary.estimate_all_s": total("adversary.estimate_all") / ops,
        "scoring.summarize_s": total("scoring.summarize") / ops,
        "service.submit_s": submit[1] / ops,
        "service.preempt_ratio": submit[2] / submit[0] if submit[0] else 0.0,
        "telemetry.registry_calls": registry[0] / ops,
        "telemetry.registry_s": registry[1] / ops,
        "trace.spans": len(spans) / ops,
        "trace.self_time_violations": float(self_time_violations(spans)),
    }


# ----------------------------------------------------------------------
# Import time
# ----------------------------------------------------------------------
def import_split(importtime_stderr: str) -> dict[str, float]:
    """Self import time by origin, from ``python -X importtime`` output."""
    split = {"import.repro_self_s": 0.0, "import.third_party_s": 0.0, "import.stdlib_s": 0.0}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        seconds = int(fields[0]) / 1e6
        top = fields[2].strip().split(".")[0]
        if top == "repro":
            split["import.repro_self_s"] += seconds
        elif top in sys.stdlib_module_names or top.startswith("_"):
            split["import.stdlib_s"] += seconds
        else:
            split["import.third_party_s"] += seconds
    return split
