#!/usr/bin/env python
"""CI smoke test for the scenario generator and defense registry.

Three checks:

1. **Spec round-trip** -- ``repro scenarios --example`` emits a suite
   that parses back to the same specs, and the parsed suite compiles to
   configurations whose stable fingerprints match the in-process
   ``example_suite()`` exactly.

2. **Serial == parallel** -- a reduced suite (all three topology
   families, four registered defenses) runs end-to-end through the CLI
   three times: serially and with ``--jobs 2`` against separate caches,
   and with ``--no-cache --jobs 2`` (no cache, no journal: the plain
   supervised fork pool); every exported per-cell summary JSON must be
   byte-identical to the serial one.

3. **Registry anchoring** -- the ``rcad`` registry entry rebuilt onto
   the paper deployment is fingerprint-identical to
   ``SimulationConfig.paper_baseline``, so registry runs share cache
   entries (and golden observable digests) with the figure drivers.

Exit code 0 on success; any failure prints a diagnostic and exits 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def repro(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=600,
    )


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def smoke_suite() -> dict:
    """The example suite shrunk to smoke-test size (fewer packets)."""
    from repro.scenarios import example_suite, suite_to_dict

    suite = suite_to_dict(example_suite())
    for scenario in suite["scenarios"]:
        scenario["n_packets"] = min(scenario.get("n_packets", 100), 15)
        scenario["seeds"] = [0]
    return suite


# ----------------------------------------------------------------------
def check_round_trip() -> None:
    from repro.runtime.fingerprint import stable_fingerprint
    from repro.scenarios import example_suite, parse_suite

    proc = repro(["scenarios", "--example"])
    if proc.returncode != 0:
        fail(f"scenarios --example exited {proc.returncode}:\n{proc.stderr}")
    parsed = parse_suite(json.loads(proc.stdout))
    reference = example_suite()
    if parsed != reference:
        fail("parsed --example suite differs from example_suite()")
    families = set()
    defenses = set()
    for spec, clone in zip(reference, parsed):
        families.add(spec.topology.family)
        defenses.update(d.name for d in spec.defenses)
        for a, b in zip(spec.compile(), clone.compile()):
            if stable_fingerprint(a.config) != stable_fingerprint(b.config):
                fail(f"round-trip fingerprint mismatch for {a.scenario_id}")
    if len(families) < 3:
        fail(f"example suite covers {sorted(families)}, need 3 families")
    if len(defenses) < 4:
        fail(f"example suite registers {sorted(defenses)}, need 4 defenses")
    print(
        f"ok: --example round-trips; {sorted(families)} families, "
        f"{len(defenses)} defenses"
    )


# ----------------------------------------------------------------------
def check_serial_equals_parallel() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        suite_path = tmp_path / "suite.json"
        suite_path.write_text(json.dumps(smoke_suite()))
        outputs = {}
        for label, jobs, cache in (
            ("serial", "1", ["--cache-dir", str(tmp_path / "cache-a")]),
            ("parallel", "2", ["--cache-dir", str(tmp_path / "cache-b")]),
            ("uncached parallel", "2", ["--no-cache"]),
        ):
            out = tmp_path / f"{label.replace(' ', '-')}.json"
            proc = repro([
                "scenarios", str(suite_path), "--jobs", jobs, *cache,
                "--json", str(out),
            ])
            if proc.returncode != 0:
                fail(f"{label} run exited {proc.returncode}:\n{proc.stderr}")
            outputs[label] = out.read_bytes()
        for label in ("parallel", "uncached parallel"):
            if outputs[label] != outputs["serial"]:
                fail(f"serial and {label} (--jobs 2) summaries differ")
        summaries = json.loads(outputs["serial"])["summaries"]
        if len(summaries) != 9:
            fail(f"expected 9 matrix cells, got {len(summaries)}")
        if any(s["delivered"] == 0 for s in summaries):
            fail("a scenario cell delivered no packets")
        print(
            f"ok: serial == --jobs 2 == --no-cache --jobs 2 over "
            f"{len(summaries)} cells"
        )


# ----------------------------------------------------------------------
def check_registry_anchoring() -> None:
    from repro.defenses import DEFENSES, DefenseContext
    from repro.runtime.fingerprint import stable_fingerprint
    from repro.sim.config import SimulationConfig

    baseline = SimulationConfig.paper_baseline(
        interarrival=2.0, case="rcad", n_packets=150
    )
    materialized = DEFENSES.create("rcad").materialize(DefenseContext(
        deployment=baseline.deployment,
        tree=baseline.tree,
        flow_rates={
            flow.source: flow.traffic.mean_rate() for flow in baseline.flows
        },
        capacity=10,
    ))
    rebuilt = SimulationConfig(
        deployment=baseline.deployment,
        tree=baseline.tree,
        flows=baseline.flows,
        delay_plan=materialized.delay_plan,
        buffers=materialized.buffers,
        routing_policy=materialized.routing_policy,
        transmission_delay=baseline.transmission_delay,
        seed=baseline.seed,
    )
    if stable_fingerprint(rebuilt) != stable_fingerprint(baseline):
        fail("registry-built rcad does not match paper_baseline fingerprint")
    print("ok: registry rcad is fingerprint-identical to paper_baseline")


def main() -> None:
    sys.path.insert(0, str(REPO / "src"))
    check_round_trip()
    check_serial_equals_parallel()
    check_registry_anchoring()
    print("scenarios smoke: all checks passed")


if __name__ == "__main__":
    main()
