#!/usr/bin/env python
"""CI smoke test for the distributed sweep fabric (``--listen``).

Runs ``repro fig2 --listen 127.0.0.1:0 --jobs 2`` on a 9-cell grid and,
while it runs:

* SIGKILLs one forked local worker while it holds a lease -- the worker
  is found through the endpoint's ``status`` RPC and frozen with
  SIGSTOP first, so the kill provably lands mid-cell -- and its cell
  must be stolen after one lease TTL and rerun;
* joins a ``repro worker --connect`` whose connection goes through
  :class:`tests.chaosnet.ChaosProxy` with frame drops,
  duplicate delivery and one full partition.

Asserts that the run exits 0 with zero failed cells and at least one
steal, that the chaos plan fired, that the remote worker left cleanly,
and that the exported tables are byte-identical to a serial ``repro
fig2`` run against a *different* cache directory -- so equality proves
real recomputation under SIGKILL and a faulty network, not cache
aliasing.  If every cell finishes before a lease can be caught (a very
fast machine), the run is repeated, up to three attempts.

Run from the repository root: ``python scripts/ci_fabric_smoke.py``.
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

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO)]

from repro.runtime.transport import TransportClient, parse_endpoint
from tests.chaosnet import ChaosProxy, NetFaultPlan, PartitionWindow

SWEEP = ["--packets", "300", "--interarrivals", "2,3,4", "--seed", "0"]
ENV = {**os.environ, "PYTHONPATH": "src"}
ATTEMPTS = 3


def repro(*argv: str, **popen) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV, **popen,
    )


def kill_a_lease_holder(address: str, coordinator: subprocess.Popen) -> int | None:
    """SIGKILL a local worker that holds a lease; its pid, or None if
    the sweep ended first."""
    monitor = TransportClient(address, "smoke-monitor", max_retry_elapsed=5.0)
    try:
        while coordinator.poll() is None:
            leases = monitor.call("status")["leases"]
            holders = [w for w in leases.values() if w.startswith("local-")]
            if not holders:
                time.sleep(0.002)
                continue
            worker = holders[0]
            pid = int(worker.removeprefix("local-"))
            os.kill(pid, signal.SIGSTOP)
            if worker in monitor.call("status")["leases"].values():
                os.kill(pid, signal.SIGKILL)  # frozen mid-cell: a real loss
                return pid
            os.kill(pid, signal.SIGCONT)  # it finished first; try again
    except Exception as exc:  # the endpoint went away: the sweep is over
        print(f"monitor stopped: {exc!r}")
    finally:
        monitor.close()
    return None


def attempt(work: Path) -> tuple[str, Path] | None:
    """One fabric run; its output and JSON export, or None if no worker
    could be killed mid-cell."""
    fabric_json = work / "fabric.json"
    coordinator = repro(
        "fig2", *SWEEP, "--listen", "127.0.0.1:0", "--jobs", "2",
        "--cache-dir", str(work / "cache-fabric"), "--json", str(fabric_json),
    )
    banner = coordinator.stdout.readline()
    match = re.search(r"listening on (\S+)", banner)
    assert match, f"no endpoint banner: {banner!r}"
    address = match.group(1)
    killed = kill_a_lease_holder(address, coordinator)
    print(f"killed local worker: {killed}")

    # The chaos path: drops, duplicate delivery and one 2-second full
    # partition, starting while the killed worker's lease waits out its
    # TTL; frame-aligned and deterministic.
    host, port = parse_endpoint(address)
    plan = NetFaultPlan(
        drop_probability=0.05,
        duplicate_probability=0.05,
        partitions=(PartitionWindow(start=2.0, duration=2.0),),
        seed=7,
    )
    proxy = ChaosProxy(host, port, plan)
    chaos_port = proxy.start()
    remote = repro(
        "worker", "--connect", f"127.0.0.1:{chaos_port}", "--worker-id", "chaos-worker",
        "--cache-dir", str(work / "cache-remote"),
    )
    out, err = coordinator.communicate(timeout=300)
    banner += out
    remote_out, remote_err = remote.communicate(timeout=120)
    proxy.stop()
    print(banner)
    print(f"remote worker: exit={remote.returncode} {remote_out.strip()}")
    print(f"proxy: {proxy.stats}")

    assert coordinator.returncode == 0, f"coordinator failed:\n{banner}\n{err}"
    assert "failure report" not in banner, f"cells failed:\n{banner}"
    if killed is None:
        return None
    steals = int(re.search(r"(\d+) steals", banner).group(1))
    if steals == 0:  # the frozen worker's upload had already landed
        return None
    assert remote.returncode == 0, f"remote worker failed:\n{remote_out}\n{remote_err}"
    assert proxy.stats.partitions_enforced == 1, proxy.stats
    assert proxy.stats.frames_dropped + proxy.stats.frames_duplicated > 0, proxy.stats
    return banner, fabric_json


def main() -> int:
    # Removed on pass and fail; each attempt and the reference get a subdirectory.
    with tempfile.TemporaryDirectory(prefix="repro-fabric-smoke-") as work:
        return fabric_matches_serial(Path(work))


def fabric_matches_serial(work: Path) -> int:
    for number in range(1, ATTEMPTS + 1):
        result = attempt(work / f"attempt-{number}")
        if result is not None:
            break
        print(f"attempt {number}: no worker was caught mid-cell; retrying")
    else:
        raise AssertionError(f"no worker was caught mid-cell in {ATTEMPTS} attempts")
    _, fabric_json = result

    serial_json = work / "serial.json"
    serial = repro(
        "fig2", *SWEEP, "--cache-dir", str(work / "cache-serial"), "--json", str(serial_json)
    )
    serial_out, serial_err = serial.communicate(timeout=600)
    assert serial.returncode == 0, f"serial reference failed:\n{serial_out}\n{serial_err}"
    for suffix in ("", ".latency.json"):
        fabric_bytes = Path(str(fabric_json) + suffix).read_bytes()
        serial_bytes = Path(str(serial_json) + suffix).read_bytes()
        assert fabric_bytes == serial_bytes, (
            f"fabric output differs from serial in *{suffix or '.json'}"
        )
    print(
        "fabric smoke: OK (worker SIGKILLed mid-cell and its cell stolen; remote "
        "worker through drops + duplicates + partition; serial-identical output)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
