"""Import discipline: the fig2/scenario/sim entry points stay light.

A cold ``repro fig2`` calls nothing from scipy, networkx or asyncio, so
importing it must not load them either: each costs more start-up time
than the figure's own simulations at reduced scale.  Likewise a serial
run never builds a process pool, so it must not load ``multiprocessing``.
The heavy imports live inside the functions that use them, and
``repro.runtime`` resolves its fabric/transport names lazily.  See DESIGN.md, "Import
discipline".
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.runtime

REPO_ROOT = Path(__file__).resolve().parents[1]

FORBIDDEN = (
    "scipy",
    "networkx",
    "asyncio",
    "multiprocessing",
    "concurrent.futures.process",
    "repro.runtime.fabric",
    "repro.runtime.transport",
)

_PROBE = """
import json, sys
FORBIDDEN = {forbidden!r}

def loaded():
    return sorted(
        name for name in sys.modules
        if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)
    )

import repro.experiments.fig2, repro.cli
import repro.scenarios
import repro.sim
after_import = loaded()

from repro.experiments.fig2 import figure2
from repro.runtime import use_runtime
with use_runtime(cache_dir=sys.argv[1]):
    figure2(interarrivals=(2, 20), n_packets=100)
print(json.dumps({{"import": after_import, "run": loaded()}}))
"""


def test_fig2_scenarios_sim_load_no_heavy_modules(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable, "-c", _PROBE.format(forbidden=FORBIDDEN),
            str(tmp_path / "cache"),
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["import"] == [], f"loaded at import: {report['import']}"
    assert report["run"] == [], f"loaded by figure2(): {report['run']}"


_PARALLEL_PROBE = """
import json, sys
from repro.analysis.sweep import sweep
from repro.runtime import use_runtime

with use_runtime(jobs=1):
    sweep([1, 2, 3], abs)
serial = "multiprocessing" in sys.modules
with use_runtime(jobs=2):
    assert sweep([1, 2, 3], abs) == [1, 2, 3]
print(json.dumps({"serial": serial, "parallel": "multiprocessing" in sys.modules}))
"""


def test_pool_stack_loads_on_first_parallel_map():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _PARALLEL_PROBE],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"serial": False, "parallel": True}


_LAYERING_PROBE = """
import json, sys
import {module}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "runtime"])))
"""


@pytest.mark.parametrize("module", ["repro.core", "repro.service"])
def test_core_and_service_load_no_runtime_module(module):
    """The adversaries and the streaming service sit below the sweep runtime."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _LAYERING_PROBE.format(module=module)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


class TestLazyRuntimeNames:
    def test_every_exported_name_resolves(self):
        for name in repro.runtime.__all__:
            assert getattr(repro.runtime, name) is not None, name

    def test_star_import(self):
        namespace: dict = {}
        exec("from repro.runtime import *", namespace)
        assert set(repro.runtime.__all__) <= set(namespace)
        assert namespace["TransportClient"] is repro.runtime.transport.TransportClient
        assert namespace["FabricExecutor"] is repro.runtime.fabric.FabricExecutor

    def test_dir_lists_lazy_names(self):
        listing = dir(repro.runtime)
        for name in ("FabricPool", "TransportClient", "FabricExecutor"):
            assert name in listing

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.runtime.no_such_name  # noqa: B018
