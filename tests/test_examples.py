"""Smoke tests: every example script runs and says what it promises.

Examples are documentation that can rot; these tests execute each one
in a subprocess (with small arguments where the script takes any) and
assert on a signature line of its output.
"""

import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
README = pathlib.Path(__file__).parent.parent / "README.md"

#: script name -> (argv suffix, a string its stdout must contain)
EXAMPLES = {
    "quickstart.py": (["2", "60"], "Delay&LimitedBuffers"),
    "paper_topology_tour.py": (["4"], "Section 4 quantities"),
    "adversary_escalation.py": (["2"], "model-based"),
    "mix_showdown.py": (["20"], "stop-and-go"),
    "des_engine_tour.py": (["0.5"], "Little ratio"),
    "asset_tracking_demo.py": (["0.05"], "localization error"),
    "spatiotemporal_defense.py": (["6"], "safety period"),
    "packet_forensics.py": ([], "preempted"),
    "habitat_monitoring.py": ([], "hunter"),
    "buffer_provisioning.py": ([], "erlang-target"),
}


def _run(script: str, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("script", sorted(EXAMPLES), ids=lambda s: s[:-3])
def test_example_runs(script):
    args, marker = EXAMPLES[script]
    completed = _run(script, args)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert marker in completed.stdout, (
        f"{script} output lacks {marker!r}:\n{completed.stdout[:2000]}"
    )


def test_every_example_is_covered():
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXAMPLES), (
        "examples/ and the smoke-test registry disagree: "
        f"missing={on_disk - set(EXAMPLES)}, stale={set(EXAMPLES) - on_disk}"
    )


def test_readme_quickstart_runs():
    """The first ``python`` block of README.md is the quick start."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None, "README.md has no python block"
    completed = subprocess.run(
        [sys.executable, "-c", block.group(1)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert "adversary MSE" in completed.stdout, completed.stdout[:2000]
