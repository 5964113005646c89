import json
from types import SimpleNamespace

import worker


def summaries():
    return [
        {"scenario": "s", "defense": "rcad", "delivered": 10, "drops": 0, "expected": 10},
        {"scenario": "s", "defense": "drop-tail", "delivered": 6, "drops": 4, "expected": 10},
    ]


def scenarios_runner():
    return worker.Scenarios(SimpleNamespace(workload="scenarios-event", seed=0))


def digest_of(cells):
    return worker.sha256(json.dumps(cells, sort_keys=True).encode())


def test_matching_committed_digest_passes(tmp_path, monkeypatch):
    expected = tmp_path / "digests.json"
    expected.write_text(json.dumps({"scenarios-event": digest_of(summaries())}))
    monkeypatch.setattr(worker, "EXPECTED", expected)
    outcome = worker.Outcome()
    scenarios_runner().check(summaries(), outcome)
    assert outcome.failed == 0


def test_tampered_committed_digest_counts_every_cell_as_failed(tmp_path, monkeypatch):
    expected = tmp_path / "digests.json"
    expected.write_text(json.dumps({"scenarios-event": "0" * 64}))
    monkeypatch.setattr(worker, "EXPECTED", expected)
    outcome = worker.Outcome()
    scenarios_runner().check(summaries(), outcome)
    assert outcome.failed == 2
    assert "committed" in outcome.errors[0]
    # Held-out seeds have no committed digest and are checked pass to pass.
    assert worker.committed_digest_error("scenarios-event", 1, "f" * 64) is None


def test_later_pass_that_differs_or_leaks_packets_fails(tmp_path, monkeypatch):
    expected = tmp_path / "digests.json"
    expected.write_text(json.dumps({"scenarios-event": digest_of(summaries())}))
    monkeypatch.setattr(worker, "EXPECTED", expected)
    runner = scenarios_runner()
    outcome = worker.Outcome()
    runner.check(summaries(), outcome)
    second = summaries()
    second[1]["drops"] = 3  # one packet neither delivered nor dropped
    runner.check(second, outcome)
    assert outcome.failed == 2  # the conservation breach and the changed cell
