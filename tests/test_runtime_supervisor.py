"""Fault-tolerance layer: timeouts, retries, quarantine, degradation.

The acceptance scenarios from the resilience issue live here: a hung
worker (timeout) and a crashed worker (``os._exit``) both leave the
sweep *completed*, with the offending cells named in a structured
``FailureReport`` and every other cell bit-identical to the serial
run.
"""

import os
import time

import pytest

from repro.analysis.sweep import sweep
from repro.runtime import (
    FailureReport,
    RetryPolicy,
    Supervisor,
    WorkerError,
    use_runtime,
)
from repro.runtime import executors as executors_module

#: fast-failing policy variants used throughout (no multi-second backoff)
QUARANTINE = dict(backoff=0.01, on_failure="quarantine")


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(on_failure="explode")

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(backoff=1.0, backoff_factor=2.0, max_backoff=3.0)
        assert policy.delay_before(1) == 1.0
        assert policy.delay_before(2) == 2.0
        assert policy.delay_before(3) == 3.0  # capped


class TestSerialSupervision:
    def test_retry_eventually_succeeds(self):
        attempts = {"n": 0}

        def flaky(x):
            if x == 2:
                attempts["n"] += 1
                if attempts["n"] < 3:
                    raise ValueError("transient")
            return x * 10

        with use_runtime(retry=RetryPolicy(max_attempts=3, backoff=0.01)):
            assert sweep([1, 2, 3], flaky) == [10, 20, 30]
        assert attempts["n"] == 3

    def test_exhausted_retries_raise_original_exception(self):
        def bad(x):
            raise KeyError("always")

        with use_runtime(retry=RetryPolicy(max_attempts=2, backoff=0.01)):
            with pytest.raises(KeyError):
                sweep([1], bad)

    def test_quarantine_completes_with_report(self):
        def bad(x):
            if x == 7:
                raise ValueError("doomed")
            return x

        with use_runtime(retry=RetryPolicy(max_attempts=2, **QUARANTINE)) as ctx:
            assert sweep([5, 7, 9], bad) == [5, None, 9]
        (report,) = ctx.failure_reports
        assert report.quarantined_indices == [1]
        (record,) = report.failures
        assert record.kind == "error"
        assert record.attempts == 2
        assert "doomed" in record.message
        assert "ValueError" in record.traceback


class TestParallelSupervision:
    def test_worker_error_retried_then_quarantined(self):
        def bad(x):
            if x == 3:
                raise ValueError("deterministic failure")
            return x * 2

        with use_runtime(
            jobs=2, retry=RetryPolicy(max_attempts=2, **QUARANTINE)
        ) as ctx:
            result = sweep([0, 1, 2, 3, 4], bad)
        assert result == [0, 2, 4, None, 8]
        (report,) = ctx.failure_reports
        assert report.quarantined_indices == [3]
        assert report.failures[0].attempts == 2

    def test_hung_worker_times_out_and_is_quarantined(self):
        def hang(x):
            if x == 2:
                time.sleep(60)
            return x

        started = time.monotonic()
        with use_runtime(
            jobs=2,
            retry=RetryPolicy(max_attempts=2, timeout=0.5, **QUARANTINE),
        ) as ctx:
            result = sweep([0, 1, 2, 3, 4], hang)
        elapsed = time.monotonic() - started
        assert result == [0, 1, None, 3, 4]
        (report,) = ctx.failure_reports
        assert report.quarantined_indices == [2]
        assert report.failures[0].kind == "timeout"
        assert elapsed < 30  # two 0.5s attempts, not 60s of hang

    def test_crashed_worker_is_probed_and_quarantined(self):
        def crash(x):
            if x == 1:
                os._exit(17)
            return x * 2

        with use_runtime(
            jobs=2, retry=RetryPolicy(max_attempts=2, **QUARANTINE)
        ) as ctx:
            result = sweep([0, 1, 2, 3, 4], crash)
        assert result == [0, None, 4, 6, 8]
        (report,) = ctx.failure_reports
        assert report.quarantined_indices == [1]
        assert report.failures[0].kind == "crash"

    def test_non_quarantined_cells_match_serial_run(self):
        """Acceptance: supervision must not perturb surviving cells."""

        def compute(x):
            if x == 3:
                os._exit(5)
            return (x * 1.5, x ** 2)

        serial = [(x * 1.5, x ** 2) for x in range(8)]
        with use_runtime(
            jobs=3, retry=RetryPolicy(max_attempts=2, **QUARANTINE)
        ):
            supervised = sweep(list(range(8)), compute)
        for index, (got, want) in enumerate(zip(supervised, serial)):
            if index == 3:
                assert got is None
            else:
                assert got == want

    def test_timeout_raise_mode_raises_worker_error(self):
        def hang(x):
            if x == 1:
                time.sleep(60)
            return x

        with use_runtime(
            jobs=2, retry=RetryPolicy(max_attempts=1, timeout=0.5, backoff=0.01)
        ):
            with pytest.raises(WorkerError, match="wall clock"):
                sweep([0, 1, 2, 3], hang)

    def test_worker_counters_still_merged_under_supervision(self, tmp_path):
        from repro.runtime import run_simulation
        from repro.sim.config import SimulationConfig

        def cell(seed):
            config = SimulationConfig.paper_baseline(
                interarrival=4.0, case="rcad", n_packets=20, seed=seed
            )
            return run_simulation(config).delivered_count(1)

        with use_runtime(
            jobs=2,
            cache_dir=tmp_path,
            retry=RetryPolicy(max_attempts=2, backoff=0.01),
        ) as ctx:
            sweep([0, 1, 2], cell)
        assert ctx.stats.simulations == 3
        assert ctx.cache.stats.stores == 3


class TestDegradation:
    def test_unbuildable_pool_degrades_to_serial(self, monkeypatch):
        monkeypatch.setattr(
            Supervisor, "_new_pool", lambda self: None
        )
        with use_runtime(
            jobs=4, retry=RetryPolicy(max_attempts=2, **QUARANTINE)
        ) as ctx:
            assert sweep([1, 2, 3, 4], lambda x: x + 1) == [2, 3, 4, 5]
        (report,) = ctx.failure_reports
        assert report.degraded_to_serial
        assert report.failures == []

    def test_supervised_map_serial_when_fork_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            "multiprocessing.get_all_start_methods", lambda: ["spawn"]
        )
        with use_runtime(jobs=4, retry=RetryPolicy(max_attempts=2, backoff=0.01)):
            assert sweep([1, 2, 3], lambda x: x * 2) == [2, 4, 6]


class TestFailureReportRendering:
    def test_render_names_cells_and_kinds(self):
        report = FailureReport(label="demo", n_items=10)
        with use_runtime(retry=RetryPolicy(max_attempts=1, **QUARANTINE)) as ctx:
            sweep([1, 2], lambda x: 1 / 0)
            report = ctx.failure_reports[0]
        text = report.render()
        assert "2/2 cells quarantined" in text
        assert "cell 0" in text and "cell 1" in text
        assert "[error x1]" in text


class TestInWorkerGuard:
    def test_supervised_nested_sweep_stays_serial(self, monkeypatch):
        # Inside a forked worker the supervisor must not open a nested
        # pool (fork bomb); simulate the worker flag directly.
        monkeypatch.setattr(executors_module, "_IN_WORKER", True)
        with use_runtime(jobs=4, retry=RetryPolicy(max_attempts=2, backoff=0.01)):
            assert sweep([1, 2, 3], lambda x: x + 7) == [8, 9, 10]
