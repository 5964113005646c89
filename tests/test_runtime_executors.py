"""The sweep contract under ``use_runtime(jobs=N)``: ordering, closures,
failure propagation, nesting and serial degradation.

Every sweep runs on the supervisor, in-process at ``jobs=1`` and on its
fork pool otherwise; these tests drive it through :func:`sweep` as the
experiment drivers do.
"""

import concurrent.futures
import pickle

import pytest

from repro.analysis.sweep import ReplicationError, replicate, sweep
from repro.runtime import (
    Supervisor,
    WorkerError,
    current_runtime,
    executors as executors_module,
    supervised_map,
    use_runtime,
)


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if the supervisor builds a worker pool."""

    def explode(self):
        raise AssertionError("a worker pool must not be built")

    monkeypatch.setattr(Supervisor, "_new_pool", explode)


class TestSerialExecutor:
    """``jobs=1`` (the default context) runs the sweep in-process."""

    def test_preserves_order(self, no_pool):
        assert sweep([3, 1, 2], lambda x: x * x) == [9, 1, 4]

    def test_empty(self):
        assert supervised_map(lambda x: x, [], current_runtime()) == []


class TestParallelExecutor:
    """``jobs >= 2`` runs the sweep on the supervisor's fork pool."""

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            with use_runtime(jobs=0):
                pass

    def test_preserves_order_across_workers(self):
        with use_runtime(jobs=4):
            result = sweep(list(range(23)), lambda x: x * 10)
        assert result == [x * 10 for x in range(23)]

    def test_closure_state_ships_to_workers(self):
        offset = 1000
        with use_runtime(jobs=2):
            result = sweep([1, 2, 3], lambda x: x + offset)
        assert result == [1001, 1002, 1003]

    def test_pool_is_capped_at_pending_cells(self, monkeypatch):
        # A fork pool starts every worker up front, so a 3-cell sweep
        # under jobs=8 must fork 3 workers, not 8.
        sizes = []
        real_pool = concurrent.futures.ProcessPoolExecutor

        class SpyPool(real_pool):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        with use_runtime(jobs=8):
            assert sweep([1, 2, 3], lambda x: -x) == [-1, -2, -3]
        assert sizes == [3]

    def test_worker_exception_carries_item_and_traceback(self):
        def explode(x):
            if x == 2:
                raise ValueError("boom on two")
            return x

        with use_runtime(jobs=2), pytest.raises(WorkerError) as excinfo:
            sweep([0, 1, 2, 3], explode)
        assert excinfo.value.index == 2
        assert excinfo.value.item == 2
        assert "boom on two" in str(excinfo.value)
        assert "ValueError" in excinfo.value.remote_traceback

    def test_single_item_runs_serially(self, no_pool):
        # One pending item takes the serial path: exceptions surface
        # raw, not wrapped.
        def explode(x):
            raise ValueError("raw")

        with use_runtime(jobs=4), pytest.raises(ValueError):
            sweep([1], explode)

    def test_nested_map_degrades_to_serial(self):
        def run_inner(x):
            # In a forked worker _IN_WORKER is set, so this inner sweep
            # must not fork again.
            return sum(sweep([10, 20], lambda y: y + x))

        with use_runtime(jobs=2):
            assert sweep([1, 2], run_inner) == [32, 34]
        assert executors_module._ACTIVE is None  # always disarmed after


class TestWorkerErrorContract:
    def test_message_carries_serial_repro_command(self):
        error = WorkerError(3, ("rcad", 2.0), "ValueError('x')", "tb")
        assert "--jobs 1" in str(error)
        assert "repro" in str(error)
        assert "sweep item 3" in str(error)

    def test_repro_command_rewrites_jobs_from_argv(self, monkeypatch):
        monkeypatch.setattr(
            "sys.argv", ["repro", "fig2", "--jobs", "8", "--packets", "50"]
        )
        assert (
            executors_module._serial_repro_command()
            == "repro fig2 --packets 50 --jobs 1"
        )
        monkeypatch.setattr("sys.argv", ["repro", "chaos", "--jobs=4"])
        assert executors_module._serial_repro_command() == "repro chaos --jobs 1"

    def test_repro_command_without_cli_context(self, monkeypatch):
        monkeypatch.setattr("sys.argv", ["pytest"])
        assert executors_module._serial_repro_command() == "repro <command> --jobs 1"

    def test_index_and_item_round_trip_through_pickle(self):
        original = WorkerError(7, {"case": "rcad", "load": 2.0}, "boom", "trace")
        restored = pickle.loads(pickle.dumps(original))
        assert isinstance(restored, WorkerError)
        assert restored.index == 7
        assert restored.item == {"case": "rcad", "load": 2.0}
        assert restored.message == "boom"
        assert restored.remote_traceback == "trace"
        assert "sweep item 7" in str(restored)


class TestForkUnavailableDegradation:
    def test_map_runs_serially_without_fork(self, monkeypatch, no_pool):
        # Platform without fork (e.g. Windows/macOS-spawn): the sweep
        # must quietly take the serial path -- same results, no pool
        # construction at all.
        monkeypatch.setattr(
            "multiprocessing.get_all_start_methods", lambda: ["spawn"]
        )
        with use_runtime(jobs=4):
            assert sweep([1, 2, 3], lambda x: x * 3) == [3, 6, 9]

    def test_map_runs_serially_inside_worker(self, monkeypatch, no_pool):
        # The _IN_WORKER guard: a sweep dispatched from within a forked
        # worker must not open a nested pool (fork bomb).
        monkeypatch.setattr(executors_module, "_IN_WORKER", True)
        with use_runtime(jobs=4):
            assert sweep([1, 2, 3], lambda x: x + 1) == [2, 3, 4]

    def test_exceptions_surface_raw_on_serial_fallback(self, monkeypatch, no_pool):
        monkeypatch.setattr(
            "multiprocessing.get_all_start_methods", lambda: ["spawn"]
        )

        def explode(x):
            raise ValueError("raw, not WorkerError")

        with use_runtime(jobs=4), pytest.raises(ValueError, match="raw"):
            sweep([1, 2], explode)


class TestSweepIntegration:
    def test_sweep_uses_active_executor(self):
        with use_runtime(jobs=3):
            assert sweep([1, 2, 3, 4], lambda x: x * 2) == [2, 4, 6, 8]

    def test_sweep_rejects_empty(self):
        with pytest.raises(ValueError):
            sweep([], lambda x: x)

    def test_replicate_names_offending_seed(self):
        def run_one(seed):
            if seed == 7:
                raise RuntimeError("bad draw")
            return float(seed)

        with pytest.raises(ReplicationError, match="seed 7"):
            replicate(4, run_one, base_seed=5)

    def test_replicate_names_offending_seed_in_parallel(self):
        def run_one(seed):
            if seed == 2:
                raise RuntimeError("bad draw")
            return float(seed)

        with use_runtime(jobs=2):
            with pytest.raises(WorkerError, match="seed 2"):
                replicate(4, run_one, base_seed=0)

    def test_replicate_summary_matches_serial(self):
        serial = replicate(6, lambda seed: float(seed * seed), base_seed=3)
        with use_runtime(jobs=3):
            parallel = replicate(6, lambda seed: float(seed * seed), base_seed=3)
        assert serial == parallel
