"""The columnar delivery log: storage, views, validation, engines, cache."""

import pickle
import pickletools

import numpy as np
import pytest

from repro.core.adversary import (
    AdaptiveAdversary,
    BaselineAdversary,
    FlowKnowledge,
    NaiveAdversary,
)
from repro.core.metrics import FlowMetrics, LatencyStats, summarize_flow
from repro.experiments.fig2 import CASE_LABELS
from repro.infotheory.mmse import mse_of_estimator
from repro.runtime import ResultCache
from repro.runtime.cache import _frame_payload
from repro.runtime.fingerprint import stable_fingerprint
from repro.sim.config import SimulationConfig
from repro.sim.observables import observable_view
from repro.sim.results import DELIVERY_COLUMNS, DeliveryLog
from repro.sim.simulator import SensorNetworkSimulator

from .oracles import estimate_all_scalar


def _log(**overrides):
    columns = dict(
        arrival_time=[5.0, 6.0, 9.0],
        created_at=[0.0, 1.0, 2.0],
        flow_id=[1, 2, 1],
        packet_id=[0, 0, 1],
        routing_seq=[0, 1, 2],
        hop_count=[3, 4, 3],
        previous_hop=[7, 8, 7],
        origin=[10, 11, 10],
        preemptions=[0, 2, 1],
    )
    columns.update(overrides)
    return DeliveryLog(**columns)


def _config(interarrival=2.0, case="rcad", n_packets=100, seed=0):
    return SimulationConfig.paper_baseline(
        interarrival=interarrival, case=case, n_packets=n_packets, seed=seed
    )


def _assert_same_columns(a, b):
    for name in DELIVERY_COLUMNS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


class TestColumns:
    def test_dtypes(self):
        log = _log()
        for name in DELIVERY_COLUMNS:
            floats = name in ("arrival_time", "created_at")
            assert getattr(log, name).dtype == (np.float64 if floats else np.int32)

    def test_columns_are_read_only(self):
        with pytest.raises(ValueError):
            _log().arrival_time[0] = 0.0

    def test_value_outside_int32_names_the_column(self):
        with pytest.raises(ValueError, match="'routing_seq'.*int32"):
            _log(routing_seq=[0, 1, 2**31])
        with pytest.raises(ValueError, match="'origin'.*int32"):
            _log(origin=[0, -(2**31) - 1, 2])

    def test_non_integer_column_names_the_column(self):
        with pytest.raises(ValueError, match="'packet_id'"):
            _log(packet_id=[0.5, 1.0, 2.0])

    def test_ragged_columns_name_the_column(self):
        with pytest.raises(ValueError, match="'hop_count'"):
            _log(hop_count=[3, 4])

    def test_empty_log(self):
        log = DeliveryLog()
        assert len(log) == 0
        assert all(len(column) == 0 for column in log.observation_arrays())

    def test_take_selects_rows_in_order(self):
        sub = _log().take([2, 0])
        assert sub.packet_id.tolist() == [1, 0]
        assert sub.arrival_time.tolist() == [9.0, 5.0]
        assert sub.preemptions.dtype == np.int32


class TestPickle:
    def test_round_trip_keeps_values_and_dtypes(self):
        log = SensorNetworkSimulator(_config()).run().delivery
        restored = pickle.loads(pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL))
        _assert_same_columns(restored, log)
        assert restored == log
        with pytest.raises(ValueError):
            restored.created_at[0] = 0.0  # still read-only

    def test_paper_cell_payload_holds_no_packet_objects(self):
        """The cache's ``(elapsed, result)`` payload for one paper cell
        (1/lambda = 2, RCAD, 4 sources x 1000 packets) is columns only."""
        config = SimulationConfig.paper_baseline(interarrival=2, case="rcad", seed=0)
        result = SensorNetworkSimulator(config).run()
        assert len(result.delivery) == 4000
        payload = pickle.dumps((1.0, result), protocol=pickle.HIGHEST_PROTOCOL)
        names = {
            arg for _, arg, _ in pickletools.genops(payload) if isinstance(arg, str)
        }
        assert "repro.sim.results" in names
        assert not names & {"repro.net.packet", "repro.core.metrics"}
        assert len(payload) <= 200_000  # 421 526 B as per-packet objects


class TestViews:
    def test_views_yield_python_scalars(self):
        """``observable_view`` rows hold Python ``float``/``int``, which
        the digest's stable encoding needs to stay unchanged."""
        view = observable_view(SensorNetworkSimulator(_config(n_packets=5)).run())
        for rows in (view["observations"], view["records"]):
            assert rows
            for row in rows:
                assert {type(value) for value in row} <= {float, int}
        observation, record = view["observations"][0], view["records"][0]
        assert type(observation[0]) is float and type(observation[1]) is int
        assert type(record[2]) is float and type(record[0]) is int
        assert observation[0] == record[3]  # one arrival time, both rows


class TestValidation:
    def test_delivery_before_creation_keeps_the_record_message(self):
        with pytest.raises(ValueError) as from_log:
            _log(created_at=[0.0, 1.0, 2.5], arrival_time=[5.0, 6.0, 1.25])
        assert str(from_log.value) == (
            "packet delivered at 1.25 before being created at 2.5"
        )

    def test_first_offending_packet_is_named(self):
        with pytest.raises(ValueError) as excinfo:
            _log(created_at=[0.0, 7.0, 12.5], arrival_time=[5.0, 6.0, 1.25])
        assert str(excinfo.value) == "packet delivered at 6 before being created at 7"


class TestEnginesAgree:
    @pytest.mark.parametrize("case", list(CASE_LABELS))
    @pytest.mark.parametrize("interarrival", [2.0, 10.0])
    def test_fastpath_and_event_engine_logs_match(self, monkeypatch, case, interarrival):
        config = _config(interarrival=interarrival, case=case, n_packets=150)
        fast = SensorNetworkSimulator(config).run().delivery
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        slow = SensorNetworkSimulator(config).run().delivery
        assert len(fast) == 600
        _assert_same_columns(fast, slow)


class TestScoringReadsColumns:
    def test_estimates_and_summary_match_the_scalar_path(self):
        """The columnar scorers equal per-packet Python arithmetic over
        the same rows, bit for bit."""
        result = SensorNetworkSimulator(_config(n_packets=200)).run()
        log = result.delivery
        knowledge = FlowKnowledge(
            transmission_delay=1.0, mean_delay_per_hop=30.0,
            buffer_capacity=10, n_sources=4,
        )
        for adversary in (
            NaiveAdversary(knowledge),
            BaselineAdversary(knowledge),
            AdaptiveAdversary(knowledge),
        ):
            assert adversary.estimate_all(log) == estimate_all_scalar(adversary, log)
        estimates = BaselineAdversary(knowledge).estimate_all(log)
        rows = result.flow_indices(1)
        flow_estimates = [estimates[i] for i in rows]
        flow = log.take(rows)
        created = flow.created_at.tolist()
        errors = [e - c for e, c in zip(flow_estimates, created)]
        preempted = [p for p in flow.preemptions.tolist() if p > 0]
        assert summarize_flow(flow, flow_estimates) == FlowMetrics(
            flow_id=1,
            n_packets=len(rows),
            mse=mse_of_estimator(created, flow_estimates),
            mean_error=float(np.mean(errors)),
            latency=LatencyStats.from_samples(
                [a - c for a, c in zip(flow.arrival_time.tolist(), created)]
            ),
            preemption_fraction=len(preempted) / len(rows),
        )

    def test_mean_latency_is_a_sequential_fold(self):
        result = SensorNetworkSimulator(_config(n_packets=200)).run()
        for flow in (None, 1, 3):
            rows = result.delivery
            if flow is not None:
                rows = rows.take(result.flow_indices(flow))
            latencies = [
                a - c
                for a, c in zip(rows.arrival_time.tolist(), rows.created_at.tolist())
            ]
            assert result.mean_latency(flow) == sum(latencies) / len(latencies)


class TestCacheFormat:
    def test_v2_entry_reads_as_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, salt="code")
        config = _config(n_packets=20)
        old_key = stable_fingerprint((2, cache.salt, config))
        assert old_key != cache.key_for(config)
        old_path = cache._path_for(old_key)
        old_path.parent.mkdir(parents=True)
        v2_shaped = {"observations": [], "records": [], "node_stats": {}}
        old_path.write_bytes(_frame_payload(pickle.dumps((0.5, v2_shaped))))

        assert cache.get(config) is None
        assert cache.stats.misses == 1 and cache.stats.corrupt == 0
        assert old_path.exists()
        cache.put(config, SensorNetworkSimulator(config).run(), elapsed=0.1)
        assert cache.get(config) is not None
