"""Bit-identical determinism: parallel sweeps equal serial sweeps.

The non-negotiable property of the runtime layer: because every
simulation derives all randomness from its configuration's seed via
named RNG streams, ``--jobs N`` must produce byte-identical results to
the serial loop -- asserted here with ``==`` on floats, not approx.
"""

from repro.analysis.sweep import sweep
from repro.experiments.common import build_adversary, run_paper_case, score_flow
from repro.runtime import use_runtime

LOADS = (2.0, 10.0, 20.0)


def _series(interarrival: float):
    result = run_paper_case(
        interarrival=interarrival, case="rcad", n_packets=80, seed=5
    )
    metrics = score_flow(result, build_adversary("adaptive", "rcad"), flow_id=1)
    return (
        result.delivery.created_at.tolist(),
        result.delivery.arrival_time.tolist(),
        result.delivery.hop_count.tolist(),
        metrics,
    )


class TestParallelDeterminism:
    def test_simulation_series_bit_identical(self):
        serial = sweep(list(LOADS), _series)
        with use_runtime(jobs=4):
            parallel = sweep(list(LOADS), _series)

        for (s_create, s_arrive, s_hops, s_metrics), (
            p_create, p_arrive, p_hops, p_metrics,
        ) in zip(serial, parallel):
            assert s_create == p_create
            assert s_arrive == p_arrive
            assert s_hops == p_hops

    def test_flow_metrics_bit_identical(self):
        serial = sweep(list(LOADS), _series)
        with use_runtime(jobs=4):
            parallel = sweep(list(LOADS), _series)

        for (_, _, _, s_metrics), (_, _, _, p_metrics) in zip(serial, parallel):
            assert s_metrics.mse == p_metrics.mse
            assert s_metrics.rmse == p_metrics.rmse
            assert s_metrics.n_packets == p_metrics.n_packets
            assert s_metrics.latency.mean == p_metrics.latency.mean
            assert s_metrics.latency.p95 == p_metrics.latency.p95

    def test_figure_drivers_bit_identical(self):
        from repro.experiments.fig2 import figure2
        from repro.experiments.fig3 import figure3

        serial2 = figure2(interarrivals=LOADS, n_packets=60, seed=2)
        serial3 = figure3(interarrivals=LOADS, n_packets=60, seed=2)
        with use_runtime(jobs=4):
            parallel2 = figure2(interarrivals=LOADS, n_packets=60, seed=2)
            parallel3 = figure3(interarrivals=LOADS, n_packets=60, seed=2)

        for s_table, p_table in zip(serial2 + (serial3,), parallel2 + (parallel3,)):
            for s, p in zip(s_table.series, p_table.series):
                assert s.label == p.label
                assert s.x_values == p.x_values
                assert s.y_values == p.y_values

    def test_simulation_count_survives_worker_merge(self):
        with use_runtime(jobs=4) as ctx:
            sweep(list(LOADS), _series)
        assert ctx.stats.simulations == len(LOADS)


class TestFabricDeterminism:
    """The distributed fabric is held to the same bar as --jobs N:
    bit-identical to the serial executor, asserted with ``==``."""

    def test_fabric_bit_identical_to_serial(self):
        from repro.experiments.fig2 import fig2_cell, fig2_cells

        cells = fig2_cells(LOADS, n_packets=60, seed=2)
        serial = [fig2_cell(cell) for cell in cells]
        with use_runtime(jobs=2, listen="127.0.0.1:0") as ctx:
            results = sweep(cells, fig2_cell)
        assert results == serial  # == on floats, not approx
        assert ctx.fabric.endpoint.stats.uploads == len(cells)

    def test_fabric_tables_bit_identical_to_figure2(self):
        from repro.experiments.fig2 import figure2

        serial = figure2(interarrivals=LOADS, n_packets=60, seed=2)
        with use_runtime(jobs=2, listen="127.0.0.1:0"):
            fabric = figure2(interarrivals=LOADS, n_packets=60, seed=2)
        for serial_table, fabric_table in zip(serial, fabric):
            for s, p in zip(serial_table.series, fabric_table.series):
                assert s.label == p.label
                assert s.x_values == p.x_values
                assert s.y_values == p.y_values

    def test_fig3_and_scenarios_bit_identical_to_serial(self):
        """fig3 and scenarios never had a fabric path of their own; under
        --listen their tables, summaries and per-cell telemetry runs
        must equal serial's."""
        import json

        from repro.experiments.fig3 import figure3
        from repro.scenarios import parse_suite, run_suite, summaries_to_dict

        specs = parse_suite({
            "scenarios": [{
                "name": "mini",
                "topology": {"family": "line", "n_nodes": 5},
                "traffic": [{"model": "periodic", "interarrival": 6.0}],
                "defenses": [{"name": "no-delay"}, {"name": "rcad"}],
                "n_packets": 20,
                "seeds": [0, 1],
            }]
        })

        def run(**runtime):
            with use_runtime(telemetry=True, **runtime) as ctx:
                table = figure3(interarrivals=LOADS, n_packets=60, seed=2)
                summaries = summaries_to_dict(run_suite(specs))
            runs = [
                (key, json.dumps(run.snapshot(), sort_keys=True))
                for key, run in ctx.telemetry.runs
                if key != "fabric"
            ]
            series = [(s.label, s.x_values, s.y_values) for s in table.series]
            return series, summaries, runs

        serial = run()
        fabric = run(jobs=2, listen="127.0.0.1:0")
        assert fabric[0] == serial[0]
        assert fabric[1] == serial[1]
        assert len(fabric[2]) == len(serial[2]) > 0
        assert fabric[2] == serial[2]
