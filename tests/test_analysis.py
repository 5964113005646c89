"""Unit tests for the analysis plumbing."""

import numpy as np
import pytest

from repro.analysis.records import ExperimentSeries, ExperimentTable
from repro.analysis.stats import bootstrap_ci, summarize
from repro.analysis.sweep import replicate, sweep


class TestSummaryStats:
    def test_mean_and_ci_contain_truth(self, rng):
        samples = rng.normal(10.0, 2.0, size=200)
        stats = summarize(samples)
        assert stats.mean == pytest.approx(10.0, abs=0.5)
        assert stats.ci_low < 10.0 < stats.ci_high
        assert stats.n == 200

    def test_single_sample_degenerates(self):
        stats = summarize([5.0])
        assert stats.mean == stats.ci_low == stats.ci_high == 5.0
        assert stats.std == 0.0

    def test_higher_confidence_wider_interval(self, rng):
        samples = rng.normal(0.0, 1.0, size=50)
        narrow = summarize(samples, confidence=0.8)
        wide = summarize(samples, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_validation(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([1.0], confidence=1.5)

    def test_t_quantile_matches_scipy_stats_bit_for_bit(self):
        # summarize() calls scipy.special.stdtrit directly to avoid
        # importing scipy.stats; t.ppf is the oracle it must reproduce.
        from scipy import stats as scipy_stats

        for n in range(2, 201):
            samples = np.arange(n, dtype=float) ** 1.5
            for confidence in (0.5, 0.8, 0.9, 0.95, 0.99):
                got = summarize(samples, confidence=confidence)
                mean = float(samples.mean())
                sem = float(samples.std(ddof=1)) / np.sqrt(n)
                t_crit = float(
                    scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1)
                )
                assert got.ci_low == mean - t_crit * sem
                assert got.ci_high == mean + t_crit * sem


class TestBootstrap:
    def test_ci_contains_mean(self, rng):
        samples = rng.exponential(5.0, size=300)
        low, high = bootstrap_ci(samples, seed=1)
        assert low < samples.mean() < high

    def test_custom_statistic(self, rng):
        samples = rng.normal(0.0, 1.0, size=200)
        low, high = bootstrap_ci(samples, statistic=np.median, seed=2)
        assert low < np.median(samples) < high

    def test_deterministic_given_seed(self, rng):
        samples = rng.normal(0.0, 1.0, size=100)
        assert bootstrap_ci(samples, seed=3) == bootstrap_ci(samples, seed=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=0.0)


class TestSeriesAndTable:
    def test_series_validation(self):
        with pytest.raises(ValueError):
            ExperimentSeries("a", [1, 2], [1.0])
        with pytest.raises(ValueError):
            ExperimentSeries("a", [], [])

    def test_value_at(self):
        series = ExperimentSeries("a", [2.0, 4.0], [10.0, 20.0])
        assert series.value_at(4.0) == 20.0
        with pytest.raises(KeyError):
            series.value_at(3.0)

    def test_as_dict(self):
        series = ExperimentSeries("a", [1.0, 2.0], [5.0, 6.0])
        assert series.as_dict() == {1.0: 5.0, 2.0: 6.0}

    def test_table_consistency_enforced(self):
        table = ExperimentTable("t", "x", "y")
        table.add(ExperimentSeries("a", [1.0, 2.0], [0.0, 0.0]))
        with pytest.raises(ValueError):
            table.add(ExperimentSeries("b", [1.0, 3.0], [0.0, 0.0]))

    def test_table_get(self):
        table = ExperimentTable("t", "x", "y")
        table.add(ExperimentSeries("a", [1.0], [0.5]))
        assert table.get("a").value_at(1.0) == 0.5
        with pytest.raises(KeyError):
            table.get("missing")

    def test_render_contains_all_labels_and_values(self):
        table = ExperimentTable("My Figure", "1/lambda", "MSE")
        table.add(ExperimentSeries("NoDelay", [2.0, 4.0], [0.0, 0.0]))
        table.add(ExperimentSeries("RCAD", [2.0, 4.0], [112000.0, 61000.0]))
        text = table.render()
        assert "My Figure" in text
        assert "NoDelay" in text and "RCAD" in text
        assert "1.12e+05" in text
        assert len(text.splitlines()) == 4  # title + header + 2 rows

    def test_render_empty_rejected(self):
        with pytest.raises(ValueError):
            ExperimentTable("t", "x", "y").render()

    def test_x_values_of_empty_rejected(self):
        with pytest.raises(ValueError):
            _ = ExperimentTable("t", "x", "y").x_values


class TestTableSerialization:
    def _table(self):
        table = ExperimentTable("Fig X", "1/lambda", "MSE")
        table.add(ExperimentSeries("a,b", [2.0, 4.0], [1.5, 2.5]))
        table.add(ExperimentSeries("plain", [2.0, 4.0], [10.0, 20.0]))
        return table

    def test_csv_structure(self):
        text = self._table().to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == '1/lambda,"a,b",plain'
        assert lines[1].split(",")[0] == "2.0"
        assert len(lines) == 3

    def test_csv_quotes_embedded_quotes(self):
        table = ExperimentTable("t", 'x "q"', "y")
        table.add(ExperimentSeries("s", [1.0], [2.0]))
        assert '"x ""q"""' in table.to_csv()

    def test_json_roundtrip(self):
        original = self._table()
        restored = ExperimentTable.from_json(original.to_json())
        assert restored.title == original.title
        assert restored.as_dict() == original.as_dict()
        assert [s.label for s in restored.series] == ["a,b", "plain"]

    def test_empty_table_rejected(self):
        empty = ExperimentTable("t", "x", "y")
        with pytest.raises(ValueError):
            empty.to_csv()
        with pytest.raises(ValueError):
            empty.to_json()


class TestSweepAndReplicate:
    def test_sweep_preserves_order(self):
        assert sweep([3.0, 1.0, 2.0], lambda v: v * 10) == [30.0, 10.0, 20.0]

    def test_sweep_empty_rejected(self):
        with pytest.raises(ValueError):
            sweep([], lambda v: v)

    def test_replicate_uses_distinct_seeds(self):
        seen = []
        replicate(4, lambda seed: (seen.append(seed), float(seed))[1], base_seed=100)
        assert seen == [100, 101, 102, 103]

    def test_replicate_summarizes(self):
        stats = replicate(3, lambda seed: float(seed), base_seed=0)
        assert stats.mean == pytest.approx(1.0)
        assert stats.n == 3

    def test_replicate_validation(self):
        with pytest.raises(ValueError):
            replicate(0, lambda seed: 0.0)
