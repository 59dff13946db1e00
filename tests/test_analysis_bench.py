"""Tests for the sweep analysis helpers and the bench harness."""

from repro.algorithms.mis import GreedyMISAlgorithm, MISInitializationAlgorithm
from repro.bench import Table, standard_graph_suite
from repro.core import SimpleTemplate
from repro.exec import CellResult, Sweep, SweepResult
from repro.graphs import erdos_renyi
from repro.predictions import noisy_predictions
from repro.problems import MIS


ALGORITHM = SimpleTemplate(MISInitializationAlgorithm(), GreedyMISAlgorithm())


def _row(index, error, rounds):
    return CellResult(
        index=index,
        label=str(index),
        graph_name="g",
        n=50,
        seed=0,
        rounds=rounds,
        rounds_executed=rounds,
        error=error,
    )


class TestSweep:
    def _result(self):
        graph = erdos_renyi(20, 0.2, seed=1)
        sweep = Sweep()
        for rate in (0.0, 0.3, 0.8):
            sweep.add(
                f"p={rate}",
                graph,
                ALGORITHM,
                predictions=noisy_predictions(MIS, graph, rate, seed=2),
                problem="mis",
                seed=0,
            )
        return sweep.run("serial")

    def test_sweep_runs_and_validates(self):
        result = self._result()
        assert len(result) == 3
        assert result.all_valid

    def test_rounds_by_error_sorted(self):
        series = self._result().rounds_by_error()
        assert series == sorted(series)

    def test_violations_against_bound(self):
        result = self._result()
        assert all(row.rounds <= row.error + 3 for row in result)

    def test_max_rounds(self):
        assert max(row.rounds for row in self._result()) >= 3

    def test_rounds_by_error_groups_by_a_metrics_key(self):
        rows = [_row(0, 4, 5), _row(1, 4, 7), _row(2, 9, 6)]
        for row, eta2 in zip(rows, (2, 8, 8)):
            row.metrics["eta2"] = eta2
        result = SweepResult(rows=rows)
        assert result.rounds_by_error() == [(4, 7), (9, 6)]
        assert result.rounds_by_error("eta2") == [(2, 5), (8, 7)]
        assert result.rounds_by_error("missing") == []


class TestChecks:
    def test_degradation_slope_linear_data(self):
        result = SweepResult(rows=[_row(e, e, 2 * e + 3) for e in range(1, 10)])
        assert abs(result.degradation_slope() - 2.0) < 1e-9

    def test_degradation_slope_empty(self):
        assert SweepResult().degradation_slope() == 0.0


class TestBenchHarness:
    def test_table_rendering(self):
        table = Table("demo", ["a", "bb"])
        table.add_row(1, "xy")
        text = table.render()
        assert "demo" in text and "bb" in text and "xy" in text

    def test_table_row_arity_checked(self):
        import pytest

        table = Table("demo", ["a"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_standard_graph_suite_shapes(self):
        suite = standard_graph_suite()
        assert len(suite) == 10
        assert all(g.n > 0 for g in suite)
