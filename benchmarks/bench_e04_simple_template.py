"""E4 — The Simple Template's degradation (Observation 7, Section 7.1).

Paper claims: Simple(MIS Initialization, Greedy MIS) has consistency 3,
round complexity ≤ η₁ + 3 (Lemma 1) and ≤ η₂ + 4 (Lemma 2).  The
degradation curve (rounds vs η) is at most linear with slope 1.
"""

from repro.bench import Table
from repro.bench.algorithms import mis_simple
from repro.bench.workloads import eta2_metric
from repro.exec import Sweep
from repro.graphs import connected_erdos_renyi, grid2d
from repro.predictions import noisy_predictions
from repro.problems import MIS

RATES = (0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0)


def _sweep(graph, **cell):
    """Simple Template cells over noisy predictions, one per (rate,
    prediction seed), every run at seed 0."""
    sweep = Sweep()
    for rate in RATES:
        for seed in (0, 1, 2):
            sweep.add(
                f"p={rate}/s={seed}",
                graph,
                mis_simple,
                predictions=noisy_predictions(MIS, graph, rate, seed=seed),
                problem="mis",
                seed=0,
                **cell,
            )
    return sweep.run("serial")


def test_e04_eta1_degradation(once):
    def experiment():
        graph = connected_erdos_renyi(60, 0.05, seed=3)
        result = _sweep(graph)
        table = Table(
            "E4: Simple Template rounds vs eta1 (ER n=60)",
            ["eta1", "max rounds", "bound eta1+3"],
        )
        for error, rounds in result.rounds_by_error():
            table.add_row(error, rounds, error + 3)
        return table, result

    table, result = once(experiment)
    table.print()
    assert result.all_valid
    assert all(row.rounds <= row.error + 3 for row in result)
    assert result.degradation_slope() <= 1.05


def test_e04_eta2_degradation(once):
    def experiment():
        graph = grid2d(8, 8)
        result = _sweep(graph, metrics=eta2_metric)
        table = Table(
            "E4: Simple Template rounds vs eta2 (grid 8x8)",
            ["eta2", "max rounds", "bound eta2+4"],
        )
        for error, rounds in result.rounds_by_error("eta2"):
            table.add_row(error, rounds, error + 4)
        return table, result

    table, result = once(experiment)
    table.print()
    assert result.all_valid
    assert all(row.rounds <= row.metrics["eta2"] + 4 for row in result)
