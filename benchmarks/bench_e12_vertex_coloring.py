"""E12 — (Δ+1)-Vertex Coloring with predictions (Section 8.2).

Paper claims: the base/initialization algorithms are consistent
(2 rounds); the measure-uniform palette algorithm finishes a component of
``s`` nodes within ``s`` rounds (optimal by Lemma 4); the Consecutive and
Parallel compositions stay within their template bounds with the
Linial-style reference (O(Δ² + log* d), substituted — see DESIGN.md).
"""

from repro.algorithms.coloring import (
    PaletteGreedyColoringAlgorithm,
    linial_round_bound,
)
from repro.bench import Table, standard_graph_suite
from repro.bench.algorithms import (
    coloring_consecutive,
    coloring_parallel,
    coloring_simple,
)
from repro.core import run
from repro.exec import Sweep
from repro.graphs import connected_erdos_renyi
from repro.predictions import noisy_predictions, perfect_predictions
from repro.problems import VERTEX_COLORING


def _sweep(graph, algorithm):
    sweep = Sweep()
    for rate in (0.0, 0.2, 0.5, 1.0):
        for seed in (0, 1):
            sweep.add(
                f"p={rate}/s={seed}",
                graph,
                algorithm,
                predictions=noisy_predictions(
                    VERTEX_COLORING, graph, rate, seed=seed
                ),
                problem="vertex-coloring",
                seed=0,
            )
    return sweep.run("serial")


def test_e12_measure_uniform_bound(once):
    def experiment():
        table = Table(
            "E12: palette greedy coloring rounds vs component size",
            ["graph", "rounds", "bound max|S|", "valid"],
        )
        failures = []
        for graph in standard_graph_suite():
            result = run(PaletteGreedyColoringAlgorithm(), graph)
            bound = max((len(c) for c in graph.components()), default=1)
            valid = VERTEX_COLORING.is_solution(graph, result.outputs)
            table.add_row(graph.name, result.rounds, bound, valid)
            if result.rounds > bound or not valid:
                failures.append(graph.name)
        return table, failures

    table, failures = once(experiment)
    table.print()
    assert not failures


def test_e12_templates_sweep(once):
    def experiment():
        graph = connected_erdos_renyi(40, 0.08, seed=9)
        algorithms = {
            "simple": coloring_simple,
            "consecutive": coloring_consecutive,
            "parallel": coloring_parallel,
        }
        results = {
            name: _sweep(graph, algorithm)
            for name, algorithm in algorithms.items()
        }
        consistency = {
            name: run(
                algorithm(),
                graph,
                perfect_predictions(VERTEX_COLORING, graph, seed=2),
            ).rounds
            for name, algorithm in algorithms.items()
        }
        cap = linial_round_bound(graph.d, graph.delta)

        table = Table(
            "E12: coloring templates (ER n=40) — max rounds per eta1",
            ["eta1", "simple", "consecutive", "parallel"],
        )
        all_errors = sorted(
            {e for r in results.values() for e, _ in r.rounds_by_error()}
        )
        series = {
            name: dict(result.rounds_by_error())
            for name, result in results.items()
        }
        for error in all_errors:
            table.add_row(
                error,
                series["simple"].get(error, "-"),
                series["consecutive"].get(error, "-"),
                series["parallel"].get(error, "-"),
            )
        return table, (results, consistency, cap)

    table, (results, consistency, cap) = once(experiment)
    table.print()
    assert all(rounds <= 2 for rounds in consistency.values()), consistency
    for name, result in results.items():
        assert result.all_valid, name
    # Simple: eta1-degrading (f(s) = s for the palette greedy).
    assert all(row.rounds <= row.error + 2 for row in results["simple"])
    # Parallel: eta1-degrading with small additive slack.
    assert all(row.rounds <= row.error + 2 + 3 for row in results["parallel"])
    # All bounded by the robustness cap.
    assert all(
        row.rounds <= 2 + 2 * (cap + 1) + 2 for row in results["consecutive"]
    )
