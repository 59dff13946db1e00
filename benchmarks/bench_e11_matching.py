"""E11 — Maximal Matching with predictions (Section 8.1).

Paper claims: the base/initialization algorithms are consistent
(2 rounds); the measure-uniform algorithm finishes a component of
``s ≥ 2`` nodes within ``3⌊s/2⌋`` rounds (+O(1) bootstrap); the
Consecutive composition is 2η₁-degrading and robust.
"""

from repro.algorithms.matching import GreedyMatchingAlgorithm
from repro.bench import Table, standard_graph_suite
from repro.bench.algorithms import matching_consecutive, matching_simple
from repro.core import run
from repro.exec import Sweep
from repro.graphs import connected_erdos_renyi
from repro.predictions import noisy_predictions, perfect_predictions
from repro.problems import MATCHING


def _sweep(graph, algorithm):
    sweep = Sweep()
    for rate in (0.0, 0.1, 0.3, 0.6, 1.0):
        for seed in (0, 1):
            sweep.add(
                f"p={rate}/s={seed}",
                graph,
                algorithm,
                predictions=noisy_predictions(MATCHING, graph, rate, seed=seed),
                problem="matching",
                seed=0,
            )
    return sweep.run("serial")


def test_e11_measure_uniform_bound(once):
    def experiment():
        table = Table(
            "E11: greedy matching rounds vs 3*floor(s/2)+3",
            ["graph", "rounds", "bound", "valid"],
        )
        failures = []
        for graph in standard_graph_suite():
            result = run(GreedyMatchingAlgorithm(), graph)
            biggest = max((len(c) for c in graph.components()), default=1)
            bound = 3 * (biggest // 2) + 3
            valid = MATCHING.is_solution(graph, result.outputs)
            table.add_row(graph.name, result.rounds, bound, valid)
            if result.rounds > bound or not valid:
                failures.append(graph.name)
        return table, failures

    table, failures = once(experiment)
    table.print()
    assert not failures


def test_e11_noise_sweep(once):
    def experiment():
        graph = connected_erdos_renyi(50, 0.06, seed=8)
        simple_result = _sweep(graph, matching_simple)
        consecutive_result = _sweep(graph, matching_consecutive)
        perfect = perfect_predictions(MATCHING, graph, seed=1)
        consistency = run(matching_simple(), graph, perfect).rounds

        table = Table(
            "E11: matching templates rounds vs eta1 (ER n=50)",
            ["eta1", "simple rounds", "consecutive rounds"],
        )
        simple_series = dict(simple_result.rounds_by_error())
        consecutive_series = dict(consecutive_result.rounds_by_error())
        for error in sorted(set(simple_series) | set(consecutive_series)):
            table.add_row(
                error,
                simple_series.get(error, "-"),
                consecutive_series.get(error, "-"),
            )
        return table, (consistency, simple_result, consecutive_result)

    table, (consistency, simple_result, consecutive_result) = once(experiment)
    table.print()
    assert consistency <= 2
    assert simple_result.all_valid and consecutive_result.all_valid
    # Simple: f(eta)-degrading with f(s) = 3*floor(s/2)+3 (measure-uniform bound).
    assert all(
        row.rounds <= 3 * (row.error // 2) + 3 + 2 for row in simple_result
    )
    # Consecutive: 2f(eta)-degrading plus template slack.
    assert all(
        row.rounds <= 2 * (3 * (row.error // 2) + 3) + 2 + 4
        for row in consecutive_result
    )
