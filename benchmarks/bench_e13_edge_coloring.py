"""E13 — (2Δ−1)-Edge Coloring with predictions (Section 8.3).

Paper claims: the base algorithm is consistent (1 round on correct
predictions, 2 otherwise); the measure-uniform 2-hop-dominance algorithm
finishes a component of ``s ≥ 2`` nodes within ``2s + O(1)`` rounds
(the paper's 2s−3 plus our bootstrap refresh; optimal by Lemma 14).
"""

from repro.algorithms.edge_coloring import GreedyEdgeColoringAlgorithm
from repro.bench import Table, standard_graph_suite
from repro.bench.algorithms import edge_coloring_consecutive, edge_coloring_simple
from repro.core import run
from repro.exec import Sweep
from repro.graphs import connected_erdos_renyi
from repro.predictions import noisy_predictions, perfect_predictions
from repro.problems import EDGE_COLORING


def _sweep(graph, algorithm):
    sweep = Sweep()
    for rate in (0.0, 0.2, 0.5, 1.0):
        for seed in (0, 1):
            sweep.add(
                f"p={rate}/s={seed}",
                graph,
                algorithm,
                predictions=noisy_predictions(EDGE_COLORING, graph, rate, seed=seed),
                problem="edge-coloring",
                seed=0,
            )
    return sweep.run("serial")


def test_e13_measure_uniform_bound(once):
    def experiment():
        table = Table(
            "E13: greedy edge coloring rounds vs 2s+3",
            ["graph", "rounds", "bound", "valid"],
        )
        failures = []
        for graph in standard_graph_suite():
            result = run(GreedyEdgeColoringAlgorithm(), graph)
            biggest = max((len(c) for c in graph.components()), default=1)
            bound = 2 * biggest + 3
            valid = EDGE_COLORING.is_solution(graph, result.outputs)
            table.add_row(graph.name, result.rounds, bound, valid)
            if result.rounds > bound or not valid:
                failures.append(graph.name)
        return table, failures

    table, failures = once(experiment)
    table.print()
    assert not failures


def test_e13_noise_sweep(once):
    def experiment():
        graph = connected_erdos_renyi(36, 0.08, seed=10)
        simple_result = _sweep(graph, edge_coloring_simple)
        consecutive_result = _sweep(graph, edge_coloring_consecutive)
        perfect = perfect_predictions(EDGE_COLORING, graph, seed=1)
        consistency = run(edge_coloring_simple(), graph, perfect).rounds

        table = Table(
            "E13: edge-coloring templates rounds vs eta1 (ER n=36)",
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
    assert consistency <= 1
    assert simple_result.all_valid and consecutive_result.all_valid
    assert all(row.rounds <= 2 * row.error + 3 + 2 for row in simple_result)
    assert all(
        row.rounds <= 2 * (2 * row.error + 3) + 2 + 4
        for row in consecutive_result
    )
