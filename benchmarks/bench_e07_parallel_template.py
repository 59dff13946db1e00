"""E7 — The Parallel Template (Lemma 11 + Corollary 12, Section 7.4).

Paper claims: running the Greedy MIS Algorithm in parallel with the
fault-tolerant coloring gives consistency 3 and round complexity
``min{η₂ + 4, O(Δ + log* d)}`` — i.e. η₂-degradation *without* the
factor 2 of the sequential templates, plus a robustness cap independent
of η.  (Our substituted part-1 bound is O(Δ² + log* d); see DESIGN.md.)
"""

from repro.bench import Table
from repro.bench.algorithms import mis_parallel
from repro.bench.workloads import eta2_metric
from repro.core import run
from repro.exec import Sweep
from repro.graphs import clique, random_regular, star
from repro.predictions import all_ones_mis, all_zeros_mis, noisy_predictions, perfect_predictions
from repro.problems import MIS


def test_e07_eta2_degradation_without_factor_two(once):
    def experiment():
        graph = random_regular(42, 3, seed=6)
        algorithm = mis_parallel()
        consistency = run(
            algorithm, graph, perfect_predictions(MIS, graph, seed=4)
        ).rounds

        sweep = Sweep()
        for rate in (0.05, 0.15, 0.3, 0.6, 1.0):
            for seed in (0, 1, 2):
                sweep.add(
                    f"p={rate}/s={seed}",
                    graph,
                    mis_parallel,
                    predictions=noisy_predictions(MIS, graph, rate, seed=seed),
                    problem="mis",
                    seed=0,
                    metrics=eta2_metric,
                )
        result = sweep.run("serial")
        table = Table(
            "E7: Parallel Template rounds vs eta2 (3-regular n=42)",
            ["eta2", "max rounds", "bound eta2+4+O(1)"],
        )
        for error, rounds in result.rounds_by_error("eta2"):
            table.add_row(error, rounds, error + 5)
        return table, (consistency, result)

    table, (consistency, result) = once(experiment)
    table.print()
    assert consistency <= 3
    assert result.all_valid
    assert all(row.rounds <= row.metrics["eta2"] + 3 + 2 for row in result)


def test_e07_robustness_cap_independent_of_eta(once):
    """With maximally bad predictions, rounds stay under the reference cap
    (which depends on Δ and d only, not on n or η)."""

    def experiment():
        from repro.algorithms.mis import ColoringMISReference

        reference = ColoringMISReference()
        algorithm = mis_parallel()
        table = Table(
            "E7: adversarial predictions vs reference cap",
            ["graph", "predictions", "rounds", "cap c+r1+r2+O(1)"],
        )
        rows = []
        for graph, label, predictions in [
            (random_regular(48, 4, seed=1), "all-zeros", None),
            (random_regular(48, 4, seed=1), "all-ones", None),
        ]:
            predictions = (
                all_zeros_mis(graph) if label == "all-zeros" else all_ones_mis(graph)
            )
            cap = (
                3
                + reference.part1_bound(graph.n, graph.delta, graph.d)
                + 2
                + reference.part2_bound(graph.n, graph.delta, graph.d)
            )
            result = run(algorithm, graph, predictions)
            table.add_row(graph.name, label, result.rounds, cap)
            rows.append((result.rounds, cap))
        return table, rows

    table, rows = once(experiment)
    table.print()
    for rounds, cap in rows:
        assert rounds <= cap


def test_e07_small_eta2_families_beat_the_cap(once):
    """Cliques and stars with all-ones predictions have η₂ = 2: the
    parallel algorithm finishes in O(1) rounds regardless of size."""

    def experiment():
        algorithm = mis_parallel()
        table = Table(
            "E7: eta2 = 2 families (all-ones predictions)",
            ["graph", "n", "rounds"],
        )
        worst = 0
        for graph in (clique(8), clique(16), star(16), star(32)):
            result = run(algorithm, graph, all_ones_mis(graph))
            assert MIS.is_solution(graph, result.outputs)
            table.add_row(graph.name, graph.n, result.rounds)
            worst = max(worst, result.rounds)
        return table, worst

    table, worst = once(experiment)
    table.print()
    assert worst <= 8
