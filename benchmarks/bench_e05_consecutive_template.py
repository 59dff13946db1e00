"""E5 — The Consecutive Template (Lemma 8, Section 7.2).

Paper claims: given R with node-computable bound r(n,Δ,d), the composed
algorithm has consistency c(n) = 3, is 2f(η)-degrading (f = the
measure-uniform bound, here η₁ via Lemma 1), and is robust with respect
to R (rounds ≤ c + 2r + 2c').
"""

from repro.bench import Table
from repro.bench.algorithms import mis_consecutive
from repro.core import run
from repro.exec import Sweep
from repro.graphs import connected_erdos_renyi
from repro.predictions import all_zeros_mis, noisy_predictions, perfect_predictions
from repro.problems import MIS


def _sweep(graph):
    sweep = Sweep()
    for rate in (0.0, 0.1, 0.3, 0.6, 1.0):
        for seed in (0, 1):
            sweep.add(
                f"p={rate}/s={seed}",
                graph,
                mis_consecutive,
                predictions=noisy_predictions(MIS, graph, rate, seed=seed),
                problem="mis",
                seed=0,
            )
    return sweep.run("serial")


def test_e05_consistency_degradation_robustness(once):
    def experiment():
        graph = connected_erdos_renyi(50, 0.06, seed=5)
        algorithm = mis_consecutive()

        consistency = run(
            algorithm, graph, perfect_predictions(MIS, graph, seed=1)
        ).rounds
        result = _sweep(graph)
        adversarial = run(algorithm, graph, all_zeros_mis(graph)).rounds

        table = Table(
            "E5: Consecutive Template (ER n=50) — Lemma 8",
            ["quantity", "measured", "paper bound"],
        )
        table.add_row("consistency rounds", consistency, 3)
        table.add_row(
            "max rounds over sweep",
            max(row.rounds for row in result),
            "2*eta1 + 3 + O(1)",
        )
        table.add_row(
            "adversarial (all-zeros) rounds",
            adversarial,
            f"O(r(n)) = O({graph.n + 1})",
        )
        return table, (graph, consistency, result, adversarial)

    table, (graph, consistency, result, adversarial) = once(experiment)
    table.print()
    assert consistency <= 3
    assert result.all_valid
    # 2f(eta)-degrading with f(mu) = mu1 (Lemma 1) plus constant slack.
    assert all(row.rounds <= 2 * row.error + 3 + 2 for row in result)
    # Robust w.r.t. R: c + 2(r + c') ceiling.
    assert adversarial <= 3 + 2 * (graph.n + 1) + 2 * 1 + 2
