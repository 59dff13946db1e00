"""E6 — The Interleaved Template (Lemma 9 + Corollary 10, Section 7.3).

Paper claims: interleaving the Greedy MIS Algorithm with the phased
clustering reference gives consistency 3, 2η₁- and 2η₂-degradation, and
robustness with respect to the reference.  Additionally the reference's
phases must each retire at least half the remaining nodes (that is where
the log η₁ phase count comes from).
"""

from repro.algorithms.mis import ClusteringMISReference
from repro.bench import Table
from repro.bench.algorithms import mis_interleaved
from repro.bench.workloads import eta2_metric
from repro.core import RunConfig, run
from repro.exec import Sweep
from repro.graphs import random_regular
from repro.predictions import noisy_predictions, perfect_predictions
from repro.problems import MIS
from repro.simulator import SyncEngine


def test_e06_interleaved_degradation(once):
    def experiment():
        graph = random_regular(40, 3, seed=4)
        algorithm = mis_interleaved()
        consistency = run(
            algorithm, graph, perfect_predictions(MIS, graph, seed=2)
        ).rounds

        sweep = Sweep()
        for rate in (0.05, 0.2, 0.5, 1.0):
            for seed in (0, 1):
                sweep.add(
                    f"p={rate}/s={seed}",
                    graph,
                    mis_interleaved,
                    predictions=noisy_predictions(MIS, graph, rate, seed=seed),
                    problem="mis",
                    seed=0,
                    config=RunConfig(max_rounds=50000),
                    metrics=eta2_metric,
                )
        result = sweep.run("serial")
        table = Table(
            "E6: Interleaved Template rounds vs eta2 (3-regular n=40)",
            ["eta2", "max rounds", "bound 2(eta2+1)+3+O(1)"],
        )
        for error, rounds in result.rounds_by_error("eta2"):
            table.add_row(error, rounds, 2 * (error + 1) + 5)
        return table, (consistency, result)

    table, (consistency, result) = once(experiment)
    table.print()
    assert consistency <= 3
    assert result.all_valid
    assert all(
        row.rounds <= 2 * (row.metrics["eta2"] + 1) + 3 + 2 for row in result
    )


def test_e06_clustering_phase_halving(once):
    """Each clustering phase should retire ≥ half the remaining nodes
    (on average over seeds) — the property behind the log eta1 phase count."""

    def experiment():
        reference = ClusteringMISReference()
        table = Table(
            "E6: clustering phase-1 retirement fraction",
            ["graph", "n", "retired after phase 1", "fraction"],
        )
        fractions = []
        for seed in range(5):
            graph = random_regular(36, 3, seed=seed)
            bound = reference.phase_bound(1, graph.n, graph.delta, graph.d)
            engine = SyncEngine(
                graph, lambda v: reference.build_program(), seed=seed
            )
            outputs = engine.run(stop_after=bound).outputs
            fraction = len(outputs) / graph.n
            fractions.append(fraction)
            table.add_row(graph.name, graph.n, len(outputs), f"{fraction:.2f}")
        return table, fractions

    table, fractions = once(experiment)
    table.print()
    assert sum(fractions) / len(fractions) >= 0.5
