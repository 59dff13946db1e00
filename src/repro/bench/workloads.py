"""Workload builders shared by the benchmark modules.

Besides the standard graph suite, this module hosts the top-level
*spec factories* the sweep executor needs: graph and prediction builders
that are importable by name (the pickling rule for :mod:`repro.exec`
specs) and take the graph as their first argument (the
:class:`~repro.exec.plan.PredictionSpec` calling convention — the
paper's own generators take the problem first, so thin wrappers adapt
them), and the per-cell ``metrics`` callables sweep rows carry.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.graphs import (
    DistGraph,
    caterpillar,
    clique,
    connected_erdos_renyi,
    erdos_renyi,
    grid2d,
    line,
    random_regular,
    random_tree,
    ring,
    sorted_path_ids,
    star,
)
from repro.errors import eta2
from repro.graphs.churn import perturb_edges, perturb_nodes
from repro.predictions import (
    noisy_predictions,
    perfect_predictions,
    stale_predictions,
)
from repro.problems import MIS, get_problem


# ----------------------------------------------------------------------
# Spec factories (top-level so sweep specs can name and pickle them)
# ----------------------------------------------------------------------
def sorted_line(n: int) -> DistGraph:
    """The line with sorted identifiers — Greedy's Θ(n) worst case."""
    return sorted_path_ids(line(n))


def noisy_for(graph: DistGraph, problem: str, rate: float, seed: int = 0):
    """Graph-first wrapper around :func:`noisy_predictions`."""
    return noisy_predictions(get_problem(problem), graph, rate, seed=seed)


def churned_gnp(
    n: int,
    p: float,
    seed: int = 0,
    add: int = 0,
    remove: int = 0,
    node_add: int = 0,
    node_remove: int = 0,
    churn_seed: int = 0,
) -> DistGraph:
    """A G(n, p) instance after one round of edge (and optional node)
    churn — the "related network" a dynamic sweep cell solves.

    All randomness is string-key seeded (graph seed, churn seed), so the
    cell builds bit-identically on every backend and process.
    """
    graph = erdos_renyi(n, p, seed=seed)
    graph = perturb_edges(graph, add=add, remove=remove, seed=churn_seed)
    if node_add or node_remove:
        graph = perturb_nodes(
            graph, remove=node_remove, add=node_add, seed=churn_seed
        )
    return graph


def stale_for(graph: DistGraph, problem: str, n: int, p: float, seed: int = 0):
    """Stale predictions for a :func:`churned_gnp` cell: solve the
    *pre-churn* G(n, p) instance (same ``n``/``p``/``seed``) and carry
    the solution onto the churned graph."""
    old = erdos_renyi(n, p, seed=seed)
    return stale_predictions(get_problem(problem), old, graph)


def perfect_mis(graph: DistGraph, seed: Optional[int] = None):
    """Perfect MIS predictions (η₁ = 0)."""
    return perfect_predictions(MIS, graph, seed=seed)


def corrupted_segment_mis(graph: DistGraph, segment: int, seed: int = 1):
    """Perfect MIS predictions with the first ``segment`` identifiers
    zeroed out — the growing corrupted prefix of E18/E20."""
    predictions = dict(perfect_predictions(MIS, graph, seed=seed))
    for node in range(1, segment + 1):
        predictions[node] = 0
    return predictions


def eta2_metric(
    problem: Any,
    graph: DistGraph,
    predictions: Mapping[int, Any],
    result: Any,
) -> Dict[str, int]:
    """Sweep ``metrics`` callable recording the MIS error η₂ (Lemma 2's
    measure) under ``"eta2"``, beside the row's η₁ ``error`` column."""
    return {"eta2": eta2(graph, predictions)}


def standard_graph_suite(scale: int = 1) -> List[DistGraph]:
    """The graph families exercised by most experiments.

    ``scale`` multiplies the base sizes (benchmarks use scale 1; stress
    tests can go larger).
    """
    base = 24 * scale
    return [
        line(base),
        ring(base),
        star(base),
        clique(12 * scale),
        grid2d(4 * scale, 6 * scale),
        caterpillar(8 * scale, 2),
        random_tree(base, seed=7),
        erdos_renyi(base, 0.15, seed=7),
        connected_erdos_renyi(base, 0.1, seed=8),
        random_regular(base, 3, seed=9),
    ]
