"""The robustness harness: fault plans and degradation curves for sweeps.

A degradation grid is an ordinary :class:`repro.exec.Sweep`: each cell
names :func:`random_crash_plan` as its fault spec (message loss,
optionally with crash or crash-recovery faults) and carries
:func:`degradation_metrics`, with its drop rate bound, as its metrics
callable.  The executed rows record how each run *degraded*: rounds
actually executed, survivor coverage (fraction of un-crashed nodes that
decided), solution size and safety-validator verdicts.
:func:`degradation_curve` folds them into one row per drop rate.  The
``repro faults`` CLI command and
``benchmarks/bench_e25_fault_degradation.py`` both run on it.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.faults.plan import CrashFault, FaultPlan, MessageAdversary
from repro.faults.validators import (
    survivor_coverage,
    survivor_nodes,
    survivor_violations,
)
from repro.graphs.graph import DistGraph
from repro.problems.base import GraphProblem


def random_crash_plan(
    graph: DistGraph,
    fraction: float,
    *,
    crash_rounds: Sequence[int] = (1, 2, 3, 4),
    recover_after: Optional[int] = None,
    drop_rate: float = 0.0,
    duplicate_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    seed: int = 0,
) -> FaultPlan:
    """A seeded plan crashing a random fraction of nodes.

    Each selected node crashes at a round drawn from ``crash_rounds`` and,
    when ``recover_after`` is set, rejoins that many rounds later with
    reset state.  A message adversary is attached when any rate is set.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = random.Random(f"{seed}:crash-plan")
    nodes = sorted(graph.nodes)
    count = round(fraction * len(nodes))
    victims = sorted(rng.sample(nodes, count)) if count else []
    crashes = tuple(
        CrashFault(node, rng.choice(list(crash_rounds)), recover_after)
        for node in victims
    )
    adversary = None
    if drop_rate or duplicate_rate or corrupt_rate:
        adversary = MessageAdversary(
            drop_rate=drop_rate,
            duplicate_rate=duplicate_rate,
            corrupt_rate=corrupt_rate,
        )
    return FaultPlan(crashes=crashes, messages=adversary, seed=seed)


def degradation_metrics(
    problem: Optional[GraphProblem],
    graph: DistGraph,
    predictions: Optional[Mapping[int, Any]],
    result: Any,
    drop_rate: Optional[float] = None,
) -> Dict[str, Any]:
    """Per-cell degradation measurements, in sweep-metrics form.

    Top-level so sweep cells can carry it as their ``metrics`` callable
    (see :class:`repro.exec.plan.Cell`), or bind the cell's message-loss
    rate with ``functools.partial(degradation_metrics, drop_rate=rate)``
    so the row records it under ``drop_rate`` for
    :func:`degradation_curve`.  Besides the survivor count, survivor
    coverage and the number of survivor safety violations, a row with
    violations carries the first three messages as
    ``violation_examples``.
    """
    violations = (
        [] if problem is None else survivor_violations(problem, graph, result)
    )
    metrics: Dict[str, Any] = {
        "survivors": len(survivor_nodes(result)),
        "coverage": survivor_coverage(result),
        "violations": len(violations),
    }
    if drop_rate is not None:
        metrics["drop_rate"] = drop_rate
    if violations:
        metrics["violation_examples"] = tuple(violations[:3])
    return metrics


def degradation_curve(rows: Iterable[Any]) -> List[Dict[str, Any]]:
    """Aggregate degradation rows per drop rate: the degradation curve.

    ``rows`` are :class:`~repro.exec.results.CellResult` rows whose
    metrics come from :func:`degradation_metrics` with ``drop_rate``
    bound.  Returns one entry per rate, in the order the rates first
    appear, with seed-averaged executed rounds, coverage and solution
    size, total violations and dropped messages, and the number of
    starved runs.
    """
    by_rate: Dict[float, List[Any]] = {}
    for row in rows:
        by_rate.setdefault(row.metrics["drop_rate"], []).append(row)
    return [
        {
            "drop_rate": rate,
            "runs": len(group),
            "mean_rounds_executed": sum(r.rounds_executed for r in group)
            / len(group),
            "mean_coverage": sum(r.metrics["coverage"] for r in group)
            / len(group),
            "mean_solution_size": sum(r.solution_size for r in group)
            / len(group),
            "violations": sum(r.metrics["violations"] for r in group),
            "stuck_runs": sum(1 for r in group if r.stuck),
            "dropped_messages": sum(r.dropped_messages for r in group),
        }
        for rate, group in by_rate.items()
    ]
