"""Safety validation of faulty runs.

After a run under fault injection, the interesting question is not "is
the output a complete solution?" (it usually cannot be — crashed nodes
never output) but "is what the *survivors* produced legal?".  These
checkers answer that:

* :func:`survivor_nodes` — nodes that were never removed, or that
  recovered and stayed;
* :func:`survivor_violations` — safety violations among the survivors'
  partial outputs (independence/domination for MIS, partners for
  matching, partial-solution legality for the other problems);
* :func:`survivor_coverage` — the fraction of survivors that decided,
  the degradation benchmark's quality axis.

Survivors are judged on the whole graph against every recorded output:
a surviving 0-node may be legitimately dominated by a node that output 1
*before* a later fault removed it, and a survivor's partner may have
crashed.  So MIS independence is checked outright, and a matched
survivor's partner must be its neighbor and, if it output, name it back.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.graphs.graph import DistGraph
from repro.problems.base import GraphProblem
from repro.problems.matching import UNMATCHED
from repro.simulator.metrics import RunResult


def survivor_nodes(result: RunResult) -> List[int]:
    """Nodes that ended the run un-crashed (including recovered ones)."""
    return sorted(
        node for node, record in result.records.items() if not record.crashed
    )


def survivor_coverage(result: RunResult) -> float:
    """Fraction of surviving nodes that produced an output.

    1.0 for a clean complete run; degrades as faults prevent survivors
    from deciding within the round budget.  Defined as 1.0 when no node
    survived (there was nobody left to fail).
    """
    survivors = survivor_nodes(result)
    if not survivors:
        return 1.0
    decided = sum(1 for node in survivors if node in result.outputs)
    return decided / len(survivors)


def survivor_violations(
    problem: GraphProblem, graph: DistGraph, result: RunResult
) -> List[str]:
    """Safety violations among the surviving subgraph's partial outputs.

    Undecided survivors are *not* violations (that is a coverage /
    liveness question); only decided outputs can be unsafe.
    """
    survivors = set(survivor_nodes(result))
    outputs = result.outputs
    if problem.name == "mis":
        return _mis_survivor_violations(graph, survivors, outputs)
    if problem.name == "matching":
        return _matching_survivor_violations(graph, survivors, outputs)
    return problem.verify_partial(
        graph, {node: outputs[node] for node in survivors if node in outputs}
    )


def _mis_survivor_violations(
    graph: DistGraph, survivors: set, outputs: Dict[int, Any]
) -> List[str]:
    violations: List[str] = []
    for node in sorted(survivors & set(outputs)):
        if outputs[node] not in (0, 1):
            violations.append(
                f"node {node} output {outputs[node]!r}, expected 0 or 1"
            )
    # Independence is absolute: two adjacent 1s are wrong no matter who
    # crashed afterwards (a node can only output by terminating cleanly).
    ones = {node for node, value in outputs.items() if value == 1}
    for node in sorted(ones):
        for other in sorted(graph.neighbors(node) & ones):
            if other > node:
                violations.append(f"adjacent nodes {node} and {other} both output 1")
    # Domination may come from any decided 1 — including a node removed by
    # a later fault: its output was announced before it vanished.
    for node in sorted(survivors):
        if outputs.get(node) == 0 and not (graph.neighbors(node) & ones):
            violations.append(f"node {node} output 0 without any 1-neighbor")
    return violations


def _matching_survivor_violations(
    graph: DistGraph, survivors: set, outputs: Dict[int, Any]
) -> List[str]:
    violations: List[str] = []
    unmatched = set()
    for node in sorted(survivors & set(outputs)):
        value = outputs[node]
        if value == UNMATCHED:
            unmatched.add(node)
        elif value not in graph.neighbors(node):
            violations.append(f"node {node} matched to non-neighbor {value!r}")
        # A partner that never output is undecided, which coverage counts.
        elif value in outputs and outputs[value] != node:
            violations.append(
                f"match {node}->{value} not reciprocated "
                f"(partner output {outputs[value]!r})"
            )
    # Maximality only among the decided survivors: a neighbor's crash can
    # leave a node nobody to match.
    for node in sorted(unmatched):
        for other in sorted(graph.neighbors(node) & unmatched):
            if other > node:
                violations.append(f"adjacent unmatched nodes {node} and {other}")
    return violations
