"""Set-based validators and error measures, kept verbatim as a test oracle.

These are the node-problem checks and η₁ machinery as they stood before
they were rewritten as per-index passes over ``graph.csr``: the
``verify_partial`` / ``_check_consistency`` bodies of MIS, (Δ+1)-coloring
and matching, the three node base partials, ``error_components``,
``black_white_components`` and ``eta1``.  The validators are overridden
on subclasses of the live problems, so ``verify_solution`` and
``is_solution`` run them through the live wrappers.  The differential
test in ``tests/test_measures_differential.py`` runs both on identical
instances and asserts equal messages (text and order), base partials,
components and η₁, or the same exception type.

Do not fix bugs here: a divergence from the live code is either a
regression or a deliberate, documented change that must update this
oracle in the same commit.  It plays the role for the measures that
``tests/reference_engine.py`` plays for the engine.
"""

from __future__ import annotations

from typing import Any, FrozenSet, List, Mapping, Tuple

from repro.errors.components import (
    edge_coloring_base_partial,
    edge_error_components,
)
from repro.graphs.graph import DistGraph
from repro.problems.base import Outputs
from repro.problems.matching import UNMATCHED, MaximalMatchingProblem
from repro.problems.mis import MaximalIndependentSetProblem
from repro.problems.vertex_coloring import VertexColoringProblem

Predictions = Mapping[int, Any]


# ----------------------------------------------------------------------
# Validators
# ----------------------------------------------------------------------
class ReferenceMIS(MaximalIndependentSetProblem):
    def verify_partial(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        """MIS conditions on the subgraph induced by the decided nodes.

        The adjacency scans walk the CSR rows directly (ascending-id
        streams), so both checks run over flat index arrays instead of
        per-node set objects and report violations in deterministic order.
        """
        problems: List[str] = []
        for node, value in outputs.items():
            if value not in (0, 1):
                problems.append(f"node {node} output {value!r}, expected 0 or 1")
        chosen = {node for node, value in outputs.items() if value == 1}
        csr = graph.csr
        for node in sorted(chosen):
            for other in csr.neighbor_ids(node):
                if other > node and other in chosen:
                    problems.append(f"adjacent nodes {node} and {other} both output 1")
        for node, value in outputs.items():
            if value == 0 and not any(
                other in chosen for other in csr.neighbor_ids(node)
            ):
                problems.append(f"node {node} output 0 without a decided 1-neighbor")
        return problems


class ReferenceVertexColoring(VertexColoringProblem):
    def verify_partial(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        problems: List[str] = []
        palette_size = self.num_colors(graph)
        for node, color in sorted(outputs.items()):
            if not isinstance(color, int) or not 1 <= color <= palette_size:
                problems.append(
                    f"node {node} output {color!r}, expected a color in "
                    f"1..{palette_size}"
                )
        for node, color in sorted(outputs.items()):
            for other in graph.neighbors(node):
                if other > node and outputs.get(other) == color:
                    problems.append(
                        f"adjacent nodes {node} and {other} share color {color}"
                    )
        return problems


class ReferenceMatching(MaximalMatchingProblem):
    def _check_consistency(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        problems: List[str] = []
        for node, value in sorted(outputs.items()):
            if value == UNMATCHED:
                continue
            if value not in graph.neighbors(node):
                problems.append(f"node {node} matched to non-neighbor {value!r}")
                continue
            partner_value = outputs.get(value)
            if partner_value != node:
                problems.append(
                    f"match {node}->{value} not reciprocated "
                    f"(partner output {partner_value!r})"
                )
        for node, value in sorted(outputs.items()):
            if value != UNMATCHED:
                continue
            for other in graph.neighbors(node):
                if other in outputs and outputs[other] == UNMATCHED and other > node:
                    problems.append(f"adjacent unmatched nodes {node} and {other}")
        return problems


#: One oracle instance per node problem, keyed like ``get_problem``.
REFERENCE_PROBLEMS = {
    "mis": ReferenceMIS(),
    "matching": ReferenceMatching(),
    "vertex-coloring": ReferenceVertexColoring(),
}


# ----------------------------------------------------------------------
# Base partial solutions
# ----------------------------------------------------------------------
def mis_base_partial(graph: DistGraph, predictions: Predictions) -> Outputs:
    """Partial solution of the MIS Base Algorithm (Section 4).

    The nodes predicted 1 whose neighbors are all predicted 0 form an
    independent set ``I``; ``I`` outputs 1 and the neighbors of ``I``
    output 0.
    """
    independent = {
        node
        for node in graph.nodes
        if predictions.get(node) == 1
        and all(predictions.get(other) == 0 for other in graph.neighbors(node))
    }
    outputs: Outputs = {node: 1 for node in independent}
    for node in independent:
        for other in graph.neighbors(node):
            outputs[other] = 0
    return outputs


def matching_base_partial(graph: DistGraph, predictions: Predictions) -> Outputs:
    """Partial solution of the Maximal Matching Base Algorithm (Section 8.1).

    Mutually predicted pairs output their match; a node predicted ⊥ whose
    neighbors are all matched outputs ⊥.
    """
    outputs: Outputs = {}
    for node in graph.nodes:
        partner = predictions.get(node)
        if (
            partner is not None
            and partner != UNMATCHED
            and partner in graph.neighbors(node)
            and predictions.get(partner) == node
        ):
            outputs[node] = partner
    for node in graph.nodes:
        if node in outputs:
            continue
        if predictions.get(node) == UNMATCHED and all(
            other in outputs for other in graph.neighbors(node)
        ):
            outputs[node] = UNMATCHED
    return outputs


def vertex_coloring_base_partial(
    graph: DistGraph, predictions: Predictions
) -> Outputs:
    """Partial solution of the (Δ+1)-Vertex Coloring Base Algorithm.

    A node outputs its predicted color when it is a legal color that
    differs from every neighbor's prediction (Section 8.2).
    """
    palette_size = graph.delta + 1
    outputs: Outputs = {}
    for node in graph.nodes:
        color = predictions.get(node)
        if not isinstance(color, int) or not 1 <= color <= palette_size:
            continue
        if all(predictions.get(other) != color for other in graph.neighbors(node)):
            outputs[node] = color
    return outputs


_BASE_PARTIALS = {
    "mis": mis_base_partial,
    "matching": matching_base_partial,
    "vertex-coloring": vertex_coloring_base_partial,
    "edge-coloring": edge_coloring_base_partial,
}


# ----------------------------------------------------------------------
# Error components and η₁
# ----------------------------------------------------------------------
def error_components(
    problem_name: str, graph: DistGraph, predictions: Predictions
) -> List[FrozenSet[int]]:
    """Error components of an instance (Sections 4 and 8).

    For the node problems these are the components induced by nodes that
    produce no output under the base algorithm.  For edge coloring they
    are the components of the subgraph induced by the uncolored edges.
    """
    if problem_name not in _BASE_PARTIALS:
        raise ValueError(f"unknown problem {problem_name!r}")
    if problem_name == "edge-coloring":
        return [nodes for nodes, _ in edge_error_components(graph, predictions)]
    outputs = _BASE_PARTIALS[problem_name](graph, predictions)
    active = [node for node in graph.nodes if node not in outputs]
    return graph.subgraph(active).components()


def black_white_components(
    graph: DistGraph, predictions: Predictions
) -> Tuple[List[FrozenSet[int]], List[FrozenSet[int]]]:
    """Black and white components for MIS (Sections 5 and 9).

    A black (white) component is a component of the subgraph induced by
    the nodes with prediction 1 (0) that are still active after the MIS
    Base Algorithm.
    """
    outputs = mis_base_partial(graph, predictions)
    active = [node for node in graph.nodes if node not in outputs]
    black = [node for node in active if predictions.get(node) == 1]
    white = [node for node in active if predictions.get(node) != 1]
    return graph.subgraph(black).components(), graph.subgraph(white).components()


def eta1(
    graph: DistGraph, predictions: Predictions, problem_name: str = "mis"
) -> int:
    """η₁ = max μ₁(S) over the error components (0 when predictions are correct)."""
    components = error_components(problem_name, graph, predictions)
    return max((len(component) for component in components), default=0)
