"""Error components: what remains after the base algorithm.

Each problem's *base algorithm* (Section 4) is a fixed, simple pruning
algorithm that outputs exactly the predictions that are locally consistent
with a correct solution.  The error components of an instance are the
components of the subgraph induced by the nodes that would still be active
after running it (for edge coloring: the components of the subgraph
induced by the still-uncolored edges).

The functions here are *pure* re-statements of the base algorithms — they
compute the same partial solutions as the message-passing implementations
in :mod:`repro.algorithms` (a property the test suite checks), but without
simulation, so error measures are cheap to evaluate inside sweeps.

For the three node problems each base algorithm is one pass over the CSR
topology (``graph.csr``) that writes a per-index "decided" flag.  Both
the public ``*_base_partial`` dicts and the error components derive from
that flag: the components are :meth:`CSRTopology.components` under the
mask of undecided indices, so no subgraph is built.  Passes index by
``csr.n``/``csr.ids`` (a shard view's ``graph.n`` is its parent's) and
take the palette size from ``graph.delta``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Tuple

from repro.graphs.csr import CSRTopology
from repro.graphs.graph import DistGraph
from repro.problems.base import Outputs
from repro.problems.matching import UNMATCHED

Predictions = Mapping[int, Any]

#: Per-index codes of the MIS pass.  A prediction code says whether the
#: prediction equals 1 or 0 (0 for anything else); a decided code says
#: whether the node outputs 1 (it is in ``I``) or 0 (a neighbor of ``I``),
#: or stays active (0).
_ONE = 1
_ZERO = 2

#: ``bytes.translate`` table turning decided flags into the mask of the
#: nodes still active: 1 where the flag is 0, else 0.
_ACTIVE = bytes([1]) + bytes(255)


# ----------------------------------------------------------------------
# One pass per node problem: the base algorithm's decided flags
# ----------------------------------------------------------------------
def _mis_pass(
    graph: DistGraph, predictions: Predictions
) -> Tuple[bytearray, bytearray]:
    """The MIS Base Algorithm: ``(prediction codes, decided codes)``."""
    csr = graph.csr
    indptr = csr.indptr
    indices = csr.indices
    predicted = bytearray(csr.n)
    for index, value in enumerate(map(predictions.get, csr.ids)):
        if value == 1:
            predicted[index] = _ONE
        elif value == 0:
            predicted[index] = _ZERO
    decided = bytearray(csr.n)
    for index, code in enumerate(predicted):
        if code != _ONE:
            continue
        lo = indptr[index]
        hi = indptr[index + 1]
        for position in range(lo, hi):
            if predicted[indices[position]] != _ZERO:
                break
        else:
            decided[index] = _ONE
            for position in range(lo, hi):
                decided[indices[position]] = _ZERO
    return predicted, decided


def _matching_pass(
    graph: DistGraph, predictions: Predictions
) -> Tuple[List[Any], bytearray]:
    """The Maximal Matching Base Algorithm: ``(predictions by index,
    decided flags)``."""
    csr = graph.csr
    ids = csr.ids
    index_of = csr.index_of
    values = list(map(predictions.get, ids))
    decided = bytearray(csr.n)
    for index, partner in enumerate(values):
        if decided[index]:
            continue  # matched from its partner's side
        try:
            # None, ⊥ and other non-identifiers name no node.
            other = index_of.get(partner)
        except TypeError:  # an unhashable prediction names no partner
            continue
        if (
            other is not None
            and values[other] == ids[index]
            and csr.adjacent(index, other)
        ):
            decided[index] = 1
            decided[other] = 1
    indptr = csr.indptr
    indices = csr.indices
    for index, value in enumerate(values):
        if decided[index] or value != UNMATCHED:
            continue
        for position in range(indptr[index], indptr[index + 1]):
            if not decided[indices[position]]:
                break
        else:
            decided[index] = 1
    return values, decided


def _coloring_pass(
    graph: DistGraph, predictions: Predictions
) -> Tuple[List[Any], bytearray]:
    """The (Δ+1)-Vertex Coloring Base Algorithm: ``(predictions by
    index, decided flags)``."""
    csr = graph.csr
    indptr = csr.indptr
    indices = csr.indices
    palette_size = graph.delta + 1
    values = list(map(predictions.get, csr.ids))
    decided = bytearray(csr.n)
    for index, color in enumerate(values):
        if not isinstance(color, int) or not 1 <= color <= palette_size:
            continue
        for position in range(indptr[index], indptr[index + 1]):
            if values[indices[position]] == color:
                break
        else:
            decided[index] = 1
    return values, decided


#: Each node problem's pass; the second item is its decided flags.
_PASSES: Dict[str, Callable[[DistGraph, Predictions], Tuple[Any, bytearray]]] = {
    "mis": _mis_pass,
    "matching": _matching_pass,
    "vertex-coloring": _coloring_pass,
}


# ----------------------------------------------------------------------
# Base partial solutions (one per problem)
# ----------------------------------------------------------------------
def mis_base_partial(graph: DistGraph, predictions: Predictions) -> Outputs:
    """Partial solution of the MIS Base Algorithm (Section 4).

    The nodes predicted 1 whose neighbors are all predicted 0 form an
    independent set ``I``; ``I`` outputs 1 and the neighbors of ``I``
    output 0.
    """
    ids = graph.csr.ids
    _, decided = _mis_pass(graph, predictions)
    return {
        ids[index]: 1 if code == _ONE else 0
        for index, code in enumerate(decided)
        if code
    }


def matching_base_partial(graph: DistGraph, predictions: Predictions) -> Outputs:
    """Partial solution of the Maximal Matching Base Algorithm (Section 8.1).

    Mutually predicted pairs output their match; a node predicted ⊥ whose
    neighbors are all matched outputs ⊥.  A prediction that cannot name a
    node (e.g. an unhashable value) names no partner.
    """
    ids = graph.csr.ids
    values, decided = _matching_pass(graph, predictions)
    return {ids[index]: values[index] for index, flag in enumerate(decided) if flag}


def vertex_coloring_base_partial(
    graph: DistGraph, predictions: Predictions
) -> Outputs:
    """Partial solution of the (Δ+1)-Vertex Coloring Base Algorithm.

    A node outputs its predicted color when it is a legal color that
    differs from every neighbor's prediction (Section 8.2).
    """
    ids = graph.csr.ids
    values, decided = _coloring_pass(graph, predictions)
    return {ids[index]: values[index] for index, flag in enumerate(decided) if flag}


def edge_coloring_base_partial(
    graph: DistGraph, predictions: Predictions
) -> Outputs:
    """Partial solution of the (2Δ−1)-Edge Coloring Base Algorithm.

    A node proposes its predicted color for an edge when that color is
    legal and not repeated among its own edge predictions; an edge is
    colored when both endpoints propose the same color (Section 8.3).
    Predictions are dicts ``neighbor -> color`` per node.
    """
    palette_size = max(1, 2 * graph.delta - 1)

    def proposals(node: int) -> Dict[int, int]:
        prediction = predictions.get(node) or {}
        if not isinstance(prediction, dict):
            return {}
        counts: Dict[int, int] = {}
        for color in prediction.values():
            if isinstance(color, int):
                counts[color] = counts.get(color, 0) + 1
        return {
            other: color
            for other, color in prediction.items()
            if other in graph.neighbors(node)
            and isinstance(color, int)
            and 1 <= color <= palette_size
            and counts.get(color, 0) == 1
        }

    all_proposals = {node: proposals(node) for node in graph.nodes}
    outputs: Outputs = {node: {} for node in graph.nodes}
    for u, v in graph.edges():
        color_u = all_proposals[u].get(v)
        color_v = all_proposals[v].get(u)
        if color_u is not None and color_u == color_v:
            outputs[u][v] = color_u
            outputs[v][u] = color_u
    return {node: value for node, value in outputs.items() if value}


# ----------------------------------------------------------------------
# Error components
# ----------------------------------------------------------------------
def active_mask(
    problem_name: str, graph: DistGraph, predictions: Predictions
) -> bytearray:
    """Per CSR index of ``graph``, 1 where a node problem's base algorithm
    leaves the node active (no output), else 0."""
    if problem_name not in _PASSES:
        raise ValueError(f"unknown node problem {problem_name!r}")
    _, decided = _PASSES[problem_name](graph, predictions)
    return decided.translate(_ACTIVE)


def _id_sets(
    csr: CSRTopology, parts: Tuple[Tuple[int, ...], ...]
) -> List[FrozenSet[int]]:
    """Index-tuple components as identifier frozensets."""
    ids = csr.ids.__getitem__
    return [frozenset(map(ids, part)) for part in parts]


def error_components(
    problem_name: str, graph: DistGraph, predictions: Predictions
) -> List[FrozenSet[int]]:
    """Error components of an instance (Sections 4 and 8).

    For the node problems these are the components induced by nodes that
    produce no output under the base algorithm, sorted by smallest id.
    For edge coloring they are the components of the subgraph induced by
    the uncolored edges.
    """
    if problem_name == "edge-coloring":
        return [nodes for nodes, _ in edge_error_components(graph, predictions)]
    csr = graph.csr
    mask = active_mask(problem_name, graph, predictions)
    return _id_sets(csr, csr.components(mask))


def edge_error_components(
    graph: DistGraph, predictions: Predictions
) -> List[Tuple[FrozenSet[int], FrozenSet[Tuple[int, int]]]]:
    """Edge-coloring error components with their edge sets.

    Returns ``(node set, edge set)`` per component of the subgraph induced
    by the edges left uncolored by the base algorithm.
    """
    outputs = edge_coloring_base_partial(graph, predictions)

    def colored(u: int, v: int) -> bool:
        return v in (outputs.get(u) or {})

    uncolored = [(u, v) for u, v in graph.edges() if not colored(u, v)]
    adjacency: Dict[int, List[int]] = {}
    for u, v in uncolored:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    edge_graph = DistGraph(adjacency, d=graph.d) if adjacency else None
    if edge_graph is None:
        return []
    result = []
    for nodes in edge_graph.components():
        edges = frozenset(
            (u, v) for u, v in uncolored if u in nodes and v in nodes
        )
        result.append((nodes, edges))
    return result


def black_white_components(
    graph: DistGraph, predictions: Predictions
) -> Tuple[List[FrozenSet[int]], List[FrozenSet[int]]]:
    """Black and white components for MIS (Sections 5 and 9).

    A black (white) component is a component of the subgraph induced by
    the nodes with prediction 1 (0) that are still active after the MIS
    Base Algorithm.
    """
    csr = graph.csr
    predicted, decided = _mis_pass(graph, predictions)
    black = bytearray(csr.n)
    white = bytearray(csr.n)
    for index, code in enumerate(decided):
        if code:
            continue
        if predicted[index] == _ONE:
            black[index] = 1
        else:
            white[index] = 1
    return (
        _id_sets(csr, csr.components(black)),
        _id_sets(csr, csr.components(white)),
    )
