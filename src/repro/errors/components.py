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

For the three node problems each base algorithm is one array program
over the topology's array view (``graph.csr.arrays``) that yields a
per-index "decided" array.  Only reading the predictions is per value: a
decode applies the base algorithm's own comparisons (``== 1``, ``== 0``,
``index_of.get``, ``isinstance(…, int)``) to each value once, so every
value decides exactly as it always has.  Both the public
``*_base_partial`` dicts and the error components derive from the
decided array: the components are labelled under the mask of undecided
indices, so no subgraph is built.  Passes index by ``csr.n``/``csr.ids``
(a shard view's ``graph.n`` is its parent's) and take the palette size
from ``graph.delta``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Tuple

import numpy as np

from repro.graphs.csr import CSRTopology
from repro.graphs.graph import DistGraph
from repro.problems.base import Outputs, lookup
from repro.problems.matching import UNMATCHED
from repro.problems.mis import ONE, ZERO, bit_codes

Predictions = Mapping[int, Any]


# ----------------------------------------------------------------------
# One array program per node problem: the base algorithm's decisions
# ----------------------------------------------------------------------
def _mis_pass(
    graph: DistGraph, predictions: Predictions
) -> Tuple[np.ndarray, np.ndarray]:
    """The MIS Base Algorithm: ``(prediction codes, decided codes)``.

    A prediction code is :data:`~repro.problems.mis.ONE` or ``ZERO`` when
    the prediction equals 1 or 0 (else 0); a decided code says whether
    the node outputs 1 (it is in ``I``) or 0 (a neighbor of ``I``), or
    stays active (0).
    """
    csr = graph.csr
    arrays = csr.arrays
    predicted = bit_codes(map(predictions.get, csr.ids))
    # ``I``: predicted 1 with every neighbor predicted 0.  Members of
    # ``I`` and their neighbors are disjoint (the neighbors are predicted
    # 0), so the two writes never collide.
    chosen = (predicted == ONE) & ~arrays.segment_any(
        predicted[arrays.indices] != ZERO
    )
    decided = np.zeros(csr.n, dtype=np.int8)
    decided[arrays.segment_any(chosen[arrays.indices])] = ZERO
    decided[chosen] = ONE
    return predicted, decided


def _matching_pass(
    graph: DistGraph, predictions: Predictions
) -> Tuple[List[Any], np.ndarray]:
    """The Maximal Matching Base Algorithm: ``(predictions by index,
    decided flags)``.

    Each prediction names a partner through ``index_of.get`` (None, ⊥
    and unhashable values name none).  A pair is matched when each names
    the other and they are adjacent; pairs are disjoint, so this is the
    pairwise rule.  Comparing decoded partners agrees with comparing the
    partner's prediction to the node's id for every value that hashes
    like what it equals, as Python requires of hashable values.  A node
    predicted ⊥ is decided when every neighbor is matched: a ⊥ node
    decided by the rule can have no ⊥ neighbor decided by it, so the rule
    reads the matched flags only.
    """
    csr = graph.csr
    arrays = csr.arrays
    values = list(map(predictions.get, csr.ids))
    partner = np.array(lookup(csr.index_of, values, -1), dtype=np.int64)
    named = partner >= 0
    adjacent = arrays.segment_any(partner[arrays.sources] == arrays.indices)
    back = partner[np.where(named, partner, 0)]
    matched = named & adjacent & (back == np.arange(csr.n))
    # Only a value that names no node can be ⊥.
    bottom = np.zeros(csr.n, dtype=bool)
    unnamed = np.flatnonzero(~named)
    bottom[unnamed] = [not (values[index] != UNMATCHED) for index in unnamed.tolist()]
    decided = matched | (
        bottom & ~matched & ~arrays.segment_any(~matched[arrays.indices])
    )
    return values, decided


def _coloring_pass(
    graph: DistGraph, predictions: Predictions
) -> Tuple[List[Any], np.ndarray]:
    """The (Δ+1)-Vertex Coloring Base Algorithm: ``(predictions by
    index, decided flags)``.

    A legal prediction (an ``int`` in ``1..Δ+1``) is kept unless a
    neighbor's prediction equals it.  Each prediction's code is the
    palette color it equals (0 for none), so comparing codes is comparing
    a legal color with the neighbor's value.
    """
    csr = graph.csr
    arrays = csr.arrays
    palette_size = graph.delta + 1
    values = list(map(predictions.get, csr.ids))
    legal = np.array(
        [isinstance(color, int) and 1 <= color <= palette_size for color in values],
        dtype=bool,
    )
    palette = {color: color for color in range(1, palette_size + 1)}
    codes = np.array(lookup(palette, values, 0), dtype=np.int64)
    clashes = arrays.segment_any(codes[arrays.indices] == codes[arrays.sources])
    return values, legal & ~clashes


#: Each node problem's pass; the second item is its decided array.
_PASSES: Dict[str, Callable[[DistGraph, Predictions], Tuple[Any, np.ndarray]]] = {
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
    done = np.flatnonzero(decided)
    return dict(
        zip(
            map(ids.__getitem__, done.tolist()),
            (decided[done] == ONE).astype(np.int64).tolist(),
        )
    )


def _decided_values(
    graph: DistGraph, values: List[Any], decided: np.ndarray
) -> Outputs:
    """``id -> prediction`` for the decided indices, ascending."""
    ids = graph.csr.ids
    return {ids[index]: values[index] for index in np.flatnonzero(decided).tolist()}


def matching_base_partial(graph: DistGraph, predictions: Predictions) -> Outputs:
    """Partial solution of the Maximal Matching Base Algorithm (Section 8.1).

    Mutually predicted pairs output their match; a node predicted ⊥ whose
    neighbors are all matched outputs ⊥.  A prediction that cannot name a
    node (e.g. an unhashable value) names no partner.
    """
    return _decided_values(graph, *_matching_pass(graph, predictions))


def vertex_coloring_base_partial(
    graph: DistGraph, predictions: Predictions
) -> Outputs:
    """Partial solution of the (Δ+1)-Vertex Coloring Base Algorithm.

    A node outputs its predicted color when it is a legal color that
    differs from every neighbor's prediction (Section 8.2).
    """
    return _decided_values(graph, *_coloring_pass(graph, predictions))


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
) -> np.ndarray:
    """Per CSR index of ``graph``, True where a node problem's base
    algorithm leaves the node active (no output)."""
    if problem_name not in _PASSES:
        raise ValueError(f"unknown node problem {problem_name!r}")
    _, decided = _PASSES[problem_name](graph, predictions)
    return decided == 0


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
    active = decided == 0
    black = active & (predicted == ONE)
    white = active & (predicted != ONE)
    return (
        _id_sets(csr, csr.components(black)),
        _id_sets(csr, csr.components(white)),
    )
