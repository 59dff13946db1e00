"""The error measures of Section 5 (and Section 9).

All error measures follow the paper's recipe: a monotone measure μ of a
graph, maximized over the error components of the instance.  Implemented
measures:

* ``μ₁`` — number of nodes; ``η₁ = max μ₁(S)``.
* ``μ₂ = 2·min(α, τ)``; ``η₂ = max μ₂(S)`` (MIS; η₂ ≤ η₁ always).
* ``η_bw`` — size of the largest black or white component (Section 5).
* ``η_t`` — rooted trees: the maximum number of nodes on a monochromatic
  parent-pointer path among active nodes (Section 9.2); η_t ≤ η_bw ≤ η₁.
* ``η_H`` — the global Hamming measure the paper argues *against*
  (minimum number of prediction flips to reach a correct solution);
  exact, exponential, for small instances and comparison plots only.
* component diameters — the non-monotone measure of Figure 1, provided so
  experiments can demonstrate why it is unusable.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, List, Mapping

from repro.errors.components import (
    active_mask,
    black_white_components,
    error_components,
    mis_base_partial,
)
from repro.errors.exact import max_independent_set_size
from repro.graphs.graph import DistGraph
from repro.problems.mis import MIS

Predictions = Mapping[int, Any]


# ----------------------------------------------------------------------
# Measures μ on (sub)graphs
# ----------------------------------------------------------------------
def mu1(graph: DistGraph, nodes: Iterable[int] = None) -> int:
    """μ₁: the number of nodes (monotone)."""
    if nodes is None:
        return graph.n
    return len(set(nodes))


def mu2(graph: DistGraph, nodes: Iterable[int] = None, budget: int = 2_000_000) -> int:
    """μ₂ = 2·min(α, τ) (Section 5; monotone, μ₂ ≤ μ₁).

    α is the maximum independent set size and τ = |S| − α the minimum
    vertex cover size of the (sub)graph.
    """
    node_set = set(graph.nodes if nodes is None else nodes)
    alpha = max_independent_set_size(graph, node_set, budget=budget)
    tau = len(node_set) - alpha
    return 2 * min(alpha, tau)


# ----------------------------------------------------------------------
# Error measures η on instances
# ----------------------------------------------------------------------
def mu2_bounds(
    graph: DistGraph, nodes: Iterable[int] = None
) -> "tuple[int, int]":
    """Polynomial-time lower/upper bounds on μ₂ (for large components).

    Exact μ₂ needs exact α (NP-hard in general); for components beyond
    the branch-and-bound's comfort zone these bounds sandwich it using

    * α ≥ |greedy independent set| (min-degree-first greedy), and
    * α ≤ |S| − |maximal matching| (every matching edge forces a
      vertex-cover member, so τ ≥ matching size).

    Returns ``(low, high)`` with ``low ≤ μ₂ ≤ high``.
    """
    node_set = set(graph.nodes if nodes is None else nodes)
    size = len(node_set)
    if size == 0:
        return 0, 0

    # Greedy independent set, smallest current degree first.
    remaining = set(node_set)
    greedy = 0
    while remaining:
        node = min(
            remaining, key=lambda v: (len(graph.neighbors(v) & remaining), v)
        )
        greedy += 1
        remaining.discard(node)
        remaining -= graph.neighbors(node)

    # Greedy maximal matching within the subset.  CSR rows stream
    # neighbors in ascending id order, so the first unmatched hit is the
    # same partner the sorted-intersection scan used to pick — without
    # materializing the intersection.
    csr = graph.csr
    unmatched = set(node_set)
    matching = 0
    for node in sorted(node_set):
        if node not in unmatched:
            continue
        for other in csr.neighbor_ids(node):
            if other in unmatched and other != node:
                matching += 1
                unmatched.discard(node)
                unmatched.discard(other)
                break

    alpha_low, alpha_high = greedy, size - matching

    def mu2_of(alpha: int) -> int:
        return 2 * min(alpha, size - alpha)

    candidates = [mu2_of(alpha_low), mu2_of(alpha_high)]
    low = min(candidates)
    if alpha_low <= size // 2 <= alpha_high:
        high = 2 * (size // 2)
    else:
        high = max(candidates)
    return low, high


def eta1(
    graph: DistGraph, predictions: Predictions, problem_name: str = "mis"
) -> int:
    """η₁ = max μ₁(S) over the error components (0 when predictions are correct).

    For the node problems this counts the component labels of the active
    mask directly; no component is built.
    """
    if problem_name == "edge-coloring":
        components = error_components(problem_name, graph, predictions)
        return max(map(len, components), default=0)
    mask = active_mask(problem_name, graph, predictions)
    return graph.csr.largest_component(mask)


def eta2(
    graph: DistGraph, predictions: Predictions, budget: int = 2_000_000
) -> int:
    """η₂ = max μ₂(S) over the MIS error components."""
    components = error_components("mis", graph, predictions)
    return max(
        (mu2(graph, component, budget=budget) for component in components),
        default=0,
    )


def eta_bw(graph: DistGraph, predictions: Predictions) -> int:
    """η_bw: the number of nodes in the largest black or white component."""
    black, white = black_white_components(graph, predictions)
    return max(
        (len(component) for component in list(black) + list(white)),
        default=0,
    )


def eta_t(graph: DistGraph, predictions: Predictions) -> int:
    """η_t for rooted trees (Section 9.2).

    The maximum number of nodes on a monochromatic path obtained by
    following parent pointers within the subgraph induced by the nodes
    still active after the MIS Base Algorithm — equivalently, 1 plus the
    maximum height of the black and white components.
    """
    outputs = mis_base_partial(graph, predictions)
    active = {node for node in graph.nodes if node not in outputs}

    longest = {node: 0 for node in active}

    def path_length(node: int) -> int:
        if longest[node]:
            return longest[node]
        # Iterative with memo: walk up while the parent is active and has
        # the same prediction.
        chain = []
        current = node
        while True:
            chain.append(current)
            parent = graph.node_attrs(current).get("parent")
            if (
                parent is None
                or parent not in active
                or predictions.get(parent) != predictions.get(current)
            ):
                break
            if longest.get(parent):
                chain.append(parent)
                break
            current = parent
        # The last element of the chain either ends the path or is memoized.
        base = longest.get(chain[-1]) or 1
        longest[chain[-1]] = base
        for index in range(len(chain) - 2, -1, -1):
            longest[chain[index]] = longest[chain[index + 1]] + 1
        return longest[node]

    return max((path_length(node) for node in sorted(active)), default=0)


def eta_hamming(graph: DistGraph, predictions: Predictions) -> int:
    """η_H: minimum prediction flips to reach some maximal independent set.

    This is the global error measure the paper discusses and rejects
    (Section 5): exact computation enumerates all maximal independent
    sets, so call it on small instances only.
    """
    best = None
    for chosen in MIS.all_maximal_independent_sets(graph):
        distance = sum(
            1
            for node in graph.nodes
            if (1 if node in chosen else 0) != (predictions.get(node) or 0)
        )
        if best is None or distance < best:
            best = distance
    return best if best is not None else 0


def component_diameters(
    graph: DistGraph, components: List[FrozenSet[int]]
) -> List[int]:
    """Diameters of induced components — Figure 1's non-monotone measure.

    Provided for the experiments that reproduce the paper's argument that
    the maximum error-component diameter must *not* be used as an error
    measure on general graphs.
    """
    diameters = []
    for component in components:
        subgraph = graph.subgraph(component)
        diameters.append(subgraph.diameter())
    return diameters
