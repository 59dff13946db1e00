"""Identifier assignment schemes.

The paper's model gives nodes distinct identifiers from ``{1, ..., d}``
with ``d`` in ``n^{O(1)}``.  Identifier choice matters: the greedy
measure-uniform algorithms break symmetry by identifier comparison, so a
path whose ids increase monotonically is their worst case (one termination
per round — the matching upper-bound witness to the Ω(n) line lower bounds
of Lemmas 4, 5, 13 and 14).
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional

import numpy as np

from repro.graphs.csr import CSRTopology
from repro.graphs.graph import DistGraph


def relabel(
    graph: DistGraph, mapping: Mapping[int, int], d: Optional[int] = None
) -> DistGraph:
    """Relabel nodes through a bijective ``old id -> new id`` mapping."""
    if set(mapping) != set(graph.nodes):
        raise ValueError("relabel mapping must cover exactly the graph's nodes")
    if len(set(mapping.values())) != graph.n:
        raise ValueError("relabel mapping must be injective")
    csr = graph.csr
    new_ids = [int(mapping[node]) for node in csr.ids]
    # Old index -> new index: the rank of its new id.
    order = sorted(range(csr.n), key=new_ids.__getitem__)
    rank = np.empty(csr.n, dtype=np.int64)
    rank[np.array(order, dtype=np.int64)] = np.arange(csr.n)
    arrays = csr.arrays
    upward = arrays.higher
    topology = CSRTopology.from_edges(
        tuple(new_ids[index] for index in order),
        rank[arrays.sources[upward]],
        rank[arrays.indices[upward]],
    )
    attrs = {
        mapping[node]: dict(graph.node_attrs(node))
        for node in graph.nodes
        if graph.node_attrs(node)
    }
    # Parent pointers must follow the relabeling.
    for new_attrs in attrs.values():
        if new_attrs.get("parent") is not None:
            new_attrs["parent"] = mapping[new_attrs["parent"]]
    return DistGraph._from_csr(topology, d, attrs, graph.name)


def sequential_ids(graph: DistGraph) -> DistGraph:
    """Relabel to ids ``1..n`` in increasing order of current id."""
    mapping = {node: index + 1 for index, node in enumerate(graph.nodes)}
    return relabel(graph, mapping)


def random_ids_from_domain(graph: DistGraph, d: int, seed: int = 0) -> DistGraph:
    """Assign distinct random ids from ``{1, ..., d}``.

    ``d`` may far exceed ``n`` — this is how experiments probe dependence
    on the identifier-domain size (the log* d terms in the paper's bounds).
    """
    if d < graph.n:
        raise ValueError(f"domain size {d} below node count {graph.n}")
    rng = random.Random(f"{seed}:ids")
    new_ids = rng.sample(range(1, d + 1), graph.n)
    mapping = dict(zip(graph.nodes, new_ids))
    return relabel(graph, mapping, d=d)


def sorted_path_ids(graph: DistGraph, reverse: bool = False) -> DistGraph:
    """Assign ids increasing along a path instance (adversarial for greedy).

    With ids increasing along the path, the Greedy MIS Algorithm admits one
    new MIS node every other round starting from the large end, realizing
    its Θ(n) worst case.  Requires the instance to be a path; ``reverse``
    makes ids decrease instead.
    """
    csr = graph.csr
    degrees = csr.degrees()
    endpoints = [index for index, degree in enumerate(degrees) if degree <= 1]
    if graph.n > 1 and (len(endpoints) != 2 or max(degrees) > 2):
        raise ValueError("sorted_path_ids requires a path instance")
    # Walk the path by index from its smaller endpoint.
    order = []
    if graph.n == 1:
        order = [0]
    elif graph.n > 1:
        current = endpoints[0]
        previous = -1
        while current >= 0:
            order.append(current)
            successors = [other for other in csr.row(current) if other != previous]
            previous = current
            current = successors[0] if successors else -1
    if reverse:
        order.reverse()
    mapping: Dict[int, int] = {
        csr.ids[index]: rank + 1 for rank, index in enumerate(order)
    }
    return relabel(graph, mapping)
