"""Seeded random graph families.

All generators relabel to identifiers ``1..n`` and return
:class:`~repro.graphs.graph.DistGraph` instances; every generator takes an
explicit seed so experiments are reproducible bit-for-bit.  ``G(n, p)``
and random trees are sampled here; the other families wrap networkx,
which is imported only when one of them is called (importing it costs
about 20 MB of resident memory).
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List

from repro.graphs.graph import DistGraph


def _from_nx_zero_based(nx_graph, name: str) -> DistGraph:
    adjacency: Dict[int, List[int]] = {
        int(node) + 1: [int(other) + 1 for other in nx_graph.neighbors(node)]
        for node in nx_graph.nodes
    }
    return DistGraph(adjacency, name=name)


def _gnp_adjacency(n: int, p: float, seed: int) -> Dict[int, List[int]]:
    """The edges of a ``G(n, p)`` sample on ids ``1..n``, each listed at
    its smaller end.

    The same sample as networkx's ``gnp_random_graph(n, p, seed)``: one
    ``Random(seed)`` draw per node pair, in ``combinations`` order, keeps
    the pair when it falls below ``p``.
    """
    adjacency: Dict[int, List[int]] = {node: [] for node in range(1, n + 1)}
    pairs = itertools.combinations(range(1, n + 1), 2)
    if p <= 0:
        pairs = ()
    elif p < 1:
        draw = random.Random(seed).random
        pairs = [pair for pair in pairs if draw() < p]
    for u, v in pairs:
        adjacency[u].append(v)
    return adjacency


def erdos_renyi(n: int, p: float, seed: int = 0) -> DistGraph:
    """An Erdős–Rényi ``G(n, p)`` graph with ids ``1..n``."""
    return DistGraph(_gnp_adjacency(n, p, seed), name=f"gnp-{n}-{p}-s{seed}")


def connected_erdos_renyi(n: int, p: float, seed: int = 0) -> DistGraph:
    """A connected ``G(n, p)`` sample.

    Sampled as ``G(n, p)`` and then patched into one component by linking
    consecutive components with a single random edge each (the standard
    trick for connected benchmark instances; the patch adds at most
    ``#components - 1`` edges).
    """
    adjacency = _gnp_adjacency(n, p, seed)
    csr = DistGraph(adjacency).csr
    rng = random.Random(f"{seed}:connect")
    components = [[csr.ids[index] for index in part] for part in csr.components()]
    for previous, current in zip(components, components[1:]):
        adjacency[rng.choice(previous)].append(rng.choice(current))
    return DistGraph(adjacency, name=f"gnp-conn-{n}-{p}-s{seed}")


def random_regular(n: int, degree: int, seed: int = 0) -> DistGraph:
    """A random ``degree``-regular graph with ids ``1..n``."""
    import networkx as nx

    nx_graph = nx.random_regular_graph(degree, n, seed=seed)
    return _from_nx_zero_based(nx_graph, name=f"reg-{n}-{degree}-s{seed}")


def barabasi_albert(n: int, m: int, seed: int = 0) -> DistGraph:
    """A Barabási–Albert preferential-attachment graph with ids ``1..n``."""
    import networkx as nx

    nx_graph = nx.barabasi_albert_graph(n, m, seed=seed)
    return _from_nx_zero_based(nx_graph, name=f"ba-{n}-{m}-s{seed}")


def random_tree(n: int, seed: int = 0) -> DistGraph:
    """A uniformly random (unrooted) tree with ids ``1..n``."""
    if n == 1:
        return DistGraph({1: []}, name=f"tree-1-s{seed}")
    # Sample a Prüfer sequence directly: uniform over labelled trees and
    # independent of networkx version differences.
    rng = random.Random(f"{seed}:tree")
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for value in sequence:
        degree[value] += 1
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for value in sequence:
        leaf = heapq.heappop(leaves)
        adjacency[leaf + 1].append(value + 1)
        degree[value] -= 1
        if degree[value] == 1:
            heapq.heappush(leaves, value)
    # After consuming the sequence exactly two nodes of residual degree 1
    # remain in the heap; join them.
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    adjacency[u + 1].append(v + 1)
    return DistGraph(adjacency, name=f"tree-{n}-s{seed}")
