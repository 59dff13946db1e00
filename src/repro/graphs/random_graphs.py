"""Seeded random graph families.

All generators relabel to identifiers ``1..n`` and return
:class:`~repro.graphs.graph.DistGraph` instances; every generator takes an
explicit seed so experiments are reproducible bit-for-bit.  ``G(n, p)``
and random trees are sampled here; the other families wrap networkx,
which is imported only when one of them is called (importing it costs
about 20 MB of resident memory).
"""

from __future__ import annotations

import heapq
import random
from array import array
from typing import Dict, List, Tuple

import numpy as np

from repro.graphs.csr import CSRTopology
from repro.graphs.generators import _NO_EDGES, _numbered
from repro.graphs.graph import DistGraph


def _from_nx_zero_based(nx_graph, name: str) -> DistGraph:
    adjacency: Dict[int, List[int]] = {
        int(node) + 1: [int(other) + 1 for other in nx_graph.neighbors(node)]
        for node in nx_graph.nodes
    }
    return DistGraph(adjacency, name=name)


def _gnp_edges(n: int, p: float, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The edges of a ``G(n, p)`` sample on ids ``1..n``, as index pairs.

    The same sample as networkx's ``gnp_random_graph(n, p, seed)``: one
    ``Random(seed)`` draw per node pair, in ``combinations`` order, keeps
    the pair when it falls below ``p``.
    """
    size = max(n, 0)
    if p <= 0:
        return _NO_EDGES, _NO_EDGES
    if p >= 1:
        return np.triu_indices(size, 1)
    draw = random.Random(seed).random
    kept = np.array(
        [pair for pair in range(size * (size - 1) // 2) if draw() < p],
        dtype=np.int64,
    )
    # Pair ``k`` of ``combinations`` order lies in the row of the last
    # node whose pairs start at or before ``k``.
    lengths = np.arange(size - 1, -1, -1)
    starts = np.cumsum(lengths) - lengths
    lo = np.searchsorted(starts, kept, side="right") - 1
    return lo, kept - starts[lo] + lo + 1


def erdos_renyi(n: int, p: float, seed: int = 0) -> DistGraph:
    """An Erdős–Rényi ``G(n, p)`` graph with ids ``1..n``."""
    lo, hi = _gnp_edges(n, p, seed)
    return _numbered(n, lo, hi, f"gnp-{n}-{p}-s{seed}")


def connected_erdos_renyi(n: int, p: float, seed: int = 0) -> DistGraph:
    """A connected ``G(n, p)`` sample.

    Sampled as ``G(n, p)`` and then patched into one component by linking
    consecutive components with a single random edge each (the standard
    trick for connected benchmark instances; the patch adds at most
    ``#components - 1`` edges).
    """
    lo, hi = _gnp_edges(n, p, seed)
    parts = CSRTopology.from_edges(tuple(range(1, n + 1)), lo, hi).components()
    rng = random.Random(f"{seed}:connect")
    patch = np.array(
        [
            (rng.choice(previous), rng.choice(current))
            for previous, current in zip(parts, parts[1:])
        ],
        dtype=np.int64,
    ).reshape(-1, 2)
    lo = np.concatenate((lo, patch[:, 0]))
    hi = np.concatenate((hi, patch[:, 1]))
    return _numbered(n, lo, hi, f"gnp-conn-{n}-{p}-s{seed}")


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
        return _numbered(1, _NO_EDGES, _NO_EDGES, f"tree-1-s{seed}")
    # Sample a Prüfer sequence directly: uniform over labelled trees and
    # independent of networkx version differences.
    rng = random.Random(f"{seed}:tree")
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for value in sequence:
        degree[value] += 1
    lo = array("q")
    hi = array("q")
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for value in sequence:
        leaf = heapq.heappop(leaves)
        lo.append(leaf)
        hi.append(value)
        degree[value] -= 1
        if degree[value] == 1:
            heapq.heappush(leaves, value)
    # After consuming the sequence exactly two nodes of residual degree 1
    # remain in the heap; join them.
    lo.append(heapq.heappop(leaves))
    hi.append(heapq.heappop(leaves))
    return _numbered(n, lo, hi, f"tree-{n}-s{seed}")
