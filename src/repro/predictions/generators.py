"""Synthetic prediction generators (perfect, noisy, adversarial)."""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from repro.graphs.graph import DistGraph
from repro.problems.base import GraphProblem, Outputs
from repro.problems.matching import UNMATCHED


def perfect_predictions(
    problem: GraphProblem, graph: DistGraph, seed: Optional[int] = None
) -> Outputs:
    """A correct solution used verbatim as the prediction (η = 0).

    With a ``seed``, the sequential solver processes nodes in a random
    order, sampling different correct solutions; without one it uses
    increasing identifiers.
    """
    if seed is None:
        return problem.solve_sequential(graph)
    rng = random.Random(f"{seed}:perfect")
    order = list(graph.nodes)
    rng.shuffle(order)
    return problem.solve_sequential(graph, order=order)


def noisy_predictions(
    problem: GraphProblem,
    graph: DistGraph,
    rate: float,
    seed: int = 0,
    base: Optional[Outputs] = None,
) -> Outputs:
    """Corrupt a correct solution independently per node at ``rate``.

    The corruption model per problem:

    * MIS — flip the bit;
    * Maximal Matching — replace the partner with a uniformly random
      neighbor (or ⊥ for an isolated node);
    * (Δ+1)-Vertex Coloring — replace with a uniformly random color;
    * (2Δ−1)-Edge Coloring — independently per edge side, replace with a
      uniformly random color.

    ``rate = 0`` returns the solution unchanged; ``rate = 1`` corrupts
    every entry.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"noise rate must be in [0, 1], got {rate}")
    rng = random.Random(f"{seed}:noise")
    solution = dict(base) if base is not None else perfect_predictions(problem, graph)
    csr = graph.csr
    ids = csr.ids
    indptr = csr.indptr
    indices = csr.indices
    delta = graph.delta
    name = problem.name

    corrupted: Dict[int, Any] = {}
    for index, node in enumerate(ids):
        value = solution[node]
        if name == "edge-coloring":
            entry = dict(value or {})
            palette_size = max(1, 2 * delta - 1)
            for other in list(entry):
                if rng.random() < rate:
                    entry[other] = rng.randint(1, palette_size)
            corrupted[node] = entry
            continue
        if rng.random() >= rate:
            corrupted[node] = value
            continue
        if name == "mis":
            corrupted[node] = 1 - value
        elif name == "matching":
            # The CSR row ascends, as sorted neighbor ids do.
            row = indices[indptr[index] : indptr[index + 1]]
            choices = [UNMATCHED, *map(ids.__getitem__, row)]
            choices = [choice for choice in choices if choice != value]
            corrupted[node] = rng.choice(choices) if choices else value
        elif name == "vertex-coloring":
            corrupted[node] = rng.randint(1, delta + 1)
        else:
            raise ValueError(f"no noise model for problem {name!r}")
    return corrupted


def all_ones_mis(graph: DistGraph) -> Outputs:
    """Adversarial MIS predictions: every node claims membership.

    On any graph with edges the base algorithm outputs nothing, so the
    whole graph is one big error component per connected component
    (η₁ maximal), while η₂ = 2·min(α, τ) can be far smaller (Section 5).
    """
    return {node: 1 for node in graph.nodes}


def all_zeros_mis(graph: DistGraph) -> Outputs:
    """Adversarial MIS predictions: every node claims non-membership."""
    return {node: 0 for node in graph.nodes}


def grid_blackwhite_predictions(graph: DistGraph) -> Outputs:
    """The Figure 2 grid pattern.

    Nodes with coordinates ``(i, j)`` where ``i, j mod 4 ∈ {0, 1}`` or
    ``i, j mod 4 ∈ {2, 3}`` are black (prediction 1); the rest are white.
    For this instance η₁ = n while η_bw = 4.  Requires a grid instance
    (``pos`` node attributes from :func:`repro.graphs.generators.grid2d`).
    """
    predictions: Outputs = {}
    for node in graph.nodes:
        pos = graph.node_attrs(node).get("pos")
        if pos is None:
            raise ValueError("grid_blackwhite_predictions needs grid 'pos' attrs")
        i, j = pos
        black = (i % 4 in (0, 1) and j % 4 in (0, 1)) or (
            i % 4 in (2, 3) and j % 4 in (2, 3)
        )
        predictions[node] = 1 if black else 0
    return predictions


def directed_line_pattern(graph: DistGraph) -> Outputs:
    """The Section 9.2 directed-line pattern.

    White (prediction 0) at depth ≡ 0 (mod 3) from the root, black
    (prediction 1) elsewhere: the MIS Base Algorithm outputs nothing
    (η₁ = n) but the rooted-tree initialization finishes by round 2 and
    η_t = 2.  Works on any rooted forest (depth = parent-pointer depth).
    """
    depth: Dict[int, int] = {}

    def node_depth(node: int) -> int:
        if node in depth:
            return depth[node]
        chain = []
        current = node
        while current not in depth:
            chain.append(current)
            parent = graph.node_attrs(current).get("parent")
            if parent is None:
                depth[current] = 0
                break
            current = parent
        for item in reversed(chain):
            parent = graph.node_attrs(item).get("parent")
            if item not in depth:
                depth[item] = depth[parent] + 1
        return depth[node]

    return {
        node: (0 if node_depth(node) % 3 == 0 else 1) for node in graph.nodes
    }
