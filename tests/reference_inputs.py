"""Input builders as they were before rows were built by array sort, kept
verbatim as a differential test oracle.

These are the graph and prediction builders as they stood when every
graph went through a dict of neighbor sets and every sequential solver
read ``graph.neighbors`` frozensets: the ``DistGraph`` constructor with
``CSRTopology.from_adjacency`` (one ``sorted`` per row),
``DistGraph.subgraph``, the generators of ``repro.graphs.generators``
and ``repro.graphs.random_graphs`` (the networkx wrappers aside),
``relabel`` and ``sorted_path_ids``, the ``solve_sequential`` methods of
MIS, maximal matching and (Δ+1)-coloring, and ``perfect_predictions`` /
``noisy_predictions``.  The graph class is renamed
``ReferenceDistGraph`` and the solvers are overridden on subclasses of
the live problems; nothing else changed.  The differential test in
``tests/test_inputs_differential.py`` builds every input both ways and
asserts identical graphs (ids, rows, ``d``, name, attrs) and identical
prediction dicts, iteration order included.

Do not fix bugs here: a divergence from the live code is either a
regression or a deliberate, documented change that must update this
oracle in the same commit.  It plays the role for the inputs that
``tests/reference_engine.py`` plays for the engine.
"""

from __future__ import annotations

import heapq
import itertools
import random
from array import array
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.graphs.csr import CSRTopology
from repro.graphs.graph import DistGraph
from repro.problems.base import GraphProblem, Outputs
from repro.problems.matching import UNMATCHED, MaximalMatchingProblem
from repro.problems.mis import MaximalIndependentSetProblem
from repro.problems.vertex_coloring import VertexColoringProblem


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------
def reference_from_adjacency(adjacency: Mapping[int, Any]) -> CSRTopology:
    """``CSRTopology.from_adjacency``: one ``sorted`` per row."""
    ids = tuple(sorted(adjacency))
    index_of = {node: index for index, node in enumerate(ids)}
    indptr = array("q", bytes(8 * (len(ids) + 1)))
    indices = array("q")
    position = 0
    for index, node in enumerate(ids):
        row = sorted(index_of[other] for other in adjacency[node])
        indices.extend(row)
        position += len(row)
        indptr[index + 1] = position
    topology = CSRTopology(ids, indptr, indices)
    topology._index_of = index_of
    return topology


class ReferenceDistGraph(DistGraph):
    """``DistGraph`` with its dict-of-sets constructor and subgraph."""

    def __init__(
        self,
        adjacency: Mapping[int, Iterable[int]],
        d: Optional[int] = None,
        attrs: Optional[Mapping[int, Mapping[str, Any]]] = None,
        name: str = "",
    ) -> None:
        neighbor_sets: Dict[int, set] = {int(v): set() for v in adjacency}
        for node, neighbors in adjacency.items():
            node = int(node)
            for other in neighbors:
                other = int(other)
                if other == node:
                    raise ValueError(f"self-loop at node {node}")
                if other not in neighbor_sets:
                    raise ValueError(
                        f"edge ({node}, {other}) references unknown node {other}"
                    )
                neighbor_sets[node].add(other)
                neighbor_sets[other].add(node)

        self._init_from_csr(
            reference_from_adjacency(neighbor_sets), d, attrs, name
        )

    def subgraph(self, nodes: Iterable[int], name: str = "") -> "DistGraph":
        keep = set(nodes)
        index_of = self._csr.index_of
        unknown = keep - index_of.keys()
        if unknown:
            raise ValueError(f"unknown nodes in subgraph request: {sorted(unknown)}")
        csr = self._csr
        ids = csr.ids
        adjacency = {
            node: [
                ids[other]
                for other in csr.row(index_of[node])
                if ids[other] in keep
            ]
            for node in keep
        }
        attrs = {node: self._attrs[node] for node in keep if node in self._attrs}
        return ReferenceDistGraph(
            adjacency, d=self.d, attrs=attrs, name=name or self.name
        )


# ----------------------------------------------------------------------
# Deterministic generators (repro.graphs.generators)
# ----------------------------------------------------------------------
def empty_graph(n: int, name: str = "") -> DistGraph:
    return ReferenceDistGraph(
        {v: [] for v in range(1, n + 1)}, name=name or f"empty-{n}"
    )


def line(n: int) -> DistGraph:
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    for v in range(1, n):
        adjacency[v].append(v + 1)
    return ReferenceDistGraph(adjacency, name=f"line-{n}")


def ring(n: int) -> DistGraph:
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    for v in range(1, n):
        adjacency[v].append(v + 1)
    adjacency[n].append(1)
    return ReferenceDistGraph(adjacency, name=f"ring-{n}")


def star(n: int) -> DistGraph:
    if n < 1:
        raise ValueError("a star needs at least 1 node")
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}
    for v in range(2, n + 1):
        adjacency[1].append(v)
    return ReferenceDistGraph(adjacency, name=f"star-{n}")


def clique(n: int) -> DistGraph:
    adjacency = {
        v: [u for u in range(1, n + 1) if u != v] for v in range(1, n + 1)
    }
    return ReferenceDistGraph(adjacency, name=f"clique-{n}")


def complete_bipartite(a: int, b: int) -> DistGraph:
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, a + b + 1)}
    for left in range(1, a + 1):
        for right in range(a + 1, a + b + 1):
            adjacency[left].append(right)
    return ReferenceDistGraph(adjacency, name=f"K{a},{b}")


def grid2d(rows: int, cols: int) -> DistGraph:
    def node_id(i: int, j: int) -> int:
        return i * cols + j + 1

    adjacency: Dict[int, List[int]] = {}
    attrs: Dict[int, Dict[str, Tuple[int, int]]] = {}
    for i in range(rows):
        for j in range(cols):
            node = node_id(i, j)
            adjacency.setdefault(node, [])
            attrs[node] = {"pos": (i, j)}
            if i + 1 < rows:
                adjacency[node].append(node_id(i + 1, j))
            if j + 1 < cols:
                adjacency[node].append(node_id(i, j + 1))
    return ReferenceDistGraph(adjacency, attrs=attrs, name=f"grid-{rows}x{cols}")


def wheel_fk(k: int) -> DistGraph:
    if k < 3:
        raise ValueError("F_k needs at least 3 rim nodes")
    center = 2 * k + 1
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, 2 * k + 2)}
    attrs: Dict[int, Dict[str, str]] = {}
    for i in range(1, k + 1):
        attrs[i] = {"role": "rim"}
        attrs[k + i] = {"role": "spoke"}
        rim_next = i % k + 1
        adjacency[i].append(rim_next)
        adjacency[i].append(k + i)
        adjacency[k + i].append(center)
    attrs[center] = {"role": "center"}
    return ReferenceDistGraph(adjacency, attrs=attrs, name=f"F{k}")


def path_forest(num_paths: int, path_length: int) -> DistGraph:
    adjacency: Dict[int, List[int]] = {}
    node = 0
    for _ in range(num_paths):
        first = node + 1
        for offset in range(path_length):
            node += 1
            adjacency.setdefault(node, [])
            if node > first:
                adjacency[node - 1].append(node)
    return ReferenceDistGraph(adjacency, name=f"paths-{num_paths}x{path_length}")


def hypercube(dimension: int) -> DistGraph:
    if dimension < 0:
        raise ValueError("dimension must be non-negative")
    size = 2**dimension
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, size + 1)}
    for v in range(size):
        for bit in range(dimension):
            u = v ^ (1 << bit)
            if v < u:
                adjacency[v + 1].append(u + 1)
    return ReferenceDistGraph(adjacency, name=f"hypercube-{dimension}")


def torus(rows: int, cols: int) -> DistGraph:
    if rows < 3 or cols < 3:
        raise ValueError("a torus needs both dimensions >= 3")

    def node_id(i: int, j: int) -> int:
        return i * cols + j + 1

    adjacency: Dict[int, List[int]] = {}
    attrs: Dict[int, Dict[str, Tuple[int, int]]] = {}
    for i in range(rows):
        for j in range(cols):
            node = node_id(i, j)
            adjacency.setdefault(node, [])
            attrs[node] = {"pos": (i, j)}
            adjacency[node].append(node_id((i + 1) % rows, j))
            adjacency[node].append(node_id(i, (j + 1) % cols))
    return ReferenceDistGraph(adjacency, attrs=attrs, name=f"torus-{rows}x{cols}")


def complete_kary_tree(arity: int, height: int) -> DistGraph:
    if arity < 1:
        raise ValueError("arity must be at least 1")
    adjacency: Dict[int, List[int]] = {1: []}
    frontier = [1]
    next_id = 2
    for _ in range(height):
        new_frontier = []
        for parent in frontier:
            for _ in range(arity):
                adjacency[next_id] = [parent]
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return ReferenceDistGraph(adjacency, name=f"karytree-{arity}-h{height}")


def preorder_kary_tree(arity: int, height: int) -> DistGraph:
    if arity < 1:
        raise ValueError("arity must be at least 1")
    if height < 0:
        raise ValueError("height must be non-negative")
    sizes = [1] * (height + 1)
    for depth in range(height - 1, -1, -1):
        sizes[depth] = 1 + arity * sizes[depth + 1]
    adjacency: Dict[int, List[int]] = {1: []}
    stack = [(1, 0)]
    while stack:
        node, depth = stack.pop()
        if depth == height:
            continue
        child = node + 1
        step = sizes[depth + 1]
        for _ in range(arity):
            adjacency[child] = [node]
            stack.append((child, depth + 1))
            child += step
    return ReferenceDistGraph(adjacency, name=f"preorder-karytree-{arity}-h{height}")


def caterpillar(spine: int, legs_per_node: int) -> DistGraph:
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, spine + 1)}
    for v in range(1, spine):
        adjacency[v].append(v + 1)
    next_id = spine + 1
    for v in range(1, spine + 1):
        for _ in range(legs_per_node):
            adjacency[next_id] = [v]
            next_id += 1
    return ReferenceDistGraph(adjacency, name=f"caterpillar-{spine}x{legs_per_node}")


# ----------------------------------------------------------------------
# Seeded generators (repro.graphs.random_graphs)
# ----------------------------------------------------------------------
def _gnp_adjacency(n: int, p: float, seed: int) -> Dict[int, List[int]]:
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
    return ReferenceDistGraph(_gnp_adjacency(n, p, seed), name=f"gnp-{n}-{p}-s{seed}")


def connected_erdos_renyi(n: int, p: float, seed: int = 0) -> DistGraph:
    adjacency = _gnp_adjacency(n, p, seed)
    csr = ReferenceDistGraph(adjacency).csr
    rng = random.Random(f"{seed}:connect")
    components = [[csr.ids[index] for index in part] for part in csr.components()]
    for previous, current in zip(components, components[1:]):
        adjacency[rng.choice(previous)].append(rng.choice(current))
    return ReferenceDistGraph(adjacency, name=f"gnp-conn-{n}-{p}-s{seed}")


def random_tree(n: int, seed: int = 0) -> DistGraph:
    if n == 1:
        return ReferenceDistGraph({1: []}, name=f"tree-1-s{seed}")
    rng = random.Random(f"{seed}:tree")
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for value in sequence:
        degree[value] += 1
    adjacency: Dict[int, List[int]] = {v: [] for v in range(1, n + 1)}

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for value in sequence:
        leaf = heapq.heappop(leaves)
        adjacency[leaf + 1].append(value + 1)
        degree[value] -= 1
        if degree[value] == 1:
            heapq.heappush(leaves, value)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    adjacency[u + 1].append(v + 1)
    return ReferenceDistGraph(adjacency, name=f"tree-{n}-s{seed}")


# ----------------------------------------------------------------------
# Identifier schemes (repro.graphs.identifiers)
# ----------------------------------------------------------------------
def relabel(
    graph: DistGraph, mapping: Mapping[int, int], d: Optional[int] = None
) -> DistGraph:
    if set(mapping) != set(graph.nodes):
        raise ValueError("relabel mapping must cover exactly the graph's nodes")
    if len(set(mapping.values())) != graph.n:
        raise ValueError("relabel mapping must be injective")
    adjacency = {
        mapping[node]: [mapping[other] for other in graph.neighbors(node)]
        for node in graph.nodes
    }
    attrs = {
        mapping[node]: dict(graph.node_attrs(node))
        for node in graph.nodes
        if graph.node_attrs(node)
    }
    for new_attrs in attrs.values():
        if new_attrs.get("parent") is not None:
            new_attrs["parent"] = mapping[new_attrs["parent"]]
    return ReferenceDistGraph(adjacency, d=d, attrs=attrs, name=graph.name)


def sorted_path_ids(graph: DistGraph, reverse: bool = False) -> DistGraph:
    endpoints = [v for v in graph.nodes if graph.degree(v) <= 1]
    if graph.n > 1 and (
        len(endpoints) != 2 or any(graph.degree(v) > 2 for v in graph.nodes)
    ):
        raise ValueError("sorted_path_ids requires a path instance")
    order = []
    if graph.n == 1:
        order = [graph.nodes[0]]
    elif graph.n > 1:
        current = min(endpoints)
        previous = None
        while current is not None:
            order.append(current)
            successors = [
                other for other in graph.neighbors(current) if other != previous
            ]
            previous = current
            current = successors[0] if successors else None
    if reverse:
        order.reverse()
    mapping: Dict[int, int] = {node: index + 1 for index, node in enumerate(order)}
    return relabel(graph, mapping)


# ----------------------------------------------------------------------
# Sequential solvers
# ----------------------------------------------------------------------
class ReferenceMIS(MaximalIndependentSetProblem):
    def solve_sequential(
        self, graph: DistGraph, order: Optional[Sequence[int]] = None
    ) -> Outputs:
        order = list(order) if order is not None else list(graph.nodes)
        chosen: Set[int] = set()
        for node in order:
            if not any(other in chosen for other in graph.neighbors(node)):
                chosen.add(node)
        return {node: (1 if node in chosen else 0) for node in graph.nodes}


class ReferenceMatching(MaximalMatchingProblem):
    def solve_sequential(
        self, graph: DistGraph, order: Optional[Sequence[int]] = None
    ) -> Outputs:
        order = list(order) if order is not None else list(graph.nodes)
        position = {node: index for index, node in enumerate(order)}
        partner = {}
        for node in order:
            if node in partner:
                continue
            candidates = sorted(
                (other for other in graph.neighbors(node) if other not in partner),
                key=lambda other: position.get(other, other),
            )
            if candidates:
                other = candidates[0]
                partner[node] = other
                partner[other] = node
        return {
            node: partner.get(node, UNMATCHED) for node in graph.nodes
        }


class ReferenceVertexColoring(VertexColoringProblem):
    def solve_sequential(
        self, graph: DistGraph, order: Optional[Sequence[int]] = None
    ) -> Outputs:
        order = list(order) if order is not None else list(graph.nodes)
        colors: Outputs = {}
        for node in order:
            used: Set[int] = {
                colors[other] for other in graph.neighbors(node) if other in colors
            }
            color = 1
            while color in used:
                color += 1
            colors[node] = color
        return colors


REFERENCE_MIS = ReferenceMIS()
REFERENCE_MATCHING = ReferenceMatching()
REFERENCE_VERTEX_COLORING = ReferenceVertexColoring()


# ----------------------------------------------------------------------
# Prediction builders (repro.predictions.generators)
# ----------------------------------------------------------------------
def perfect_predictions(
    problem: GraphProblem, graph: DistGraph, seed: Optional[int] = None
) -> Outputs:
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
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"noise rate must be in [0, 1], got {rate}")
    rng = random.Random(f"{seed}:noise")
    solution = dict(base) if base is not None else perfect_predictions(problem, graph)

    corrupted: Dict[int, Any] = {}
    for node in graph.nodes:
        value = solution[node]
        if problem.name == "edge-coloring":
            entry = dict(value or {})
            palette_size = max(1, 2 * graph.delta - 1)
            for other in list(entry):
                if rng.random() < rate:
                    entry[other] = rng.randint(1, palette_size)
            corrupted[node] = entry
            continue
        if rng.random() >= rate:
            corrupted[node] = value
            continue
        if problem.name == "mis":
            corrupted[node] = 1 - value
        elif problem.name == "matching":
            neighbors = sorted(graph.neighbors(node))
            choices = [UNMATCHED] + neighbors
            choices = [choice for choice in choices if choice != value]
            corrupted[node] = rng.choice(choices) if choices else value
        elif problem.name == "vertex-coloring":
            palette_size = graph.delta + 1
            corrupted[node] = rng.randint(1, palette_size)
        else:
            raise ValueError(f"no noise model for problem {problem.name!r}")
    return corrupted
