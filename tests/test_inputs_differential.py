"""Differential test: array-built inputs vs the frozen builders.

Every generated and derived graph is built twice, by the live code (rows
from :meth:`CSRTopology.from_edges`, solvers over the CSR rows) and by
the dict-of-sets oracle in ``tests/reference_inputs.py``; the two must
agree on ``ids``, ``indptr``, ``indices``, ``d``, ``name`` and attrs.
Every prediction dict must be equal item for item, in iteration order.
Hypothesis draws the hand-written adjacencies (with their error cases),
the subgraph requests and the solver orders: none, a seeded permutation,
or a partial order with repeats.
"""

import importlib.util
import random
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    CSRTopology,
    DistGraph,
    caterpillar,
    clique,
    complete_bipartite,
    complete_kary_tree,
    connected_erdos_renyi,
    empty_graph,
    erdos_renyi,
    grid2d,
    hypercube,
    line,
    path_forest,
    preorder_kary_tree,
    random_ids_from_domain,
    random_rooted_tree,
    random_tree,
    relabel,
    ring,
    sorted_path_ids,
    star,
    torus,
    wheel_fk,
)
from repro.predictions import noisy_predictions, perfect_predictions
from repro.problems import EDGE_COLORING, MATCHING, MIS, VERTEX_COLORING

from tests import reference_inputs as reference

#: (live problem, oracle problem) per family the noise model covers.
PROBLEMS = {
    "mis": (MIS, reference.REFERENCE_MIS),
    "matching": (MATCHING, reference.REFERENCE_MATCHING),
    "vertex-coloring": (VERTEX_COLORING, reference.REFERENCE_VERTEX_COLORING),
    "edge-coloring": (EDGE_COLORING, EDGE_COLORING),
}

SOLVED = ("mis", "matching", "vertex-coloring")


def assert_same_graph(live, old):
    csr = live.csr
    assert type(live) is DistGraph
    assert csr.ids == old.csr.ids
    assert all(type(node) is int for node in csr.ids)
    assert isinstance(csr.indptr, array) and isinstance(csr.indices, array)
    assert csr.indptr == old.csr.indptr
    assert csr.indices == old.csr.indices
    assert (live.n, live.d, live.name) == (old.n, old.d, old.name)
    assert live._attrs == old._attrs
    assert live.delta == old.delta


def assert_same_dict(live, old):
    assert list(live.items()) == list(old.items())
    for node, value in live.items():
        if isinstance(value, dict):
            assert list(value.items()) == list(old[node].items())


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
SIZES = (1, 2, 3, 7, 40, 5000)

DETERMINISTIC = [
    *((f"empty_graph({n})", empty_graph, (n,)) for n in (0, *SIZES)),
    *((f"line({n})", line, (n,)) for n in (0, *SIZES)),
    *((f"ring({n})", ring, (n,)) for n in (3, 4, 40, 5000)),
    *((f"star({n})", star, (n,)) for n in SIZES),
    *((f"clique({n})", clique, (n,)) for n in (0, 1, 2, 3, 7, 40)),
    *(
        (f"complete_bipartite{args}", complete_bipartite, args)
        for args in ((0, 0), (1, 1), (2, 3), (5, 7), (3, 0))
    ),
    *(
        (f"grid2d{args}", grid2d, args)
        for args in ((0, 4), (1, 1), (1, 3), (3, 1), (4, 6), (50, 100))
    ),
    *((f"torus{args}", torus, args) for args in ((3, 3), (4, 5), (30, 40))),
    *((f"wheel_fk({k})", wheel_fk, (k,)) for k in (3, 4, 10)),
    *(
        (f"path_forest{args}", path_forest, args)
        for args in ((0, 3), (1, 1), (3, 1), (1, 3), (500, 10))
    ),
    *((f"hypercube({dim})", hypercube, (dim,)) for dim in (0, 1, 2, 5, 10)),
    *(
        (f"complete_kary_tree{args}", complete_kary_tree, args)
        for args in ((1, 3), (2, 0), (3, 3), (2, 10), (4, -1))
    ),
    *(
        (f"preorder_kary_tree{args}", preorder_kary_tree, args)
        for args in ((1, 3), (2, 0), (3, 3), (8, 3), (2, 10))
    ),
    *(
        (f"caterpillar{args}", caterpillar, args)
        for args in ((0, 2), (1, 0), (3, 2), (100, 3))
    ),
]


@pytest.mark.parametrize(
    "label,build,args", DETERMINISTIC, ids=[case[0] for case in DETERMINISTIC]
)
def test_deterministic_generators(label, build, args):
    old = getattr(reference, build.__name__)(*args)
    assert_same_graph(build(*args), old)


@pytest.mark.parametrize("seed", (0, 1, 7))
@pytest.mark.parametrize("n", SIZES)
def test_random_tree(n, seed):
    assert_same_graph(random_tree(n, seed=seed), reference.random_tree(n, seed=seed))


def test_random_tree_of_no_nodes_raises_alike():
    for build in (random_tree, reference.random_tree):
        with pytest.raises(IndexError):
            build(0)


GNP = [
    (n, p, seed)
    for n in (0, 1, 2, 3, 40, 400)
    for p in (0.0, 0.05, 0.3, 1.0)
    for seed in (0, 1, 2)
] + [(2000, 0.002, 5)]


@pytest.mark.parametrize("n,p,seed", GNP)
def test_gnp(n, p, seed):
    assert_same_graph(erdos_renyi(n, p, seed), reference.erdos_renyi(n, p, seed))
    assert_same_graph(
        connected_erdos_renyi(n, p, seed),
        reference.connected_erdos_renyi(n, p, seed),
    )


# ----------------------------------------------------------------------
# Identifier schemes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(6))
def test_relabel(seed):
    rng = random.Random(seed)
    graph = random_rooted_tree(rng.choice((1, 2, 30, 300)), seed=seed)
    graph = graph.with_attrs({node: {"w": node} for node in graph.nodes[::3]})
    new_ids = rng.sample(range(1, 10 * graph.n + 1), graph.n)
    if seed == 5:
        # Identifiers past int64.
        new_ids = [2**64 + node for node in new_ids]
    mapping = dict(zip(graph.nodes, new_ids))
    d = 10 * graph.n if seed % 2 and seed != 5 else None
    assert_same_graph(
        relabel(graph, mapping, d=d), reference.relabel(graph, mapping, d=d)
    )
    domain = 4 * graph.n
    drawn = random.Random(f"{seed}:ids").sample(range(1, domain + 1), graph.n)
    assert_same_graph(
        random_ids_from_domain(graph, domain, seed=seed),
        reference.relabel(graph, dict(zip(graph.nodes, drawn)), d=domain),
    )


def test_relabel_errors_alike():
    graph = line(4)
    for bad, d in (({1: 5, 2: 6, 3: 7}, None), ({1: 5, 2: 5, 3: 6, 4: 7}, None),
                   ({1: 0, 2: 5, 3: 6, 4: 7}, None), ({1: 2, 2: 3, 3: 4, 4: 9}, 5)):
        messages = []
        for build in (relabel, reference.relabel):
            with pytest.raises(ValueError) as caught:
                build(graph, bad, d=d)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("reverse", (False, True))
@pytest.mark.parametrize("n", (1, 2, 3, 50, 5000))
def test_sorted_path_ids(n, reverse):
    graph = random_ids_from_domain(line(n), 3 * n, seed=n)
    assert_same_graph(
        sorted_path_ids(graph, reverse=reverse),
        reference.sorted_path_ids(graph, reverse=reverse),
    )


def test_sorted_path_ids_refuses_alike():
    for graph in (star(5), path_forest(2, 3), empty_graph(2)):
        outcomes = []
        for build in (sorted_path_ids, reference.sorted_path_ids):
            with pytest.raises(ValueError) as caught:
                build(graph)
            outcomes.append(str(caught.value))
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Hand-written adjacency, CSRTopology.from_edges and subgraphs
# ----------------------------------------------------------------------
@st.composite
def adjacencies(draw):
    nodes = draw(st.lists(st.integers(1, 60), min_size=0, max_size=14, unique=True))
    if draw(st.booleans()):
        nodes = [node * 10**9 for node in nodes]
    adjacency = {}
    for node in nodes:
        others = [other for other in nodes if other != node]
        row = draw(st.lists(st.sampled_from(others), max_size=6)) if others else []
        kind = draw(st.sampled_from((list, tuple, set, "numpy")))
        if kind == "numpy":
            adjacency[np.int64(node)] = [np.int64(other) for other in row]
        else:
            adjacency[node] = kind(row)
    return adjacency


@st.composite
def broken_adjacencies(draw):
    adjacency = dict(draw(adjacencies()))
    nodes = list(adjacency) or [3]
    adjacency.setdefault(nodes[0], [])
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(nodes))
        fault = draw(
            st.sampled_from(("loop", "unknown", "junk", "zero", "negative"))
        )
        row = list(adjacency[node])
        if fault == "loop":
            row.insert(draw(st.integers(0, len(row))), node)
        elif fault == "unknown":
            row.insert(draw(st.integers(0, len(row))), 10**12 + 7)
        elif fault == "junk":
            junk = draw(st.sampled_from(("x", None)))
            row.insert(draw(st.integers(0, len(row))), junk)
        else:
            adjacency[0 if fault == "zero" else -4] = []
        adjacency[node] = row
    return adjacency


@settings(max_examples=150, deadline=None)
@given(adjacencies(), st.sampled_from((None, 10**13)), st.text(max_size=3))
def test_hand_written_adjacency(adjacency, d, name):
    attrs = {node: {"tag": int(node) % 5} for node in list(adjacency)[::2]}
    live = DistGraph(adjacency, d=d, attrs=attrs, name=name)
    old = reference.ReferenceDistGraph(adjacency, d=d, attrs=attrs, name=name)
    assert_same_graph(live, old)
    assert live.csr.index_of == old.csr.index_of


@settings(max_examples=150, deadline=None)
@given(broken_adjacencies())
def test_hand_written_errors_alike(adjacency):
    errors = []
    for build in (DistGraph, reference.ReferenceDistGraph):
        with pytest.raises((TypeError, ValueError)) as caught:
            build(adjacency)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 30),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80),
)
def test_from_edges_collapses_repeats_and_orientations(n, pairs):
    pairs = [(u, v) for u, v in pairs if u != v and max(u, v) < n]
    ids = tuple(range(5, 5 + 3 * n, 3))
    lo = np.array([u for u, _ in pairs], dtype=np.int64)
    hi = np.array([v for _, v in pairs], dtype=np.int64)
    neighbor_sets = {node: set() for node in ids}
    for u, v in pairs:
        neighbor_sets[ids[u]].add(ids[v])
        neighbor_sets[ids[v]].add(ids[u])
    old = reference.reference_from_adjacency(neighbor_sets)
    live = CSRTopology.from_edges(ids, lo, hi)
    assert (live.ids, live.indptr, live.indices) == (old.ids, old.indptr, old.indices)
    assert live._index_of is None


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_subgraph(seed, data):
    rng = random.Random(seed)
    base = rng.choice(
        (
            erdos_renyi(rng.randint(1, 40), 0.15, seed=seed),
            random_tree(rng.randint(1, 60), seed=seed),
            grid2d(rng.randint(1, 6), rng.randint(1, 6)),
        )
    )
    new_ids = rng.sample(range(1, 4 * base.n + 1), base.n)
    base = relabel(base, dict(zip(base.nodes, new_ids)))
    base = base.with_attrs({node: {"w": node} for node in base.nodes[::3]})
    nodes = data.draw(st.lists(st.sampled_from(base.nodes), max_size=base.n))
    name = data.draw(st.sampled_from(("", "part")))
    live = base.subgraph(nodes, name=name)
    assert_same_graph(
        live, reference.ReferenceDistGraph.subgraph(base, nodes, name=name)
    )
    assert base._neighbor_cache == {}
    inner = live.nodes[::2]
    assert_same_graph(
        live.subgraph(inner), reference.ReferenceDistGraph.subgraph(live, inner)
    )


def test_subgraph_unknown_nodes_alike():
    graph = line(5)
    messages = []
    for subgraph in (DistGraph.subgraph, reference.ReferenceDistGraph.subgraph):
        with pytest.raises(ValueError) as caught:
            subgraph(graph, [2, 9, 7])
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


# ----------------------------------------------------------------------
# Sequential solvers and prediction builders
# ----------------------------------------------------------------------
def solver_graphs():
    yield line(1)
    yield line(2)
    yield line(3)
    yield star(9)
    yield clique(7)
    yield grid2d(5, 7)
    yield empty_graph(4)
    for seed in range(3):
        yield random_tree(40, seed=seed)
        yield erdos_renyi(30, 0.2, seed=seed)
        yield relabel(
            erdos_renyi(25, 0.25, seed=seed),
            dict(zip(range(1, 26), random.Random(seed).sample(range(1, 200), 25))),
        )
    yield random_tree(5000, seed=4)


def orders(graph, seed):
    rng = random.Random(f"{seed}:order")
    permutation = list(graph.nodes)
    rng.shuffle(permutation)
    partial = rng.sample(graph.nodes, rng.randint(0, graph.n))
    partial += rng.sample(partial, min(2, len(partial)))
    return {"none": None, "permutation": permutation, "partial": partial}


@pytest.mark.parametrize("problem", SOLVED)
def test_solve_sequential(problem):
    live, old = PROBLEMS[problem]
    for graph in solver_graphs():
        for seed in range(3):
            for kind, order in orders(graph, seed).items():
                solved = live.solve_sequential(graph, order=order)
                if kind != "partial":
                    # A full order never ties, so no frozenset is read.
                    assert graph._neighbor_cache == {}
                assert_same_dict(solved, old.solve_sequential(graph, order=order))
                graph._neighbor_cache.clear()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 14), st.floats(0.1, 0.9), st.integers(0, 10**6), st.data())
def test_solvers_on_drawn_partial_orders(n, p, seed, data):
    """Small ids let a position in the order equal a left-out neighbor's
    identifier, so matching's ties are drawn here."""
    graph = erdos_renyi(n, p, seed=seed)
    order = data.draw(st.lists(st.sampled_from(graph.nodes), max_size=2 * n))
    for problem in SOLVED:
        live, old = PROBLEMS[problem]
        assert_same_dict(
            live.solve_sequential(graph, order=order),
            old.solve_sequential(graph, order=order),
        )


def test_solve_sequential_refuses_foreign_nodes_alike():
    graph = line(4)
    for problem in SOLVED:
        live, old = PROBLEMS[problem]
        for solver in (live, old):
            with pytest.raises(KeyError):
                solver.solve_sequential(graph, order=[1, 99])


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("rate", (0.0, 0.1, 1.0))
def test_noisy_predictions(problem, rate):
    live, old = PROBLEMS[problem]
    for graph in solver_graphs():
        for seed in (0, 1, 5):
            predictions = noisy_predictions(live, graph, rate, seed=seed)
            if problem != "edge-coloring":
                assert graph._neighbor_cache == {}
            assert_same_dict(
                predictions, reference.noisy_predictions(old, graph, rate, seed=seed)
            )
            base = perfect_predictions(live, graph, seed=seed)
            assert_same_dict(
                base, reference.perfect_predictions(old, graph, seed=seed)
            )
            assert_same_dict(
                noisy_predictions(live, graph, rate, seed=seed, base=base),
                reference.noisy_predictions(old, graph, rate, seed=seed, base=base),
            )
            graph._neighbor_cache.clear()


# ----------------------------------------------------------------------
# The benchmark's inputs
# ----------------------------------------------------------------------
def _perfbench_workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        # Dataclasses resolve their annotations through sys.modules.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


#: The workloads at toy sizes (the sizes of perfbench/selftest.py).
TINY = {
    "kernel-tree": dict(n=2000),
    "template-degradation": dict(n=64, draws=2),
    "dynamic-churn": dict(n=100, epochs=8, churn=3),
    "sharded": dict(forest=(20, 10), tree=(3, 4)),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_benchmark_inputs_build_no_neighbor_sets(name):
    """Building a workload's graphs and predictions reads CSR rows only,
    so no graph holds a neighbor frozenset afterwards."""
    workloads = _perfbench_workloads()
    state = workloads.WORKLOADS[name](**TINY[name]).setup(0)
    graphs = [
        artifact
        for artifact in getattr(state, "artifacts", {}).values()
        if isinstance(artifact, DistGraph)
    ]
    if hasattr(state, "graph"):
        graphs.append(state.graph)
    assert graphs
    for graph in graphs:
        assert graph._neighbor_cache == {}
