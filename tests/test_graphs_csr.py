"""The CSR topology core: dict-adjacency agreement, caching, pickling.

Property tests assert that the :class:`~repro.graphs.csr.CSRTopology`
behind every :class:`~repro.graphs.graph.DistGraph` agrees with a plain
dict-of-sets adjacency on ``neighbors``/``degree``/``has_edge``/``edges``
for every generator family (churn-perturbed graphs included), that derived
graphs never see stale caches (the subgraph-of-a-subgraph regression), and
that CSR-backed graphs survive pickling — the process-pool sweep backend
ships them between interpreters.
"""

import pickle
import random

import networkx as nx
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
    empty_graph,
    ensure_topology,
    erdos_renyi,
    grid2d,
    hypercube,
    line,
    path_forest,
    perturb_edges,
    perturb_nodes,
    random_tree,
    ring,
    star,
    torus,
    wheel_fk,
)

#: One representative instantiation per generator in
#: ``repro.graphs.generators`` (the satellite demands full coverage).
GENERATOR_CASES = [
    ("empty", lambda: empty_graph(7)),
    ("line", lambda: line(9)),
    ("ring", lambda: ring(8)),
    ("star", lambda: star(6)),
    ("clique", lambda: clique(6)),
    ("complete_bipartite", lambda: complete_bipartite(3, 4)),
    ("grid2d", lambda: grid2d(3, 4)),
    ("wheel_fk", lambda: wheel_fk(4)),
    ("path_forest", lambda: path_forest(3, 4)),
    ("hypercube", lambda: hypercube(3)),
    ("torus", lambda: torus(3, 4)),
    ("complete_kary_tree", lambda: complete_kary_tree(2, 3)),
    ("caterpillar", lambda: caterpillar(4, 2)),
]


def dict_adjacency(graph):
    """An independent dict-of-sets adjacency built from the edge list."""
    adjacency = {node: set() for node in graph.nodes}
    for u, v in graph.edges():
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def assert_csr_matches_dict(graph):
    """The full agreement web between the CSR view, the dict adjacency and
    the DistGraph accessors.

    ``edges()``, ``neighbor_ids()`` and ``has_edge()`` read the same CSR
    arrays through three different access paths (above-diagonal streaming,
    row slicing, bisection), so mutual agreement plus the dict round-trip
    pins all of them.
    """
    csr = graph.csr
    adjacency = dict_adjacency(graph)

    assert csr.n == graph.n == len(adjacency)
    assert csr.ids == tuple(sorted(adjacency))

    total_degree = 0
    for node, expected in adjacency.items():
        row = csr.neighbor_ids(node)
        assert list(row) == sorted(expected), node
        assert set(row) == graph.neighbors(node) == expected
        assert csr.degree(node) == graph.degree(node) == len(expected)
        total_degree += len(expected)
    assert csr.m == graph.num_edges == total_degree // 2

    edges = csr.edges()
    assert list(edges) == sorted(edges)
    assert len(set(edges)) == len(edges)
    assert all(u < v for u, v in edges)
    assert graph.edges() == list(edges)

    nodes = list(graph.nodes)
    for u in nodes:
        assert not csr.has_edge(u, u)
        for v in nodes:
            expected = v in adjacency[u]
            assert csr.has_edge(u, v) == expected, (u, v)
            assert graph.has_edge(u, v) == expected, (u, v)

    degrees = [len(neighbors) for neighbors in adjacency.values()]
    assert csr.max_degree == graph.delta == (max(degrees) if degrees else 0)
    assert list(csr.degrees()) == [
        len(adjacency[node]) for node in sorted(adjacency)
    ]

    # Rebuilding the topology from the dict adjacency is array-identical.
    rebuilt = CSRTopology.from_adjacency(adjacency)
    assert rebuilt.ids == csr.ids
    assert rebuilt.indptr == csr.indptr
    assert rebuilt.indices == csr.indices


class TestCSRAgainstDictAdjacency:
    @pytest.mark.parametrize(
        "name,build", GENERATOR_CASES, ids=[name for name, _ in GENERATOR_CASES]
    )
    def test_every_generator_family(self, name, build):
        assert_csr_matches_dict(build())

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_and_churned_graphs(self, seed):
        """Random graphs and their churn-perturbed derivatives stay
        CSR/dict-consistent — churn rebuilds topology from scratch."""
        rng = random.Random(f"{seed}:csr-property")
        base = erdos_renyi(rng.randint(2, 16), rng.choice([0.1, 0.3, 0.7]), seed=seed)
        assert_csr_matches_dict(base)
        churned_edges = perturb_edges(
            base, add=rng.randint(0, 4), remove=rng.randint(0, 4), seed=seed
        )
        assert_csr_matches_dict(churned_edges)
        churned_nodes = perturb_nodes(
            base,
            remove=rng.randint(0, min(3, base.n - 1)) if base.n > 1 else 0,
            add=rng.randint(0, 3),
            seed=seed,
        )
        assert_csr_matches_dict(churned_nodes)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_generator_grid_under_fuzzed_churn(self, seed):
        rng = random.Random(f"{seed}:grid-churn")
        grid = grid2d(rng.randint(2, 5), rng.randint(2, 5))
        churned = perturb_edges(grid, add=rng.randint(0, 5), seed=seed)
        assert_csr_matches_dict(churned)


class TestDerivedGraphCaches:
    def test_subgraph_of_subgraph_reports_consistent_counts(self):
        """Regression: each derived level owns fresh topology/caches, so a
        subgraph of a subgraph reports n/m/max_degree recomputed from its
        own twice-filtered adjacency — never the parent's cached values."""
        base = grid2d(4, 4)
        # Warm every cache on the base before deriving.
        base_edges = base.edges()
        assert base.delta == 4

        level1 = base.subgraph([n for n in base.nodes if n != base.nodes[0]])
        level2 = level1.subgraph(
            [n for n in level1.nodes if n not in set(level1.nodes[:3])]
        )

        for graph in (level1, level2):
            adjacency = dict_adjacency(graph)
            degrees = [len(v) for v in adjacency.values()]
            assert graph.n == len(adjacency)
            assert graph.num_edges == sum(degrees) // 2
            assert graph.delta == (max(degrees) if degrees else 0)
            assert_csr_matches_dict(graph)

        # The parent's cached views are untouched by derivation.
        assert base.edges() == base_edges
        assert base.n == 16 and base.delta == 4
        assert level1.n == 15
        assert level2.n == 12
        assert level2.num_edges < level1.num_edges < base.num_edges

    def test_with_attrs_shares_topology(self):
        base = ring(6)
        derived = base.with_attrs({1: {"mark": True}})
        assert derived.csr is base.csr
        assert derived.node_attrs(1) == {"mark": True}
        assert derived.edges() == base.edges()

    def test_subgraph_unknown_node_raises(self):
        with pytest.raises(ValueError, match="unknown nodes"):
            line(4).subgraph([1, 99])


class TestMaskedComponents:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_mask_equals_induced_subgraph(self, seed):
        rng = random.Random(f"{seed}:mask")
        graph = erdos_renyi(rng.randint(1, 16), rng.choice([0.1, 0.3, 0.7]), seed=seed)
        csr = graph.csr
        flags = [rng.random() < 0.6 for _ in range(csr.n)]
        kept = [node for node, flag in zip(csr.ids, flags) if flag]
        expected = graph.subgraph(kept).components()
        for mask in (bytearray(flags), flags):
            parts = csr.components(mask)
            assert [frozenset(csr.ids[i] for i in part) for part in parts] == expected
        assert csr.components(bytearray(csr.n)) == ()
        # Masked answers are not cached: the unmasked one is the whole graph's.
        fresh = CSRTopology.from_adjacency(dict_adjacency(graph))
        assert csr.components() == fresh.components()
        assert csr.components(bytearray([1]) * csr.n) == fresh.components()

    def test_mask_length_must_match(self):
        with pytest.raises(ValueError, match="mask has 2 entries for 4 nodes"):
            line(4).csr.components(bytearray(2))


def networkx_components(graph, mask):
    """Components of the masked induced subgraph, by networkx: identifier
    sets ordered by smallest identifier."""
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes)
    nx_graph.add_edges_from(graph.edges())
    kept = [node for node, flag in zip(graph.csr.ids, mask) if flag]
    parts = nx.connected_components(nx_graph.subgraph(kept))
    return sorted((frozenset(part) for part in parts), key=min)


def id_sets(csr, parts):
    return [frozenset(csr.ids[index] for index in part) for part in parts]


class TestComponentsAgainstNetworkx:
    """``CSRTopology.components`` checked by an independent implementation."""

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_masked_random_graphs(self, seed):
        rng = random.Random(f"{seed}:nx")
        n = rng.randint(1, 60)
        graph = rng.choice(
            (
                erdos_renyi(n, rng.choice([0.02, 0.08, 0.3]), seed=seed),
                random_tree(n, seed=seed),
                path_forest(rng.randint(1, 6), rng.randint(1, 10)),
            )
        )
        csr = graph.csr
        share = rng.random()
        mask = [rng.random() < share for _ in range(csr.n)]
        parts = csr.components(mask)
        assert id_sets(csr, parts) == networkx_components(graph, mask)
        assert all(list(part) == sorted(part) for part in parts)
        full = [True] * csr.n
        assert id_sets(csr, csr.components()) == networkx_components(graph, full)
        largest = max(map(len, parts), default=0)
        assert csr.largest_component(mask) == largest

    def test_long_line_with_shuffled_ids(self):
        """A 10⁵-node path whose ids are shuffled along it: the labels
        need many hook rounds, not one."""
        n = 100_000
        rng = random.Random("shuffled-line")
        order = list(range(1, n + 1))
        rng.shuffle(order)
        adjacency = {node: [] for node in order}
        for u, v in zip(order, order[1:]):
            adjacency[u].append(v)
        graph = DistGraph(adjacency)
        csr = graph.csr
        (whole,) = csr.components()
        assert whole == tuple(range(n))
        mask = [rng.random() < 0.9 for _ in range(n)]
        parts = csr.components(mask)
        assert id_sets(csr, parts) == networkx_components(graph, mask)
        assert csr.largest_component(mask) == max(map(len, parts))


class TestCSRPickling:
    def test_topology_roundtrip(self):
        graph = torus(3, 3)
        csr = graph.csr
        _ = csr.index_of  # warm the lazy index before shipping
        clone = pickle.loads(pickle.dumps(csr))
        assert clone.ids == csr.ids
        assert clone.indptr == csr.indptr
        assert clone.indices == csr.indices
        assert clone.edges() == csr.edges()
        assert clone.index_of == csr.index_of  # lazily rebuilt
        assert clone.max_degree == csr.max_degree

    def test_distgraph_roundtrip(self):
        graph = grid2d(3, 3).with_attrs({1: {"pinned": True}})
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.nodes == graph.nodes
        assert clone.edges() == graph.edges()
        assert clone.delta == graph.delta
        assert clone.node_attrs(1) == graph.node_attrs(1)
        assert clone.node_attrs(1)["pinned"] is True
        assert_csr_matches_dict(clone)

    def test_ensure_topology_on_foreign_graph(self):
        """Non-DistGraph graph objects get an equivalent CSR built on
        demand (the engine's escape hatch for duck-typed graphs)."""

        class Plain:
            nodes = (1, 2, 3)

            def neighbors(self, node):
                return {1: {2}, 2: {1, 3}, 3: {2}}[node]

        topo = ensure_topology(Plain())
        assert topo.ids == (1, 2, 3)
        assert topo.edges() == ((1, 2), (2, 3))
        # DistGraph inputs reuse the existing topology, no rebuild.
        graph = line(3)
        assert ensure_topology(graph) is graph.csr
