"""Tests for graph generators (including the paper's Figure 1 family)."""

import pytest

from repro.graphs import (
    barabasi_albert,
    caterpillar,
    clique,
    complete_bipartite,
    connected_erdos_renyi,
    directed_line,
    empty_graph,
    erdos_renyi,
    from_parents,
    grid2d,
    line,
    path_forest,
    random_regular,
    random_rooted_tree,
    random_tree,
    ring,
    star,
    strict_binary_tree,
    validate_instance,
    wheel_fk,
)
from repro.graphs.rooted_trees import tree_children, tree_height, tree_parent


class TestDeterministicFamilies:
    def test_line_structure(self):
        graph = line(5)
        assert graph.n == 5
        assert graph.degree(1) == 1
        assert graph.degree(3) == 2
        assert graph.has_edge(2, 3)

    def test_single_node_line(self):
        assert line(1).num_edges == 0

    def test_ring_structure(self):
        graph = ring(5)
        assert all(graph.degree(v) == 2 for v in graph.nodes)
        assert graph.has_edge(5, 1)

    def test_ring_too_small(self):
        with pytest.raises(ValueError):
            ring(2)

    def test_star_structure(self):
        graph = star(6)
        assert graph.degree(1) == 5
        assert all(graph.degree(v) == 1 for v in range(2, 7))

    def test_clique_structure(self):
        graph = clique(5)
        assert graph.num_edges == 10
        assert all(graph.degree(v) == 4 for v in graph.nodes)

    def test_complete_bipartite(self):
        graph = complete_bipartite(2, 3)
        assert graph.num_edges == 6
        assert not graph.has_edge(1, 2)

    def test_empty_graph(self):
        graph = empty_graph(4)
        assert graph.num_edges == 0
        assert graph.n == 4

    def test_grid_structure(self):
        graph = grid2d(3, 4)
        assert graph.n == 12
        assert graph.node_attrs(1)["pos"] == (0, 0)
        assert graph.node_attrs(12)["pos"] == (2, 3)
        corner_degrees = [graph.degree(1), graph.degree(4)]
        assert corner_degrees == [2, 2]
        assert graph.delta <= 4

    def test_caterpillar(self):
        graph = caterpillar(4, 2)
        assert graph.n == 4 + 8
        assert graph.degree(1) == 3  # one spine neighbor + two legs

    def test_path_forest(self):
        graph = path_forest(5, 4)
        assert graph.n == 20
        assert len(graph.components()) == 5
        assert all(len(c) == 4 for c in graph.components())


class TestWheelFigure1:
    """The F_k construction of Figure 1."""

    def test_node_count(self):
        assert wheel_fk(8).n == 17

    def test_roles(self):
        graph = wheel_fk(5)
        roles = [graph.node_attrs(v)["role"] for v in graph.nodes]
        assert roles.count("rim") == 5
        assert roles.count("spoke") == 5
        assert roles.count("center") == 1

    def test_diameter_is_four(self):
        # For k >= 8 the diameter is exactly 4 (below that, rim shortcuts
        # make the graph even smaller in diameter).
        for k in (8, 12, 16):
            assert wheel_fk(k).diameter() == 4
        assert wheel_fk(5).diameter() <= 4

    def test_rim_subgraph_diameter_is_k_over_two(self):
        for k in (8, 12, 16):
            rim = wheel_fk(k).subgraph(range(1, k + 1))
            assert rim.diameter() == k // 2

    def test_rim_is_cycle(self):
        graph = wheel_fk(6)
        rim = graph.subgraph(range(1, 7))
        assert all(rim.degree(v) == 2 for v in rim.nodes)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            wheel_fk(2)


class TestRandomFamilies:
    def test_erdos_renyi_seeded(self):
        assert erdos_renyi(20, 0.3, seed=1).edges() == erdos_renyi(
            20, 0.3, seed=1
        ).edges()
        assert erdos_renyi(20, 0.3, seed=1).edges() != erdos_renyi(
            20, 0.3, seed=2
        ).edges()

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.99, 1.0])
    def test_erdos_renyi_is_networkx_sample(self, p):
        """The native sampler draws exactly networkx's ``G(n, p)``."""
        import networkx as nx

        for n, seed in ((0, 0), (1, 3), (25, 4), (90, 5)):
            expected = sorted(
                (u + 1, v + 1)
                for u, v in nx.gnp_random_graph(n, p, seed=seed).edges()
            )
            graph = erdos_renyi(n, p, seed=seed)
            assert graph.nodes == tuple(range(1, n + 1))
            assert graph.edges() == expected

    def test_connected_erdos_renyi_is_connected(self):
        for seed in range(5):
            assert connected_erdos_renyi(30, 0.05, seed=seed).is_connected()

    def test_connected_erdos_renyi_is_networkx_patch(self):
        """The patch links networkx's components, in its order, with the
        same draws: the graphs equal the networkx-built ones."""
        import random

        import networkx as nx

        for n, p, seed in ((1, 0.5, 0), (30, 0.05, 1), (60, 0.02, 2), (120, 0.01, 8)):
            nx_graph = nx.gnp_random_graph(n, p, seed=seed)
            rng = random.Random(f"{seed}:connect")
            parts = [sorted(c) for c in nx.connected_components(nx_graph)]
            for previous, current in zip(parts, parts[1:]):
                nx_graph.add_edge(rng.choice(previous), rng.choice(current))
            expected = sorted(
                (min(u, v) + 1, max(u, v) + 1) for u, v in nx_graph.edges()
            )
            graph = connected_erdos_renyi(n, p, seed=seed)
            assert graph.nodes == tuple(range(1, n + 1))
            assert graph.edges() == expected

    def test_random_regular_degrees(self):
        graph = random_regular(16, 3, seed=2)
        assert all(graph.degree(v) == 3 for v in graph.nodes)

    def test_barabasi_albert_connected(self):
        assert barabasi_albert(30, 2, seed=3).is_connected()

    def test_random_tree_is_tree(self):
        for n in (1, 2, 10, 40):
            graph = random_tree(n, seed=5)
            assert graph.n == n
            assert graph.num_edges == n - 1 if n > 1 else graph.num_edges == 0
            assert graph.is_connected()

    def test_random_tree_seeded(self):
        assert random_tree(20, seed=1).edges() == random_tree(20, seed=1).edges()


class TestRootedTrees:
    def test_from_parents(self):
        graph = from_parents({1: None, 2: 1, 3: 1, 4: 2})
        assert graph.node_attrs(1)["is_root"]
        assert tree_parent(graph, 4) == 2
        assert tree_children(graph, 1) == [2, 3]

    def test_cycle_detected(self):
        with pytest.raises(ValueError, match="cycle"):
            from_parents({1: 2, 2: 1})

    def test_directed_line(self):
        graph = directed_line(6)
        assert tree_parent(graph, 6) == 5
        assert tree_height(graph) == 5
        assert validate_instance(graph, rooted=True) == []

    def test_random_rooted_tree_valid(self):
        for seed in range(4):
            graph = random_rooted_tree(25, seed=seed)
            assert validate_instance(graph, rooted=True) == []
            assert graph.is_connected()

    def test_max_children_respected(self):
        graph = random_rooted_tree(40, seed=1, max_children=2)
        assert all(len(tree_children(graph, v)) <= 2 for v in graph.nodes)

    def test_strict_binary_tree(self):
        graph = strict_binary_tree(3)
        assert graph.n == 15
        internal = [v for v in graph.nodes if tree_children(graph, v)]
        assert all(len(tree_children(graph, v)) == 2 for v in internal)
        assert tree_height(graph) == 3
