"""Hardening: predictions can be arbitrary garbage, not just wrong.

The paper's model says predictions "may be incorrect"; a production
implementation must also survive *malformed* predictions (wrong types,
missing entries, out-of-range values) — treating them as maximally wrong
rather than crashing.  Every template × problem pipeline is exercised
with hostile prediction payloads.
"""

import pytest

from repro.bench.algorithms import (
    coloring_parallel,
    coloring_simple,
    edge_coloring_simple,
    matching_simple,
    mis_blackwhite_simple,
    mis_parallel,
    mis_simple,
)
from repro.core import run
from repro.errors import error_components, eta1
from repro.graphs import erdos_renyi
from repro.problems import EDGE_COLORING, MATCHING, MIS, VERTEX_COLORING


GRAPH = erdos_renyi(24, 0.2, seed=20)


def garbage_variants(graph):
    """A grab bag of hostile prediction maps."""
    yield "all-none", {v: None for v in graph.nodes}
    yield "strings", {v: "banana" for v in graph.nodes}
    yield "floats", {v: 0.5 for v in graph.nodes}
    yield "huge-ints", {v: 10**12 for v in graph.nodes}
    yield "negative", {v: -1 for v in graph.nodes}
    yield "mixed", {
        v: [None, "x", 3.14, -7, 10**9][v % 5] for v in graph.nodes
    }
    yield "empty", {}
    yield "lists", {v: [v] for v in graph.nodes}
    yield "dicts", {v: {1: 2} for v in graph.nodes}


MIS_ALGORITHMS = [mis_simple, mis_parallel, mis_blackwhite_simple]


class TestMISGarbage:
    @pytest.mark.parametrize("factory", MIS_ALGORITHMS, ids=lambda f: f.__name__)
    def test_all_variants_still_solve(self, factory):
        algorithm = factory()
        for label, predictions in garbage_variants(GRAPH):
            result = run(algorithm, GRAPH, predictions, max_rounds=20000)
            assert MIS.is_solution(GRAPH, result.outputs), (
                factory.__name__,
                label,
            )

    def test_garbage_is_maximal_error(self):
        for label, predictions in garbage_variants(GRAPH):
            error = eta1(GRAPH, predictions)
            biggest = max(len(c) for c in GRAPH.components())
            assert error == biggest, label


class TestOtherProblemsGarbage:
    def test_matching(self):
        algorithm = matching_simple()
        for label, predictions in garbage_variants(GRAPH):
            result = run(algorithm, GRAPH, predictions, max_rounds=20000)
            assert MATCHING.is_solution(GRAPH, result.outputs), label

    def test_vertex_coloring(self):
        for factory in (coloring_simple, coloring_parallel):
            algorithm = factory()
            for label, predictions in garbage_variants(GRAPH):
                result = run(algorithm, GRAPH, predictions, max_rounds=20000)
                assert VERTEX_COLORING.is_solution(GRAPH, result.outputs), (
                    factory.__name__,
                    label,
                )

    def test_edge_coloring(self):
        algorithm = edge_coloring_simple()
        variants = list(garbage_variants(GRAPH)) + [
            (
                "bad-dicts",
                {v: {99: "red", -3: 0.1} for v in GRAPH.nodes},
            ),
            (
                "self-colors",
                {v: {v: 1} for v in GRAPH.nodes},
            ),
        ]
        for label, predictions in variants:
            result = run(algorithm, GRAPH, predictions, max_rounds=20000)
            assert EDGE_COLORING.is_solution(GRAPH, result.outputs), label


class TestErrorMachineryGarbage:
    def test_error_components_accept_garbage(self):
        for problem in ("mis", "matching", "vertex-coloring", "edge-coloring"):
            for label, predictions in garbage_variants(GRAPH):
                components = error_components(problem, GRAPH, predictions)
                union = set().union(*components) if components else set()
                assert union <= set(GRAPH.nodes), (problem, label)

    @pytest.mark.parametrize("problem", ["mis", "matching", "vertex-coloring"])
    def test_garbage_is_maximal_error_for_node_problems(self, problem):
        biggest = max(len(c) for c in GRAPH.components())
        for label, predictions in garbage_variants(GRAPH):
            assert eta1(GRAPH, predictions, problem) == biggest, (problem, label)

    def test_partial_prediction_maps(self):
        """Predictions covering only some nodes behave like garbage on
        the rest (missing = None)."""
        half = {v: 1 for v in list(GRAPH.nodes)[: GRAPH.n // 2]}
        result = run(mis_simple(), GRAPH, half, max_rounds=20000)
        assert MIS.is_solution(GRAPH, result.outputs)
