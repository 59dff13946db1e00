"""Differential fuzz: the CSR-index validators and measures vs the oracle.

Hypothesis draws a graph (G(n, p), random tree, star, line, or a shard
view of one, whose ``n`` and Δ are pinned to its parent's), outputs and
predictions.  The live code in :mod:`repro.problems` and
:mod:`repro.errors` and the set-based oracle in
``tests/reference_measures.py`` must return equal message lists (text and
order), equal base-partial dicts, equal component lists and equal η₁; where
the oracle raises, the live code must raise the same exception type.

Outputs start from ``solve_sequential`` and are kept complete, made
partial, or perturbed; predictions start from a solution or from random
values.  Perturbations mix in missing entries, ``None``, strings, floats,
bools, huge ints, ``UNMATCHED``, other node ids (mostly non-neighbors)
and ids outside the graph.  Unhashable values are left out: matching
treats an unhashable predicted partner as no partner, where the oracle
raises (``tests/test_garbage_predictions.py`` covers that case).
"""

import random

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    black_white_components,
    error_components,
    eta1,
    matching_base_partial,
    mis_base_partial,
    vertex_coloring_base_partial,
)
from repro.graphs import DistGraph, erdos_renyi, line, random_tree, star
from repro.problems import UNMATCHED, get_problem
from repro.shard import shard_view

from tests import reference_measures as reference

NODE_PROBLEMS = ("mis", "matching", "vertex-coloring")

BASE_PARTIALS = {
    "mis": (mis_base_partial, reference.mis_base_partial),
    "matching": (matching_base_partial, reference.matching_base_partial),
    "vertex-coloring": (
        vertex_coloring_base_partial,
        reference.vertex_coloring_base_partial,
    ),
}

#: Hashable values no node problem outputs as given, or outputs only on
#: some nodes: wrong types, out-of-range colors, bools that equal 0/1,
#: floats that equal ints, and ⊥ where it is not a symbol.  Ints past
#: int64 and a NumPy integer that equals 1 are where an array decode
#: could part from the Python comparison.
JUNK = (
    None,
    "banana",
    "",
    0.5,
    0.0,
    1.0,
    2.0,
    True,
    False,
    10**12,
    2**63,
    2**64,
    -(2**63) - 1,
    numpy.int64(1),
    -1,
    0,
    1,
    2,
    3,
    UNMATCHED,
)


@st.composite
def graphs(draw):
    family = draw(st.sampled_from(("gnp", "tree", "star", "line")))
    n = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    if family == "gnp":
        p = draw(st.sampled_from((0.0, 0.1, 0.25, 0.5)))
        graph = erdos_renyi(n, p, seed=seed)
    elif family == "tree":
        graph = random_tree(n, seed=seed)
    elif family == "star":
        graph = star(n)
    else:
        graph = line(n)
    if draw(st.booleans()):
        # A shard view: its own nodes and edges, the parent's n and Δ.
        rng = random.Random(f"{seed}:view")
        graph = shard_view(
            graph, [node for node in graph.nodes if rng.random() < 0.6]
        )
    return graph


def junk(rng, graph):
    """One junk value: a JUNK entry, a node id, or an id outside the graph."""
    roll = rng.random()
    if roll < 0.25 and graph.nodes:
        return rng.choice(graph.nodes)
    if roll < 0.35:
        return graph.d + rng.randint(1, 3)
    return rng.choice(JUNK)


def perturb(rng, graph, mapping, missing, garbled):
    """``mapping`` with a share of entries dropped and another garbled."""
    result = {}
    for node, value in mapping.items():
        roll = rng.random()
        if roll < missing:
            continue
        if roll < missing + garbled:
            value = junk(rng, graph)
        result[node] = value
    return result


def shuffled(rng, graph):
    order = list(graph.nodes)
    rng.shuffle(order)
    return order


@st.composite
def outputs_for(draw, graph, problem_name):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    problem = get_problem(problem_name)
    solution = problem.solve_sequential(graph, order=shuffled(rng, graph))
    mode = rng.choice(("complete", "partial", "perturbed", "clashing"))
    if mode == "partial":
        outputs = perturb(rng, graph, solution, rng.random(), 0.0)
    elif mode == "perturbed":
        outputs = perturb(rng, graph, solution, 0.2 * rng.random(), rng.random())
    elif mode == "clashing":
        # One value on many nodes, so one node often clashes with several
        # neighbors: their order in the messages is part of the contract.
        value = {"mis": 1, "matching": UNMATCHED}.get(
            problem_name, rng.randint(1, 2)
        )
        share = rng.random()
        outputs = {
            node: value if rng.random() < share else solution_value
            for node, solution_value in solution.items()
        }
    else:
        outputs = solution
    if rng.random() < 0.15:
        # A key outside the graph: the oracle raises KeyError or not,
        # depending on its value.
        outputs[graph.d + rng.randint(1, 3)] = junk(rng, graph)
    return outputs


@st.composite
def predictions_for(draw, graph, problem_name):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    if rng.random() < 0.5:
        problem = get_problem(problem_name)
        start = problem.solve_sequential(graph, order=shuffled(rng, graph))
    else:
        start = {node: junk(rng, graph) for node in graph.nodes}
    return perturb(rng, graph, start, 0.3 * rng.random(), rng.random())


def outcome(call, *args):
    """``call(*args)``, or the type of the exception it raised."""
    try:
        return call(*args)
    except Exception as error:  # the oracle's exception type is contract
        return type(error)


def typed(value):
    """A dict's entries with their value types, so 1 and True differ."""
    if isinstance(value, dict):
        return {key: (type(item), item) for key, item in value.items()}
    return value


class TestValidatorsMatchOracle:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_messages_and_exceptions(self, data):
        graph = data.draw(graphs())
        problem_name = data.draw(st.sampled_from(NODE_PROBLEMS))
        outputs = data.draw(outputs_for(graph, problem_name))
        live = get_problem(problem_name)
        oracle = reference.REFERENCE_PROBLEMS[problem_name]
        for method in (
            "verify_partial",
            "verify_solution",
            "is_solution",
            "extendability_violations",
        ):
            if method == "extendability_violations" and problem_name == "mis":
                continue  # MIS extendability has its own, unchanged walk
            expected = outcome(getattr(oracle, method), graph, outputs)
            actual = outcome(getattr(live, method), graph, outputs)
            assert actual == expected, (method, problem_name, graph, outputs)


    def test_clashes_keep_neighbor_set_order(self):
        """Node 1's neighbor set iterates 9 before 3, so its clashes are
        reported in that order, not ascending."""
        graph = DistGraph({1: [3, 9], 3: [], 9: []})
        assert list(graph.neighbors(1)) == [9, 3]
        cases = (
            ("vertex-coloring", 1, "adjacent nodes 1 and {} share color 1"),
            ("matching", UNMATCHED, "adjacent unmatched nodes 1 and {}"),
        )
        for problem_name, value, template in cases:
            outputs = dict.fromkeys(graph.nodes, value)
            expected = [template.format(9), template.format(3)]
            oracle = reference.REFERENCE_PROBLEMS[problem_name]
            assert oracle.verify_partial(graph, outputs) == expected
            assert get_problem(problem_name).verify_partial(graph, outputs) == expected


class TestMeasuresMatchOracle:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_partials_components_and_eta1(self, data):
        graph = data.draw(graphs())
        problem_name = data.draw(st.sampled_from(NODE_PROBLEMS))
        predictions = data.draw(predictions_for(graph, problem_name))
        live_partial, oracle_partial = BASE_PARTIALS[problem_name]
        context = (problem_name, graph, predictions)
        assert typed(outcome(live_partial, graph, predictions)) == typed(
            outcome(oracle_partial, graph, predictions)
        ), context
        assert outcome(error_components, *context) == outcome(
            reference.error_components, *context
        ), context
        assert outcome(eta1, graph, predictions, problem_name) == outcome(
            reference.eta1, graph, predictions, problem_name
        ), context
        if problem_name == "mis":
            assert outcome(black_white_components, graph, predictions) == (
                outcome(reference.black_white_components, graph, predictions)
            ), context


class TestValidatorsAtScale:
    """The fuzz draws at most 24 nodes; these graphs are large enough
    that every array check runs over many rows."""

    @pytest.mark.parametrize(
        "graph",
        [random_tree(3000, seed=11), erdos_renyi(2000, 0.003, seed=12)],
        ids=["tree", "gnp"],
    )
    @pytest.mark.parametrize("problem_name", NODE_PROBLEMS)
    def test_solutions_and_single_entry_perturbations(self, graph, problem_name):
        rng = random.Random(f"{graph.name}:{problem_name}")
        live = get_problem(problem_name)
        oracle = reference.REFERENCE_PROBLEMS[problem_name]
        solution = live.solve_sequential(graph, order=shuffled(rng, graph))
        assert live.verify_solution(graph, solution) == []
        assert live.verify_partial(graph, solution) == []
        nodes = [graph.nodes[0], graph.nodes[-1], rng.choice(graph.nodes)]
        for node in nodes:
            other = rng.choice(sorted(graph.neighbors(node)) or graph.nodes)
            replacements = (*JUNK, other, graph.d + 1)
            variants = [{key: value for key, value in solution.items() if key != node}]
            variants += [{**solution, node: value} for value in replacements]
            variants.append({**solution, graph.d + 1: solution[node]})
            for outputs in variants:
                for method in ("verify_solution", "verify_partial"):
                    expected = outcome(getattr(oracle, method), graph, outputs)
                    actual = outcome(getattr(live, method), graph, outputs)
                    assert actual == expected, (method, problem_name, node)
