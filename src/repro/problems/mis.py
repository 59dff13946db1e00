"""The Maximal Independent Set problem (Section 3).

Each node outputs a bit; the nodes outputting 1 must form a maximal
independent set.  Predictions are one bit per node (1 = predicted in the
set).  The two kinds of prediction error (Section 1.1): two adjacent nodes
both predicted 1 (not independent), or a node and all its neighbors
predicted 0 (not maximal).
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.graphs.graph import DistGraph
from repro.problems.base import (
    GraphProblem,
    Outputs,
    output_indices,
    processing_order,
)

#: Codes of :func:`bit_codes`: the value equals 1, or equals 0.
ONE = 1
ZERO = 2


def bit_codes(values: Iterable[Any]) -> np.ndarray:
    """Per value, :data:`ONE` if it equals 1, :data:`ZERO` if it equals 0,
    else 0 — the comparisons, in the order, that the MIS checks and the
    MIS Base Algorithm apply to one output or prediction."""
    return np.array(
        [ONE if value == 1 else ZERO if value == 0 else 0 for value in values],
        dtype=np.int8,
    )


class MaximalIndependentSetProblem(GraphProblem):
    """MIS: output 1 to join the independent set, 0 otherwise."""

    name = "mis"

    # ------------------------------------------------------------------
    def verify_solution(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        problems = self.check_outputs_complete(graph, outputs)
        if problems:
            return problems
        problems.extend(self.verify_partial(graph, outputs))
        return problems

    def verify_partial(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        """MIS conditions on the subgraph induced by the decided nodes.

        An array check accepts valid outputs; only outputs it rejects are
        walked by :meth:`_report`, which finds the violations.
        """
        if self._accepts(graph, outputs):
            return []
        return self._report(graph, outputs)

    def _accepts(self, graph: DistGraph, outputs: Outputs) -> bool:
        """Whether every output is 0 or 1 at a node of the graph, no two
        1-nodes are adjacent and every 0-node has a 1-neighbor."""
        csr = graph.csr
        index = output_indices(csr, outputs)
        if index is None:
            return False
        codes = bit_codes(outputs.values())
        if not codes.all():
            return False
        arrays = csr.arrays
        chosen = np.zeros(csr.n, dtype=bool)
        chosen[index[codes == ONE]] = True
        # A 1-node with a 1-neighbor is itself dominated.
        dominated = arrays.segment_any(chosen[arrays.indices])
        return not dominated[chosen].any() and bool(dominated[index[codes == ZERO]].all())

    def _report(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        """Every violation, by CSR index.

        One pass over ``outputs`` flags the 1-nodes by CSR index; one walk
        over their rows reports adjacent 1-nodes (ascending ids) and marks
        every node with a decided 1-neighbor, so each 0-node then reads a
        single flag.  An output key outside the graph whose value is 0 or
        1 raises ``KeyError``.
        """
        problems: List[str] = []
        csr = graph.csr
        ids = csr.ids
        indptr = csr.indptr
        indices = csr.indices
        index_of = csr.index_of
        chosen = bytearray(csr.n)
        ones: List[int] = []
        zeros: List[int] = []
        for node, value in outputs.items():
            if value == 1:
                index = index_of[node]
                chosen[index] = 1
                ones.append(index)
            elif value == 0:
                zeros.append(index_of[node])
            else:
                problems.append(f"node {node} output {value!r}, expected 0 or 1")
        ones.sort()
        dominated = bytearray(csr.n)
        for index in ones:
            for position in range(indptr[index], indptr[index + 1]):
                other = indices[position]
                dominated[other] = 1
                if other > index and chosen[other]:
                    problems.append(
                        f"adjacent nodes {ids[index]} and {ids[other]} both output 1"
                    )
        for index in zeros:
            if not dominated[index]:
                problems.append(
                    f"node {ids[index]} output 0 without a decided 1-neighbor"
                )
        return problems

    def extendability_violations(
        self, graph: DistGraph, outputs: Outputs
    ) -> List[str]:
        """The paper's extendability conditions for MIS (Section 3).

        A partial solution is extendable exactly when:

        * the 1-nodes form an independent set of the whole graph;
        * every neighbor of a 1-node is decided (necessarily 0);
        * every decided 0-node has a decided 1-neighbor (this is already
          part of being a *partial solution* — a valid MIS of the induced
          subgraph — and is what every algorithm in the paper guarantees:
          a node outputs 0 only after seeing a neighbor output 1).

        Together the conditions are necessary and sufficient; the
        exhaustive small-graph suite verifies agreement with brute force
        over every partial assignment of every 4-node graph.
        """
        problems: List[str] = []
        chosen = {node for node, value in outputs.items() if value == 1}
        for node in sorted(chosen):
            for other in sorted(graph.neighbors(node)):
                if other in chosen and other > node:
                    problems.append(f"adjacent 1-nodes {node}, {other}")
                if other not in outputs:
                    problems.append(
                        f"neighbor {other} of 1-node {node} is undecided"
                    )
        for node, value in sorted(outputs.items()):
            if value == 0 and not any(
                other in chosen for other in graph.neighbors(node)
            ):
                problems.append(f"0-node {node} has no decided 1-neighbor")
        return problems

    # ------------------------------------------------------------------
    def solve_sequential(
        self, graph: DistGraph, order: Optional[Sequence[int]] = None
    ) -> Outputs:
        """Greedy MIS: scan nodes in order, add when no neighbor is in yet."""
        csr = graph.csr
        indptr = csr.indptr
        indices = csr.indices
        chosen = bytearray(csr.n)
        # blocked[i]: some neighbor of i is in the set already.
        blocked = bytearray(csr.n)
        for index in processing_order(csr, order):
            if not blocked[index]:
                chosen[index] = 1
                for other in indices[indptr[index] : indptr[index + 1]]:
                    blocked[other] = 1
        return dict(zip(csr.ids, chosen))

    # ------------------------------------------------------------------
    # Exact machinery for small instances (tests and the η_H measure)
    # ------------------------------------------------------------------
    def all_maximal_independent_sets(self, graph: DistGraph) -> Iterable[Set[int]]:
        """Enumerate every maximal independent set (small graphs only).

        Maximal independent sets of ``G`` are the maximal cliques of the
        complement; we enumerate with a simple Bron–Kerbosch on the
        complement adjacency, adequate for the instance sizes where exact
        enumeration is ever needed.
        """
        nodes = list(graph.nodes)
        complement = {
            v: {u for u in nodes if u != v and not graph.has_edge(u, v)}
            for v in nodes
        }

        results: List[Set[int]] = []

        def expand(r: Set[int], p: Set[int], x: Set[int]) -> None:
            if not p and not x:
                results.append(set(r))
                return
            pivot_pool = p | x
            pivot = max(pivot_pool, key=lambda v: len(complement[v] & p))
            for v in sorted(p - complement[pivot]):
                expand(r | {v}, p & complement[v], x & complement[v])
                p = p - {v}
                x = x | {v}

        expand(set(), set(nodes), set())
        return results

    def is_extendable_exact(self, graph: DistGraph, outputs: Outputs) -> bool:
        """Brute-force extendability (exponential; tests only).

        Checks that for *every* maximal independent set of the remainder
        graph, the union with the partial solution solves the whole graph.
        """
        if self.verify_partial(graph, outputs):
            return False
        remainder_nodes = [node for node in graph.nodes if node not in outputs]
        remainder = graph.subgraph(remainder_nodes)
        remainder_solutions = self.all_maximal_independent_sets(remainder)
        for chosen in remainder_solutions:
            combined = dict(outputs)
            combined.update(
                {node: (1 if node in chosen else 0) for node in remainder_nodes}
            )
            if self.verify_solution(graph, combined):
                return False
        return True

    def independent_set_of(self, outputs: Outputs) -> Set[int]:
        """The set of nodes with output 1."""
        return {node for node, value in outputs.items() if value == 1}


#: Singleton instance used throughout the repository.
MIS = MaximalIndependentSetProblem()
