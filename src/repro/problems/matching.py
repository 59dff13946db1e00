"""The Maximal Matching problem (Section 8.1).

Each node outputs the identifier of the neighbor it is matched to, or
``UNMATCHED`` (the paper's ⊥).  When all nodes have terminated,
``y_i = j`` iff ``y_j = i``, and every unmatched node has only matched
neighbors.  Predictions are a predicted partner (or ⊥) per node.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs.graph import DistGraph
from repro.problems.base import (
    GraphProblem,
    Outputs,
    clashing_neighbors,
    lookup,
    output_indices,
    processing_order,
)

#: The ⊥ output: the node ends up unmatched.
UNMATCHED = "unmatched"


class MaximalMatchingProblem(GraphProblem):
    """Maximal Matching: outputs are partner ids or ``UNMATCHED``."""

    name = "matching"

    # ------------------------------------------------------------------
    def verify_solution(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        problems = self.check_outputs_complete(graph, outputs)
        if problems:
            return problems
        problems.extend(self._check_consistency(graph, outputs))
        return problems

    def verify_partial(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        return self._check_consistency(graph, outputs)

    def _check_consistency(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        """Matched pairs are mutual edges; no two ⊥-nodes are adjacent.

        An array check accepts consistent outputs; only outputs it rejects
        are walked by :meth:`_report`, which finds the violations.
        """
        if self._accepts(graph, outputs):
            return []
        return self._report(graph, outputs)

    def _accepts(self, graph: DistGraph, outputs: Outputs) -> bool:
        """Whether every output at a node of the graph names a neighbor
        that names it back, or is ⊥ with no ⊥ neighbor."""
        csr = graph.csr
        index = output_indices(csr, outputs)
        if index is None:
            return False
        values = list(outputs.values())
        named = np.array(lookup(csr.index_of, values, -1), dtype=np.int64)
        # A value naming no node must be ⊥.  Only a ``str`` counts here,
        # so no other type's ``==`` runs before the report's.
        for position in np.flatnonzero(named < 0).tolist():
            value = values[position]
            if type(value) is not str or value != UNMATCHED:
                return False
        arrays = csr.arrays
        partner = np.full(csr.n, -1, dtype=np.int64)
        partner[index] = named
        bottom = np.zeros(csr.n, dtype=bool)
        bottom[index[named < 0]] = True
        matched = index[named >= 0]
        adjacent = arrays.segment_any(partner[arrays.sources] == arrays.indices)
        return (
            bool(adjacent[matched].all())
            and bool((partner[partner[matched]] == matched).all())
            and not arrays.segment_any(bottom[arrays.indices])[bottom].any()
        )

    def _report(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        """Every violation, by CSR index.

        Walks the decided nodes by CSR index in ascending id order; the
        adjacent ⊥-nodes of one node come out in the order of
        :func:`~repro.problems.base.clashing_neighbors`.  An output key
        outside the graph raises ``KeyError``, an unhashable partner
        ``TypeError``.
        """
        problems: List[str] = []
        csr = graph.csr
        ids = csr.ids
        indptr = csr.indptr
        indices = csr.indices
        index_of = csr.index_of
        # ``outputs.get`` by index: None for undecided nodes.
        values: List[Any] = [None] * csr.n
        decided: List[int] = []
        for node, value in outputs.items():
            index = index_of[node]
            values[index] = value
            decided.append(index)
        decided.sort()
        # Partners of reciprocated matches pass their own check too.
        confirmed = bytearray(csr.n)
        unmatched: List[int] = []
        for index in decided:
            if confirmed[index]:
                continue
            value = values[index]
            partner = index_of.get(value)
            if partner is None and value == UNMATCHED:
                unmatched.append(index)
                continue
            if partner is None or not csr.adjacent(index, partner):
                problems.append(
                    f"node {ids[index]} matched to non-neighbor {value!r}"
                )
                continue
            partner_value = values[partner]
            if partner_value != ids[index]:
                problems.append(
                    f"match {ids[index]}->{value} not reciprocated "
                    f"(partner output {partner_value!r})"
                )
            else:
                confirmed[partner] = 1
        for index in unmatched:
            for position in range(indptr[index], indptr[index + 1]):
                other = indices[position]
                if other > index and values[other] == UNMATCHED:
                    break
            else:
                continue
            node = ids[index]
            for other in clashing_neighbors(graph, index, values, UNMATCHED):
                problems.append(f"adjacent unmatched nodes {node} and {other}")
        return problems

    def extendability_violations(
        self, graph: DistGraph, outputs: Outputs
    ) -> List[str]:
        """Extendability for Maximal Matching (Section 8.1).

        A partial solution is extendable when matched pairs are mutual
        edges, and every ⊥-node's neighbors are all decided and matched —
        otherwise a remainder solution could leave an edge between two
        unmatched nodes.
        """
        problems = self._check_consistency(graph, outputs)
        for node, value in sorted(outputs.items()):
            if value != UNMATCHED:
                continue
            for other in graph.neighbors(node):
                if other not in outputs:
                    problems.append(
                        f"unmatched node {node} has undecided neighbor {other}"
                    )
                elif outputs[other] == UNMATCHED:
                    pass  # already reported by the consistency check
        return problems

    # ------------------------------------------------------------------
    def solve_sequential(
        self, graph: DistGraph, order: Optional[Sequence[int]] = None
    ) -> Outputs:
        """Greedy maximal matching: match each node to its first free neighbor.

        Free neighbors rank by their position in ``order`` (default:
        ascending identifiers), a neighbor that ``order`` leaves out by
        its identifier.  Equal ranks go to the first in
        ``graph.neighbors(node)`` order, so that set is read only on a
        tie, which a full order never has.
        """
        csr = graph.csr
        ids = csr.ids
        indptr = csr.indptr
        indices = csr.indices
        sequence = processing_order(csr, order)
        rank: Sequence[int] = sequence
        if order is not None:
            rank = list(ids)
            for position, index in enumerate(sequence):
                rank[index] = position
        mate = [-1] * csr.n
        for index in sequence:
            if mate[index] >= 0:
                continue
            best = -1
            tied = False
            for other in indices[indptr[index] : indptr[index + 1]]:
                if mate[other] < 0:
                    if best < 0 or rank[other] < rank[best]:
                        best = other
                        tied = False
                    elif rank[other] == rank[best]:
                        tied = True
            if best < 0:
                continue
            if tied:
                key = rank[best]
                neighbors = map(csr.index_of.__getitem__, graph.neighbors(ids[index]))
                best = next(
                    other
                    for other in neighbors
                    if mate[other] < 0 and rank[other] == key
                )
            mate[index] = best
            mate[best] = index
        return {
            node: ids[mate[index]] if mate[index] >= 0 else UNMATCHED
            for index, node in enumerate(ids)
        }

    # ------------------------------------------------------------------
    def matched_edges(self, outputs: Outputs) -> Set[Tuple[int, int]]:
        """The matching as a set of ``(min, max)`` edges."""
        edges = set()
        for node, value in outputs.items():
            if value != UNMATCHED and outputs.get(value) == node:
                edges.add((min(node, value), max(node, value)))
        return edges


#: Singleton instance used throughout the repository.
MATCHING = MaximalMatchingProblem()
