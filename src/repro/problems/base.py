"""The abstract problem interface.

A :class:`GraphProblem` bundles everything the framework needs to know
about one distributed graph problem: how to check a complete solution, how
to check a partial solution, when a partial solution is *extendable*
(Section 3: a partial solution that together with *any* solution on the
remainder yields a solution on the whole graph), and how to solve the
problem sequentially (to manufacture perfect predictions).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.graphs.csr import CSRTopology
from repro.graphs.graph import DistGraph

#: A (possibly partial) assignment of outputs: node id -> output value.
Outputs = Dict[int, Any]


class GraphProblem(ABC):
    """Definition of one distributed graph problem.

    Subclasses provide verifiers and a sequential solver; all methods are
    pure functions of the instance and the outputs, so they are usable both
    by tests and by the error-measure machinery.
    """

    #: Short problem name (e.g. ``"mis"``).
    name: str = ""

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    @abstractmethod
    def verify_solution(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        """Check a complete solution; return a list of violations."""

    @abstractmethod
    def verify_partial(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        """Check a partial solution on the subgraph induced by its nodes."""

    @abstractmethod
    def extendability_violations(
        self, graph: DistGraph, outputs: Outputs
    ) -> List[str]:
        """Check that a partial solution is extendable; return violations.

        The conditions checked are those the paper's algorithms guarantee
        (e.g. for MIS: the 1-nodes are independent in the *whole* graph,
        every neighbor of a 1-node is a decided 0, every decided 0 has a
        decided 1-neighbor).  They are sufficient for extendability; see
        each problem module for the exact characterization used.
        """

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def is_solution(self, graph: DistGraph, outputs: Outputs) -> bool:
        """Whether ``outputs`` is a complete, correct solution."""
        return not self.verify_solution(graph, outputs)

    def is_extendable(self, graph: DistGraph, outputs: Outputs) -> bool:
        """Whether the partial solution is extendable."""
        return not self.extendability_violations(graph, outputs)

    # ------------------------------------------------------------------
    # Sequential solving
    # ------------------------------------------------------------------
    @abstractmethod
    def solve_sequential(
        self, graph: DistGraph, order: Optional[Sequence[int]] = None
    ) -> Outputs:
        """Produce a correct complete solution by a greedy sequential pass.

        ``order`` fixes the processing order of nodes (default: increasing
        identifier); different orders produce different correct solutions,
        which is how experiments sample the solution space.
        """

    def check_outputs_complete(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        """Violations for outputs that do not cover every node."""
        missing = [node for node in graph.nodes if node not in outputs]
        if missing:
            return [f"missing outputs for nodes {missing[:10]}"]
        return []


def lookup(table: Mapping[Any, Any], values: List[Any], default: Any) -> List[Any]:
    """``table.get(value, default)`` per value; an unhashable value,
    which can equal no key, gets ``default``."""
    get = table.get
    try:
        return [get(value, default) for value in values]
    except TypeError:
        pass
    found = []
    for value in values:
        try:
            found.append(get(value, default))
        except TypeError:
            found.append(default)
    return found


def output_indices(csr: CSRTopology, outputs: Outputs) -> Optional[np.ndarray]:
    """CSR indices of the keys of ``outputs`` in iteration order, or
    ``None`` when a key is not a node of ``csr``.

    The validators' array checks start here: they only accept, so a key
    outside the graph sends the outputs to the per-index report, which
    raises or reports it as it always has.
    """
    try:
        return np.fromiter(
            map(csr.index_of.__getitem__, outputs), dtype=np.int64, count=len(outputs)
        )
    except KeyError:
        return None


def processing_order(
    csr: CSRTopology, order: Optional[Sequence[int]]
) -> Sequence[int]:
    """CSR indices in a sequential solver's processing order: ascending
    identifiers without ``order``, else ``order``'s nodes (``KeyError``
    for a node outside the graph)."""
    if order is None:
        return range(csr.n)
    return [csr.index_of[node] for node in order]


def clashing_neighbors(
    graph: DistGraph, index: int, values: List[Any], value: Any
) -> List[int]:
    """Neighbors of CSR ``index`` with a higher id whose ``values`` entry
    equals ``value``, as identifiers in ``graph.neighbors(node)`` order.

    The matching and coloring checks have always reported the clashes at
    one node in the iteration order of its neighbor set; the CSR row is
    ascending, so that order is restored here (the set is only read when
    there are two or more).
    """
    csr = graph.csr
    ids = csr.ids
    row = csr.indices[csr.indptr[index] : csr.indptr[index + 1]]
    clashes = [ids[other] for other in row if other > index and values[other] == value]
    if len(clashes) < 2:
        return clashes
    wanted = set(clashes)
    return [other for other in graph.neighbors(ids[index]) if other in wanted]


def decided_nodes(outputs: Outputs) -> List[int]:
    """Nodes that have produced an output, sorted."""
    return sorted(outputs)
