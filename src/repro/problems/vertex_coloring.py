"""The (Δ+1)-Vertex Coloring problem (Section 8.2).

Each node outputs a color in ``{1, ..., Δ+1}`` different from all its
neighbors' colors.  The problem is a special case of list vertex coloring:
a partial solution is extendable exactly when it is a proper partial
coloring with legal colors — every active node's remaining palette (the
colors not output by its neighbors) stays larger than its remaining
degree, so any remainder solution completes it.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Set

import numpy as np

from repro.graphs.graph import DistGraph
from repro.problems.base import (
    GraphProblem,
    Outputs,
    clashing_neighbors,
    output_indices,
    processing_order,
)


class VertexColoringProblem(GraphProblem):
    """(Δ+1)-Vertex Coloring: outputs are colors in ``{1, ..., Δ+1}``."""

    name = "vertex-coloring"

    def num_colors(self, graph: DistGraph) -> int:
        """The palette size for this instance: Δ + 1 (at least 1)."""
        return graph.delta + 1

    # ------------------------------------------------------------------
    def verify_solution(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        problems = self.check_outputs_complete(graph, outputs)
        if problems:
            return problems
        problems.extend(self.verify_partial(graph, outputs))
        return problems

    def verify_partial(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        """Color range and properness of the decided nodes.

        An array check accepts valid outputs; only outputs it rejects are
        walked by :meth:`_report`, which finds the violations.
        """
        if self._accepts(graph, outputs):
            return []
        return self._report(graph, outputs)

    def _accepts(self, graph: DistGraph, outputs: Outputs) -> bool:
        """Whether every output is a plain ``int`` color in ``1..Δ+1`` at a
        node of the graph and no two adjacent decided nodes share one."""
        csr = graph.csr
        index = output_indices(csr, outputs)
        if index is None:
            return False
        colors = list(outputs.values())
        if set(map(type, colors)) - {int}:  # e.g. bools: left to the report
            return False
        try:
            chosen = np.array(colors, dtype=np.int64)
        except OverflowError:
            return False
        if not ((chosen >= 1) & (chosen <= self.num_colors(graph))).all():
            return False
        arrays = csr.arrays
        # 0 marks an undecided node; legal colors are at least 1.
        color = np.zeros(csr.n, dtype=np.int64)
        color[index] = chosen
        own = color[arrays.sources]
        return not ((own == color[arrays.indices]) & (own > 0)).any()

    def _report(self, graph: DistGraph, outputs: Outputs) -> List[str]:
        """Every violation, by CSR index.

        Violations come out by ascending node id; the clashes at one node
        in the order of :func:`~repro.problems.base.clashing_neighbors`.
        An output key outside the graph raises ``KeyError``.
        """
        problems: List[str] = []
        palette_size = self.num_colors(graph)
        csr = graph.csr
        ids = csr.ids
        indptr = csr.indptr
        indices = csr.indices
        index_of = csr.index_of
        # ``outputs.get`` by index: None for undecided nodes.
        colors: List[Any] = [None] * csr.n
        decided: List[int] = []
        for node, color in outputs.items():
            index = index_of[node]
            colors[index] = color
            decided.append(index)
        decided.sort()
        for index in decided:
            color = colors[index]
            if not isinstance(color, int) or not 1 <= color <= palette_size:
                problems.append(
                    f"node {ids[index]} output {color!r}, expected a color in "
                    f"1..{palette_size}"
                )
        for index in decided:
            color = colors[index]
            for position in range(indptr[index], indptr[index + 1]):
                other = indices[position]
                if other > index and colors[other] == color:
                    break
            else:
                continue
            node = ids[index]
            for other in clashing_neighbors(graph, index, colors, color):
                problems.append(
                    f"adjacent nodes {node} and {other} share color {color}"
                )
        return problems

    def extendability_violations(
        self, graph: DistGraph, outputs: Outputs
    ) -> List[str]:
        """For (Δ+1)-coloring every proper partial coloring is extendable.

        Each active node always retains more palette colors than active
        neighbors (Section 8.2), so the only way to break extendability is
        to break properness or the color range.
        """
        return self.verify_partial(graph, outputs)

    # ------------------------------------------------------------------
    def solve_sequential(
        self, graph: DistGraph, order: Optional[Sequence[int]] = None
    ) -> Outputs:
        """Greedy coloring: each node takes the smallest free color.

        The result is keyed in processing order.
        """
        csr = graph.csr
        ids = csr.ids
        indptr = csr.indptr
        indices = csr.indices
        # 0 marks a node not colored yet; colors start at 1.
        color_at = [0] * csr.n
        colors: Outputs = {}
        for index in processing_order(csr, order):
            row = indices[indptr[index] : indptr[index + 1]]
            used = set(map(color_at.__getitem__, row))
            color = 1
            while color in used:
                color += 1
            color_at[index] = color
            colors[ids[index]] = color
        return colors

    def remaining_palette(
        self, graph: DistGraph, outputs: Outputs, node: int
    ) -> Set[int]:
        """Colors still available to an undecided node under ``outputs``."""
        used = {
            outputs[other] for other in graph.neighbors(node) if other in outputs
        }
        return set(range(1, self.num_colors(graph) + 1)) - used


#: Singleton instance used throughout the repository.
VERTEX_COLORING = VertexColoringProblem()
