"""Maximal matching via edge coloring: O(Δ² + log* d) rounds, n-free.

A proper (2Δ−1)-edge coloring turns maximal matching into a color-class
sweep: color classes are matchings, so in round ``c`` every still-
unmatched pair joined by a ``c``-colored edge matches greedily — no two
candidate edges share an endpoint.  After all ``2Δ − 1`` classes no edge
has two unmatched endpoints, so outputting ⊥ at the stragglers is
maximal.

Combined with the line-graph Linial coloring
(:class:`~repro.algorithms.edge_coloring.linegraph.
LineGraphEdgeColoringAlgorithm`), this yields a prediction-free maximal
matching whose worst case depends only on Δ and d — the matching
analogue of Corollary 12's n-independent MIS reference, giving the
Maximal Matching problem its own robustness crossover (benchmark E23).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.algorithms.edge_coloring.linegraph import (
    LineGraphColoringProgram,
    line_graph_round_bound,
)
from repro.core.algorithm import DistributedAlgorithm
from repro.problems.matching import UNMATCHED
from repro.simulator.context import NodeContext
from repro.simulator.program import Inbox, NodeProgram, Outbox


class MatchingFromEdgeColorsProgram(NodeProgram):
    """The color-class sweep: round ``c`` matches the ``c``-colored edges.

    ``colors`` maps each neighbor to the (agreed) color of the shared
    edge.  In round ``c``, an unmatched node with a ``c``-colored edge to
    a still-active neighbor offers itself; mutual offers match.  Colors
    agree at both endpoints, so offers along an edge are always mutual —
    an offer can only go unanswered when the neighbor already terminated.
    """

    AVAILABLE = "avail"

    def __init__(self, colors: Optional[Dict[int, int]]) -> None:
        self._colors = dict(colors or {})
        self._palette_size = max([0, *self._colors.values()])

    def setup(self, ctx: NodeContext) -> None:
        if not ctx.active_neighbors:
            ctx.set_output(UNMATCHED)
            ctx.terminate()

    def _partner_for_class(self, ctx: NodeContext, class_index: int):
        for other, color in self._colors.items():
            if color == class_index and other in ctx.active_neighbors:
                return other
        return None

    def compose(self, ctx: NodeContext) -> Outbox:
        partner = self._partner_for_class(ctx, ctx.round)
        if partner is not None:
            return {partner: self.AVAILABLE}
        return {}

    def process(self, ctx: NodeContext, inbox: Inbox) -> None:
        partner = self._partner_for_class(ctx, ctx.round)
        if partner is not None and inbox.get(partner) == self.AVAILABLE:
            ctx.set_output(partner)
            ctx.terminate()
            return
        if ctx.round > self._palette_size:
            # All classes processed: every neighbor is matched.
            ctx.set_output(UNMATCHED)
            ctx.terminate()


class ColoredMatchingAlgorithm(DistributedAlgorithm):
    """Prediction-free maximal matching in O(Δ² + log* d) rounds.

    Phase 1 runs the line-graph Linial edge coloring with its outputs
    held locally; phase 2 sweeps the color classes.
    """

    name = "colored-matching"

    def round_bound(self, n: int, delta: int, d: int) -> int:
        return line_graph_round_bound(d, delta) + max(1, 2 * delta - 1) + 1

    def build_program(self) -> NodeProgram:
        from repro.core.composition import SlicedProgram

        return SlicedProgram(ColoredMatchingAlgorithm._slice_schedule, self)

    def _slice_schedule(self, knowledge: Any) -> Iterator[Any]:
        from repro.core.composition import Slice

        yield Slice(
            "edge-color",
            line_graph_round_bound(knowledge.d, knowledge.delta or 0),
            lambda host: NodeProgram(),
            parallel_builder=lambda host: LineGraphColoringProgram(),
        )
        yield Slice(
            "sweep",
            None,
            lambda host: MatchingFromEdgeColorsProgram(host.last_parallel_result),
        )
