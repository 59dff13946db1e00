"""The two-part MIS reference of Corollary 12 (Section 7.4).

Part 1 is the fault-tolerant Linial-style (Δ+1)-vertex coloring (its
round bound depends only on Δ and d, not on n); part 2 turns the coloring
into a maximal independent set by considering color classes one at a
time, *augmented* with the paper's greedy rule so that a node joins the
independent set at least every other round in every component — the
property that makes the Parallel Template η₂-degrading:

    In round i, each active node with color i that has not seen a
    neighbor join outputs 1.  In addition, each active node with color
    greater than i that has not seen a neighbor join, has no active
    neighbor with color i, and whose identifier is larger than those of
    all its active neighbors also outputs 1.  A node with a neighbor that
    joined outputs 0.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.algorithms.coloring.linial import (
    LinialColoringProgram,
    linial_round_bound,
)
from repro.core.algorithm import DistributedAlgorithm, TwoPartReference
from repro.simulator.context import NodeContext
from repro.simulator.program import Inbox, NodeProgram, Outbox


class MISFromColoringProgram(NodeProgram):
    """Part 2: greedy-augmented color-class sweep producing an MIS.

    Round 1 exchanges colors among the remaining active nodes; from round
    2 on, color class ``i = round − 1`` is processed.  Joining is
    announced through the engine's termination notification (visible to
    neighbors one round later, the same timing as the paper's explicit
    messages).
    """

    def __init__(self, color: Optional[int]) -> None:
        if color is None:
            raise ValueError("part 2 requires the color stored by part 1")
        self._color = int(color)
        self._neighbor_colors: Dict[int, int] = {}

    def compose(self, ctx: NodeContext) -> Outbox:
        if ctx.round == 1:
            return {other: self._color for other in ctx.active_neighbors}
        return {}

    def process(self, ctx: NodeContext, inbox: Inbox) -> None:
        if ctx.round == 1:
            self._neighbor_colors = {
                sender: int(color) for sender, color in inbox.items()
            }
            return
        # A neighbor that joined the independent set is visible through
        # its announced output.
        if any(value == 1 for value in ctx.neighbor_outputs.values()):
            ctx.set_output(0)
            ctx.terminate()
            return
        class_index = ctx.round - 1
        if self._color == class_index:
            ctx.set_output(1)
            ctx.terminate()
            return
        # Greedy augmentation: a local identifier maximum with no active
        # neighbor in the current class may join early.
        has_class_neighbor = any(
            self._neighbor_colors.get(other) == class_index
            for other in ctx.active_neighbors
        )
        if (
            self._color > class_index
            and not has_class_neighbor
            and ctx.is_local_maximum()
        ):
            ctx.set_output(1)
            ctx.terminate()


class LinialMISAlgorithm(DistributedAlgorithm):
    """Prediction-free MIS in O(Δ² + log* d) rounds, as one algorithm.

    Runs the fault-tolerant coloring (its colors held locally) and then
    the greedy-augmented sweep — the standalone composition of Corollary
    12's two reference parts.  Its worst-case round bound depends only on
    Δ and d, which makes it the natural reference ``R`` whenever a
    template needs a bound *independent of n* (e.g. the trade-off study
    of the E20 benchmark).
    """

    name = "linial-mis"

    def round_bound(self, n: int, delta: int, d: int) -> int:
        return linial_round_bound(d, delta) + delta + 3

    def build_program(self) -> NodeProgram:
        from repro.core.composition import SlicedProgram

        return SlicedProgram(LinialMISAlgorithm._slice_schedule, self)

    def _slice_schedule(self, knowledge: Any) -> Iterator[Any]:
        from repro.core.composition import Slice

        yield Slice(
            "color",
            linial_round_bound(knowledge.d, knowledge.delta or 0),
            lambda host: NodeProgram(),
            parallel_builder=lambda host: LinialColoringProgram(
                respect_neighbor_outputs=False
            ),
        )
        yield Slice(
            "sweep",
            None,
            lambda host: MISFromColoringProgram(host.last_parallel_result),
        )


class ColoringMISReference(TwoPartReference):
    """Corollary 12's reference: fault-tolerant coloring, then the sweep.

    The substituted part-1 bound is ``O(Δ² + log* d)`` (see DESIGN.md);
    part 2 takes at most ``Δ + 3`` rounds on the remaining graph.
    """

    name = "coloring-mis-ref"
    part1_outputs_are_final = False

    def build_part1(self) -> NodeProgram:
        # Terminated neighbors carry MIS bits, not colors, so the coloring
        # must ignore neighbor outputs.
        return LinialColoringProgram(respect_neighbor_outputs=False)

    def part1_bound(self, n: int, delta: int, d: int) -> int:
        return linial_round_bound(d, delta)

    def build_part2(self, part1_result: Any) -> NodeProgram:
        return MISFromColoringProgram(part1_result)

    def part2_bound(self, n: int, delta: int, d: int) -> int:
        return delta + 3
