"""The MIS Initialization Algorithm (Section 4).

A reasonable (but non-pruning) initialization algorithm: the independent
set ``I`` consists of the nodes with prediction 1 whose neighbors with
prediction 1 (if any) all have smaller identifiers.  The extendable
partial solution it produces always contains the one produced by the MIS
Base Algorithm, and it has the same 3-round complexity, so any algorithm
with predictions that starts with it is consistent.
"""

from __future__ import annotations

from repro.core.algorithm import DistributedAlgorithm
from repro.simulator.context import NodeContext
from repro.simulator.program import Inbox, NodeProgram, Outbox


class MISInitializationProgram(NodeProgram):
    """Per-node program of the MIS Initialization Algorithm."""

    JOIN = "in"

    def __init__(self) -> None:
        self._in_independent_set = False
        self._dominated = False

    def compose(self, ctx: NodeContext) -> Outbox:
        if ctx.round == 1:
            return {other: ctx.prediction for other in ctx.active_neighbors}
        if ctx.round == 2 and self._in_independent_set:
            return {other: self.JOIN for other in ctx.active_neighbors}
        return {}

    def process(self, ctx: NodeContext, inbox: Inbox) -> None:
        if ctx.round == 1:
            self._in_independent_set = ctx.prediction == 1 and all(
                other < ctx.node_id
                for other in ctx.neighbors
                if inbox.get(other) == 1
            )
        elif ctx.round == 2:
            if self._in_independent_set:
                ctx.set_output(1)
                ctx.terminate()
            elif self.JOIN in inbox.values():
                self._dominated = True
        elif ctx.round == 3 and self._dominated:
            ctx.set_output(0)
            ctx.terminate()


class MISInitializationAlgorithm(DistributedAlgorithm):
    """The MIS Initialization Algorithm (reasonable, 3 rounds)."""

    name = "mis-init"
    uses_predictions = True

    def build_program(self) -> NodeProgram:
        return MISInitializationProgram()

    def round_bound(self, n: int, delta: int, d: int) -> int:
        return 3
