"""The MIS Initialization Algorithm (Section 4).

A reasonable (but non-pruning) initialization algorithm: the independent
set ``I`` consists of the nodes with prediction 1 whose neighbors with
prediction 1 (if any) all have smaller identifiers.  The extendable
partial solution it produces always contains the one produced by the MIS
Base Algorithm, and it has the same 3-round complexity, so any algorithm
with predictions that starts with it is consistent.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.core.algorithm import DistributedAlgorithm
from repro.core.initpass import Decided, init_pass
from repro.graphs.csr import CSRTopology
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


@init_pass(MISInitializationProgram, rounds=3)
def mis_initialization_pass(
    csr: CSRTopology, predictions: Mapping[int, Any]
) -> Decided:
    """The program above over every node at once, by CSR index.

    In round 1 every node sends its prediction to every neighbor; a node
    predicted 1 whose neighbors predicted 1 all have smaller identifiers
    joins ``I`` (indices ascend with identifiers).  In round 2 the nodes
    of ``I`` send ``"in"`` to every neighbor, output 1 and terminate; in
    round 3 their neighbors output 0 and terminate.  With no node
    predicted 1, no node is decided.
    """
    indptr = csr.indptr
    indices = csr.indices
    values = list(map(predictions.get, csr.ids))
    ones = [index for index, value in enumerate(values) if value == 1]
    predicted = bytearray(csr.n)
    for index in ones:
        predicted[index] = 1
    joined = []
    for index in ones:
        # Rows ascend: scan down from the top to the first neighbor below
        # ``index``; only a neighbor above it predicted 1 blocks it.
        for position in range(indptr[index + 1] - 1, indptr[index] - 1, -1):
            other = indices[position]
            if other < index:
                joined.append(index)
                break
            if predicted[other]:
                break
        else:
            joined.append(index)
    rounds = bytearray(csr.n)
    outputs: List[Any] = [None] * csr.n
    join = MISInitializationProgram.JOIN
    for index in joined:
        rounds[index] = 2
        outputs[index] = 1
    for index in joined:
        for position in range(indptr[index], indptr[index + 1]):
            other = indices[position]
            if not rounds[other]:
                rounds[other] = 3
                outputs[other] = 0
    broadcasts = {1: dict(enumerate(values)), 2: dict.fromkeys(joined, join)}
    return Decided(rounds, outputs, broadcasts)


class MISInitializationAlgorithm(DistributedAlgorithm):
    """The MIS Initialization Algorithm (reasonable, 3 rounds)."""

    name = "mis-init"
    uses_predictions = True

    def build_program(self) -> NodeProgram:
        return MISInitializationProgram()

    def round_bound(self, n: int, delta: int, d: int) -> int:
        return 3
