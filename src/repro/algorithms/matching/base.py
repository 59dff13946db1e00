"""The Maximal Matching Base Algorithm (Section 8.1).

Two rounds: nodes exchange predictions; mutually predicted pairs output
their match and terminate (informing their other neighbors); a node
predicted unmatched outputs ⊥ once it learns all its neighbors matched.
A pruning algorithm: every output equals the node's prediction.
"""

from __future__ import annotations

from repro.core.algorithm import DistributedAlgorithm
from repro.problems.matching import UNMATCHED
from repro.simulator.context import NodeContext
from repro.simulator.program import Inbox, NodeProgram, Outbox


class MatchingBaseProgram(NodeProgram):
    """Per-node program of the Maximal Matching Base Algorithm."""

    MATCHED = "matched"

    def __init__(self, allow_unpredicted_bottom: bool = False) -> None:
        # The reasonable initialization algorithm differs in exactly one
        # rule: a node may output ⊥ even when its prediction is a partner,
        # provided all its neighbors are matched.
        self._allow_unpredicted_bottom = allow_unpredicted_bottom
        self._partner = None

    def compose(self, ctx: NodeContext) -> Outbox:
        if ctx.round == 1:
            return {other: ctx.prediction for other in ctx.active_neighbors}
        if ctx.round == 2 and self._partner is not None:
            return {other: self.MATCHED for other in ctx.active_neighbors}
        return {}

    def process(self, ctx: NodeContext, inbox: Inbox) -> None:
        if ctx.round == 1:
            predicted = ctx.prediction
            try:
                named = predicted in ctx.neighbors
            except TypeError:  # an unhashable prediction names no partner
                named = False
            if named and inbox.get(predicted) == ctx.node_id:
                self._partner = predicted
        elif ctx.round == 2:
            if self._partner is not None:
                ctx.set_output(self._partner)
                ctx.terminate()
                return
            all_neighbors_matched = all(
                inbox.get(other) == self.MATCHED for other in ctx.neighbors
            )
            eligible = (
                ctx.prediction == UNMATCHED or self._allow_unpredicted_bottom
            )
            if eligible and all_neighbors_matched:
                ctx.set_output(UNMATCHED)
                ctx.terminate()


class MatchingBaseAlgorithm(DistributedAlgorithm):
    """The 2-round Maximal Matching Base Algorithm."""

    name = "matching-base"
    uses_predictions = True

    def build_program(self) -> NodeProgram:
        return MatchingBaseProgram()

    def round_bound(self, n: int, delta: int, d: int) -> int:
        return 2
