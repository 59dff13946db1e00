"""The measure-uniform (2Δ−1)-Edge Coloring algorithm (Section 8.3).

Rounds alternate between *refresh* (odd) and *act* (even):

* refresh: every active node sends its current uncolored-neighbor set and
  used colors to its active neighbors;
* act: every node whose identifier exceeds those of all nodes within two
  uncolored edges chooses a distinct palette color per uncolored incident
  edge, sends it to the other endpoint, outputs its side and terminates;
  endpoints output their side on receipt.

Two-hop dominance prevents two nodes from coloring edges sharing an
endpoint in the same round.  Because identifiers are static and uncolored
structures only shrink, acting on the previous refresh's snapshot is
always safe.  At least one node per component finishes every two rounds,
so a component of ``s`` nodes completes within ``2s + O(1)`` rounds
(the paper's bound is ``2s − 3``; the O(1) is our bootstrap refresh) —
asymptotically optimal by Lemma 14.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.core.algorithm import DistributedAlgorithm
from repro.simulator.context import NodeContext
from repro.simulator.program import Inbox, NodeProgram, Outbox


class GreedyEdgeColoringProgram(NodeProgram):
    """Per-node program of the 2-hop-dominance edge coloring."""

    def __init__(self) -> None:
        # Last refresh snapshot: neighbor -> (uncolored ids, used colors).
        self._info: Dict[int, Tuple[Set[int], Set[int]]] = {}

    # -- local views -----------------------------------------------------
    def _uncolored(self, ctx: NodeContext) -> Set[int]:
        return {
            other
            for other in ctx.active_neighbors
            if ctx.output_part(other) is None
        }

    def _used(self, ctx: NodeContext) -> Set[int]:
        return {
            ctx.output_part(other)
            for other in ctx.neighbors
            if ctx.output_part(other) is not None
        }

    def _maybe_finish(self, ctx: NodeContext) -> None:
        if not self._uncolored(ctx):
            ctx.terminate()

    # -- rounds ------------------------------------------------------------
    def setup(self, ctx: NodeContext) -> None:
        if not ctx.active_neighbors:
            ctx.terminate()

    def compose(self, ctx: NodeContext) -> Outbox:
        if ctx.round % 2 == 1:
            payload = (
                "info",
                tuple(sorted(self._uncolored(ctx))),
                tuple(sorted(self._used(ctx))),
            )
            return {other: payload for other in ctx.active_neighbors}
        if self._dominant(ctx):
            return {
                other: ("color", color)
                for other, color in self._choose_colors(ctx).items()
            }
        return {}

    def _dominant(self, ctx: NodeContext) -> bool:
        uncolored = self._uncolored(ctx)
        if not uncolored:
            return False
        within_two_hops: Set[int] = set(uncolored)
        for other in uncolored:
            info = self._info.get(other)
            if info is not None:
                within_two_hops.update(info[0])
        within_two_hops.discard(ctx.node_id)
        return all(other < ctx.node_id for other in within_two_hops)

    def _choose_colors(self, ctx: NodeContext) -> Dict[int, int]:
        palette_size = max(1, 2 * (ctx.delta or 1) - 1)
        my_used = self._used(ctx)
        chosen: Dict[int, int] = {}
        for other in sorted(self._uncolored(ctx)):
            info = self._info.get(other)
            their_used = info[1] if info is not None else set()
            blocked = my_used | set(their_used) | set(chosen.values())
            color = 1
            while color in blocked:
                color += 1
            if color > palette_size:
                raise RuntimeError(
                    f"node {ctx.node_id}: edge palette exhausted for "
                    f"edge to {other}"
                )
            chosen[other] = color
        return chosen

    def process(self, ctx: NodeContext, inbox: Inbox) -> None:
        if ctx.round % 2 == 1:
            for sender, payload in inbox.items():
                if isinstance(payload, tuple) and payload and payload[0] == "info":
                    self._info[sender] = (set(payload[1]), set(payload[2]))
            return
        if self._dominant(ctx):
            for other, color in self._choose_colors(ctx).items():
                ctx.set_output_part(other, color)
            ctx.terminate()
            return
        for sender, payload in inbox.items():
            if (
                isinstance(payload, tuple)
                and payload
                and payload[0] == "color"
                # Only a lossy run can have colored this end already (the
                # message that told the sender was dropped); keep the
                # first color and leave the clash to the validators.
                and ctx.output_part(sender) is None
            ):
                ctx.set_output_part(sender, payload[1])
        self._maybe_finish(ctx)


class GreedyEdgeColoringAlgorithm(DistributedAlgorithm):
    """The measure-uniform edge coloring (refresh/act round pairs)."""

    name = "greedy-edge-coloring"
    safe_pause_interval = 2

    def build_program(self) -> NodeProgram:
        return GreedyEdgeColoringProgram()

    def round_bound(self, n: int, delta: int, d: int) -> int:
        # Usable as a (slow) reference: one act round pair per node.
        return 2 * n + 3
