"""The node-lifecycle stage: terminations, crashes, recoveries, stuck state.

:class:`NodeLifecycle` owns every transition of a node's participation
status — it applies terminations and adversarial crashes at the end of a
round (publishing outputs / crash marks to neighbor contexts with the
paper's one-round observation delay), rejoins crash-with-recovery nodes at
the start of one, and snapshots live nodes into a
:class:`~repro.simulator.metrics.StuckReport` when a run blows its round
budget under ``on_round_limit="partial"``.

It is bound to the engine runtime (the same ``rt`` handle the schedulers
drive, a weak proxy of the engine) and is the only layer that mutates
``rt._active`` / ``rt._active_order`` / ``rt._gone`` or writes the
termination/crash columns of the result's
:class:`~repro.simulator.metrics.NodeRecords`.  Schedulers reach it
through the engine's ``finalize_round`` / ``apply_recoveries`` delegators,
so scheduling policy and lifecycle bookkeeping stay decoupled.

Publishing a departure adds the node to ``rt._gone`` and discards it from
the neighbor contexts whose active set exists; an unbuilt set is derived
from ``rt._gone`` when first read.  A crash builds its neighbors' sets
before discarding, so a later recovery re-adds the node into the same
set layout an eagerly maintained set has.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.simulator.metrics import NodeSnapshot, StuckReport

_MISSING = object()


def _attributes(program: Any) -> Dict[str, Any]:
    """A program's attributes: its instance dict, or its filled slots."""
    try:
        return vars(program)
    except TypeError:
        pass
    attributes = {}
    for cls in type(program).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            value = getattr(program, name, _MISSING)
            if value is not _MISSING and name != "__weakref__":
                attributes[name] = value
    return attributes


class NodeLifecycle:
    """Applies node participation transitions for one engine run."""

    __slots__ = ("rt",)

    def __init__(self, rt: Any) -> None:
        self.rt = rt

    def finalize_round(
        self, round_index: int, participants: Optional[List[int]] = None
    ) -> None:
        """Apply terminations/crashes and publish neighbor updates.

        ``participants`` (sorted) restricts the termination scan to the
        nodes the quiescent schedule actually ran this round — a node that
        was not run cannot have requested termination, so the restriction
        finds exactly the set the full scan would, in the same order,
        without the Θ(active) sweep.  Crashes are adversarial, not program
        actions, so they are drawn from the fault schedule regardless.
        """
        rt = self.rt
        contexts = rt.contexts
        if participants is None:
            candidates = rt._active_order
        else:
            candidates = participants
        terminated = [
            node for node in candidates if contexts[node].terminate_requested
        ]
        if rt.interposer is not None:
            crash_now = rt.interposer.crashes_at(round_index)
            if participants is None:
                crash_set = set(crash_now)
                crashed = [
                    node
                    for node in rt._active_order
                    if node in crash_set and node not in terminated
                ]
            else:
                terminated_set = set(terminated)
                # crashes_at is sorted, so this matches the eager order.
                crashed = [
                    node
                    for node in crash_now
                    if node in rt._active and node not in terminated_set
                ]
        else:
            crashed = []

        transport = rt.transport
        if not terminated and not crashed:
            if transport.remote:
                # The far side of the boundary may still have departures.
                self.publish(transport.boundary_events(round_index, []))
            return
        obs = rt.obs
        result = rt.result
        records = result.records
        termination_rounds = records.termination_rounds
        outputs = result.outputs
        active = rt._active
        for node in terminated:
            ctx = contexts[node]
            ctx.terminated = True
            ctx.termination_round = round_index
            termination_rounds[node] = round_index
            outputs[node] = ctx.output
            active.discard(node)
            if obs:
                obs.emit(round_index, "output", node, {"value": ctx.output})
                obs.emit(round_index, "terminate", node)

        for node in crashed:
            records.crashed.add(node)
            active.discard(node)
            if obs:
                obs.emit(round_index, "crash", node)

        rt._active_order = sorted(active)

        # Neighbors observe terminations/crashes from the next round on —
        # the same timing as the paper's explicit final-round notification.
        # Under quiescent scheduling that observation is a wake condition
        # (the scheduler hooks; no-ops under the eager policy).
        if transport.remote:
            # A boundary run (edge-cut shard, initialization window): the
            # transport merges this round's events with the far side's
            # into one global ascending order — the same per-round
            # ``neighbor_outputs`` insertion order an unsharded run
            # produces — and hands back what to publish now.  An edge-cut
            # shard defers all of it to the driver's barrier.
            events = [
                ("terminate", node, contexts[node].output) for node in terminated
            ]
            events.extend(("crash", node, None) for node in crashed)
            self.publish(transport.boundary_events(round_index, events))
            return
        scheduler = rt._scheduler
        gone = rt._gone
        for node in terminated:
            output = contexts[node].output
            neighbors = contexts[node].neighbors
            gone.add(node)
            for neighbor in neighbors:
                neighbor_ctx = contexts[neighbor]
                neighbor_active = neighbor_ctx._active
                if neighbor_active is not None:
                    neighbor_active.discard(node)
                neighbor_ctx.neighbor_outputs[node] = output
            scheduler.on_terminated(node, neighbors)
        for node in crashed:
            neighbors = contexts[node].neighbors
            for neighbor in neighbors:
                neighbor_ctx = contexts[neighbor]
                neighbor_ctx.active_neighbors.discard(node)
                neighbor_ctx.crashed_neighbors.add(node)
            gone.add(node)
            scheduler.on_crashed(node, neighbors)

    def publish(self, events: Sequence[Tuple[str, int, Any]]) -> None:
        """Publish ordered ``(kind, node, output)`` departures to the
        owned neighbors.

        The mirror of :meth:`finalize_round`'s local publication for a
        run that owns only part of the graph (an edge-cut shard, an
        initialization window): ``node`` may be unowned, and only the
        neighbors with a context here observe it.
        """
        if not events:
            return
        rt = self.rt
        contexts = rt.contexts
        scheduler = rt._scheduler
        neighbors_of = rt.graph.neighbors
        gone = rt._gone
        for kind, node, output in events:
            owned = [v for v in neighbors_of(node) if v in contexts]
            if kind == "terminate":
                gone.add(node)
                for neighbor in owned:
                    ctx = contexts[neighbor]
                    active = ctx._active
                    if active is not None:
                        active.discard(node)
                    ctx.neighbor_outputs[node] = output
                scheduler.on_terminated(node, owned)
            else:
                for neighbor in owned:
                    ctx = contexts[neighbor]
                    ctx.active_neighbors.discard(node)
                    ctx.crashed_neighbors.add(node)
                gone.add(node)
                scheduler.on_crashed(node, owned)

    def apply_recoveries(self, round_index: int) -> None:
        """Rejoin crash-with-recovery nodes at the start of this round."""
        rt = self.rt
        if rt.interposer is None:
            return
        scheduler = rt._scheduler
        result = rt.result
        records = result.records
        crashed = records.crashed
        termination_rounds = records.termination_rounds
        outputs = result.outputs
        contexts = rt.contexts
        gone = rt._gone
        rejoined = False
        for node in rt.interposer.recoveries_at(round_index):
            if node not in crashed:
                continue  # never crashed (or already back): nothing to do
            if callable(rt._program_source):
                rt.programs[node] = rt._program_source(node)
            # else: mapping-provided program instances cannot be rebuilt;
            # the node rejoins with whatever state the instance holds.
            ctx = rt._build_context(node)
            ctx.round = round_index
            ctx.active_neighbors = {
                other for other in ctx.neighbors if other in rt._active
            }
            for other in ctx.neighbors:
                if other in termination_rounds:
                    ctx.neighbor_outputs[other] = outputs[other]
                elif other in crashed:
                    ctx.crashed_neighbors.add(other)
            contexts[node] = ctx
            rt._active.add(node)
            crashed.discard(node)
            records.recovery_rounds[node] = round_index
            gone.discard(node)
            for other in ctx.neighbors:
                neighbor_ctx = contexts[other]
                neighbor_ctx.active_neighbors.add(node)
                neighbor_ctx.crashed_neighbors.discard(node)
            rt.programs[node].setup(ctx)
            rejoined = True
            scheduler.on_recovered(node, ctx, rt.programs[node])
            if rt.obs:
                rt.obs.emit(round_index, "recover", node)
            if ctx.terminate_requested:
                # A program may output and terminate straight from its
                # recovery setup (e.g. every neighbor is already gone).
                # Honor it before the round runs — the same semantics
                # ``finalize_round(0)`` gives the initial setup — so the
                # node never re-enters the hot loop and cannot output a
                # second time.
                ctx.terminated = True
                ctx.termination_round = round_index
                termination_rounds[node] = round_index
                outputs[node] = ctx.output
                rt._active.discard(node)
                gone.add(node)
                for other in ctx.neighbors:
                    neighbor_ctx = contexts[other]
                    neighbor_ctx.active_neighbors.discard(node)
                    neighbor_ctx.neighbor_outputs[node] = ctx.output
                scheduler.on_recovery_terminated(node)
                if rt.obs:
                    rt.obs.emit(round_index, "output", node, {"value": ctx.output})
                    rt.obs.emit(round_index, "terminate", node)
        if rejoined:
            rt._active_order = sorted(rt._active)

    def build_stuck_report(
        self, round_index: int, reason: str = "round-limit"
    ) -> StuckReport:
        """Snapshot every live node when a run is cut short.

        ``reason`` records *which* budget cut it: the round limit, the
        wall-clock ``deadline_s``, or async stabilization.
        """
        rt = self.rt
        live = sorted(rt._active)
        processed = rt._scheduler.processed_last_round
        inboxes = rt.transport.inboxes
        snapshots: Dict[int, NodeSnapshot] = {}
        for node in live:
            ctx = rt.contexts[node]
            # A node the quiescent schedule skipped keeps a stale inbox;
            # the eager path would have cleared it, so report it empty.
            if processed is not None and node not in processed:
                last_inbox: Dict[int, Any] = {}
            else:
                last_inbox = dict(inboxes.get(node, {}))
            snapshots[node] = NodeSnapshot(
                node_id=node,
                round=ctx.round,
                last_inbox=last_inbox,
                state={
                    key: repr(value)
                    for key, value in sorted(_attributes(rt.programs[node]).items())
                },
                has_output=ctx.has_output,
            )
        return StuckReport(
            round=round_index,
            live_nodes=live,
            total_nodes=rt.graph.n,
            snapshots=snapshots,
            reason=reason,
        )
