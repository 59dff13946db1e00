"""The transport stage: mailboxes, delivery, bit accounting, boundaries.

:class:`Transport` owns the per-node inboxes and is the only layer that
writes to them or to the :class:`~repro.simulator.metrics.RunResult`'s
message counters.  Schedulers decide *which* messages exist and *when*
they land; the transport decides what a delivery costs — per-message bit
estimation (:func:`~repro.simulator.message.estimate_bits`) and CONGEST
budget enforcement, or a bare count in ``fast`` mode.

The transport is also the seam along which a run shards: the engine no
longer assumes every mailbox lives in one process.  :class:`LocalTransport`
(the default) keeps the classic single-process behavior, with no-op
boundary hooks that cost one attribute store and one method call per
round.  :class:`BoundaryTransport` owns the mailboxes of one *edge-cut
shard* — a contiguous block of the identifier space — and exchanges the
messages that cross the cut through a per-round coordinator barrier (see
:mod:`repro.shard.edgecut`), reproducing the unsharded run bit for bit:
same ascending-sender inbox order, same CONGEST accounting at the
receiving shard, same drop-unaccounted rule for terminated receivers.
:class:`WindowTransport` is the same boundary with its far side known in
advance: the nodes a template's initialization decided, computed by index
(:mod:`repro.core.initpass`), whose messages and terminations it replays.

Inboxes are allocated once and cleared between rounds rather than
reallocated: programs consume their inbox during ``process`` and never
retain the mapping, so reuse is safe and keeps the hot loop free of dict
churn.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.simulator.message import estimate_bits
from repro.simulator.metrics import RunResult
from repro.simulator.models import ExecutionModel


class BandwidthExceeded(RuntimeError):
    """Raised in strict CONGEST mode when a message exceeds the budget."""


def bandwidth_error(
    bits: int, budget: int, sender: int, receiver: int, round_index: int
) -> BandwidthExceeded:
    """The canonical strict-CONGEST violation, naming the round and edge.

    Built here so the unsharded transport and the edge-cut coordinator
    (which defers violations to the event barrier) raise byte-identical
    text for the same offending message.
    """
    return BandwidthExceeded(
        f"{bits}-bit message from {sender} to {receiver} in round "
        f"{round_index} exceeds {budget}-bit budget"
    )


class Transport:
    """Owns mailbox state and message/bit accounting for one run.

    This base class *is* the protocol: the engine and schedulers program
    against its surface (``inboxes``/``deposit`` plus the boundary hooks
    ``remote``/``export``/``boundary_events``/``sync``/``stop``) and the
    engine injects a concrete transport at construction.  The base
    behavior is fully local; :class:`LocalTransport` is its alias-like
    subclass, and :class:`BoundaryTransport` overrides the hooks to speak
    to a shard coordinator.

    Args:
        nodes: Every node owned by this transport (one inbox each).
        result: The run's result record; the transport is the only
            writer of its ``message_count``/``total_bits``/
            ``max_message_bits``/``bandwidth_violations`` fields.
        model: Execution model for bandwidth accounting.
        n: Number of nodes (the CONGEST budget is a function of ``n``).
        fast: Skip per-message bit estimation; only ``message_count``
            is maintained.
    """

    __slots__ = ("inboxes", "result", "model", "n", "fast", "round", "budget")

    #: Nodes whose mailboxes live on another shard.  Empty (falsy) for the
    #: local transport, so the schedulers' boundary branches cost a single
    #: containment test against an empty frozenset.
    remote: Any = frozenset()

    def __init__(
        self,
        nodes: Iterable[int],
        result: RunResult,
        model: ExecutionModel,
        n: int,
        fast: bool,
    ) -> None:
        #: Per-node inboxes (``receiver -> {sender: payload}``), reused
        #: across rounds.
        self.inboxes: Dict[int, Dict[int, Any]] = {node: {} for node in nodes}
        self.result = result
        self.model = model
        self.n = n
        self.fast = fast
        #: Current round, stored by the scheduler at the top of each round
        #: so violations can name the round they happened in.
        self.round = 0
        #: The model's per-message budget in bits for this ``n``, computed
        #: once per run; ``None`` under LOCAL.
        self.budget = model.bandwidth_bits(n)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def deposit(self, sender: int, receiver: int, payload: Any) -> None:
        """Account one message and land it in the receiver's inbox.

        The caller has already made every *policy* decision — the receiver
        is active, the adversary let the message through; this is purely
        cost accounting plus the mailbox write.
        """
        if self.fast:
            self.result.message_count += 1
        else:
            self.account(payload, sender, receiver)
        self.inboxes[receiver][sender] = payload

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def account(
        self, payload: Any, sender: int = -1, receiver: int = -1, seq: int = 0
    ) -> None:
        """Charge one message's bits against the run and the budget
        (``seq``: the sender shard's compose order, for :meth:`_over_budget`)."""
        bits = estimate_bits(payload)
        result = self.result
        result.message_count += 1
        result.total_bits += bits
        if bits > result.max_message_bits:
            result.max_message_bits = bits
        budget = self.budget
        if budget is not None and bits > budget:
            result.bandwidth_violations += 1
            if self.model.strict:
                self._over_budget(bits, sender, receiver, seq)

    def _over_budget(self, bits: int, sender: int, receiver: int, seq: int) -> None:
        """A strict-CONGEST violation, already counted: abort the run."""
        raise bandwidth_error(bits, self.budget, sender, receiver, self.round)

    # ------------------------------------------------------------------
    # Boundary hooks (no-ops for a fully local run)
    # ------------------------------------------------------------------
    def export(self, sender: int, receiver: int, payload: Any) -> None:
        """Hand a message addressed to a remote node to the boundary.

        Never reached locally: ``remote`` is empty, so the schedulers'
        export branch is dead code under this transport.
        """
        raise RuntimeError(
            f"local transport cannot export {sender}->{receiver}: "
            "no remote nodes"
        )

    def boundary_events(
        self, round_index: int, events: List[Tuple[str, int, Any]]
    ) -> Sequence[Tuple[str, int, Any]]:
        """Hand a round's local terminations/crashes to the boundary.

        ``events`` are ``(kind, node, output)`` tuples, terminations
        ascending then crashes ascending.  Returns the events to publish
        to the owned nodes now, in publication order; the lifecycle
        publishes them.  Never reached locally: the lifecycle publishes
        a local run's events itself.
        """
        raise RuntimeError(
            f"local transport has no boundary for round {round_index}"
        )

    def sync(
        self,
        round_index: int,
        active: Set[int],
        process_set: Optional[Set[int]] = None,
        wake: Optional[Set[int]] = None,
    ) -> None:
        """Per-round boundary barrier, between compose and process.

        A local run has no boundary; the hook exists so schedulers can
        call it unconditionally.
        """

    def stop(self, round_index: int, rt: Any) -> Optional[str]:
        """Round-boundary hook of the engine's loop: ``None`` runs another
        round, else why the run stops (the engine's ``StopRule``).  A
        local run decides from its engine's own state."""
        return rt.stop_reason(round_index)

    def _land(
        self,
        inbound: Sequence[Tuple[int, int, int, Any]],
        active: Set[int],
        process_set: Optional[Set[int]],
        wake: Optional[Set[int]],
        charge: Optional[Callable[[Any, int, int, int], None]],
    ) -> None:
        """Merge boundary messages ``(sender, seq, receiver, payload)``
        into the owned inboxes at the round barrier.

        Each lands exactly as a local send would have: dropped
        unaccounted if the receiver already terminated, lazily clearing a
        sleeping receiver's inbox and waking it under the quiescent
        schedule, and passed to ``charge(payload, sender, receiver,
        seq)`` unless it was accounted already.  Every touched inbox is
        then re-sorted by sender, the order in which the unsharded
        compose loop fills it.
        """
        inboxes = self.inboxes
        touched = set()
        for sender, seq, receiver, payload in inbound:
            if receiver not in active:
                continue
            inbox = inboxes[receiver]
            if process_set is not None and receiver not in process_set:
                inbox.clear()
                process_set.add(receiver)
            if wake is not None:
                wake.add(receiver)
            if charge is not None:
                charge(payload, sender, receiver, seq)
            inbox[sender] = payload
            touched.add(receiver)
        for receiver in touched:
            inbox = inboxes[receiver]
            if len(inbox) > 1:
                entries = sorted(inbox.items())
                inbox.clear()
                inbox.update(entries)


class LocalTransport(Transport):
    """The default transport: every mailbox lives in this process."""

    __slots__ = ()


class _RemoteSet:
    """Complement-of-owned membership: ``node in remote`` ⇔ not owned.

    An edge-cut shard at n = 10⁷ would otherwise materialize a frozenset
    of every *other* shard's nodes; the owned set already exists, so
    remoteness is just its complement (every identifier is one or the
    other — the schedulers only probe identifiers from real edges).
    """

    __slots__ = ("owned",)

    def __init__(self, owned: Any) -> None:
        self.owned = owned

    def __contains__(self, node: int) -> bool:
        return node not in self.owned

    def __bool__(self) -> bool:
        return True


class BoundaryTransport(Transport):
    """Transport of one edge-cut shard, exchanging cut messages at a barrier.

    The scheduler runs unmodified against this transport: it composes the
    owned nodes in ascending order, exports any send whose receiver is
    remote, then calls :meth:`sync`, which blocks on the shard
    coordinator until every shard has composed the round, and merges the
    inbound cut messages into the local inboxes.  At every round boundary
    the engine's loop calls :meth:`stop`, the event barrier, which
    returns the coordinator's decision for the whole run.  Two invariants
    keep the merged run bit-identical to the unsharded one:

    * **Inbox order** — unsharded inboxes are filled in ascending-sender
      order (compose iterates sorted identifiers), so after merging
      remote senders each touched inbox is re-sorted by sender id.
    * **Violation order** — strict CONGEST must abort on the *globally
      first* over-budget message (compose order: ascending sender, then
      outbox position).  A shard cannot know whether another shard holds
      an earlier violation, so every violation — local or inbound — is
      deferred and keyed by ``(sender, seq)``, where ``seq`` is the
      sender shard's compose-order counter; the coordinator takes the
      minimum-keyed one at the event barrier, and the run raises it
      (:func:`bandwidth_error` text, identical to the unsharded raise).
    """

    __slots__ = (
        "remote",
        "shard",
        "coordinator",
        "outbound",
        "events",
        "violations",
        "_seq",
    )

    def __init__(
        self,
        nodes: Iterable[int],
        result: RunResult,
        model: ExecutionModel,
        n: int,
        fast: bool,
        *,
        owned: Any,
        shard: int,
        coordinator: Any,
    ) -> None:
        super().__init__(nodes, result, model, n, fast)
        self.remote = _RemoteSet(owned)
        self.shard = shard
        self.coordinator = coordinator
        #: Cut messages composed this round: ``(sender, seq, receiver,
        #: payload)`` in compose order.
        self.outbound: List[Tuple[int, int, int, Any]] = []
        #: Termination/crash announcements owed to remote neighbors.
        self.events: List[Tuple[str, int, Any]] = []
        #: Deferred strict-CONGEST violations: ``(sender, seq, receiver,
        #: bits)``; adjudicated globally by the coordinator.
        self.violations: List[Tuple[int, int, int, int]] = []
        self._seq = 0

    # -- sends ----------------------------------------------------------
    def deposit(self, sender: int, receiver: int, payload: Any) -> None:
        self._seq += 1
        if self.fast:
            self.result.message_count += 1
        else:
            self.account(payload, sender, receiver, self._seq)
        self.inboxes[receiver][sender] = payload

    def export(self, sender: int, receiver: int, payload: Any) -> None:
        self._seq += 1
        self.outbound.append((sender, self._seq, receiver, payload))

    def boundary_events(
        self, round_index: int, events: List[Tuple[str, int, Any]]
    ) -> Sequence[Tuple[str, int, Any]]:
        # Published at the event barrier, in one global order across shards.
        self.events.extend(events)
        return ()

    # -- accounting -----------------------------------------------------
    def _over_budget(self, bits: int, sender: int, receiver: int, seq: int) -> None:
        """Defer the abort to the event barrier, where the globally-first
        violation is known; the counters were updated as locally."""
        self.violations.append((sender, seq, receiver, bits))

    # -- the barrier ----------------------------------------------------
    def sync(
        self,
        round_index: int,
        active: Set[int],
        process_set: Optional[Set[int]] = None,
        wake: Optional[Set[int]] = None,
    ) -> None:
        """Exchange this round's cut messages and merge the inbound ones.

        Blocks until every shard has submitted its outbound batch.  Each
        inbound message lands exactly as a local send would have: dropped
        unaccounted if the receiver already terminated, lazily clearing a
        sleeping receiver's inbox and waking it under the quiescent
        schedule, and charged to this (receiving) shard's counters.
        """
        outbound, self.outbound = self.outbound, []
        inbound = self.coordinator.exchange_messages(
            self.shard, round_index, outbound
        )
        if inbound:
            self._land(inbound, active, process_set, wake, self._charge)

    def _charge(self, payload: Any, sender: int, receiver: int, seq: int) -> None:
        """Account one inbound cut message at this (receiving) shard."""
        if self.fast:
            self.result.message_count += 1
        else:
            self.account(payload, sender, receiver, seq)

    def stop(self, round_index: int, rt: Any) -> Optional[str]:
        """The event barrier, at every round boundary: hand the
        coordinator this shard's departures, active count, ten smallest
        active nodes and deferred violations; publish the departures it
        merges across shards; return its decision for the whole run."""
        events, self.events = self.events, []
        violations, self.violations = self.violations, []
        merged, reason = self.coordinator.exchange_events(
            self.shard,
            round_index,
            (events, len(rt._active), rt._active_order[:10], violations),
        )
        rt._lifecycle.publish(merged)
        return reason


def event_order(event: Tuple[str, int, Any]) -> Tuple[bool, int]:
    """Sort key of one round's published events: terminations before
    crashes, each ascending by node — the unsharded publication order."""
    return (event[0] != "terminate", event[1])


class WindowTransport(Transport):
    """Transport of an initialization window: a boundary known in advance.

    The engine interprets only the nodes a template's initialization
    leaves undecided (:mod:`repro.core.initpass`); the decided region's
    share of the initialization was computed by index before the run, so
    its traffic reaches this transport as a script rather than through a
    coordinator:

    * ``inbound`` — round -> the decided region's messages to owned
      nodes, ``(sender, 0, receiver, payload)``.  They land at the round
      barrier as cut messages do (ascending sender per inbox), already
      accounted by the pass.
    * ``events`` — round -> the decided region's terminations that owned
      nodes observe, ascending.  :meth:`boundary_events` merges them with
      the round's local terminations into one ascending publication, as
      the edge-cut coordinator merges its shards' events.
    * ``departures`` — decided boundary node -> its termination round.
      A send into the decided region is accounted while the receiver is
      active (up to and including that round) and dropped unaccounted
      afterwards, as in an unsharded run.
    """

    __slots__ = ("remote", "_inbound", "_events", "_departures")

    def __init__(
        self,
        nodes: Iterable[int],
        result: RunResult,
        model: ExecutionModel,
        n: int,
        fast: bool,
        *,
        owned: Any,
        inbound: Dict[int, List[Tuple[int, int, int, Any]]],
        events: Dict[int, List[Tuple[str, int, Any]]],
        departures: Dict[int, int],
    ) -> None:
        super().__init__(nodes, result, model, n, fast)
        self.remote = _RemoteSet(owned)
        self._inbound = inbound
        self._events = events
        self._departures = departures

    def export(self, sender: int, receiver: int, payload: Any) -> None:
        # Strict violations raise here, in compose order: the pass refused
        # runs where a decided node's own message is over budget, so the
        # first violation of any round is an owned sender's.
        if self.round <= self._departures[receiver]:
            if self.fast:
                self.result.message_count += 1
            else:
                self.account(payload, sender, receiver)

    def boundary_events(
        self, round_index: int, events: List[Tuple[str, int, Any]]
    ) -> Sequence[Tuple[str, int, Any]]:
        decided = self._events.get(round_index)
        if not decided:
            return events
        return sorted(events + decided, key=event_order)

    def sync(
        self,
        round_index: int,
        active: Set[int],
        process_set: Optional[Set[int]] = None,
        wake: Optional[Set[int]] = None,
    ) -> None:
        inbound = self._inbound.get(round_index)
        if inbound:
            self._land(inbound, active, process_set, wake, None)
