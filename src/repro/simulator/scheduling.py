"""The round-scheduling stage.

A :class:`Scheduler` decides *which* nodes run in a round and drives the
compose → deliver → process phases for them, delegating message policy to
the :class:`~repro.simulator.interpose.FaultInterposer`, message cost and
mailboxes to the :class:`~repro.simulator.transport.Transport`, and event
fan-out to the :class:`~repro.simulator.obs_dispatch.ObsDispatch`.  The
engine orchestrates rounds; it never special-cases a scheduling policy —
the interpreted policies share one round loop, :meth:`Scheduler.run_round`,
and differ only in what it reads once per round:

* :class:`EagerScheduler` — every active node, every round (the default).
* :class:`QuiescentScheduler` — runs only the wake-set of nodes whose
  programs can observably act, per the idle contract of
  :class:`~repro.simulator.program.NodeProgram` (``quiescent_when_idle``).
* :class:`QuiescentDebugScheduler` — executes eagerly while tracking the
  hypothetical wake-set and raises :class:`QuiescenceViolation` the
  moment a supposedly idle node acts.
* :class:`AsyncScheduler` — the asynchronous execution model: a seeded
  :class:`~repro.simulator.adversary.DelayAdversary` assigns each message
  a delivery delay of up to ``phi`` ticks, nodes fire on receipt rather
  than in lockstep, lost sends can be retransmitted with bounded backoff,
  and a stabilization detector quiesces the run when nothing can ever
  happen again.  At ``phi = 0`` with no send timeout it is bit-identical
  to the quiescent (and hence the eager) schedule.

:class:`VectorizedScheduler` replaces the loop with one kernel call per
round.  Every ``run_round`` records its own round profile sample.

Writing a new scheduler means subclassing :class:`Scheduler`, overriding
the per-round reads it needs, and wiring the wake hooks (``note_state``,
``on_terminated``/``on_crashed``/``on_recovered``) if the policy needs
per-round wake state; see docs/ARCHITECTURE.md.

:class:`ExecutionPolicy` is how a caller picks a schedule and its knobs,
validated against the :data:`SCHEDULERS` registry below and
:mod:`repro.simulator.capabilities`.  It is the one of every layer: ``run()``/``RunConfig``, the sweep cells and
:class:`~repro.simulator.engine.SyncEngine` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simulator.adversary import DelayAdversary, RetryPolicy
from repro.simulator.capabilities import FALLBACK, SHARDS, require
from repro.simulator.context import NodeContext
from repro.simulator.interpose import DROPPED


class QuiescenceViolation(RuntimeError):
    """Raised under ``schedule="quiescent-debug"`` on an idle-contract break.

    A program that declares ``quiescent_when_idle = True`` promises that in
    rounds where nothing woke it (no message received last round, no
    neighbor event, no timed wakeup due) it neither sends, outputs, nor
    terminates.  The debug schedule executes every node eagerly while
    tracking the wake-set the quiescent schedule would have used, and
    raises this error the moment a supposedly idle node acts — the same
    divergence ``schedule="quiescent"`` would have silently introduced.
    """


class Scheduler:
    """Protocol for round-scheduling policies, and the shared round loop.

    A scheduler is bound to one engine run via :meth:`bind` and then
    drives every round through :meth:`run_round`.  The base class is the
    eager policy; subclasses override the loop's per-round reads
    (:meth:`compose_order`, :meth:`before_compose`, ``_next_wake``,
    ``_expected``).  The remaining hooks let wake-tracking policies
    observe the lifecycle events that constitute wake conditions; the
    eager policy leaves them as no-ops so the default hot path carries no
    wake bookkeeping at all.

    Attributes:
        tracks_wakes: Whether the policy maintains wake-set state.
        processed_last_round: Nodes the last executed round actually
            processed (``None`` means every active node) — keeps
            stuck-report inbox snapshots identical across schedules.
        quiesced: Whether the policy's stabilization detector concluded
            that nothing observable can ever happen again (only the
            async policy ever sets it); the engine turns it into a
            partial result instead of spinning to the round budget.
        is_async: Whether the policy implements the asynchronous model
            (and therefore honors ``phi``/``send_timeout``).
        handles_setup: Whether the policy runs round 0 itself via
            :meth:`run_setup` instead of the engine's per-node loop.
        uses_kernels: Whether the policy executes compiled
            whole-frontier kernels (:mod:`repro.kernels`): the engine
            takes the capability table's ``"kernel"`` path.
    """

    tracks_wakes = False
    quiesced = False
    is_async = False
    handles_setup = False
    uses_kernels = False

    def __init__(self) -> None:
        self.rt: Any = None
        self.processed_last_round: Optional[set] = None
        #: The next round's wake-set, or ``None`` when the policy keeps
        #: none — the round loop then keeps no process-set either.
        self._next_wake: Optional[set] = None
        #: The nodes the quiescent schedule would run this round, when
        #: the policy polices the idle contract; ``None`` otherwise.
        self._expected: Optional[set] = None

    def bind(self, rt: Any) -> None:
        """Attach the runtime this scheduler drives: a weak proxy of the
        engine, so the scheduler never keeps its engine alive."""
        self.rt = rt

    # -- wake-condition hooks (no-ops for the eager policy) -------------
    def note_state(self, node: int, ctx: NodeContext) -> None:
        """A node finished its setup, or a round's process, in ``ctx``."""

    def on_terminated(self, node: int, neighbors: Any) -> None:
        """A node terminated at the end of a round."""

    def on_crashed(self, node: int, neighbors: Any) -> None:
        """A node crashed at the end of a round."""

    def on_recovered(
        self, node: int, ctx: NodeContext, program: Any
    ) -> None:
        """A crashed node rejoined at the start of a round."""

    def on_recovery_terminated(self, node: int) -> None:
        """A rejoined node terminated straight from its recovery setup."""

    # -- per-round reads of the round loop --------------------------------
    def compose_order(self, round_index: int) -> List[int]:
        """This round's composers, ascending: every active node."""
        return self.rt._active_order

    def before_compose(
        self, round_index: int, process_set: Optional[set]
    ) -> Optional[Callable[..., None]]:
        """Land older traffic due this round (after replays, before any
        send); return a ``(sender, receiver, payload)`` router to replace
        the inline adjudicate → wake → deposit of its sends, or ``None``."""
        return None

    # -- round execution ------------------------------------------------
    def run_setup(self) -> None:
        """Round 0 for policies with ``handles_setup = True``."""
        raise NotImplementedError

    def run_round(self, round_index: int) -> None:
        """One synchronous round: compose-and-deliver, process, finalize.

        A composer's sends land as soon as it composes, so no outbox
        outlives its turn.  Under a profile, each ``compose()`` call
        counts as compose and the rest of the round before ``process``
        as deliver; without one the loop reads no clock.
        """
        rt = self.rt
        profile = rt.obs.profile
        if profile is not None:
            round_start = perf_counter()
            compose_s = 0.0
            messages_before = rt.result.message_count
        rt.apply_recoveries(round_index)
        # Local bindings keep the per-round loops free of attribute churn;
        # the fault/sink hooks are skipped entirely when nothing is
        # installed, and the transport elides bandwidth accounting in
        # ``fast`` mode.
        active = rt._active
        live = len(active)
        order = self.compose_order(round_index)
        wake = self._next_wake
        expected = self._expected
        programs = rt.programs
        contexts = rt.contexts
        transport = rt.transport
        inboxes = transport.inboxes
        emit = rt.obs.emit if rt.obs else None
        interposer = rt.interposer
        transport.round = round_index
        #: Nodes to run in the process phase; sleeping nodes keep stale
        #: inboxes, cleared lazily when a delivery first wakes them.
        process_set = None if wake is None else set(order)

        for node in order:
            inboxes[node].clear()
        if interposer is not None and interposer.has_pending_replays:
            interposer.deliver_replays(
                round_index, transport, active, awaken=process_set, wake=wake
            )
        # A policy's router takes over adjudicating, waking and depositing.
        deposit, awaken, woken = transport.deposit, process_set, wake
        adjudicate = None if interposer is None else interposer.adjudicate
        router = self.before_compose(round_index, process_set)
        if router is not None:
            deposit, adjudicate, awaken, woken = router, None, None, None

        # Compose-and-deliver: each composer's messages, decided from its
        # previous-round state, land before the next node composes.
        for node in order:
            ctx = contexts[node]
            ctx.round = round_index
            if profile is None:
                outbox = programs[node].compose(ctx)
            else:
                started = perf_counter()
                outbox = programs[node].compose(ctx)
                compose_s += perf_counter() - started
            if not outbox:
                continue
            if expected is not None and node not in expected:
                raise QuiescenceViolation(
                    f"node {node} ({type(programs[node]).__name__}) composed "
                    f"a non-empty outbox in round {round_index} while idle: "
                    f"schedule='quiescent' would have skipped this send"
                )
            neighbors = ctx.neighbors
            for receiver, payload in outbox.items():
                if receiver not in neighbors:
                    raise ValueError(
                        f"node {node} sent to non-neighbor {receiver} "
                        f"in round {round_index}"
                    )
                if emit is not None:
                    emit(
                        round_index, "send", node, {"to": receiver, "payload": payload}
                    )
                # Messages to nodes that already terminated or crashed are
                # dropped: the recipient no longer participates.  (A sender
                # learns of a neighbor's termination only in the following
                # round, so such sends are legitimate.)  A receiver whose
                # mailbox lives on another shard is handed to the boundary
                # instead; the owning shard applies the same rules.
                if receiver not in active:
                    if receiver in transport.remote:
                        transport.export(node, receiver, payload)
                    continue
                if adjudicate is not None:
                    payload = adjudicate(round_index, node, receiver, payload)
                    if payload is DROPPED:
                        # The drop may have starved a waiter mid-protocol;
                        # waking the would-be receiver is harmless (an idle
                        # round is a no-op by contract) and keeps it live.
                        if woken is not None:
                            woken.add(receiver)
                        continue
                if awaken is not None and receiver not in awaken:
                    inboxes[receiver].clear()
                    awaken.add(receiver)
                deposit(node, receiver, payload)
                if woken is not None:
                    woken.add(receiver)

        # Boundary barrier: merge cut messages before any node processes;
        # inbound ones wake their receivers and join the process phase
        # exactly as local deliveries would have (a no-op under the local
        # transport).
        transport.sync(round_index, active, process_set, wake)

        if process_set is None or len(process_set) == len(order):
            process_order = order
        else:
            process_order = sorted(process_set)
        if profile is not None:
            process_start = perf_counter()
        for node in process_order:
            ctx = contexts[node]
            ctx.round = round_index
            inbox = inboxes[node]
            if expected is None or node in expected or inbox:
                programs[node].process(ctx, inbox)
            else:
                before = (ctx.has_output, ctx.output)
                programs[node].process(ctx, inbox)
                if ctx.terminate_requested or (ctx.has_output, ctx.output) != before:
                    raise QuiescenceViolation(
                        f"node {node} ({type(programs[node]).__name__}) "
                        f"{'terminated' if ctx.terminate_requested else 'assigned output'} "
                        f"in round {round_index} while idle: schedule='quiescent' "
                        f"would not have run it"
                    )
            if wake is not None:
                self.note_state(node, ctx)
        self.processed_last_round = process_set

        if profile is not None:
            finalize_start = perf_counter()
        rt.finalize_round(round_index, None if process_set is None else process_order)
        if profile is not None:
            profile.add_round(
                round_index,
                compose=compose_s,
                deliver=process_start - round_start - compose_s,
                process=finalize_start - process_start,
                finalize=perf_counter() - finalize_start,
                messages=rt.result.message_count - messages_before,
                active=live,
                scheduled=len(process_order),
            )

    def finish(self) -> None:
        """Called once after the round loop, before result aggregation.

        Batched policies flush buffered per-node results here; the
        interpreted policies write through per round and need nothing.
        """

    def build_stuck_report(
        self, round_index: int, reason: str
    ) -> Optional[Any]:
        """Policy-built stuck report, or ``None`` to use the lifecycle's."""
        return None


class EagerScheduler(Scheduler):
    """Runs every active node every round (the default policy)."""


class QuiescentScheduler(Scheduler):
    """Runs only the wake-set: woken ∪ always-awake, active, sorted.

    Observationally identical to the eager policy under the idle
    contract: a node outside the wake-set would have composed an empty
    outbox and processed an empty inbox without acting, so skipping it
    changes no output, message, round count or event.  Nodes that
    *receive* a message this round are pulled into the process phase
    (and the next round's wake-set) even if they were asleep, exactly
    as the eager path would have processed them.
    """

    tracks_wakes = True

    def __init__(self) -> None:
        super().__init__()
        #: Nodes with a pending wake condition for the upcoming round
        #: (everyone before round 1, seeded in :meth:`bind`).
        self._next_wake = set()
        #: node -> earliest requested timed-wakeup round.
        self._timed_wake: Dict[int, int] = {}
        #: Nodes whose programs did not opt into quiescence.
        self._always_awake: set = set()

    def bind(self, rt: Any) -> None:
        super().bind(rt)
        self._next_wake = set(rt.graph.nodes)
        for node, program in rt.programs.items():
            if not getattr(program, "quiescent_when_idle", False):
                self._always_awake.add(node)

    # -- wake bookkeeping ----------------------------------------------
    def note_state(self, node: int, ctx: NodeContext) -> None:
        """Fold a context's pending ``wake_at`` request into the schedule."""
        request = ctx._wake_request
        if request is not None:
            ctx._wake_request = None
            current = self._timed_wake.get(node)
            if current is None or request < current:
                self._timed_wake[node] = request

    def on_terminated(self, node: int, neighbors: Any) -> None:
        # Neighbors observe terminations from the next round on; under
        # quiescent scheduling that observation is a wake condition.
        self._next_wake.update(neighbors)

    def on_crashed(self, node: int, neighbors: Any) -> None:
        self._next_wake.update(neighbors)

    def on_recovered(self, node: int, ctx: NodeContext, program: Any) -> None:
        # The rejoined node starts fresh (round-1 semantics) and its
        # neighbors observe the recovery, so all of them are schedulable
        # this round; stale timed wakeups of the old incarnation die with
        # it.
        self._timed_wake.pop(node, None)
        self._next_wake.add(node)
        self._next_wake.update(ctx.neighbors)
        if getattr(program, "quiescent_when_idle", False):
            self._always_awake.discard(node)
        else:
            self._always_awake.add(node)
        self.note_state(node, ctx)

    def on_recovery_terminated(self, node: int) -> None:
        self._timed_wake.pop(node, None)
        self._next_wake.discard(node)
        self._always_awake.discard(node)

    def compose_order(self, round_index: int) -> List[int]:
        """This round's compose schedule: woken ∪ always-awake, active,
        sorted.

        Consumes the accumulated wake-set and the due timed wakeups, and
        resets the wake-set so this round's events feed the next one.
        """
        wake = self._next_wake
        timed = self._timed_wake
        if timed:
            due = [node for node, when in timed.items() if when <= round_index]
            for node in due:
                del timed[node]
            wake.update(due)
        if self._always_awake:
            wake |= self._always_awake
        active = self.rt._active
        scheduled = sorted(node for node in wake if node in active)
        self._next_wake = set()
        return scheduled


class QuiescentDebugScheduler(QuiescentScheduler):
    """Eager execution that polices the quiescence idle contract.

    Runs every active node (so state evolution matches the eager
    schedule exactly, including programs whose idle rounds mutate
    private counters) while maintaining the wake-set the quiescent
    schedule would have used; any observable action — a send, an
    output, a termination — by a node outside that set raises
    :class:`QuiescenceViolation`.
    """

    def compose_order(self, round_index: int) -> List[int]:
        """Every active node; the idle checks police the wake order."""
        self._expected = set(super().compose_order(round_index))
        return self.rt._active_order


class AsyncScheduler(QuiescentScheduler):
    """The asynchronous execution model: delays, timeouts, stabilization.

    Builds on the quiescent wake machinery — a node fires exactly when
    something can observably reach it (a delivery, a neighbor event, a
    timed wakeup), which under asynchrony *is* fire-on-receipt — and
    relaxes lockstep delivery through three mechanisms:

    * **Adversarial delays** — every message that survives the fault
      interposer is handed to a :class:`~repro.simulator.adversary.
      DelayAdversary`; a message assigned delay ``delta > 0`` is parked
      in flight and lands at the start of tick ``tick + delta`` (waking
      its receiver), charged to the transport at delivery time.
    * **Send timeouts with bounded retry** — when the interposer drops a
      send and a send timeout is armed (the policy's ``send_timeout`` or
      per-node ``ctx.set_send_timeout``), the sender retransmits after
      an exponential backoff (``timeout * 2**(attempt-1)`` ticks), up to
      ``max_retries`` times; the retransmission is re-adjudicated and
      re-delayed like any fresh send.
    * **Self-stabilizing recovery** — when active nodes remain but no
      wake condition, in-flight message, pending retry, replay or
      scheduled recovery exists anywhere, the scheduler pulses: it wakes
      every active node once (an idle round is a no-op by the quiescence
      contract, so the pulse is always safe).  A pulse that provokes no
      new activity proves the execution has *stabilized*; the scheduler
      sets :attr:`quiesced`, the tick runs empty, and the engine ends
      the run with a partial result instead of spinning empty ticks to
      the round budget.

    At ``phi = 0`` with no send timeout every message lands in its send
    tick, no retry is ever armed and the stabilization detector stays
    dormant, so the execution is bit-identical — outputs, counters and
    the full event stream — to ``schedule="quiescent"`` (and therefore
    to eager; ``tests/test_engine_fuzz.py`` enforces this
    differentially).
    """

    is_async = True

    def __init__(self) -> None:
        super().__init__()
        #: due tick -> [(sender, receiver, payload)] in dispatch order.
        self._in_flight: Dict[int, List[Tuple[int, int, Any]]] = {}
        #: due tick -> [(sender, receiver, payload, attempt)].
        self._retries: Dict[int, List[Tuple[int, int, Any, int]]] = {}
        self._adversary = DelayAdversary(0, 0)
        self._retry = RetryPolicy()
        #: Whether the previous tick was a stabilization pulse that has
        #: not yet provoked any activity.
        self._pulsed = False
        #: Whether delays or retries can occur (arms the stall detector).
        self._live = False
        #: The tick and process-set :meth:`_dispatch` routes into, set by
        #: :meth:`before_compose` each tick.
        self._tick = 0
        self._process_set: set = set()
        #: The run's transport and fault stage, bound once so the
        #: per-message path never goes through the engine proxy.
        self._transport: Any = None
        self._interposer: Any = None

    def bind(self, rt: Any) -> None:
        super().bind(rt)
        policy = rt.policy
        self._adversary = DelayAdversary(policy.phi, rt._seed)
        self._retry = RetryPolicy(policy.send_timeout, policy.max_retries)
        self._live = policy.phi > 0 or policy.send_timeout is not None
        self._transport = rt.transport
        self._interposer = rt.interposer

    # -- async bookkeeping ----------------------------------------------
    def _has_future_work(self, round_index: int) -> bool:
        """Whether anything anywhere can still wake a node later."""
        if self._in_flight or self._retries or self._timed_wake:
            return True
        rt = self.rt
        interposer = rt.interposer
        if interposer is not None and interposer.has_pending_replays:
            return True
        return rt._has_pending_recoveries(round_index)

    def _land(self, sender: int, receiver: int, payload: Any) -> None:
        """Deposit one message now: its receiver joins this tick's
        process phase and the next tick's wake-set."""
        transport = self._transport
        process_set = self._process_set
        if receiver not in process_set:
            transport.inboxes[receiver].clear()
            process_set.add(receiver)
        transport.deposit(sender, receiver, payload)
        self._next_wake.add(receiver)

    def _dispatch(
        self, sender: int, receiver: int, payload: Any, attempt: int = 0
    ) -> None:
        """Route one composed (or retransmitted) message.

        Adjudicates faults, then either lands the message now (delay 0 —
        the synchronous path), parks it in flight (delay > 0), or — on a
        drop with a timeout armed — schedules a backoff retransmission
        of the *original* payload.
        """
        tick = self._tick
        interposer = self._interposer
        if interposer is not None:
            adjudicated = interposer.adjudicate(tick, sender, receiver, payload)
            if adjudicated is DROPPED:
                self._next_wake.add(receiver)
                ctx_timeout = self.rt.contexts[sender]._send_timeout
                timeout = (
                    ctx_timeout
                    if ctx_timeout is not None
                    else self._retry.send_timeout
                )
                if timeout is not None:
                    due = self._retry.retry_due(tick, attempt + 1, timeout)
                    if due is not None:
                        self._retries.setdefault(due, []).append(
                            (sender, receiver, payload, attempt + 1)
                        )
                return
            payload = adjudicated
        delay = self._adversary.delay(tick, sender, receiver)
        if delay:
            rt = self.rt
            rt.result.delayed_messages += 1
            if rt.obs:
                rt.obs.emit(
                    tick,
                    "delay",
                    sender,
                    {"to": receiver, "payload": payload, "delay": delay},
                )
            self._in_flight.setdefault(tick + delay, []).append(
                (sender, receiver, payload)
            )
            return
        self._land(sender, receiver, payload)

    # -- per-round reads of the round loop --------------------------------
    def compose_order(self, round_index: int) -> List[int]:
        """The wake order, or a stabilization pulse of every active node
        when nothing anywhere can wake one again."""
        scheduled = super().compose_order(round_index)
        rt = self.rt
        if scheduled:
            self._pulsed = False
        elif self._live and rt._active and not self._has_future_work(round_index):
            if self._pulsed:
                # A full pulse provoked nothing and nothing is in flight
                # anywhere: the execution has stabilized short of
                # termination.  Tell the engine instead of spinning; this
                # tick runs empty.
                self.quiesced = True
                return scheduled
            # Self-stabilizing recovery: wake everyone once.  An idle
            # round is a no-op under the quiescence contract, so the
            # pulse never perturbs a healthy execution.
            self._pulsed = True
            rt.result.recovery_pulses += 1
            if rt.obs:
                rt.obs.emit(round_index, "stabilize", -1, {"live": len(rt._active)})
            scheduled = list(rt._active_order)
        return scheduled

    def before_compose(
        self, round_index: int, process_set: Optional[set]
    ) -> Optional[Callable[..., None]]:
        """Land the traffic due this tick; route its sends via _dispatch.

        Delayed messages due this tick land before fresh sends — they
        are older traffic, the same precedence adversarial replays get.
        A receiver that left the computation while the message was in
        flight discards it, matching the synchronous rule for sends to
        inactive nodes.  Retransmissions whose backoff timer expires
        this tick re-enter :meth:`_dispatch`, so they can be dropped or
        delayed again.
        """
        self._tick = round_index
        self._process_set = process_set
        rt = self.rt
        active = rt._active
        emit = rt.obs.emit if rt.obs else None
        for sender, receiver, payload in self._in_flight.pop(round_index, ()):
            if receiver not in active:
                continue
            if emit is not None:
                emit(
                    round_index,
                    "deliver",
                    sender,
                    {"to": receiver, "payload": payload},
                )
            self._land(sender, receiver, payload)
        due_retries = self._retries.pop(round_index, ())
        for sender, receiver, payload, attempt in due_retries:
            if sender not in active or receiver not in active:
                continue
            rt.result.retried_messages += 1
            if emit is not None:
                emit(
                    round_index,
                    "retry",
                    sender,
                    {"to": receiver, "payload": payload, "attempt": attempt},
                )
            self._dispatch(sender, receiver, payload, attempt)
        return self._dispatch


class VectorizedScheduler(Scheduler):
    """Runs whole-frontier compiled kernels (:mod:`repro.kernels`).

    Instead of interpreting compose/deliver/process per node, every
    round executes as NumPy array operations over the run's CSR buffers
    — one :class:`~repro.kernels.base.FrontierKernel` per algorithm
    family, resolved when the engine is built (unsupported runs raise
    :class:`~repro.simulator.capabilities.UnsupportedScheduleError`
    there, or fall back to the interpreted quiescent schedule under
    ``fallback="interpret"``).

    The kernel keeps the engine's ``_active`` set, result counters and
    per-node records bit-identical to the interpreted schedules
    (fuzz-checked in tests/test_vectorized.py); per-node record
    write-back is batched into :meth:`finish`, so the round loop does
    O(frontier) array work and no per-node Python at all.
    """

    handles_setup = True
    uses_kernels = True

    def __init__(self) -> None:
        super().__init__()
        self.kernel: Any = None

    def bind(self, rt: Any) -> None:
        self.rt = rt
        self.kernel = rt._kernel
        self.kernel.bind(rt)

    def run_setup(self) -> None:
        self.kernel.setup()

    def run_round(self, round_index: int) -> None:
        """One kernel invocation per round.

        Under a profile the call is timed as the round's ``kernel``
        phase (the interpreted phase split does not exist here), and
        ``scheduled`` records how many nodes observably acted (the
        vectorized analogue of the quiescent wake-set size).
        """
        rt = self.rt
        profile = rt.obs.profile
        if profile is None:
            self.kernel.run_round(round_index)
            return
        messages_before = rt.result.message_count
        active_before = len(rt._active)
        start = perf_counter()
        acted = self.kernel.run_round(round_index)
        profile.add_round(
            round_index,
            kernel=perf_counter() - start,
            messages=rt.result.message_count - messages_before,
            active=active_before,
            scheduled=int(acted),
        )

    def finish(self) -> None:
        self.kernel.flush()

    def build_stuck_report(self, round_index: int, reason: str) -> Any:
        return self.kernel.stuck_report(round_index, reason)


#: Registry mapping the public ``schedule=`` names to implementations.
SCHEDULERS = {
    "eager": EagerScheduler,
    "quiescent": QuiescentScheduler,
    "quiescent-debug": QuiescentDebugScheduler,
    "async": AsyncScheduler,
    "vectorized": VectorizedScheduler,
}


@dataclass(frozen=True)
class ExecutionPolicy:
    """How rounds are driven: schedule choice plus its tuning knobs.

    The one way to say how a run executes, at every layer: ``run()`` and
    :class:`~repro.core.runner.RunConfig` carry one, sweep cells carry
    one, and :class:`~repro.simulator.engine.SyncEngine` takes one.
    Frozen and hashable, so policies can be shared across sweep cells and
    compared; :func:`repro.schedules` lists the valid ``schedule`` names
    with their capabilities.  Every field is checked here, once, so a
    policy object is valid by the time a run sees it.

    Attributes:
        schedule: Round scheduling policy — ``"eager"`` (every live node
            every round), ``"quiescent"`` (skip nodes that declare
            ``quiescent_when_idle`` and cannot observably act this
            round; observationally identical, much faster on frontier
            workloads), ``"quiescent-debug"`` (run eagerly but raise
            :class:`QuiescenceViolation` if a node the quiescent
            schedule would have skipped acts), ``"async"`` (the
            asynchronous model: adversarial delivery delays up to
            ``phi`` ticks, fire-on-receipt scheduling, send timeouts and
            stabilization detection), or ``"vectorized"`` (compiled
            whole-frontier NumPy kernels over the CSR buffers —
            bit-identical to the interpreted engine for the registered
            greedy families, an order of magnitude faster at scale; see
            docs/PERFORMANCE.md).
        phi: Delay bound for the ``"async"`` schedule's adversary
            (``0`` = synchronous delivery; requires
            ``schedule="async"`` when nonzero).
        send_timeout: Async sender-side retransmission timeout (ticks,
            at least 1); ``None`` disables retries.  Requires
            ``schedule="async"``.
        max_retries: Retransmission budget per lost send (non-negative).
        deadline_s: Wall-clock budget (seconds) per run; exceeding it
            returns a partial result with a ``stuck`` report
            (``reason="deadline"``) instead of hanging, whatever
            ``on_round_limit`` says.
        fallback: For ``schedule="vectorized"`` runs the kernels cannot
            execute: ``None`` (default) raises
            :class:`~repro.simulator.capabilities.UnsupportedScheduleError`;
            ``"interpret"`` warns and runs the interpreted
            ``"quiescent"`` schedule instead.
        share_graph: Sweep-level zero-copy flag — the process-pool
            backend activates a :class:`~repro.shard.store.SharedCSRStore`
            when any cell requests it, so CSR buffers cross the pool
            boundary once as shared segments instead of per-chunk
            pickles.  A no-op for single runs and the serial backend
            (nothing ships).
        shard: ``"components"`` splits the cell's graph by connected
            components across pool workers and merges the shard results
            into one bit-identical row (see :mod:`repro.shard`).
            ``"edgecut"`` block-partitions the identifier space of a
            (possibly connected) graph and runs one engine per block,
            exchanging boundary messages at a per-round barrier
            (see :mod:`repro.shard.edgecut`) — also bit-identical.
            ``None`` (default) runs unsharded.
    """

    schedule: str = "eager"
    phi: int = 0
    send_timeout: Optional[int] = None
    max_retries: int = 2
    deadline_s: Optional[float] = None
    fallback: Optional[str] = None
    share_graph: bool = False
    shard: Optional[str] = None

    def __post_init__(self) -> None:
        if self.schedule not in SCHEDULERS:
            known = ", ".join(repr(name) for name in SCHEDULERS)
            raise ValueError(
                f"schedule must be one of {known}, got {self.schedule!r}"
            )
        if self.phi < 0:
            raise ValueError(f"phi must be non-negative, got {self.phi}")
        if (self.phi or self.send_timeout is not None) and self.schedule != "async":
            raise ValueError(
                "phi= and send_timeout= belong to the asynchronous model; "
                f"pass schedule='async' (got schedule={self.schedule!r})"
            )
        # The retry policy the async scheduler builds from these fields:
        # constructing it here applies its range checks on every schedule.
        RetryPolicy(self.send_timeout, self.max_retries)
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        if self.fallback not in (None, "interpret"):
            raise ValueError(
                f"fallback must be None or 'interpret', got {self.fallback!r}"
            )
        if self.fallback is not None and self.schedule not in FALLBACK:
            raise ValueError(
                "fallback= only applies to schedule='vectorized' "
                f"(got schedule={self.schedule!r})"
            )
        if self.shard is not None:
            if self.shard not in SHARDS:
                raise ValueError(
                    f"shard must be None or one of {SHARDS}, got {self.shard!r}"
                )
            # With a fallback set, whether a run needs it is decided where
            # the run starts; without one, a refused schedule never runs.
            require(
                self.shard,
                FALLBACK[self.schedule] if self.fallback else self.schedule,
            )
