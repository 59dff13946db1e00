"""The synchronous round-based execution engine (orchestrator).

:class:`SyncEngine` executes one :class:`~repro.simulator.program.
NodeProgram` per node under the model of Section 2 of the paper: rounds are
synchronous; in each round every active node composes messages (from its
state at the end of the previous round), all messages are delivered, then
every active node processes its inbox, may assign outputs, and may
terminate.  Messages a node sends in its final round are delivered normally
— the paper's "notifies its neighbors ... outputs ... and terminates".

After a node terminates, the engine exposes its output to its neighbors at
the start of the following round (``ctx.neighbor_outputs``) — exactly the
information and timing an explicit final-round notification message
provides, so composed algorithms (the Section 7 templates) stay faithful
without re-implementing the handshake.

The engine itself is a thin orchestrator over composable runtime stages
(docs/ARCHITECTURE.md has the full layer map): the shared
:class:`~repro.graphs.csr.CSRTopology` core, ``Transport`` (mailboxes +
bit accounting), ``Scheduler`` (eager / quiescent / quiescent-debug /
async through one shared round loop, or vectorized kernels),
``FaultInterposer`` (the one fault surface; ``docs/MODEL.md``),
``NodeLifecycle`` (terminations, crashes, recoveries, stuck reports) and
``ObsDispatch`` (event fan-out + round profile).  The engine wires the
stages and owns the run loop, the simulator's only one (edge-cut shards
run it too, stopped through their transport); it contains no scheduling
policy and no message-path code.  The stages hold the engine through a weak proxy, so
an engine and its per-node state are freed by reference counting as soon
as the last user reference goes.  ``on_round_limit="partial"`` turns a
blown round budget into a partial result carrying a ``StuckReport``
instead of an exception, so benchmarks under faults can *measure*
degradation.
"""

from __future__ import annotations

import weakref
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.obs.profile import RoundProfile
from repro.simulator.capabilities import UnsupportedScheduleError, fall_back, require
from repro.simulator.context import NodeContext
from repro.simulator.interpose import FaultInterposer
from repro.simulator.lifecycle import NodeLifecycle
from repro.simulator.metrics import NodeRecords, RunResult, StuckReport
from repro.simulator.models import LOCAL, ExecutionModel
from repro.simulator.obs_dispatch import ObsDispatch
from repro.simulator.program import NodeProgram
from repro.simulator.scheduling import (
    SCHEDULERS,
    ExecutionPolicy,
    QuiescenceViolation,
)
from repro.simulator.trace import TraceRecorder
from repro.simulator.transport import (
    BandwidthExceeded,
    LocalTransport,
    Transport,
)

__all__ = [
    "BandwidthExceeded",
    "QuiescenceViolation",
    "RoundLimitExceeded",
    "SyncEngine",
]


class RoundLimitExceeded(RuntimeError):
    """Raised when a run exceeds its round budget without terminating.

    Every algorithm in the paper has a finite worst-case round complexity;
    hitting this limit under fault-free execution always indicates a bug
    (e.g. deadlocked composition or a non-terminating wait).  Under fault
    injection it may instead mean the adversary starved the algorithm —
    pass ``on_round_limit="partial"`` to record that outcome instead of
    raising.
    """


def round_limit_error(
    active: int, rounds: int, nodes: Iterable[int], stabilized: bool = False
) -> RoundLimitExceeded:
    """The canonical round-limit failure, naming the ten smallest of
    ``nodes``: one text for the engine and the edge-cut coordinator."""
    state = "stabilized without terminating" if stabilized else "still active"
    return RoundLimitExceeded(
        f"{active} node(s) {state} after {rounds} rounds: {sorted(nodes)[:10]}"
    )


def round_budget(max_rounds: Optional[int], n: int) -> int:
    """A run's round budget: ``max_rounds``, else ``8 * n + 64``."""
    return 8 * n + 64 if max_rounds is None else max_rounds


class StopRule:
    """Whether a run stops at a round boundary, and why: asked by an
    engine about its own nodes, by the edge-cut coordinator about the sum
    of its shards'.  The deadline counts from the rule's creation."""

    __slots__ = ("max_rounds", "on_round_limit", "deadline")

    def __init__(
        self, max_rounds: int, on_round_limit: str, deadline_s: Optional[float]
    ) -> None:
        self.max_rounds = max_rounds
        self.on_round_limit = on_round_limit
        self.deadline = None if deadline_s is None else perf_counter() + deadline_s

    def __call__(
        self, round_index: int, active: int, nodes: Iterable[int], *,
        pending: bool = False, stabilized: bool = False,
    ) -> Optional[str]:
        """``None`` runs another round; else the run stops after
        ``round_index`` rounds with ``active`` nodes (``nodes`` holds the
        ten smallest) for the first of: ``"stabilized"`` (the async
        detector), ``"done"`` (no node active, no recovery ``pending``),
        ``"deadline"`` (always graceful: a hung cell must never wedge a
        sweep) and ``"round-limit"``.  Under ``on_round_limit="raise"`` a
        stabilized or round-limited run raises instead."""
        if stabilized:
            reason, rounds = "stabilized", round_index
        elif not active and not pending:
            return "done"
        elif self.deadline is not None and perf_counter() >= self.deadline:
            return "deadline"
        elif round_index >= self.max_rounds:
            reason, rounds = "round-limit", self.max_rounds
        else:
            return None
        if self.on_round_limit == "raise":
            raise round_limit_error(active, rounds, nodes, stabilized)
        return reason


ProgramSource = Union[Mapping[int, NodeProgram], Callable[[int], NodeProgram]]

#: Transport constructor signature the engine injects at build time:
#: ``(nodes, result, model, n, fast) -> Transport``.
TransportFactory = Callable[..., Transport]


class SyncEngine:
    """Runs node programs over a graph in synchronous rounds.

    Args:
        graph: A :class:`~repro.graphs.graph.DistGraph` (or any object with
            ``nodes``, ``neighbors(v)``, ``n``, ``d``, ``delta`` and
            ``node_attrs(v)``).
        programs: Either a mapping ``node -> NodeProgram`` or a factory
            ``node -> NodeProgram`` called once per node.
        predictions: Optional mapping ``node -> prediction`` handed to each
            node's context (the per-node prediction of Section 1.1).
        model: Execution model for bandwidth accounting.
        max_rounds: Round budget; defaults to ``8 * n + 64``.
        seed: Base seed for the per-node random streams.
        trace: Optional :class:`TraceRecorder` receiving every event
            (kept as a named argument because the recorder is attached
            to ``result.trace``; it is also just one sink).
        sinks: Additional :class:`~repro.obs.events.EventSink` objects
            receiving every event plus run/round lifecycle hooks with
            wall-clock and message deltas.  When neither sinks nor a
            trace are attached, the round loop does no observability
            work at all.
        profile: ``True`` (or a :class:`~repro.obs.profile.RoundProfile`
            to fill) records per-round compose/deliver/process/finalize
            phase timings (``kernel`` under ``schedule="vectorized"``) on
            ``result.profile``, on every schedule.  The scheduler's one
            round loop times itself, so a profiled run takes the same
            path as an unprofiled one and only adds clock reads.
        faults: A :class:`~repro.faults.plan.FaultPlan` (or any object
            with a ``build_controller()`` factory) describing crashes,
            crash-recovery, message adversaries and prediction
            corruption.  Anything else raises :class:`TypeError`.
        on_round_limit: ``"raise"`` (default) raises
            :class:`RoundLimitExceeded` when the budget is blown;
            ``"partial"`` stops instead and returns the partial
            :class:`RunResult` with a populated ``stuck`` report.
        fast: Skip per-message bit-size estimation (``total_bits``,
            ``max_message_bits`` and CONGEST budget checks stay zero) for
            maximum throughput; ``message_count`` is still maintained.
            Outputs, round counts and termination records are identical
            to a normal run.
        policy: The :class:`~repro.simulator.scheduling.ExecutionPolicy`
            — schedule choice plus its asynchrony, deadline and fallback
            knobs; ``None`` means ``ExecutionPolicy()`` (eager).  The
            policy validated its own fields, so the engine only reads
            them.  A wall-clock ``deadline_s`` stops the run
            *gracefully* — whatever ``on_round_limit`` says — with a
            ``stuck`` report whose ``reason`` is ``"deadline"``.  A run
            :mod:`repro.simulator.capabilities` or the kernel registry
            refuses raises
            :class:`~repro.simulator.capabilities.UnsupportedScheduleError`,
            unless ``fallback="interpret"`` applies.
        transport: Optional transport factory ``(nodes, result, model,
            n, fast) -> Transport``; ``None`` builds the default
            :class:`~repro.simulator.transport.LocalTransport`.  The
            edge-cut shard driver injects a
            :class:`~repro.simulator.transport.BoundaryTransport`
            bound to its coordinator here.
    """

    def __init__(
        self,
        graph: Any,
        programs: ProgramSource,
        *,
        predictions: Optional[Mapping[int, Any]] = None,
        model: ExecutionModel = LOCAL,
        max_rounds: Optional[int] = None,
        seed: int = 0,
        trace: Optional[TraceRecorder] = None,
        sinks: Optional[Sequence[Any]] = None,
        profile: Union[bool, RoundProfile, None] = None,
        faults: Optional[Any] = None,
        on_round_limit: str = "raise",
        fast: bool = False,
        policy: Optional[ExecutionPolicy] = None,
        transport: Optional[TransportFactory] = None,
    ) -> None:
        if on_round_limit not in ("raise", "partial"):
            raise ValueError(
                f"on_round_limit must be 'raise' or 'partial', got {on_round_limit!r}"
            )
        if faults is not None and not hasattr(faults, "build_controller"):
            raise TypeError(
                "faults= takes a FaultPlan (or any object with a "
                f"build_controller() factory), got {type(faults).__name__}"
            )
        self.graph = graph
        self.model = model
        self.trace = trace
        #: The observability stage: event fan-out plus the round profile.
        self.obs = ObsDispatch(sinks=sinks, trace=trace, profile=profile)
        self.max_rounds = round_budget(max_rounds, graph.n)
        self.on_round_limit = on_round_limit
        self.fast = fast
        #: How this run executes (the async scheduler reads its knobs at
        #: bind time); after a vectorized fallback, the quiescent policy
        #: that actually runs.
        self.policy = policy if policy is not None else ExecutionPolicy()
        #: The scheduling stage: which nodes run a round, and the
        #: compose/deliver/process drive.
        self._scheduler = SCHEDULERS[self.policy.schedule]()
        self._seed = seed
        #: The run's result record, shared with transport and interposer.
        self.result = RunResult(model=model)
        #: The fault stage, or ``None`` — faultless runs pay nothing.
        self.interposer: Optional[FaultInterposer] = (
            FaultInterposer(faults.build_controller(), self.result, self.obs)
            if faults is not None
            else None
        )
        predictions = dict(predictions or {})
        if self.interposer is not None and predictions:
            predictions = self.interposer.corrupt_predictions(
                predictions, sorted(graph.nodes)
            )
        self._predictions = predictions
        self._program_source = programs

        #: The compiled whole-frontier kernel when this run executes
        #: under ``schedule="vectorized"``, else ``None``.  An engine
        #: never shards.
        self._kernel = None
        path = "kernel" if self._scheduler.uses_kernels else "interpreter"
        require(path, shard=self.policy.shard)
        try:
            require(
                path, faults=faults is not None, sinks=bool(self.obs),
                profile=self.obs.profile is not None,
                deadline=self.policy.deadline_s is not None,
            )
            if self._scheduler.uses_kernels:
                from repro.kernels import resolve_kernel

                self._kernel = resolve_kernel(programs, graph.nodes)
        except UnsupportedScheduleError as exc:
            self.policy = fall_back(self.policy, exc)
            self._scheduler = SCHEDULERS[self.policy.schedule]()

        order = sorted(graph.nodes)
        #: Nodes whose termination or crash has been published to their
        #: neighbors; every context reads its unbuilt active set off it.
        self._gone: Set[int] = set()
        self.programs: Dict[int, NodeProgram] = {}
        self.contexts: Dict[int, NodeContext] = {}
        if self._kernel is None:
            # The kernel path never touches per-node programs/contexts/
            # inboxes; skipping them keeps construction O(1) per node in
            # arrays rather than Python objects at n ≈ 10⁶.
            #: What building a node's context reads, looked up once per
            #: run: the per-node lookups, then the values every context
            #: shares (``n``, ``d``, ``delta``, the seed, ``phi``, ``gone``).
            self._context_parts = (
                graph.neighbors,
                predictions.get,
                graph.node_attrs,
                graph.n,
                graph.d,
                graph.delta,
                seed,
                self.policy.phi,
                self._gone,
            )
            program_of = programs if callable(programs) else programs.__getitem__
            build_context = self._build_context
            for node in order:
                self.programs[node] = program_of(node)
                self.contexts[node] = build_context(node)

        self._active = set(order)
        #: Sorted view of ``_active``, rebuilt only when membership changes
        #: (terminations, crashes, recoveries) instead of thrice per round.
        self._active_order: List[int] = order
        #: Per-node outcomes as columns; ``result.records`` builds a
        #: :class:`NodeRecord` only when one is read.
        self.result.records = NodeRecords(tuple(order), self.result.outputs)
        #: The transport stage: mailboxes, delivery and bit accounting.
        #: Injected — :class:`~repro.simulator.transport.LocalTransport`
        #: unless the caller (e.g. the edge-cut shard driver) provides a
        #: factory with the same ``(nodes, result, model, n, fast)``
        #: signature.
        factory = LocalTransport if transport is None else transport
        self.transport = factory(
            self.graph.nodes if self._kernel is None else (),
            self.result,
            model,
            graph.n,
            fast,
        )
        # The stages reach the engine through a weak proxy, so no stage
        # holds it in a reference cycle: an engine dies with its last
        # outside reference instead of waiting for the cyclic collector.
        runtime = weakref.proxy(self)
        #: The lifecycle stage: terminations, crashes, recoveries.
        self._lifecycle = NodeLifecycle(runtime)
        self._scheduler.bind(runtime)

    def _build_context(self, node: int) -> NodeContext:
        # Positional arguments: this runs once per node, and passing ten
        # keywords costs about as much as building the context itself.
        neighbors, prediction, attrs, n, d, delta, seed, phi, gone = (
            self._context_parts
        )
        return NodeContext(
            node,
            neighbors(node),
            n,
            d,
            delta,
            prediction(node),
            attrs(node),
            seed,
            phi,
            gone,
        )

    # ------------------------------------------------------------------
    def run(self, stop_after: Optional[int] = None) -> RunResult:
        """Execute until every node terminates (or faults/limits stop it).

        With ``stop_after``, execute at most that many rounds and return
        the partial record without raising — how tests observe the partial
        solution a bounded component (e.g. a base algorithm) leaves behind.
        """
        return self.loop(stop_after)

    def loop(self, stop_after: Optional[int] = None) -> RunResult:
        """The simulator's one round loop, which edge-cut shards enter
        directly (perfbench times them apart from engine runs): setup,
        then rounds until ``stop_after`` or the transport's round-boundary
        hook (``Transport.stop``) stops the run."""
        obs = self.obs
        profile = obs.profile
        result = self.result
        if obs:
            obs.run_begin(
                {
                    "n": self.graph.n,
                    "model": getattr(self.model, "name", str(self.model)),
                    "max_rounds": self.max_rounds,
                    "seed": self._seed,
                    "fast": self.fast,
                    "transport": type(self.transport).__name__,
                }
            )
        if profile is not None:
            setup_start = perf_counter()
            self._setup_phase()
            profile.setup = perf_counter() - setup_start
        else:
            self._setup_phase()
        #: What :meth:`stop_reason` asks; the deadline counts from here.
        self._stop_rule = StopRule(
            self.max_rounds, self.on_round_limit, self.policy.deadline_s
        )
        run_round = self._scheduler.run_round
        stop = self.transport.stop
        round_index = 0
        while stop_after is None or round_index < stop_after:
            reason = stop(round_index, self)
            if reason is not None:
                if reason != "done":
                    result.stuck = self._build_stuck_report(round_index, reason)
                break
            round_index += 1
            if obs:
                obs.round_begin(round_index, len(self._active))
                round_start = perf_counter()
                messages_before = result.message_count
            run_round(round_index)
            if obs:
                obs.round_end(
                    round_index,
                    {
                        "elapsed": perf_counter() - round_start,
                        "messages": result.message_count - messages_before,
                        "active": len(self._active),
                    },
                )
        # Batched schedulers (vectorized kernels) write their buffered
        # per-node outcomes into ``result`` here; interpreted schedulers
        # already wrote through and this is a no-op.
        self._scheduler.finish()
        result.rounds_executed = round_index
        termination_rounds = result.records.termination_rounds
        result.rounds = max(termination_rounds.values(), default=0)
        result.profile = profile
        if obs:
            obs.run_end(
                {
                    "rounds": result.rounds,
                    "rounds_executed": result.rounds_executed,
                    "messages": result.message_count,
                    "dropped": result.dropped_messages,
                    "terminated": len(termination_rounds),
                    "stuck": result.stuck is not None,
                }
            )
        return result

    def stop_reason(self, round_index: int) -> Optional[str]:
        """This engine's own :class:`StopRule` decision after
        ``round_index`` rounds."""
        active = self._active
        return self._stop_rule(
            round_index,
            len(active),
            active,
            pending=not active and self._has_pending_recoveries(round_index),
            stabilized=bool(active) and self._scheduler.quiesced,
        )

    def _has_pending_recoveries(self, round_index: int) -> bool:
        """Whether a crashed node is still scheduled to rejoin later.

        Keeps the run alive across a window in which *every* node is
        momentarily crashed but recoveries are due.
        """
        if self.interposer is None:
            return False
        due = self.interposer.last_recovery_round()
        if due is None:
            return False
        # A rejoin beyond the round budget can never fire; ignore it.
        return round_index < due <= self.max_rounds

    # ------------------------------------------------------------------
    def _setup_phase(self) -> None:
        scheduler = self._scheduler
        if scheduler.handles_setup:
            scheduler.run_setup()
            return
        for node in self._active_order:
            ctx = self.contexts[node]
            ctx.round = 0
            self.programs[node].setup(ctx)
            scheduler.note_state(node, ctx)
        self.finalize_round(0)

    def apply_recoveries(self, round_index: int) -> None:
        """Rejoin crash-with-recovery nodes (lifecycle stage delegator)."""
        self._lifecycle.apply_recoveries(round_index)

    def finalize_round(
        self, round_index: int, participants: Optional[List[int]] = None
    ) -> None:
        """Apply terminations/crashes and publish neighbor updates.

        Delegates to the lifecycle stage; ``participants`` (sorted)
        restricts the termination scan to the nodes the quiescent schedule
        actually ran this round.
        """
        self._lifecycle.finalize_round(round_index, participants)

    def _build_stuck_report(
        self, round_index: int, reason: str = "round-limit"
    ) -> StuckReport:
        report = self._scheduler.build_stuck_report(round_index, reason)
        if report is not None:
            return report
        return self._lifecycle.build_stuck_report(round_index, reason=reason)
