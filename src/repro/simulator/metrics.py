"""Run metrics: what a simulation measures.

The paper's performance measure is "the number of rounds until all
processes terminate" (Section 1); :class:`RunResult` records that number
together with per-node termination rounds, message/bit counts and CONGEST
bandwidth accounting, so that every quantitative claim in the paper can be
checked against an actual execution.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set

from repro.simulator.models import ExecutionModel


@dataclass
class NodeRecord:
    """Per-node outcome of a run.

    Attributes:
        node_id: The node.
        output: The node's final output (``None`` if it crashed).
        termination_round: Round in which the node terminated (0 for
            termination during setup), or ``None`` if it never did.
        crashed: Whether fault injection removed the node (and it has not
            recovered since).
        recovery_round: Round in which the node last rejoined after a
            crash-with-recovery fault, or ``None`` if it never recovered.
    """

    node_id: int
    output: Any = None
    termination_round: Optional[int] = None
    crashed: bool = False
    recovery_round: Optional[int] = None


class NodeRecords(Mapping):
    """Read-only ``node -> NodeRecord`` mapping over a run's columns.

    An engine keeps a run's per-node outcomes as columns instead of one
    :class:`NodeRecord` object per node: ``termination_rounds`` (node ->
    round, terminated nodes only), ``crashed`` (nodes crashed and not
    recovered), ``recovery_rounds`` (node -> last rejoin round) and the
    result's ``outputs``.  A record is built each time one is read, so
    writing to a returned record changes nothing.  Iteration is in
    ascending node id; ``repr`` and ``==`` are those of the equivalent
    ``dict`` of records.

    Attributes:
        ids: Every node of the run, ascending.
        outputs: The result's ``outputs`` dict (shared, not copied).
        termination_rounds: Termination round per terminated node.
        crashed: Nodes that crashed and have not recovered since.
        recovery_rounds: Last recovery round per recovered node.
    """

    __slots__ = (
        "ids",
        "outputs",
        "termination_rounds",
        "crashed",
        "recovery_rounds",
    )

    def __init__(
        self,
        ids: Sequence[int],
        outputs: Dict[int, Any],
        termination_rounds: Optional[Dict[int, int]] = None,
    ) -> None:
        self.ids = ids
        self.outputs = outputs
        self.termination_rounds: Dict[int, int] = (
            {} if termination_rounds is None else termination_rounds
        )
        self.crashed: Set[int] = set()
        self.recovery_rounds: Dict[int, int] = {}

    def __contains__(self, node: object) -> bool:
        ids = self.ids
        try:
            index = bisect_left(ids, node)
        except TypeError:
            return False
        return index < len(ids) and ids[index] == node

    def __getitem__(self, node: int) -> NodeRecord:
        if node not in self:
            raise KeyError(node)
        return NodeRecord(
            node_id=node,
            output=self.outputs.get(node),
            termination_round=self.termination_rounds.get(node),
            crashed=node in self.crashed,
            recovery_round=self.recovery_rounds.get(node),
        )

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def all_terminated(self) -> bool:
        """Whether every node terminated or crashed (columns only)."""
        terminated = self.termination_rounds
        crashed_live = sum(1 for node in self.crashed if node not in terminated)
        return len(terminated) + crashed_live == len(self.ids)


@dataclass
class NodeSnapshot:
    """State of one still-live node when a run was cut short.

    Attributes:
        node_id: The node.
        round: The last round the node participated in.
        last_inbox: The messages the node received in its last round
            (sender id -> payload).
        state: Shallow, ``repr``-ized snapshot of the node program's
            instance attributes — enough to see *where* a program is stuck
            without aliasing live state.
        has_output: Whether the node had assigned (parts of) its output.
    """

    node_id: int
    round: int
    last_inbox: Dict[int, Any] = field(default_factory=dict)
    state: Dict[str, str] = field(default_factory=dict)
    has_output: bool = False


@dataclass
class StuckReport:
    """Diagnosis of a run that hit its round budget under graceful mode.

    Produced by ``SyncEngine(..., on_round_limit="partial")`` instead of
    a :class:`~repro.simulator.engine.RoundLimitExceeded` exception, so
    that benchmarks under fault injection can *measure* degradation
    (which nodes are stuck, and how far everyone else got) rather than
    abort.

    Attributes:
        round: The last round that was executed (= the round budget).
        live_nodes: Nodes still active when the run was cut, sorted.
        total_nodes: Number of nodes in the instance.
        snapshots: Per-live-node :class:`NodeSnapshot`.
        reason: Why the run was cut short — ``"round-limit"`` (the round
            budget), ``"deadline"`` (the wall-clock budget of
            ``deadline_s``), or ``"stabilized"`` (the async scheduler's
            stabilization detector proved nothing can ever happen again).
    """

    round: int
    live_nodes: List[int] = field(default_factory=list)
    total_nodes: int = 0
    snapshots: Dict[int, NodeSnapshot] = field(default_factory=dict)
    reason: str = "round-limit"

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"{len(self.live_nodes)}/{self.total_nodes} node(s) still live "
            f"after {self.round} round(s) [{self.reason}]: {self.live_nodes[:10]}"
        )


@dataclass
class RunResult:
    """Complete record of one synchronous execution.

    Attributes:
        outputs: Final output of every node that terminated.
        records: Per-node :class:`NodeRecord`.  An engine-built result
            holds a read-only :class:`NodeRecords` mapping that builds
            each record when it is read; a ``RunResult()`` built by hand
            starts with a plain ``dict``.
        rounds: Number of rounds until all (non-crashed) nodes terminated —
            the paper's round complexity of the execution.  Under faults or
            partial runs this is the *last termination* round (0 when no
            node ever terminated); use :attr:`rounds_executed` to measure
            how long the engine actually ran.
        rounds_executed: Number of rounds the engine executed, regardless
            of terminations — well-defined even when every node crashed or
            the run was cut by ``stop_after`` / the round budget.
        message_count: Number of point-to-point messages delivered.
        total_bits: Sum of estimated message sizes.
        max_message_bits: Width of the largest single message.
        bandwidth_violations: Messages exceeding the model's budget.
        dropped_messages: Messages removed by a message adversary.
        duplicated_messages: Adversarial replay deliveries (a copy of a
            previous-round message delivered one round late).
        corrupted_messages: Messages whose payload an adversary mangled.
        delayed_messages: Messages the async delay adversary held in
            flight for at least one tick (``schedule="async"`` only).
        retried_messages: Retransmissions of lost sends fired by the
            async send-timeout machinery.
        recovery_pulses: Self-stabilization pulses the async scheduler
            injected to re-probe an apparently stalled execution.
        stuck: :class:`StuckReport` when the run was cut short in
            graceful mode (round budget, wall-clock deadline, or async
            stabilization — see ``StuckReport.reason``), else ``None``.
        model: The execution model the run was accounted against.
        trace: The :class:`~repro.simulator.trace.TraceRecorder` of the
            run when tracing was requested (``run(..., trace=True)``),
            else ``None``.
        profile: The :class:`~repro.obs.profile.RoundProfile` with
            per-round phase timings when profiling was requested
            (``run(..., profile=True)``), else ``None``.
        kernel: Name of the compiled whole-frontier kernel that executed
            the run under ``schedule="vectorized"`` (e.g.
            ``"greedy-mis"``), else ``None`` — including when a
            ``fallback="interpret"`` run downgraded to an interpreted
            schedule.
        init_decided: Nodes whose share of a template's initialization
            was computed by index instead of interpreted (see
            :mod:`repro.core.initpass`); 0 when every node was
            interpreted.
    """

    outputs: Dict[int, Any] = field(default_factory=dict)
    records: Mapping[int, NodeRecord] = field(default_factory=dict)
    rounds: int = 0
    rounds_executed: int = 0
    message_count: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    bandwidth_violations: int = 0
    dropped_messages: int = 0
    duplicated_messages: int = 0
    corrupted_messages: int = 0
    delayed_messages: int = 0
    retried_messages: int = 0
    recovery_pulses: int = 0
    stuck: Optional[StuckReport] = None
    model: Optional[ExecutionModel] = None
    trace: Optional[Any] = None
    profile: Optional[Any] = None
    kernel: Optional[str] = None
    init_decided: int = 0

    def termination_round(self, node_id: int) -> Optional[int]:
        """Round in which ``node_id`` terminated, or ``None``."""
        records = self.records
        if isinstance(records, NodeRecords):
            return records.termination_rounds.get(node_id)
        record = records.get(node_id)
        return record.termination_round if record else None

    @property
    def all_terminated(self) -> bool:
        """Whether every non-crashed node produced an output and stopped."""
        records = self.records
        if isinstance(records, NodeRecords):
            return records.all_terminated()
        return all(
            record.crashed or record.termination_round is not None
            for record in records.values()
        )

    def congest_compatible(self, n: int) -> bool:
        """Whether every message of the run fit a CONGEST budget for ``n``."""
        from repro.simulator.models import CONGEST

        budget = CONGEST.bandwidth_bits(n)
        return budget is None or self.max_message_bits <= budget
