"""Per-node execution context.

A :class:`NodeContext` is the only window a :class:`~repro.simulator.program.
NodeProgram` has onto the world.  It carries exactly the knowledge the
paper's model grants a node (Section 2): its own identifier, the identifiers
of its neighbors, the values ``n``, ``d`` and (when the instance provides
it) ``Delta``, plus the node's prediction.  It also tracks which neighbors
are still active and what terminated neighbors output, mirroring the
paper's convention that nodes announce their outputs before terminating.
"""

from __future__ import annotations

import random
from typing import AbstractSet, Any, Dict, FrozenSet, Mapping, Optional, Set

_UNSET = object()


class OutputAlreadySet(RuntimeError):
    """Raised when a program assigns a node's output twice.

    The paper's model gives each node write-once output variables;
    reassignment is always an algorithm bug, so the simulator fails loudly.
    """


class NodeContext:
    """Local state and knowledge of one node during a simulation.

    Programs read the public attributes and call :meth:`set_output`,
    :meth:`set_output_part` and :meth:`terminate`.  The engine owns the
    bookkeeping attributes (``round``, ``active_neighbors``,
    ``neighbor_outputs``, ``crashed_neighbors``).

    Attributes:
        node_id: This node's identifier (unique, from ``{1, ..., d}``).
        neighbors: Identifiers of all neighbors, as a frozenset.
        n: Number of nodes in the graph.
        d: Upper bound on the largest identifier.
        delta: Maximum degree of the graph, when known to nodes.
        prediction: This node's prediction of its output (may be ``None``).
        attrs: Extra per-node instance knowledge (e.g. ``parent`` and
            ``is_root`` for rooted trees).
        round: Current round number; 0 during ``setup``.
        active_neighbors: Neighbors that have neither terminated nor
            crashed, updated by the engine between rounds.
        neighbor_outputs: Outputs of terminated neighbors, visible from the
            round after their termination.
        crashed_neighbors: Neighbors removed by fault injection.
        rng: Per-node deterministic random stream (for the paper's
            randomized algorithms; deterministic algorithms never use it).
        phi: The delay bound of the run's asynchronous adversary (0 under
            every synchronous schedule).  Part of a node's shared
            knowledge, like ``n`` and ``delta``: delay-aware programs
            (e.g. the sliced templates) stretch their round bounds by
            ``1 + phi`` so that slice boundaries outlast the slowest
            message.

    The class is slotted, and its neighbor sets are built on first use:
    an engine passes ``gone``, the one set of nodes whose termination or
    crash it has published, and a context that no program asked for its
    ``active_neighbors`` holds no set of its own.  A context built alone
    starts with every neighbor active.
    """

    __slots__ = (
        "node_id",
        "neighbors",
        "n",
        "d",
        "delta",
        "prediction",
        "attrs",
        "round",
        "neighbor_outputs",
        "phi",
        "terminated",
        "termination_round",
        "_seed",
        "_rng",
        "_send_timeout",
        "_output",
        "_output_parts",
        "_terminate_requested",
        "_wake_request",
        "_active",
        "_crashed",
        "_gone",
    )

    def __init__(
        self,
        node_id: int,
        neighbors: FrozenSet[int],
        n: int,
        d: int,
        delta: Optional[int],
        prediction: Any = None,
        attrs: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        phi: int = 0,
        gone: AbstractSet[int] = frozenset(),
    ) -> None:
        self.node_id = node_id
        self.neighbors = frozenset(neighbors)
        self.n = n
        self.d = d
        self.delta = delta
        self.prediction = prediction
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.round = 0
        self.neighbor_outputs: Dict[int, Any] = {}
        self.phi = phi
        self._seed = seed
        self._rng: Optional[random.Random] = None
        #: Per-node send-timeout override for the async schedule
        #: (``None`` = use the policy's default); see
        #: :meth:`set_send_timeout`.
        self._send_timeout: Optional[int] = None

        self._output: Any = _UNSET
        #: Per-part outputs, created by the first :meth:`set_output_part`.
        self._output_parts: Optional[Dict[Any, Any]] = None
        self._terminate_requested = False
        self.terminated = False
        self.termination_round: Optional[int] = None
        #: Earliest round this node asked to be woken in (engine-owned;
        #: ``None`` when no timed wakeup is pending).  See :meth:`wake_at`.
        self._wake_request: Optional[int] = None
        #: The active-neighbor set once built (see :attr:`active_neighbors`).
        self._active: Optional[Set[int]] = None
        #: The crashed-neighbor set once written (see
        #: :attr:`crashed_neighbors`).
        self._crashed: Optional[Set[int]] = None
        #: The engine's set of nodes whose termination or crash has been
        #: published (shared by every context of a run); an unbuilt
        #: active set is ``neighbors`` minus these.
        self._gone = gone

    @property
    def rng(self) -> random.Random:
        """Per-node deterministic random stream, built on first use.

        The stream is seeded from ``(seed, node_id)`` exactly as before it
        became lazy, so randomized algorithms draw identical values; the
        paper's deterministic algorithms never touch it and no longer pay
        for its construction at setup.
        """
        if self._rng is None:
            self._rng = random.Random(f"{self._seed}:{self.node_id}")
        return self._rng

    # ------------------------------------------------------------------
    # Knowledge helpers
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Number of neighbors in the original graph."""
        return len(self.neighbors)

    @property
    def active_neighbors(self) -> Set[int]:
        """Neighbors that have neither terminated nor crashed.

        Built on first read as ``neighbors`` minus the nodes whose
        termination or crash the engine has published; from then on the
        engine keeps it up to date.  Copying ``neighbors`` and discarding
        one node at a time gives the same hash-table layout, and so the
        same iteration order, as a set maintained since setup.
        """
        active = self._active
        if active is None:
            neighbors = self.neighbors
            active = self._active = set(neighbors)
            gone = self._gone
            if gone:
                for other in neighbors:
                    if other in gone:
                        active.discard(other)
        return active

    @active_neighbors.setter
    def active_neighbors(self, value: Set[int]) -> None:
        self._active = value

    @property
    def crashed_neighbors(self) -> Set[int]:
        """Neighbors removed by fault injection (created on first use)."""
        crashed = self._crashed
        if crashed is None:
            crashed = self._crashed = set()
        return crashed

    def is_local_maximum(self) -> bool:
        """Whether this node's id exceeds every *active* neighbor's id.

        This is the symmetry-breaking test used throughout the paper's
        measure-uniform algorithms (Algorithm 1 and its relatives).  Only
        higher-id neighbors need an activity check, and the scan stops at
        the first active one.  It reads the active set only if a program
        already built it, and the engine's published departures
        otherwise, so the test allocates nothing.
        """
        node_id = self.node_id
        active = self._active
        if active is None:
            gone = self._gone
            for other in self.neighbors:
                if other > node_id and other not in gone:
                    return False
        else:
            for other in self.neighbors:
                if other > node_id and other in active:
                    return False
        return True

    # ------------------------------------------------------------------
    # Output management
    # ------------------------------------------------------------------
    @property
    def output(self) -> Any:
        """The node's output: the scalar output, or the dict of parts."""
        if self._output is not _UNSET:
            return self._output
        if self._output_parts:
            return dict(self._output_parts)
        return None

    @property
    def has_output(self) -> bool:
        """Whether any output (scalar or part) has been assigned."""
        return self._output is not _UNSET or bool(self._output_parts)

    def set_output(self, value: Any) -> None:
        """Assign the node's (write-once) output value."""
        if self._output is not _UNSET:
            raise OutputAlreadySet(
                f"node {self.node_id} output already set to {self._output!r}"
            )
        if self._output_parts:
            raise OutputAlreadySet(
                f"node {self.node_id} already has per-part outputs"
            )
        self._output = value

    def set_output_part(self, key: Any, value: Any) -> None:
        """Assign one component of a multi-part output.

        Used by problems whose nodes output several values — e.g. in
        (2Δ−1)-Edge Coloring a node outputs one color per incident edge,
        possibly in different rounds (Section 8.3).
        """
        if self._output is not _UNSET:
            raise OutputAlreadySet(
                f"node {self.node_id} already has a scalar output"
            )
        parts = self._output_parts
        if parts is None:
            parts = self._output_parts = {}
        elif key in parts:
            raise OutputAlreadySet(
                f"node {self.node_id} output part {key!r} already set"
            )
        parts[key] = value

    def output_part(self, key: Any, default: Any = None) -> Any:
        """Read back a previously assigned output part."""
        parts = self._output_parts
        return default if parts is None else parts.get(key, default)

    def terminate(self) -> None:
        """Request termination at the end of the current round.

        Per the model, a node terminates immediately after assigning its
        last output; the engine records the round and deactivates the node
        once the round's processing completes.
        """
        self._terminate_requested = True

    @property
    def terminate_requested(self) -> bool:
        """Whether :meth:`terminate` was called this round (engine use)."""
        return self._terminate_requested

    # ------------------------------------------------------------------
    # Quiescence scheduling
    # ------------------------------------------------------------------
    def wake_at(self, round_index: int) -> None:
        """Ask the quiescence scheduler to run this node in ``round_index``.

        Programs that declare ``quiescent_when_idle = True`` are skipped in
        rounds where nothing observable can reach them; a timed wakeup is
        how such a program arranges to act at a known future round (the
        time-sliced templates use this for their switching rounds).
        Requests are merged by minimum, so the earliest requested round
        wins.  Calling this under the default eager schedule is a cheap
        no-op.  Waking *earlier* than needed is always safe — an idle
        program's round is a no-op by contract — but waking later than the
        program needed breaks the schedule, so when in doubt wake early.
        """
        if round_index <= self.round:
            raise ValueError(
                f"node {self.node_id}: wake_at({round_index}) is not in the "
                f"future (current round {self.round})"
            )
        if self._wake_request is None or round_index < self._wake_request:
            self._wake_request = round_index

    def request_wakeup(self, delay: int = 1) -> None:
        """Ask to be scheduled ``delay`` rounds from now (see :meth:`wake_at`)."""
        if delay < 1:
            raise ValueError(
                f"node {self.node_id}: request_wakeup delay must be >= 1, "
                f"got {delay}"
            )
        self.wake_at(self.round + delay)

    # ------------------------------------------------------------------
    # Asynchronous model (schedule="async")
    # ------------------------------------------------------------------
    def set_send_timeout(self, ticks: Optional[int]) -> None:
        """Arm (or disarm) this node's send timeout under ``schedule="async"``.

        When one of this node's sends is lost and a timeout is armed,
        the scheduler retransmits after ``ticks`` ticks with exponential
        backoff, up to the policy's ``max_retries``.  ``None`` restores
        the policy's ``send_timeout`` (itself ``None`` — no retries —
        unless configured).  A no-op under every
        synchronous schedule, like :meth:`wake_at` under eager.
        """
        if ticks is not None and ticks < 1:
            raise ValueError(
                f"node {self.node_id}: send timeout must be >= 1 tick, "
                f"got {ticks}"
            )
        self._send_timeout = ticks
