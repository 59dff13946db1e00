"""Composition machinery: sub-contexts and time-sliced programs.

The templates of Section 7 combine component algorithms by *time
slicing*: because every node knows ``n``, ``d`` and ``Δ``, all nodes
compute the same switching rounds, so during any given round every active
node is executing the same component (the paper: a node "should wait until
the number of rounds that has elapsed in a phase is the known upper bound
for that phase, before starting the next phase").  The Parallel Template
additionally runs two components in the *same* rounds, with tagged
messages.

A :class:`SubContext` is the window a component program gets onto the real
node context: it keeps a private round counter (so a component paused and
resumed by the Interleaved Template sees consecutive rounds) and can
intercept outputs (so the Parallel Template's part-1 reference stores its
results locally instead of producing real outputs — Algorithm 5).

A :class:`SlicedProgram` is the per-node host that drives the
components.  The schedule is the same at every node, so the hosts of a
run share one :class:`SlicePlan`, materialized once per value of the
shared :class:`Knowledge`; each host keeps only its slice index, its
slice countdown and its components.
"""

from __future__ import annotations

import threading
import weakref
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.simulator.context import NodeContext
from repro.simulator.program import Inbox, NodeProgram, Outbox

_UNSET = object()


class SubContext:
    """A component algorithm's view of its node's context.

    The node's fixed knowledge (identifier, neighbors, ``n``, ``d``,
    ``Δ``, prediction, attributes) is copied from the underlying context
    when the view is built; the random stream, active and crashed
    neighbors, neighbor outputs and termination are read through it.
    The round counter is private to the component, and output calls are
    either passed through (the component's outputs are the node's
    outputs) or intercepted and stored locally (Parallel Template
    part 1).
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
        "finished",
        "_base",
        "_intercept",
        "_neighbor_filter",
        "_stored",
        "_stored_parts",
    )

    def __init__(
        self,
        base: NodeContext,
        intercept_outputs: bool = False,
        neighbor_filter: Optional[Callable[[int], bool]] = None,
    ) -> None:
        self._base = base
        self.node_id = base.node_id
        self.neighbors = base.neighbors
        self.n = base.n
        self.d = base.d
        self.delta = base.delta
        self.prediction = base.prediction
        self.attrs = base.attrs
        self._intercept = intercept_outputs
        self._neighbor_filter = neighbor_filter
        self.round = 0
        self.finished = False
        self._stored: Any = _UNSET
        #: Intercepted per-part outputs, created by the first
        #: :meth:`set_output_part`.
        self._stored_parts: Optional[Dict[Any, Any]] = None

    # -- delegated state ----------------------------------------------
    @property
    def rng(self):
        return self._base.rng

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    @property
    def active_neighbors(self):
        """Active neighbors, restricted by the component's filter.

        A filter realizes "run U on the subgraph induced by ..." (e.g. the
        black nodes, Section 9.1): the component only ever sees — and can
        only message — the neighbors the filter admits.
        """
        if self._neighbor_filter is None:
            return self._base.active_neighbors
        return {
            other
            for other in self._base.active_neighbors
            if self._neighbor_filter(other)
        }

    @property
    def neighbor_outputs(self):
        return self._base.neighbor_outputs

    @property
    def crashed_neighbors(self):
        return self._base.crashed_neighbors

    def is_local_maximum(self) -> bool:
        if self._neighbor_filter is None:
            return self._base.is_local_maximum()
        return all(other < self.node_id for other in self.active_neighbors)

    # -- quiescence scheduling ----------------------------------------
    def wake_at(self, round_index: int) -> None:
        """Timed wakeup in the component's *private* round numbering.

        The offset from the component's current round is what matters, so
        the request is translated into the base context's round numbering
        (which may itself be another component's private numbering — the
        translation composes).
        """
        self._base.wake_at(self._base.round + (round_index - self.round))

    def request_wakeup(self, delay: int = 1) -> None:
        """Ask to run ``delay`` rounds from now (see :meth:`wake_at`)."""
        if delay < 1:
            raise ValueError(
                f"node {self.node_id}: request_wakeup delay must be >= 1, "
                f"got {delay}"
            )
        self._base.wake_at(self._base.round + delay)

    # -- outputs -------------------------------------------------------
    @property
    def has_output(self) -> bool:
        if self._intercept:
            return self._stored is not _UNSET or bool(self._stored_parts)
        return self._base.has_output

    @property
    def output(self) -> Any:
        if self._intercept:
            return self.stored_result
        return self._base.output

    def set_output(self, value: Any) -> None:
        if self._intercept:
            self._stored = value
        else:
            self._base.set_output(value)

    def set_output_part(self, key: Any, value: Any) -> None:
        if self._intercept:
            parts = self._stored_parts
            if parts is None:
                parts = self._stored_parts = {}
            parts[key] = value
        else:
            self._base.set_output_part(key, value)

    def output_part(self, key: Any, default: Any = None) -> Any:
        if self._intercept:
            parts = self._stored_parts
            return default if parts is None else parts.get(key, default)
        return self._base.output_part(key, default)

    def terminate(self) -> None:
        self.finished = True
        if not self._intercept:
            self._base.terminate()

    @property
    def terminate_requested(self) -> bool:
        """Whether this component's node is stopping (nested drivers).

        Allows a :class:`SlicedProgram` to run as a component of another
        one: passthrough components reflect the real node's state, while
        intercepted components reflect their own ``finished`` flag.
        """
        if self._intercept:
            return self.finished
        return self._base.terminate_requested

    @property
    def stored_result(self) -> Any:
        """Locally stored result of an intercepted component."""
        if self._stored is not _UNSET:
            return self._stored
        return dict(self._stored_parts) if self._stored_parts else None


class Slice:
    """One entry of a template's time-slice schedule.

    Attributes:
        key: Label (``"B"``, ``"U"``, ``"C"``, ``"R"``, ...) used in
            traces and error messages.
        duration: Number of rounds, or ``None`` for a final unbounded
            slice.
        builder: Callable producing the slice's fresh program; called
            lazily when the slice starts with the hosting
            :class:`SlicedProgram` as its argument (so part 2 of a
            Parallel reference can consume part 1's stored result via
            ``host.last_parallel_result``).
        parallel_builder: When present, a second program run in the same
            rounds with tagged messages, its outputs intercepted
            (Parallel Template part 1).
        resume: Component identity for pause/resume: slices sharing a
            ``resume`` key reuse one program and one sub-context, whose
            private round counter keeps advancing across slices (the
            Interleaved Template's measure-uniform component).
    """

    def __init__(
        self,
        key: str,
        duration: Optional[int],
        builder: Callable[["SlicedProgram"], NodeProgram],
        parallel_builder: Optional[Callable[["SlicedProgram"], NodeProgram]] = None,
        resume: Optional[str] = None,
    ) -> None:
        self.key = key
        self.duration = duration
        self.builder = builder
        self.parallel_builder = parallel_builder
        self.resume = resume


class Knowledge(NamedTuple):
    """The values every node knows alike: all a shared schedule may read.

    Field names match :class:`~repro.simulator.context.NodeContext`, so
    bound helpers written against a context accept a :class:`Knowledge`
    too.  ``phi`` is the asynchronous delay bound (0 on every synchronous
    schedule, and for a component, whose :class:`SubContext` carries
    none).
    """

    n: int
    delta: Optional[int]
    d: int
    phi: int


class SlicePlan:
    """A slice schedule, materialized slice by slice on first use.

    :meth:`get` returns the schedule's ``index``-th :class:`Slice`, or
    ``None`` past its end.  A host keeps only its index into the plan, so
    a plan shared by the nodes of a run (see :class:`SlicedProgram`)
    materializes each slice once.  Materializing takes a lock: edge-cut
    shard threads may reach a new slice at the same time, and a schedule
    may be an infinite generator, which two threads must not resume at
    once.  A schedule that raised is restarted on the next request, so
    every caller sees its exception rather than an exhausted generator.

    Args:
        schedule: The schedule function.
        *args: Its arguments: ``(ctx,)`` for a per-node schedule,
            ``(owner, knowledge)`` for a shared one.
    """

    __slots__ = ("_schedule", "_args", "_source", "_slices", "_lock", "__weakref__")

    def __init__(self, schedule: Callable[..., Iterable[Slice]], *args: Any) -> None:
        self._schedule = schedule
        self._args = args
        self._source: Optional[Iterator[Slice]] = None
        self._slices: List[Slice] = []
        self._lock = threading.Lock()

    def get(self, index: int) -> Optional[Slice]:
        """The ``index``-th slice (0-based), or ``None`` past the end."""
        slices = self._slices
        if index < len(slices):
            return slices[index]
        with self._lock:
            while len(slices) <= index:
                source = self._source
                if source is None:
                    source = iter(self._schedule(*self._args))
                    for _ in slices:
                        next(source)
                    self._source = source
                try:
                    slices.append(next(source))
                except StopIteration:
                    return None
                except BaseException:
                    self._source = None
                    raise
            return slices[index]


#: Shared plans by ``(schedule, id(owner), n, delta, d, phi)``, held
#: weakly: a plan lives while some host reads it, so the hosts of one run
#: share it and no plan outlives its last host.  A live plan holds its
#: owner (in its arguments), so the ``id`` in a live key is never reused.
_PLANS: "weakref.WeakValueDictionary[Tuple[Any, ...], SlicePlan]" = (
    weakref.WeakValueDictionary()
)
_PLANS_LOCK = threading.Lock()


def _shared_plan(
    schedule: Callable[..., Iterable[Slice]], owner: Any, ctx: NodeContext
) -> SlicePlan:
    key = (schedule, id(owner), ctx.n, ctx.delta, ctx.d, getattr(ctx, "phi", 0))
    plan = _PLANS.get(key)
    if plan is None:
        with _PLANS_LOCK:
            plan = _PLANS.get(key)
            if plan is None:
                plan = _PLANS[key] = SlicePlan(schedule, owner, Knowledge(*key[2:]))
    return plan


class SlicedProgram(NodeProgram):
    """Drives component programs according to a slice schedule.

    ``SlicedProgram(schedule)`` plans one node alone: its setup calls
    ``schedule(ctx)``.  ``SlicedProgram(schedule, owner)`` shares a plan:
    the schedule is called as ``schedule(owner, knowledge)``, may read
    only the :class:`Knowledge` every node holds alike, and every host
    built from the same ``schedule`` and ``owner`` that sees the same
    knowledge reads one :class:`SlicePlan` — the paper's nodes all
    compute the same switching rounds from ``n``, ``Δ`` and ``d``.  Every
    algorithm in this package builds its hosts the shared way.

    A schedule may be an infinite generator; the plan materializes
    slices on demand.  A host keeps its slice index, the countdown of
    the current slice and its components.
    """

    __slots__ = (
        "_schedule",
        "_owner",
        "_plan",
        "_index",
        "_rounds_left",
        "_program",
        "_subctx",
        "_quiescent",
        "_parallel_program",
        "_parallel_subctx",
        "_parallel_quiescent",
        "_resumable",
        "_last_round",
        "last_parallel_result",
    )

    #: Message tag used for the primary component in a parallel slice.
    PRIMARY = "u"
    #: Message tag used for the intercepted component in a parallel slice.
    SECONDARY = "r"

    #: A sliced program is schedulable quiescently: while its current
    #: component is not, it simply re-arms a next-round wakeup every round
    #: (so it never actually sleeps), and it never sleeps past a slice
    #: boundary thanks to the boundary wakeup in :meth:`process`.
    quiescent_when_idle = True

    def __init__(
        self, schedule: Callable[..., Iterable[Slice]], owner: Any = None
    ) -> None:
        self._schedule = schedule
        self._owner = owner
        self._plan: Optional[SlicePlan] = None
        self._index = -1
        self._rounds_left: Optional[int] = None
        self._program: Optional[NodeProgram] = None
        self._subctx: Optional[SubContext] = None
        #: The components' ``quiescent_when_idle``, read once per slice.
        self._quiescent = False
        self._parallel_program: Optional[NodeProgram] = None
        self._parallel_subctx: Optional[SubContext] = None
        self._parallel_quiescent = False
        #: Paused components by ``resume`` key, created by the first
        #: resumable slice.
        self._resumable: Optional[Dict[str, Any]] = None
        #: Last engine round this program ran in; the gap to ``ctx.round``
        #: is how many rounds the quiescence scheduler let the node sleep,
        #: which :meth:`_sync` credits to the slice clock on wake-up.
        #: ``None`` until the first executed round: a fresh program —
        #: round 1, or a crash recovery in *any* later round — starts
        #: its slice clock at its own first round, never owing back-gap.
        self._last_round: Optional[int] = None
        self.last_parallel_result: Any = None

    # ------------------------------------------------------------------
    def setup(self, ctx: NodeContext) -> None:
        if self._owner is None:
            self._plan = SlicePlan(self._schedule, ctx)
        else:
            self._plan = _shared_plan(self._schedule, self._owner, ctx)
        self._advance(ctx)
        # The first slice's component may terminate during setup (a
        # "0-round" action), which SubContext passes through to the engine.

    def _advance(self, ctx: NodeContext) -> None:
        """Move to the next slice and instantiate its program(s)."""
        index = self._index + 1
        next_slice = self._plan.get(index)
        if next_slice is None:
            raise RuntimeError(
                f"node {ctx.node_id}: slice schedule exhausted while active"
            )
        self._index = index
        self._rounds_left = next_slice.duration
        resume = next_slice.resume
        resumable = self._resumable
        if resume is not None and resumable is not None and resume in resumable:
            self._program, self._subctx = resumable[resume]
        else:
            program = self._program = next_slice.builder(self)
            subctx = self._subctx = SubContext(ctx)
            if resume is not None:
                if resumable is None:
                    resumable = self._resumable = {}
                resumable[resume] = (program, subctx)
            program.setup(subctx)
        self._quiescent = getattr(self._program, "quiescent_when_idle", False)
        if next_slice.parallel_builder is not None:
            parallel = self._parallel_program = next_slice.parallel_builder(self)
            parallel_subctx = self._parallel_subctx = SubContext(
                ctx, intercept_outputs=True
            )
            parallel.setup(parallel_subctx)
            self._parallel_quiescent = getattr(
                parallel, "quiescent_when_idle", False
            )
        else:
            self._parallel_program = None
            self._parallel_subctx = None
        # Degenerate zero-duration slices skip straight ahead.
        if self._rounds_left == 0:
            self._finish_slice(ctx)
            if not ctx.terminate_requested:
                self._advance(ctx)

    def _finish_slice(self, ctx: NodeContext) -> None:
        if self._parallel_subctx is not None:
            self.last_parallel_result = self._parallel_subctx.stored_result

    # ------------------------------------------------------------------
    def _sync(self, ctx: NodeContext) -> None:
        """Advance the private clocks to ``ctx.round``.

        Called at the top of both :meth:`compose` and :meth:`process`
        (whichever runs first this round does the work), because under
        quiescent scheduling a sleeping node may be pulled straight into
        the process phase by a message delivery, without a compose call.
        A gap larger than one round means the scheduler skipped idle
        rounds; those are credited to the slice countdown in one step —
        legal precisely because an idle sliced round is a no-op for every
        component (the idle contract) and the boundary wakeup guarantees
        the node never sleeps *past* a switching round.
        """
        # First executed round of this program instance (round 1, or the
        # recovery round of a crash-recovered node): the slice clock
        # starts here, there is no earlier round to catch up on.
        delta = 1 if self._last_round is None else ctx.round - self._last_round
        if delta <= 0:
            return
        self._last_round = ctx.round
        if not self._subctx.finished:
            self._subctx.round += delta
        if self._parallel_subctx is not None and not self._parallel_subctx.finished:
            self._parallel_subctx.round += delta
        if delta > 1 and self._rounds_left is not None:
            skipped = delta - 1
            if skipped >= self._rounds_left:
                raise RuntimeError(
                    f"node {ctx.node_id}: slept past the end of slice "
                    f"{self._plan.get(self._index).key!r} ({skipped} rounds "
                    f"skipped with {self._rounds_left} left) — scheduler bug"
                )
            self._rounds_left -= skipped

    def compose(self, ctx: NodeContext) -> Outbox:
        """The current components' messages.

        Outside a parallel slice this is the component's own outbox,
        passed through without a copy.
        """
        subctx = self._subctx
        if subctx is None:
            return {}
        if self._last_round != ctx.round:
            self._sync(ctx)
        if self._parallel_program is None:
            if subctx.finished:
                return {}
            return self._program.compose(subctx)
        primary_out: Outbox = {}
        if not subctx.finished:
            primary_out = self._program.compose(subctx) or {}
        secondary_out: Outbox = {}
        if not self._parallel_subctx.finished:
            secondary_out = self._parallel_program.compose(self._parallel_subctx) or {}
        outbox: Outbox = {}
        for receiver in set(primary_out) | set(secondary_out):
            payload: Dict[str, Any] = {}
            if receiver in primary_out:
                payload[self.PRIMARY] = primary_out[receiver]
            if receiver in secondary_out:
                payload[self.SECONDARY] = secondary_out[receiver]
            outbox[receiver] = payload
        return outbox

    def process(self, ctx: NodeContext, inbox: Inbox) -> None:
        subctx = self._subctx
        if subctx is None:
            return
        if self._last_round != ctx.round:
            self._sync(ctx)
        if self._parallel_program is None:
            if not subctx.finished:
                self._program.process(subctx, inbox)
        else:
            primary_in = {
                sender: payload[self.PRIMARY]
                for sender, payload in inbox.items()
                if isinstance(payload, dict) and self.PRIMARY in payload
            }
            secondary_in = {
                sender: payload[self.SECONDARY]
                for sender, payload in inbox.items()
                if isinstance(payload, dict) and self.SECONDARY in payload
            }
            if not subctx.finished:
                self._program.process(subctx, primary_in)
            if not self._parallel_subctx.finished:
                self._parallel_program.process(self._parallel_subctx, secondary_in)
        if ctx.terminate_requested:
            return
        rounds_left = self._rounds_left
        if rounds_left is not None:
            rounds_left = self._rounds_left = rounds_left - 1
            if rounds_left == 0:
                self._finish_slice(ctx)
                self._advance(ctx)
                if not ctx.terminate_requested:
                    # A fresh slice always runs its first round: waking is
                    # harmless if the new components turn out idle, while
                    # sleeping could miss their first acting round.
                    ctx.request_wakeup(1)
                return
        self._arm_wakeup(ctx)

    def _arm_wakeup(self, ctx: NodeContext) -> None:
        """Keep the node schedulable under ``schedule="quiescent"``.

        A live component that has not opted into quiescence may act in any
        round, so the node re-arms a next-round wakeup (it never actually
        sleeps).  With only quiescent components the node may sleep, but
        at most until the slice boundary, where the switching round must
        execute.  Under the eager schedule these requests are cheap
        no-ops.
        """
        quiescent = self._quiescent or self._subctx.finished
        if (
            quiescent
            and self._parallel_subctx is not None
            and not self._parallel_subctx.finished
        ):
            quiescent = self._parallel_quiescent
        if not quiescent:
            ctx.request_wakeup(1)
        elif self._rounds_left is not None:
            ctx.request_wakeup(self._rounds_left)
