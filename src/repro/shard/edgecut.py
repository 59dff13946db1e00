"""Edge-cut sharded execution: connected graphs across round-lockstep shards.

Component sharding (:mod:`repro.shard.plan`) splits a cell only along
connected components; a single connected graph still runs in one engine.
This module shards *through* the edges: the identifier space is block
partitioned (:func:`~repro.shard.plan.edgecut_node_ids`), each shard runs
a full :class:`~repro.simulator.engine.SyncEngine` over an
:class:`~repro.shard.plan.EdgecutView` of its contiguous block, and the
messages that cross the cut travel through a per-round barrier owned by a
coordinator.  A shard runs the engine's own round loop
(:meth:`~repro.simulator.engine.SyncEngine.loop`): its transport meets
the coordinator at the message barrier inside each round and at the
event barrier at each round boundary.  Two execution modes share every
line of that logic:

* **threads** (``serial`` backend, :func:`run_edgecut`) — one thread per
  shard inside this process, meeting at a :class:`_Rendezvous`;
* **processes** (``process`` backend) — one dedicated
  :class:`multiprocessing.Process` per shard wired to the parent by a
  pipe; the parent routes batches and the graph ships zero-copy through
  an active :class:`~repro.shard.store.SharedCSRStore`.

Bit-identity with the unsharded run rests on the invariants documented in
:class:`~repro.simulator.transport.BoundaryTransport` (ascending-sender
inbox merges, deferred globally-ordered strict-CONGEST violations) plus
three driver-side rules:

* **Global event order** — terminations are never published shard-locally;
  every shard exports them and the coordinator broadcasts one globally
  sorted list per round, reproducing the unsharded per-round
  ``neighbor_outputs`` insertion order.
* **One stop rule** — at the event barrier the coordinator asks the
  engine's :class:`~repro.simulator.engine.StopRule` once for the whole
  run, over the *sum* of the shards' active counts, after a deferred
  strict violation; every shard's loop returns that decision, and what
  the run raises is raised once every shard has stopped.
* **One fold** — both modes fold the shards' results with
  :func:`~repro.simulator.metrics.fold_runs`, which writes the outputs in
  the interpreter's order (termination round, then id).
"""

from __future__ import annotations

import pickle
import threading
import time
import traceback
from bisect import bisect_right
from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.graphs.graph import DistGraph
from repro.shard.plan import EdgecutView, edgecut_bounds
from repro.simulator.capabilities import UnsupportedScheduleError, fall_back, require
from repro.simulator.engine import (
    RoundLimitExceeded,
    StopRule,
    SyncEngine,
    round_budget,
)
from repro.simulator.metrics import RunResult, fold_runs
from repro.simulator.transport import (
    BandwidthExceeded,
    BoundaryTransport,
    bandwidth_error,
    event_order,
)

if TYPE_CHECKING:  # lazy at runtime: repro.exec imports this module.
    from repro.exec.plan import Cell
    from repro.exec.results import CellResult

_PICKLE = pickle.HIGHEST_PROTOCOL


class _Aborted(Exception):
    """Internal: another shard failed; unwind quietly."""


class EdgecutPlan:
    """Shared routing + stop decision for one edge-cut run.

    Both coordinators (thread rendezvous and process parent) delegate to
    one plan instance, so the two modes cannot drift: message routing,
    event ordering, violation adjudication and the stop decision are
    single-sourced here.  The plan also owns the run's boundary
    telemetry — each shard's per-round outbound batch is serialized and
    its size accumulated into ``boundary_bytes``/``boundary_msgs`` (the
    thread mode serializes too, purely for the measurement, so the two
    backends report comparable numbers).
    """

    def __init__(
        self,
        graph: DistGraph,
        shard_count: int,
        *,
        max_rounds: int,
        on_round_limit: str,
        deadline_s: Optional[float],
        bandwidth_budget: int,
    ) -> None:
        self.graph = graph
        self.shard_count = shard_count
        nodes = graph.nodes
        bounds = edgecut_bounds(len(nodes), shard_count)
        #: First owned identifier of each shard, for owner lookup (none
        #: on an empty graph, where no owner is ever looked up).
        self._starts = [nodes[b] for b in bounds[:-1] if b < len(nodes)]
        #: The run's stop rule, asked once per round boundary.  It is
        #: armed at round 0, once every shard is set up, so the deadline
        #: counts from where an unsharded engine's does.
        self.stop_rule: Optional[StopRule] = None
        self._limits = (max_rounds, on_round_limit, deadline_s)
        self.bandwidth_budget = bandwidth_budget
        #: What the run raises once every shard has stopped: the globally
        #: first strict violation, or a blown budget under
        #: ``on_round_limit="raise"``.
        self.error: Optional[Exception] = None
        self.boundary_msgs = 0
        self.boundary_bytes = 0

    def owner(self, node: int) -> int:
        """The shard owning ``node``'s mailbox."""
        return bisect_right(self._starts, node) - 1

    # -- per-round message phase ---------------------------------------
    def route_messages(
        self, batches: Mapping[int, List[tuple]]
    ) -> Dict[int, List[tuple]]:
        """Route every shard's outbound batch to its receivers' shards.

        Each inbound list is sorted by ``(sender, seq)`` — ascending
        compose order — so delivery and accounting at the receiving shard
        walk the same order the unsharded compose loop would have.
        """
        routed: Dict[int, List[tuple]] = {
            shard: [] for shard in range(self.shard_count)
        }
        owner = self.owner
        for shard in sorted(batches):
            batch = batches[shard]
            if not batch:
                continue
            self.boundary_msgs += len(batch)
            self.boundary_bytes += len(pickle.dumps(batch, _PICKLE))
            for message in batch:
                routed[owner(message[2])].append(message)
        for inbound in routed.values():
            inbound.sort(key=lambda message: (message[0], message[1]))
        return routed

    # -- per-round event phase -----------------------------------------
    def decide(
        self, round_index: int, submissions: Mapping[int, tuple]
    ) -> Dict[int, tuple]:
        """Merge the round's events and take the run's stop decision.

        ``submissions`` maps shard -> ``(events, active_count, preview,
        violations)`` as handed over at the event barrier after
        ``round_index`` rounds.  Returns per-shard ``(events, reason)``
        replies; the events list is globally sorted (terminations before
        crashes, each ascending by node, matching the unsharded
        publication order) and routed only to shards owning at least one
        neighbor of the event node.  The reason is :attr:`stop_rule`'s
        over the summed active counts, after a strict violation (which
        unsharded would have raised mid-round); a raising decision
        becomes :attr:`error` and stops every shard with ``"done"``.
        """
        if round_index == 0:
            self.stop_rule = StopRule(*self._limits)
        events: List[tuple] = []
        violations: List[tuple] = []
        active = 0
        preview: List[int] = []
        for shard in sorted(submissions):
            shard_events, shard_active, shard_preview, shard_violations = (
                submissions[shard]
            )
            events.extend(shard_events)
            violations.extend(shard_violations)
            active += shard_active
            preview.extend(shard_preview)
        events.sort(key=event_order)
        try:
            if violations:
                sender, _, receiver, bits = min(violations)
                raise bandwidth_error(
                    bits, self.bandwidth_budget, sender, receiver, round_index
                )
            reason = self.stop_rule(round_index, active, preview)
        except (BandwidthExceeded, RoundLimitExceeded) as exc:
            self.error, reason = exc, "done"

        owner = self.owner
        neighbors = self.graph.neighbors
        routed: Dict[int, List[tuple]] = {
            shard: [] for shard in range(self.shard_count)
        }
        for event in events:
            for shard in {owner(v) for v in neighbors(event[1])}:
                routed[shard].append(event)
        return {
            shard: (routed[shard], reason) for shard in range(self.shard_count)
        }

    def fold(self, parts: List[RunResult]) -> RunResult:
        """The run's result once every shard has stopped: :attr:`error`
        raised, else the shards' results folded."""
        if self.error is not None:
            raise self.error
        return fold_runs(parts)


class _Rendezvous:
    """K-party barrier exchange for the in-process (thread) mode.

    Every shard submits a payload; the last arrival runs the route
    function once under the lock and all parties collect their slice.
    Phases strictly alternate in lockstep (messages, then events, every
    round on every shard), so a single instance serves the whole run.
    """

    def __init__(self, count: int) -> None:
        self.count = count
        self._cond = threading.Condition()
        self._inputs: Dict[int, Any] = {}
        self._outputs: Optional[Mapping[int, Any]] = None
        self._generation = 0
        self.failure: Optional[BaseException] = None

    def abort(self, exc: BaseException) -> None:
        """Record a shard failure and release every waiter."""
        with self._cond:
            if self.failure is None:
                self.failure = exc
            self._cond.notify_all()

    def exchange(self, shard: int, payload: Any, route: Any) -> Any:
        with self._cond:
            if self.failure is not None:
                raise _Aborted()
            generation = self._generation
            self._inputs[shard] = payload
            if len(self._inputs) == self.count:
                inputs, self._inputs = self._inputs, {}
                try:
                    self._outputs = route(inputs)
                except BaseException as exc:  # noqa: BLE001 - release peers
                    if self.failure is None:
                        self.failure = exc
                self._generation += 1
                self._cond.notify_all()
            else:
                while self._generation == generation and self.failure is None:
                    self._cond.wait(1.0)
            if self.failure is not None:
                raise _Aborted()
            return self._outputs[shard]


class _ThreadCoordinator:
    """Rendezvous-backed coordinator one shard thread talks to."""

    def __init__(self, plan: EdgecutPlan, rendezvous: _Rendezvous) -> None:
        self.plan = plan
        self.rendezvous = rendezvous

    def exchange_messages(
        self, shard: int, round_index: int, outbound: List[tuple]
    ) -> List[tuple]:
        return self.rendezvous.exchange(
            shard, outbound, self.plan.route_messages
        )

    def exchange_events(
        self, shard: int, round_index: int, submission: tuple
    ) -> tuple:
        return self.rendezvous.exchange(
            shard,
            submission,
            lambda inputs: self.plan.decide(round_index, inputs),
        )


class _PipeCoordinator:
    """Pipe-backed coordinator a shard *process* talks to (worker side)."""

    def __init__(self, conn: Any) -> None:
        self.conn = conn

    def _call(self, message: tuple) -> Any:
        self.conn.send(message)
        kind, payload = self.conn.recv()
        if kind != "ok":
            raise _Aborted()
        return payload

    def exchange_messages(
        self, shard: int, round_index: int, outbound: List[tuple]
    ) -> List[tuple]:
        return self._call(("msgs", round_index, outbound))

    def exchange_events(
        self, shard: int, round_index: int, submission: tuple
    ) -> tuple:
        return self._call(("events", round_index, submission))


# ----------------------------------------------------------------------
# One shard (identical in both modes)
# ----------------------------------------------------------------------
def _build_shard_engine(
    graph: DistGraph,
    algorithm: Any,
    predictions: Optional[Mapping[int, Any]],
    config: Any,
    shard: int,
    shard_count: int,
    coordinator: Any,
) -> SyncEngine:
    """One shard's engine, as ``config`` describes it: an
    :class:`EdgecutView` plus a boundary transport bound to the
    coordinator."""
    view = EdgecutView(graph, shard, shard_count)
    restricted = None if predictions is None else {
        node: predictions[node] for node in view.nodes if node in predictions
    }
    transport = partial(
        BoundaryTransport,
        owned=frozenset(view.nodes), shard=shard, coordinator=coordinator,
    )
    return config._engine_for(algorithm, view, restricted, transport=transport)


def _drive(engine: SyncEngine) -> RunResult:
    """Run one shard to the global stop decision: the entry point of a
    shard's thread or worker process, which enters the engine's own
    round loop (its transport meets the coordinator at both barriers)."""
    return engine.loop()


def _admit(
    config: Any, graph: DistGraph, algorithm: Any, has_predictions: bool,
    shard_count: int,
) -> Tuple[Any, EdgecutPlan]:
    """The config the shard engines run and the plan that drives them,
    decided once per run before any engine exists: the ``"edgecut"`` row
    of the capability table refuses the run, or under
    ``fallback="interpret"`` downgrades its schedule.  The deadline stays
    with the plan — a shard stopping on its own clock would desert the
    barrier — so the shards' policy has none, and no shard mode."""
    if shard_count < 2:
        raise ValueError(
            f"edge-cut sharding needs >= 2 shards, got {shard_count}"
        )
    policy = config.policy
    require(
        "edgecut", shard=policy.shard, faults=config.faults is not None,
        sinks=config.trace, profile=config.profile,
        deadline=policy.deadline_s is not None,
    )
    try:
        require("edgecut", policy.schedule)
    except UnsupportedScheduleError as exc:
        policy = fall_back(policy, exc)
    if algorithm.uses_predictions and not has_predictions:
        raise ValueError(
            f"{algorithm.name or type(algorithm).__name__} requires predictions"
        )
    plan = EdgecutPlan(
        graph,
        shard_count,
        max_rounds=round_budget(config.max_rounds, graph.n),
        on_round_limit=config.on_round_limit,
        deadline_s=policy.deadline_s,
        bandwidth_budget=config.model_for(algorithm).bandwidth_bits(graph.n),
    )
    return config.with_overrides(
        policy=replace(policy, deadline_s=None, shard=None)
    ), plan


# ----------------------------------------------------------------------
# Thread mode (serial backend / direct API)
# ----------------------------------------------------------------------
def run_edgecut(
    algorithm: Any,
    graph: DistGraph,
    predictions: Optional[Mapping[int, Any]] = None,
    *,
    config: Optional[Any] = None,
    shard_count: int = 2,
    plan_out: Optional[List[EdgecutPlan]] = None,
) -> RunResult:
    """Run ``algorithm`` on ``graph`` across ``shard_count`` edge-cut
    shards (one thread each) and return their folded :class:`RunResult`.

    The in-process counterpart of :func:`repro.core.runner.run` —
    outputs, records, round counts, message/bit counters, strict-CONGEST
    exceptions, round-limit behavior and stuck reports are bit-identical
    to the unsharded call.  ``plan_out``, when given, receives the
    :class:`EdgecutPlan` so callers can read the boundary telemetry.
    """
    from repro.core.runner import RunConfig

    config, plan = _admit(
        config or RunConfig(), graph, algorithm, predictions is not None,
        shard_count,
    )
    if plan_out is not None:
        plan_out.append(plan)
    rendezvous = _Rendezvous(shard_count)
    coordinator = _ThreadCoordinator(plan, rendezvous)
    engines = [
        _build_shard_engine(
            graph, algorithm, predictions, config, shard, shard_count,
            coordinator,
        )
        for shard in range(shard_count)
    ]

    def body(shard: int) -> None:
        try:
            _drive(engines[shard])
        except _Aborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - released via abort
            rendezvous.abort(exc)

    threads = [
        threading.Thread(target=body, args=(shard,), name=f"edgecut-{shard}")
        for shard in range(shard_count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if rendezvous.failure is not None:
        raise rendezvous.failure
    return plan.fold([engine.result for engine in engines])


# ----------------------------------------------------------------------
# Process mode (process backend): parent routes, one worker per shard
# ----------------------------------------------------------------------
def _edgecut_worker(conn: Any) -> None:
    """Shard process entry: receive init, run the shard, and send its
    :class:`RunResult` back for the parent to fold."""
    from repro.shard.store import reset_worker_state

    try:
        reset_worker_state()
        kind, init = conn.recv()
        if kind != "init":  # pragma: no cover - protocol guard
            raise RuntimeError(f"expected init message, got {kind!r}")
        shard, shard_count, graph, algorithm_spec, predictions_spec, config = (
            init
        )
        algorithm = algorithm_spec.build()
        predictions = (
            predictions_spec.build(graph)
            if predictions_spec is not None
            else None
        )
        coordinator = _PipeCoordinator(conn)
        engine = _build_shard_engine(
            graph, algorithm, predictions, config, shard, shard_count,
            coordinator,
        )
        conn.send(("done", _drive(engine)))
    except _Aborted:
        pass
    except BaseException:  # noqa: BLE001 - ship the traceback to the parent
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _run_edgecut_process(
    cell: "Cell",
    config: Any,
    shard_count: int,
    graph: DistGraph,
    plan: EdgecutPlan,
) -> RunResult:
    """Parent side of the process mode: spawn, route in lockstep, fold.

    The graph crosses each pipe once, zero-copy via an active
    :class:`~repro.shard.store.SharedCSRStore` (workers attach the one
    shared CSR segment instead of unpickling flat buffers).  The parent
    then serves as the coordinator: every shard is always in the same
    phase (``msgs`` / ``events`` alternate; after a stop decision the
    next message is ``done``), so one ``recv`` per shard per phase is
    the whole protocol.
    """
    import multiprocessing

    from repro.shard.store import SharedCSRStore

    store = SharedCSRStore()
    published = False
    try:
        store.publish(graph.csr)
        published = True
    except Exception:  # store unavailable: ship flat buffers instead
        pass
    workers: List[Any] = []
    conns: List[Any] = []
    try:
        # activate/deactivate, NOT ``with``: __exit__ would close the
        # store and unlink the segment before the workers attach.
        if published:
            store.activate()
        try:
            for shard in range(shard_count):
                parent_conn, child_conn = multiprocessing.Pipe()
                process = multiprocessing.Process(
                    target=_edgecut_worker, args=(child_conn,), daemon=True
                )
                process.start()
                child_conn.close()
                parent_conn.send(
                    (
                        "init",
                        (
                            shard,
                            shard_count,
                            graph,
                            cell.algorithm,
                            cell.predictions,
                            config,
                        ),
                    )
                )
                workers.append(process)
                conns.append(parent_conn)
        finally:
            store.deactivate()

        results: List[RunResult] = []
        while not results:
            messages: List[tuple] = []
            for shard in range(shard_count):
                try:
                    messages.append(conns[shard].recv())
                except EOFError:
                    raise RuntimeError(
                        f"edge-cut shard {shard} process died "
                        "without reporting an error"
                    ) from None
            for shard, message in enumerate(messages):
                if message[0] == "error":
                    raise RuntimeError(
                        f"edge-cut shard {shard} failed:\n{message[1]}"
                    )
            kind = messages[0][0]
            if kind == "msgs":
                routed = plan.route_messages(
                    {shard: messages[shard][2] for shard in range(shard_count)}
                )
                for shard in range(shard_count):
                    conns[shard].send(("ok", routed[shard]))
            elif kind == "events":
                replies = plan.decide(
                    messages[0][1],
                    {shard: messages[shard][2] for shard in range(shard_count)},
                )
                for shard in range(shard_count):
                    conns[shard].send(("ok", replies[shard]))
            else:  # "done"
                results = [message[1] for message in messages]
        for process in workers:
            process.join(timeout=30)
    except BaseException:
        for conn in conns:
            conn.close()
        for process in workers:
            if process.is_alive():
                process.terminate()
        for process in workers:
            process.join(timeout=5)
        raise
    finally:
        for conn in conns:
            conn.close()
        if published:
            store.release(graph.csr)
        store.close()

    return plan.fold(results)


# ----------------------------------------------------------------------
# Cell entry point (both backends)
# ----------------------------------------------------------------------
def execute_edgecut_cell(
    index: int,
    cell: "Cell",
    seed: int,
    shard_count: int,
    *,
    mode: str = "thread",
    cache: Optional[Any] = None,
) -> "CellResult":
    """Execute one ``shard="edgecut"`` sweep cell and return its row.

    ``mode="thread"`` (serial backend) runs :func:`run_edgecut` in this
    process; ``mode="process"`` (process backend) spawns one worker per
    shard with the parent routing the barriers.  Both fold the shards
    into one :class:`RunResult`, and validity, η₁ and solution size are
    computed on the **full** graph — unlike component shards, an
    edge-cut shard's induced subgraph is not a closed world, so
    per-shard verdicts would miss every cut edge.  The inputs come
    through ``cache`` (a fresh cache when ``None``).
    """
    from repro.exec.cache import ArtifactCache
    from repro.exec.results import cell_inputs, cell_row

    started = time.perf_counter()
    graph, predictions = cell_inputs(
        cell, ArtifactCache() if cache is None else cache
    )
    config = cell.config.with_overrides(seed=seed)
    algorithm = cell.algorithm.build()
    if mode == "process":
        config, plan = _admit(
            config, graph, algorithm, predictions is not None, shard_count
        )
        result = _run_edgecut_process(cell, config, shard_count, graph, plan)
    else:
        plans: List[EdgecutPlan] = []
        result = run_edgecut(
            algorithm,
            graph,
            predictions,
            config=config,
            shard_count=shard_count,
            plan_out=plans,
        )
        plan = plans[0]
    return cell_row(
        index, cell, seed, graph, predictions, result, started,
        shards=shard_count,
        boundary_msgs=plan.boundary_msgs,
        boundary_bytes=plan.boundary_bytes,
    )
