"""Edge-cut sharded execution: connected graphs across round-lockstep shards.

Component sharding (:mod:`repro.shard.plan`) splits a cell only along
connected components; a single connected graph still runs in one engine.
This module shards *through* the edges: the identifier space is block
partitioned (:func:`~repro.shard.plan.edgecut_node_ids`), each shard runs
a full :class:`~repro.simulator.engine.SyncEngine` over an
:class:`~repro.shard.plan.EdgecutView` of its contiguous block, and the
messages that cross the cut travel through a per-round barrier owned by a
coordinator.  Two execution modes share every line of round logic:

* **threads** (``serial`` backend, :func:`run_edgecut`) — one thread per
  shard inside this process, meeting at a :class:`_Rendezvous`;
* **processes** (``process`` backend) — one dedicated
  :class:`multiprocessing.Process` per shard wired to the parent by a
  pipe; the parent routes batches and the graph ships zero-copy through
  an active :class:`~repro.shard.store.SharedCSRStore`.

Bit-identity with the unsharded run rests on the invariants documented in
:class:`~repro.simulator.transport.BoundaryTransport` (ascending-sender
inbox merges, deferred globally-ordered strict-CONGEST violations) plus
two driver-side rules:

* **Global event order** — terminations are never published shard-locally;
  every shard exports them and the coordinator broadcasts one globally
  sorted list per round, reproducing the unsharded per-round
  ``neighbor_outputs`` insertion order.
* **Global continuation** — the run continues while the *sum* of shard
  active counts is positive, and the violation / deadline /
  ``on_round_limit`` decisions are taken once, centrally, with the same
  precedence as :meth:`SyncEngine.run`.
"""

from __future__ import annotations

import pickle
import threading
import time
import traceback
from bisect import bisect_right
from dataclasses import replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.graphs.graph import DistGraph
from repro.shard.plan import EdgecutView, edgecut_bounds
from repro.simulator.engine import RoundLimitExceeded, SyncEngine
from repro.simulator.metrics import NodeRecords, RunResult, StuckReport
from repro.simulator.transport import (
    BoundaryTransport,
    bandwidth_error,
    event_order,
)

if TYPE_CHECKING:  # lazy at runtime: repro.exec imports this module.
    from repro.exec.plan import Cell
    from repro.exec.results import CellResult

_PICKLE = pickle.HIGHEST_PROTOCOL

#: Schedules edge-cut sharding accepts (the shared interpreted round loop
#: carries the boundary hooks).  ``vectorized`` reaches the kernel
#: resolver, which rejects edge-cut views (or downgrades via
#: ``fallback="interpret"``); ``async`` is rejected by
#: :class:`~repro.simulator.scheduling.ExecutionPolicy` before a driver
#: exists.
_SUPPORTED_SCHEDULES = ("eager", "quiescent", "quiescent-debug", "vectorized")


class _Aborted(Exception):
    """Internal: another shard failed; unwind quietly."""


class EdgecutPlan:
    """Shared routing + continuation policy for one edge-cut run.

    Both coordinators (thread rendezvous and process parent) delegate to
    one plan instance, so the two modes cannot drift: message routing,
    event ordering, violation adjudication and the continue/stop decision
    are single-sourced here.  The plan also owns the run's boundary
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
        self.max_rounds = max_rounds
        self.on_round_limit = on_round_limit
        self.deadline = (
            None if deadline_s is None else time.perf_counter() + deadline_s
        )
        self.bandwidth_budget = bandwidth_budget
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
        """Merge the round's events and pick the global continuation.

        ``submissions`` maps shard -> ``(events, active_count, preview,
        violations)`` as drained at the barrier after ``round_index``
        rounds have executed.  Returns per-shard ``(events, command,
        extra)`` replies; the events list is globally sorted
        (terminations before crashes, each ascending by node, matching
        the unsharded publication order) and routed only to shards
        owning at least one neighbor of the event node.  Decision
        precedence mirrors :meth:`SyncEngine.run`: a strict violation
        aborts first (it would have raised mid-round unsharded), then
        global quiescence stops the run, then the wall-clock deadline,
        then the round budget.
        """
        events: List[tuple] = []
        violations: List[tuple] = []
        total_active = 0
        preview: List[int] = []
        for shard in sorted(submissions):
            shard_events, active, shard_preview, shard_violations = (
                submissions[shard]
            )
            events.extend(shard_events)
            violations.extend(shard_violations)
            total_active += active
            preview.extend(shard_preview)
        events.sort(key=event_order)

        command = "continue"
        extra: Any = None
        if violations:
            sender, seq, receiver, bits = min(violations)
            command = "violation"
            extra = (bits, self.bandwidth_budget, sender, receiver, round_index)
        elif total_active == 0:
            command = "stop"
        elif self.deadline is not None and time.perf_counter() >= self.deadline:
            command = "deadline"
        elif round_index >= self.max_rounds:
            if self.on_round_limit == "partial":
                command = "round-limit-partial"
            else:
                command = "round-limit"
                extra = (total_active, sorted(preview)[:10])

        owner = self.owner
        neighbors = self.graph.neighbors
        routed: Dict[int, List[tuple]] = {
            shard: [] for shard in range(self.shard_count)
        }
        for event in events:
            for shard in {owner(v) for v in neighbors(event[1])}:
                routed[shard].append(event)
        return {
            shard: (routed[shard], command, extra)
            for shard in range(self.shard_count)
        }

    def raise_for(self, command: str, extra: Any) -> None:
        """Re-raise the exception a stopping command stands for, if any."""
        if command == "violation":
            bits, budget, sender, receiver, round_index = extra
            raise bandwidth_error(bits, budget, sender, receiver, round_index)
        if command == "round-limit":
            total_active, preview = extra
            raise RoundLimitExceeded(
                f"{total_active} node(s) still active after "
                f"{self.max_rounds} rounds: {preview}"
            )


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
# Per-shard round loop (identical in both modes)
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
    """One shard's engine: an :class:`EdgecutView` plus a boundary
    transport, constructed exactly as :func:`repro.core.runner.run`
    builds the unsharded engine (same model/seed/budget resolution).
    The policy's ``deadline_s`` stays with the coordinator — a shard
    stopping on its own clock would desert the barrier.
    """
    view = EdgecutView(graph, shard, shard_count)
    restricted = None
    if predictions is not None:
        restricted = {
            node: predictions[node]
            for node in view.nodes
            if node in predictions
        }
    owned = frozenset(view.nodes)

    def transport_factory(nodes, result, model, n, fast):
        return BoundaryTransport(
            nodes,
            result,
            model,
            n,
            fast,
            owned=owned,
            shard=shard,
            coordinator=coordinator,
        )

    return SyncEngine(
        view,
        lambda node: algorithm.build_program(),
        predictions=restricted,
        model=config.model_for(algorithm),
        max_rounds=config.max_rounds,
        seed=config.effective_seed,
        on_round_limit=config.on_round_limit,
        fast=config.fast,
        policy=replace(config.policy, deadline_s=None),
        transport=transport_factory,
    )


def _drive(engine: SyncEngine, coordinator: Any) -> Tuple[str, Any, int]:
    """Run one shard to the global stop decision.

    Returns ``(command, extra, rounds_executed)``.  The loop shape
    matches :meth:`SyncEngine.run` with the control checks hoisted to
    the coordinator: setup, then — per round — an event barrier (apply
    the previous round's global events, learn whether to continue) and,
    inside ``run_round``, the message barrier.
    """
    transport = engine.transport
    scheduler = engine._scheduler
    result = engine.result
    engine._setup_phase()
    round_index = 0
    while True:
        events, command, extra = coordinator.exchange_events(
            transport.shard,
            round_index,
            (
                transport.take_events(),
                len(engine._active),
                engine._active_order[:10],
                transport.take_violations(),
            ),
        )
        engine._lifecycle.publish(events)
        if command != "continue":
            break
        round_index += 1
        scheduler.run_round(round_index)
    scheduler.finish()
    result.rounds_executed = round_index
    result.rounds = max(result.records.termination_rounds.values(), default=0)
    if command == "deadline":
        result.stuck = engine._build_stuck_report(round_index, reason="deadline")
    elif command == "round-limit-partial":
        result.stuck = engine._build_stuck_report(round_index)
    return command, extra, round_index


def _merge_stuck(
    round_index: int, n: int, reports: Sequence[StuckReport]
) -> StuckReport:
    """Union the per-shard partial-run snapshots into one report."""
    live: List[int] = []
    snapshots: Dict[int, Any] = {}
    for report in reports:
        live.extend(report.live_nodes)
        snapshots.update(report.snapshots)
    return StuckReport(
        round=round_index,
        live_nodes=sorted(live),
        total_nodes=n,
        snapshots=dict(sorted(snapshots.items())),
        reason=reports[0].reason,
    )


def _resolved_max_rounds(config: Any, graph: DistGraph) -> int:
    """The engine's effective round budget (``8n + 64`` default)."""
    if config.max_rounds is not None:
        return config.max_rounds
    return 8 * graph.n + 64


def _check_shardable(config: Any, shard_count: int) -> None:
    if shard_count < 2:
        raise ValueError(
            f"edge-cut sharding needs >= 2 shards, got {shard_count}"
        )
    if config.faults is not None:
        raise ValueError("edge-cut sharding cannot run fault plans")
    if config.trace or config.profile:
        raise ValueError("edge-cut sharding cannot capture traces or profiles")
    schedule = config.policy.schedule
    if schedule not in _SUPPORTED_SCHEDULES:
        raise ValueError(
            f"edge-cut sharding does not support schedule={schedule!r}"
        )


def _make_plan(
    config: Any, graph: DistGraph, model: Any, shard_count: int
) -> EdgecutPlan:
    return EdgecutPlan(
        graph,
        shard_count,
        max_rounds=_resolved_max_rounds(config, graph),
        on_round_limit=config.on_round_limit,
        deadline_s=config.policy.deadline_s,
        bandwidth_budget=model.bandwidth_bits(graph.n),
    )


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
    shards (one thread each) and return the merged :class:`RunResult`.

    The in-process counterpart of :func:`repro.core.runner.run` —
    outputs, records, round counts, message/bit counters, strict-CONGEST
    exceptions, round-limit behavior and stuck reports are bit-identical
    to the unsharded call.  ``plan_out``, when given, receives the
    :class:`EdgecutPlan` so callers can read the boundary telemetry.
    """
    from repro.core.runner import RunConfig

    config = config or RunConfig()
    _check_shardable(config, shard_count)
    if algorithm.uses_predictions and predictions is None:
        raise ValueError(
            f"{algorithm.name or type(algorithm).__name__} requires predictions"
        )
    model = config.model_for(algorithm)
    plan = _make_plan(config, graph, model, shard_count)
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

    outcomes: Dict[int, Tuple[str, Any, int]] = {}

    def body(shard: int) -> None:
        try:
            outcomes[shard] = _drive(engines[shard], coordinator)
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
    command, extra, round_index = outcomes[0]
    plan.raise_for(command, extra)

    merged = RunResult(model=model)
    # Shards own ascending id blocks in shard order, so concatenating
    # their columns keeps the merged records in ascending id order.
    # Edge-cut runs refuse fault plans: no crash or recovery columns.
    ids: List[int] = []
    termination_rounds: Dict[int, int] = {}
    stuck_reports: List[StuckReport] = []
    rounds = 0
    for engine in engines:
        result = engine.result
        merged.outputs.update(result.outputs)
        ids.extend(result.records.ids)
        termination_rounds.update(result.records.termination_rounds)
        merged.message_count += result.message_count
        merged.total_bits += result.total_bits
        merged.bandwidth_violations += result.bandwidth_violations
        if result.max_message_bits > merged.max_message_bits:
            merged.max_message_bits = result.max_message_bits
        if result.rounds > rounds:
            rounds = result.rounds
        if result.stuck is not None:
            stuck_reports.append(result.stuck)
    merged.records = NodeRecords(tuple(ids), merged.outputs, termination_rounds)
    merged.rounds = rounds
    merged.rounds_executed = round_index
    if stuck_reports:
        merged.stuck = _merge_stuck(round_index, graph.n, stuck_reports)
    return merged


# ----------------------------------------------------------------------
# Process mode (process backend): parent routes, one worker per shard
# ----------------------------------------------------------------------
def _edgecut_worker(conn: Any) -> None:
    """Shard process entry: receive init, drive the round loop, report.

    The compact ``done`` payload is everything the parent's cell row
    needs (outputs for global validity, counters, stuck) — per-node
    records stay in the worker; at bench scale they would dominate the
    pipe traffic without informing any column.
    """
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
        _drive(engine, coordinator)
        result = engine.result
        conn.send(
            (
                "done",
                {
                    "outputs": result.outputs,
                    "rounds": result.rounds,
                    "rounds_executed": result.rounds_executed,
                    "message_count": result.message_count,
                    "total_bits": result.total_bits,
                    "max_message_bits": result.max_message_bits,
                    "bandwidth_violations": result.bandwidth_violations,
                    "stuck": result.stuck,
                },
            )
        )
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
) -> Dict[str, Any]:
    """Parent side of the process mode: spawn, route in lockstep, merge.

    The graph crosses each pipe once, zero-copy via an active
    :class:`~repro.shard.store.SharedCSRStore` (workers attach the one
    shared CSR segment instead of unpickling flat buffers).  The parent
    then serves as the coordinator: every shard is always in the same
    phase (``msgs`` / ``events`` alternate; after a stopping command the
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

        command = "continue"
        extra: Any = None
        payloads: Dict[int, Dict[str, Any]] = {}
        while len(payloads) < shard_count:
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
                round_index = messages[0][1]
                replies = plan.decide(
                    round_index,
                    {shard: messages[shard][2] for shard in range(shard_count)},
                )
                command, extra = replies[0][1], replies[0][2]
                for shard in range(shard_count):
                    conns[shard].send(("ok", replies[shard]))
            else:  # "done"
                for shard in range(shard_count):
                    payloads[shard] = messages[shard][1]
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

    plan.raise_for(command, extra)
    merged: Dict[str, Any] = {
        "outputs": {},
        "rounds": 0,
        "rounds_executed": 0,
        "message_count": 0,
        "total_bits": 0,
        "max_message_bits": 0,
        "bandwidth_violations": 0,
        "stuck": None,
    }
    stuck_reports: List[StuckReport] = []
    for shard in range(shard_count):
        payload = payloads[shard]
        merged["outputs"].update(payload["outputs"])
        merged["rounds"] = max(merged["rounds"], payload["rounds"])
        merged["rounds_executed"] = payload["rounds_executed"]
        merged["message_count"] += payload["message_count"]
        merged["total_bits"] += payload["total_bits"]
        merged["max_message_bits"] = max(
            merged["max_message_bits"], payload["max_message_bits"]
        )
        merged["bandwidth_violations"] += payload["bandwidth_violations"]
        if payload["stuck"] is not None:
            stuck_reports.append(payload["stuck"])
    if stuck_reports:
        merged["stuck"] = _merge_stuck(
            merged["rounds_executed"], graph.n, stuck_reports
        )
    return merged


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
    shard with the parent routing the barriers.  Validity, η₁ and
    solution size are computed on the **full** graph — unlike component
    shards, an edge-cut shard's induced subgraph is not a closed world,
    so per-shard verdicts would miss every cut edge.
    """
    from repro.exec.results import CellResult

    start = time.perf_counter()
    if cache is not None:
        graph = cache.get_or_build(cell.graph.key, cell.graph.build)
    else:
        graph = cell.graph.build()
    config = cell.config.with_overrides(seed=seed)
    algorithm = cell.algorithm.build()
    predictions = None
    if cell.predictions is not None:
        spec = cell.predictions
        if cache is not None:
            predictions = cache.get_or_build(
                f"{spec.key}@{cell.graph.key}", lambda: spec.build(graph)
            )
        else:
            predictions = spec.build(graph)

    if mode == "process":
        _check_shardable(config, shard_count)
        if algorithm.uses_predictions and cell.predictions is None:
            raise ValueError(
                f"{algorithm.name or type(algorithm).__name__} "
                "requires predictions"
            )
        model = config.model_for(algorithm)
        plan = _make_plan(config, graph, model, shard_count)
        merged = _run_edgecut_process(cell, config, shard_count, graph, plan)
        outputs = merged["outputs"]
        rounds = merged["rounds"]
        rounds_executed = merged["rounds_executed"]
        message_count = merged["message_count"]
        stuck = merged["stuck"]
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
        outputs = result.outputs
        rounds = result.rounds
        rounds_executed = result.rounds_executed
        message_count = result.message_count
        stuck = result.stuck

    valid = None
    error = None
    problem = None
    if cell.problem is not None:
        from repro.problems import get_problem

        problem = get_problem(cell.problem)
        valid = problem.is_solution(graph, outputs)
        if predictions is not None:
            from repro.errors import eta1

            error = eta1(graph, predictions, problem.name)
    from repro.problems import solution_size as _solution_size

    return CellResult(
        index=index,
        label=cell.label,
        graph_name=graph.name,
        n=graph.n,
        seed=seed,
        rounds=rounds,
        rounds_executed=rounds_executed,
        valid=valid,
        error=error,
        message_count=message_count,
        stuck=stuck is not None,
        solution_size=_solution_size(
            outputs, problem.name if problem is not None else None
        ),
        elapsed=time.perf_counter() - start,
        shards=shard_count,
        boundary_msgs=plan.boundary_msgs,
        boundary_bytes=plan.boundary_bytes,
    )
