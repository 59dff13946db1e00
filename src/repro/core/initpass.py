"""Template runs that interpret only the nodes the initialization leaves undecided.

Every template of Section 7 starts with an initialization algorithm B
(3 rounds for MIS).  The nodes B decides output and terminate within B's
rounds and never send again, so after B only the undecided nodes act —
the components they induce are what the paper's error measure η₁ counts
(Sections 4 and 5).  The interpreter still paid for every node through
B.  This module computes B's decided region *by index* instead, over the
CSR buffers, and interprets only the undecided nodes.

**The pass.**  A family registers, per initialization *program class*
(exact class, as kernels are registered), a pass ``pass(csr,
predictions)`` that restates B's per-node program over the whole graph
and returns a :class:`Decided` record — each node's termination round
and output, and every message the decided nodes send — or ``None`` when
B decides no node.  :func:`init_pass` registers one.

**The window.**  The undecided nodes run on one ordinary
:class:`~repro.simulator.engine.SyncEngine` over a
:class:`~repro.graphs.window.GraphWindow` of the parent graph (no
subgraph is built), through a
:class:`~repro.simulator.transport.WindowTransport` that treats the
decided region as a boundary known in advance: its messages land at the
round barrier as edge-cut messages do, its terminations are published
with the window's own in one ascending order by the lifecycle's
``publish`` (the routine edge-cut shards use), and the window's sends
into it are accounted while the receiver is active.  The pass's message
and bit counts are added to the window's, and the two outcomes merge in
the full run's termination order, so the result is bit-identical to
interpreting every node.

**When.**  :func:`run_initialized` returns ``None`` — and ``run()``
takes the full interpreted path, unchanged — unless every condition
holds: no fault plan, trace or event sink; the eager or quiescent
schedule without a deadline; a template host over a
:class:`~repro.graphs.graph.DistGraph`; a first slice that runs a
registered initialization alone for at least the pass's rounds; a round
budget that covers the slice; no decided node's message over a strict
CONGEST budget; and at least one node decided.
"""

from __future__ import annotations

from dataclasses import replace
from operator import itemgetter
from time import perf_counter
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.core.composition import Knowledge, _shared_plan
from repro.core.templates import _TemplateBase
from repro.graphs.csr import CSRTopology
from repro.graphs.graph import DistGraph
from repro.graphs.window import GraphWindow
from repro.obs.profile import RoundSample
from repro.simulator.engine import SyncEngine
from repro.simulator.message import estimate_bits
from repro.simulator.metrics import NodeRecords, RunResult
from repro.simulator.transport import WindowTransport

__all__ = ["Decided", "init_pass", "pass_for_program", "run_initialized"]


class Decided(NamedTuple):
    """What an initialization decides, by CSR index.

    Attributes:
        rounds: Per index, the round the node terminates in, or 0 for a
            node the initialization leaves undecided.
        outputs: Per index, a decided node's output.
        broadcasts: Round -> ``{sender index: payload}`` (ascending
            senders): every message a decided node sends, each sent to
            all of its neighbors, all of them still active that round.
    """

    rounds: bytearray
    outputs: List[Any]
    broadcasts: Dict[int, Dict[int, Any]]


#: ``(sender, seq, receiver, payload)``: a message as boundary transports
#: land it.
Message = Tuple[int, int, int, Any]

#: ``(kind, node, output)``: a departure as the lifecycle publishes it.
Event = Tuple[str, int, Any]

#: A registered pass: ``(csr, predictions) -> Decided | None``.
InitPass = Callable[[CSRTopology, Mapping[int, Any]], Optional[Decided]]

#: Initialization program class -> (its pass, the rounds within which its
#: decided nodes terminate).
_PASSES: Dict[type, Tuple[InitPass, int]] = {}

#: Schedules the window reproduces: the shared synchronous round loop
#: without a debug or asynchronous policy.
_SCHEDULES = ("eager", "quiescent")


def init_pass(
    program_class: type, *, rounds: int
) -> Callable[[InitPass], InitPass]:
    """Register the decorated function as ``program_class``'s pass.

    ``rounds`` bounds the rounds in which the pass's decided nodes
    terminate; a template whose first slice is shorter keeps the full
    interpreted path.  Matching is on the exact class: a subclass may
    override ``compose``/``process`` and diverge from the pass.
    """

    def register(function: InitPass) -> InitPass:
        _PASSES[program_class] = (function, rounds)
        return function

    return register


def pass_for_program(program: Any) -> Optional[Tuple[InitPass, int]]:
    """The registered ``(pass, rounds)`` for ``type(program)``, or ``None``."""
    return _PASSES.get(type(program))


def run_initialized(
    algorithm: Any,
    graph: Any,
    predictions: Optional[Mapping[int, Any]],
    config: Any,
) -> Optional[RunResult]:
    """Run ``algorithm`` with its initialization decided by index.

    ``config`` is the run's :class:`~repro.core.runner.RunConfig`; the
    caller has ruled out traces and sinks.  Returns the run's result,
    bit-identical to a full interpreted run, or ``None`` when the run is
    not eligible (see the module docstring).
    """
    policy = config.policy
    if (
        config.faults is not None
        or policy.schedule not in _SCHEDULES
        or policy.deadline_s is not None
        or predictions is None
        or not isinstance(algorithm, _TemplateBase)
        or type(algorithm).build_program is not _TemplateBase.build_program
        or not isinstance(graph, DistGraph)
        or not graph.nodes
    ):
        return None
    # The plan every host of the run reads (held until the hosts hold it).
    plan = _shared_plan(
        type(algorithm)._slice_schedule,
        algorithm,
        Knowledge(graph.n, graph.delta, graph.d, policy.phi),
    )
    first = plan.get(0)
    if (
        first is None
        or first.duration is None
        or first.parallel_builder is not None
        or first.resume is not None
    ):
        return None
    registered = pass_for_program(first.builder(algorithm.build_program()))
    max_rounds = config.max_rounds
    if max_rounds is None:
        max_rounds = 8 * graph.n + 64
    if (
        registered is None
        or first.duration < registered[1]
        or max_rounds < first.duration
    ):
        return None

    started = perf_counter()
    csr = graph.csr
    decided = registered[0](csr, predictions)
    if decided is None:
        return None
    model = config.model_for(algorithm)
    sent = _account(decided, csr, model, graph.n, config.fast)
    if sent is None:
        return None
    window, inbound, events, departures = _boundary(decided, csr)
    pass_seconds = perf_counter() - started

    owned = frozenset(window)

    def transport(nodes, result, model, n, fast):
        return WindowTransport(
            nodes,
            result,
            model,
            n,
            fast,
            owned=owned,
            inbound=inbound,
            events=events,
            departures=departures,
        )

    result = SyncEngine(
        GraphWindow(graph, window),
        lambda node: algorithm.build_program(),
        predictions={
            node: predictions[node] for node in window if node in predictions
        },
        model=model,
        max_rounds=max_rounds,
        seed=config.effective_seed,
        profile=config.profile,
        on_round_limit=config.on_round_limit,
        fast=config.fast,
        policy=policy,
        transport=transport,
    ).run()
    _merge(result, decided, csr, sent, pass_seconds)
    return result


def _account(
    decided: Decided, csr: CSRTopology, model: Any, n: int, fast: bool
) -> Optional[Dict[int, Tuple[int, int, int, int]]]:
    """The decided region's messages: round -> ``(messages, bits, widest,
    violations)``, or ``None`` when one is over a strict budget.

    A strict run raises at the first over-budget message in compose
    order, which may be a decided node's; only the full interpreted run
    knows that order, so such runs keep it.
    """
    indptr = csr.indptr
    budget = model.bandwidth_bits(n)
    strict = model.strict
    sent: Dict[int, Tuple[int, int, int, int]] = {}
    for round_index, senders in decided.broadcasts.items():
        messages = bits = widest = violations = 0
        for index, payload in senders.items():
            degree = indptr[index + 1] - indptr[index]
            if not degree:
                continue
            messages += degree
            if fast:
                continue
            size = estimate_bits(payload)
            bits += size * degree
            if size > widest:
                widest = size
            if budget is not None and size > budget:
                if strict:
                    return None
                violations += degree
        sent[round_index] = (messages, bits, widest, violations)
    return sent


def _boundary(
    decided: Decided, csr: CSRTopology
) -> Tuple[List[int], Dict[int, List[Message]], Dict[int, List[Event]], Dict[int, int]]:
    """The window and what it sees of the decided region.

    Returns the undecided ids (ascending), the decided region's messages
    to them per round, the terminations of their decided neighbors per
    round (ascending) and those neighbors' termination rounds.
    """
    ids = csr.ids
    indptr = csr.indptr
    indices = csr.indices
    rounds = decided.rounds
    broadcasts = decided.broadcasts.items()
    window: List[int] = []
    inbound: Dict[int, List[Message]] = {}
    boundary = set()
    index = rounds.find(0)
    while index >= 0:
        node = ids[index]
        window.append(node)
        for position in range(indptr[index], indptr[index + 1]):
            other = indices[position]
            if not rounds[other]:
                continue
            boundary.add(other)
            for round_index, senders in broadcasts:
                if other in senders:
                    inbound.setdefault(round_index, []).append(
                        (ids[other], 0, node, senders[other])
                    )
        index = rounds.find(0, index + 1)
    events: Dict[int, List[Event]] = {}
    departures: Dict[int, int] = {}
    outputs = decided.outputs
    for other in sorted(boundary):
        node = ids[other]
        departures[node] = rounds[other]
        events.setdefault(rounds[other], []).append(
            ("terminate", node, outputs[other])
        )
    return window, inbound, events, departures


def _merge(
    result: RunResult,
    decided: Decided,
    csr: CSRTopology,
    sent: Dict[int, Tuple[int, int, int, int]],
    pass_seconds: float,
) -> None:
    """Fold the decided region into the window's result, in place.

    Outputs and termination rounds interleave in the full run's order
    (by round, then id); counters add; the run lasted at least until the
    last decided node terminated.  The pass's time counts as the
    profile's setup, so every round keeps the interpreted phases.
    """
    ids = csr.ids
    rounds = decided.rounds
    outputs = decided.outputs
    terminations = [
        (rounds[index], ids[index], outputs[index])
        for index in range(csr.n)
        if rounds[index]
    ]
    terminations.sort(key=itemgetter(0))  # ids ascend within a round
    last = terminations[-1][0]
    window_rounds = result.records.termination_rounds
    # Both runs are sorted by (round, id); the sort merges them.
    merged = terminations + [
        (window_rounds[node], node, output)
        for node, output in result.outputs.items()
    ]
    merged.sort(key=itemgetter(0, 1))
    merged_outputs = {node: output for _, node, output in merged}
    merged_rounds = {node: round_index for round_index, node, _ in merged}
    result.outputs = merged_outputs
    result.records = NodeRecords(ids, merged_outputs, merged_rounds)
    result.rounds = max(result.rounds, last)
    result.rounds_executed = max(result.rounds_executed, last)
    for messages, bits, widest, violations in sent.values():
        result.message_count += messages
        result.total_bits += bits
        if widest > result.max_message_bits:
            result.max_message_bits = widest
        result.bandwidth_violations += violations
    result.init_decided = len(terminations)
    if result.profile is not None:
        result.profile.setup += pass_seconds
        _merge_samples(result.profile.samples, terminations, sent)


def _merge_samples(
    samples: List[RoundSample],
    terminations: List[Tuple[int, int, Any]],
    sent: Dict[int, Tuple[int, int, int, int]],
) -> None:
    """Add the decided region to the window's round samples.

    Each of the first rounds gains the decided nodes still live in it
    (live and scheduled: every one of them runs each initialization
    round) and their messages.  Rounds the window did not execute get a
    sample of their own.
    """
    live = len(terminations)
    departed = 0
    for round_index in range(1, terminations[-1][0] + 1):
        if round_index > len(samples):
            samples.append(
                RoundSample(round_index, 0.0, 0.0, 0.0, 0.0, 0, 0, scheduled=0)
            )
        sample = samples[round_index - 1]
        samples[round_index - 1] = replace(
            sample,
            messages=sample.messages + sent.get(round_index, (0,))[0],
            active=sample.active + live - departed,
            scheduled=sample.scheduled + live - departed,
        )
        while departed < live and terminations[departed][0] == round_index:
            departed += 1
