"""Template runs that interpret only the nodes the initialization leaves undecided.

Every template of Section 7 starts with an initialization algorithm B
(3 rounds for MIS).  The nodes B decides output and terminate within B's
rounds and never send again, so after B only the undecided nodes act —
the components they induce are what the paper's error measure η₁ counts
(Sections 4 and 5).  The interpreter still paid for every node through
B.  This module computes B's decided region *by index* instead, over the
CSR buffers, and interprets only the undecided nodes.

**The pass.**  The table of compiled forms (:mod:`repro.kernels`) maps
an initialization's exact program class to its pass, which restates B's
per-node program over the whole graph and returns a
:class:`~repro.kernels.base.Decided` record — each node's termination
round and output, and every message B sends.

**The chain.**  When B's slice is followed by a final slice whose
program's form is a kernel that chains (``FrontierKernel.chains``:
``greedy-mis``), no node is interpreted at all: every message of B is
charged by index, and the kernel runs over the undecided window on
``schedule="vectorized"`` — from the parent graph's arrays, with the
window as its starting active mask, its rounds following B's.  This
holds also when B decides nobody, as with default predictions.
``result.compiled_slices`` names the slices, and ``result.kernel`` stays
``None``.

**The window.**  The undecided nodes run on one ordinary
:class:`~repro.simulator.engine.SyncEngine` over a
:class:`~repro.graphs.window.GraphWindow` of the parent graph (no
subgraph is built), through a
:class:`~repro.simulator.transport.WindowTransport` that treats the
decided region as a boundary known in advance: its messages land at the
round barrier as edge-cut messages do, its terminations are published
with the window's own in one ascending order by the lifecycle's
``publish`` (the routine edge-cut shards use), and the window's sends
into it are accounted while the receiver is active.  The decided region
becomes one more part of the run, with the pass's message and bit
counts, and :func:`~repro.simulator.metrics.fold_runs` folds it with the
window's result as it folds edge-cut shards, so the result is
bit-identical to interpreting every node.

**When.**  ``run()`` asks where the ``"window"`` row of
:mod:`repro.simulator.capabilities` allows, and :func:`run_initialized`
returns ``None`` — ``run()`` then takes the full interpreted path,
unchanged — unless the run has a template host over a
:class:`~repro.graphs.graph.DistGraph`; a first slice that runs an
initialization with a pass alone for at least the pass's rounds; a round
budget that covers the slice; no decided node's message over a strict
CONGEST budget; and at least one node decided.  The chain further needs
a budget of B's rounds plus the window's node count (Greedy MIS ends
within its largest component's size, Lemma 1, so no compiled run meets
a round limit), no message of B or the kernel over a strict budget, and
no profile; a run that misses one of these takes the window, or the
full interpreted path, as above.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.composition import Knowledge, _shared_plan
from repro.core.templates import _TemplateBase
from repro.graphs.csr import CSRTopology
from repro.graphs.graph import DistGraph
from repro.graphs.window import GraphWindow
from repro.kernels import compiled_form
from repro.kernels.base import Decided, FrontierKernel, InitPass
from repro.obs.profile import RoundSample
from repro.simulator.engine import SyncEngine, round_budget
from repro.simulator.message import estimate_bits
from repro.simulator.metrics import NodeRecords, RunResult, fold_runs
from repro.simulator.scheduling import ExecutionPolicy
from repro.simulator.transport import BandwidthExceeded, WindowTransport

__all__ = ["run_initialized"]

#: ``(sender, seq, receiver, payload)``: a message as boundary transports
#: land it.
Message = Tuple[int, int, int, Any]

#: ``(kind, node, output)``: a departure as the lifecycle publishes it.
Event = Tuple[str, int, Any]

#: How the final slice's kernel runs over the window.
_COMPILED = ExecutionPolicy(schedule="vectorized")


def run_initialized(
    algorithm: Any,
    graph: Any,
    predictions: Optional[Mapping[int, Any]],
    config: Any,
) -> Optional[RunResult]:
    """Run ``algorithm`` with its initialization decided by index.

    ``config`` is the run's :class:`~repro.core.runner.RunConfig`, which
    the window row accepts.  Returns the run's result,
    bit-identical to a full interpreted run, or ``None`` when the run is
    not eligible (see the module docstring).
    """
    if (
        predictions is None
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
        Knowledge(graph.n, graph.delta, graph.d, config.policy.phi),
    )
    first = plan.get(0)
    if not _alone(first) or first.duration is None:
        return None
    host = algorithm.build_program()
    init = compiled_form(first.builder(host), InitPass)
    max_rounds = round_budget(config.max_rounds, graph.n)
    if init is None or not init.rounds <= first.duration <= max_rounds:
        return None

    started = perf_counter()
    csr = graph.csr
    decided = init.decide(csr, predictions)
    undecided = _undecided(decided.rounds)
    model = config.model_for(algorithm)
    if not config.profile and max_rounds >= first.duration + len(undecided):
        result = _run_compiled(
            plan, host, graph, decided, undecided, model, config, max_rounds
        )
        if result is not None:
            return result
    if len(undecided) == csr.n:
        return None
    sent = _account(decided, csr, model, graph.n, config.fast, everyone=False)
    if sent is None:
        return None
    window, inbound, events, departures = _boundary(decided, csr, undecided)
    pass_seconds = perf_counter() - started

    transport = partial(
        WindowTransport, owned=frozenset(window), inbound=inbound,
        events=events, departures=departures,
    )
    window_result = config._engine_for(
        algorithm,
        GraphWindow(graph, window),
        {node: predictions[node] for node in window if node in predictions},
        transport=transport,
    ).run()
    region = _region(decided, csr, sent)
    result = fold_runs([window_result, region])
    result.init_decided = len(region.outputs)
    profile = window_result.profile
    if profile is not None:
        # The pass's time counts as the profile's setup, so every round
        # keeps the interpreted phases.
        profile.setup += pass_seconds
        _merge_samples(
            profile.samples,
            sorted(region.records.termination_rounds.values()),
            sent,
        )
        result.profile = profile
    return result


def _run_compiled(
    plan: Any,
    host: Any,
    graph: DistGraph,
    decided: Decided,
    undecided: List[int],
    model: Any,
    config: Any,
    max_rounds: int,
) -> Optional[RunResult]:
    """B's messages by index, then the final slice's kernel over the
    undecided window from B's last round on; ``None`` when the second
    slice is not a final one whose form is a kernel that chains, or a
    message is over a strict budget."""
    final = plan.get(1)
    if not _alone(final) or final.duration is not None:
        return None
    kernel = compiled_form(final.builder(host), FrontierKernel)
    if kernel is None or not kernel.chains:
        return None
    csr = graph.csr
    sent = _account(decided, csr, model, graph.n, config.fast, everyone=True)
    if sent is None:
        return None
    ids = csr.ids
    start = plan.get(0).duration
    try:
        part = SyncEngine(
            GraphWindow(graph, [ids[index] for index in undecided]),
            lambda node: final.builder(host),
            model=model,
            max_rounds=max_rounds - start,
            fast=config.fast,
            policy=_COMPILED,
        ).run()
    except BandwidthExceeded:
        return None
    if undecided:
        # The kernel counts its rounds from 1; they follow B's.
        rounds = part.records.termination_rounds
        for node in rounds:
            rounds[node] += start
        part.rounds += start
        part.rounds_executed += start
    region = _region(decided, csr, sent)
    result = fold_runs([part, region])
    result.init_decided = len(region.outputs)
    result.compiled_slices = (plan.get(0).key, final.key)
    return result


def _alone(slice_: Any) -> bool:
    """Whether a planned slice runs one component alone: no parallel
    part, no resumed component."""
    return (
        slice_ is not None
        and slice_.parallel_builder is None
        and slice_.resume is None
    )


def _undecided(rounds: bytearray) -> List[int]:
    """The indices an initialization leaves undecided, ascending."""
    found: List[int] = []
    index = rounds.find(0)
    while index >= 0:
        found.append(index)
        index = rounds.find(0, index + 1)
    return found


def _account(
    decided: Decided,
    csr: CSRTopology,
    model: Any,
    n: int,
    fast: bool,
    everyone: bool,
) -> Optional[Dict[int, Tuple[int, int, int, int]]]:
    """B's messages: round -> ``(messages, bits, widest, violations)``,
    every node's or (``everyone=False``) the decided nodes' only; ``None``
    when one is over a strict budget.

    A strict run raises at the first over-budget message in compose
    order; only the full interpreted run knows that order, so such runs
    keep it.
    """
    indptr = csr.indptr
    rounds = decided.rounds
    budget = model.bandwidth_bits(n)
    strict = model.strict
    sent: Dict[int, Tuple[int, int, int, int]] = {}
    for round_index, senders in decided.broadcasts.items():
        messages = bits = widest = violations = 0
        for index, payload in senders.items():
            degree = indptr[index + 1] - indptr[index]
            if not degree or not (everyone or rounds[index]):
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
    decided: Decided, csr: CSRTopology, undecided: List[int]
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
    for index in undecided:
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


def _region(
    decided: Decided,
    csr: CSRTopology,
    sent: Dict[int, Tuple[int, int, int, int]],
) -> RunResult:
    """The decided region as a part of the run: its outputs, termination
    rounds and messages; it lasts until its last node terminates."""
    ids = csr.ids
    rounds = decided.rounds
    region = [index for index in range(csr.n) if rounds[index]]
    outputs = {ids[index]: decided.outputs[index] for index in region}
    termination_rounds = {ids[index]: rounds[index] for index in region}
    last = max(termination_rounds.values(), default=0)
    part = RunResult(
        outputs=outputs,
        records=NodeRecords(list(outputs), outputs, termination_rounds),
        rounds=last,
        rounds_executed=last,
    )
    for messages, bits, widest, violations in sent.values():
        part.message_count += messages
        part.total_bits += bits
        part.max_message_bits = max(part.max_message_bits, widest)
        part.bandwidth_violations += violations
    return part


def _merge_samples(
    samples: List[RoundSample],
    rounds: List[int],
    sent: Dict[int, Tuple[int, int, int, int]],
) -> None:
    """Add the decided region to the window's round samples.

    ``rounds`` are the decided nodes' termination rounds, ascending.
    Each of the first rounds gains the decided nodes still live in it
    (live and scheduled: every one of them runs each initialization
    round) and their messages.  Rounds the window did not execute get a
    sample of their own.
    """
    live = len(rounds)
    departed = 0
    for round_index in range(1, rounds[-1] + 1):
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
        while departed < live and rounds[departed] == round_index:
            departed += 1
