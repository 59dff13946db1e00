"""Engine fuzzing: random node programs never break engine invariants.

A randomized program sends arbitrary payloads to arbitrary neighbors and
terminates at a random round.  Whatever it does, the engine must uphold:
message accounting consistency, monotone active sets, announcement
timing, and clean termination bookkeeping.
"""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.graphs import erdos_renyi
from repro.simulator import (
    ExecutionPolicy,
    NodeProgram,
    SyncEngine,
    TraceRecorder,
)


class FuzzProgram(NodeProgram):
    """Sends random payloads; terminates by a per-node random deadline."""

    PAYLOADS = [0, 1, "x", (1, "tag"), [1, 2, 3], {"k": 7}, None, 2**40]

    def __init__(self, seed, node):
        self._rng = random.Random(f"{seed}:{node}:fuzz")
        self._deadline = self._rng.randint(0, 6)

    def setup(self, ctx):
        if self._deadline == 0:
            ctx.set_output(("done", 0))
            ctx.terminate()

    def compose(self, ctx):
        outbox = {}
        for other in ctx.active_neighbors:
            if self._rng.random() < 0.6:
                outbox[other] = self._rng.choice(self.PAYLOADS)
        return outbox

    def process(self, ctx, inbox):
        if ctx.round >= self._deadline:
            ctx.set_output(("done", ctx.round))
            ctx.terminate()


class TestEngineFuzz:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=20),
        st.sampled_from([0.0, 0.2, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold(self, seed, n, p):
        graph = erdos_renyi(n, p, seed=seed)
        trace = TraceRecorder()
        engine = SyncEngine(
            graph,
            lambda node: FuzzProgram(seed, node),
            trace=trace,
        )
        result = engine.run()

        # Everyone terminated by its deadline (≤ 6) and bookkeeping agrees.
        assert result.rounds <= 6
        assert result.all_terminated
        assert set(result.outputs) == set(graph.nodes)
        for node in graph.nodes:
            record = result.records[node]
            assert record.termination_round is not None
            assert record.output == result.outputs[node]

        # Trace terminations match records.
        assert trace.termination_rounds() == {
            node: result.records[node].termination_round
            for node in graph.nodes
        }

        # Accounting sanity: every delivered message was counted with
        # positive bits; the max is at most the total.
        assert result.total_bits >= result.message_count
        assert result.max_message_bits <= result.total_bits or (
            result.message_count == 0
        )

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_fuzz_with_crashes(self, seed):
        rng = random.Random(f"{seed}:crashes")
        graph = erdos_renyi(15, 0.3, seed=seed)
        crash_rounds = {
            node: rng.randint(1, 4)
            for node in graph.nodes
            if rng.random() < 0.3
        }
        engine = SyncEngine(
            graph,
            lambda node: FuzzProgram(seed, node),
            faults=FaultPlan.crash_stop(crash_rounds),
        )
        result = engine.run()
        for node in graph.nodes:
            record = result.records[node]
            if record.crashed:
                assert node not in result.outputs
            else:
                assert record.termination_round is not None


# ----------------------------------------------------------------------
# Quiescent-schedule differential fuzzing
# ----------------------------------------------------------------------

def _run_collect(graph, factory, schedule, plan, profile=False):
    """One engine run returning every observable we compare across
    schedules: outputs, round counters, message accounting, events."""
    from repro.obs import MemoryEventSink

    sink = MemoryEventSink()
    engine = SyncEngine(
        graph,
        factory,
        faults=plan,
        sinks=[sink],
        policy=ExecutionPolicy(schedule=schedule),
        max_rounds=200,
        on_round_limit="partial",
        profile=profile,
    )
    result = engine.run()
    return {
        "outputs": result.outputs,
        "rounds": result.rounds,
        "rounds_executed": result.rounds_executed,
        "messages": result.message_count,
        "bits": result.total_bits,
        "max_bits": result.max_message_bits,
        "events": sink.events,
    }


def _random_plan(rng, graph):
    """A random adversarial plan: crash-stop and crash-recover faults
    plus a message adversary dropping/corrupting/replaying."""
    from repro.faults.plan import CrashFault, MessageAdversary

    crashes = tuple(
        CrashFault(
            node,
            rng.randint(1, 5),
            recover_after=rng.choice([None, None, rng.randint(1, 4)]),
        )
        for node in graph.nodes
        if rng.random() < 0.25
    )
    adversary = MessageAdversary(
        drop_rate=rng.choice([0.0, 0.2]),
        corrupt_rate=rng.choice([0.0, 0.15]),
        duplicate_rate=rng.choice([0.0, 0.2]),
    )
    return FaultPlan(
        crashes=crashes,
        messages=adversary if adversary.is_active else None,
        seed=rng.randint(0, 10**6),
    )


def _factories(seed):
    from repro.algorithms.coloring.greedy import PaletteGreedyColoringProgram
    from repro.algorithms.matching.greedy import GreedyMatchingProgram
    from repro.algorithms.mis.greedy import GreedyMISProgram

    def mixed(node):
        # Quiescent programs interleaved with eager fuzz nodes: the
        # wake-set must stay exact with always-awake neighbors
        # injecting arbitrary payloads.
        if node % 2 == 0:
            return FuzzProgram(seed, node)
        return GreedyMISProgram()

    return [
        ("mis", lambda node: GreedyMISProgram()),
        ("matching", lambda node: GreedyMatchingProgram()),
        ("coloring", lambda node: PaletteGreedyColoringProgram()),
        ("fuzz", lambda node: FuzzProgram(seed, node)),
        ("mixed", mixed),
    ]


class TestQuiescentDifferentialFuzz:
    """schedule='quiescent' must be observationally identical to eager
    for every algorithm, graph and fault plan — and so must a profiled
    run of each of eager, quiescent and quiescent-debug."""

    def _factories(self, seed):
        return _factories(seed)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_three_way_differential(self, seed):
        rng = random.Random(f"{seed}:quiescent-fuzz")
        graph = erdos_renyi(
            rng.randint(3, 18), rng.choice([0.15, 0.3, 0.6]), seed=seed
        )
        plan = _random_plan(rng, graph)
        name, factory = self._factories(seed)[seed % 5]
        eager = _run_collect(graph, factory, "eager", plan)
        quiescent = _run_collect(graph, factory, "quiescent", plan)
        profiled = _run_collect(graph, factory, "quiescent", plan, profile=True)
        debug = _run_collect(graph, factory, "quiescent-debug", plan)
        eager_profiled = _run_collect(graph, factory, "eager", plan, profile=True)
        debug_profiled = _run_collect(
            graph, factory, "quiescent-debug", plan, profile=True
        )
        assert quiescent == eager, name
        assert profiled == eager, name
        assert debug == eager, name
        assert eager_profiled == eager, name
        assert debug_profiled == eager, name

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_honest_quiescence_under_debug(self, seed):
        """The shipped quiescent programs never trip the debug validator
        even under adversarial faults (the contract test's dual)."""
        from repro.algorithms.mis.greedy import GreedyMISProgram

        rng = random.Random(f"{seed}:debug-fuzz")
        graph = erdos_renyi(rng.randint(3, 15), 0.3, seed=seed)
        plan = _random_plan(rng, graph)
        engine = SyncEngine(
            graph,
            lambda node: GreedyMISProgram(),
            faults=plan,
            policy=ExecutionPolicy(schedule="quiescent-debug"),
            max_rounds=200,
            on_round_limit="partial",
        )
        engine.run()  # QuiescenceViolation would fail the test


# ----------------------------------------------------------------------
# Old-vs-new differential: the layered runtime vs the frozen monolith
# ----------------------------------------------------------------------

def _engine(engine_cls, graph, factory, schedule, **kwargs):
    """``engine_cls`` on ``schedule``: the frozen monolith takes it as its
    ``schedule=`` keyword, :class:`SyncEngine` inside an ExecutionPolicy."""
    if engine_cls is SyncEngine:
        kwargs["policy"] = ExecutionPolicy(schedule=schedule)
    else:
        kwargs["schedule"] = schedule
    return engine_cls(graph, factory, **kwargs)


def _observables(engine_cls, graph, factory, plan, schedule, predictions=None):
    """Everything observable about one run: outputs, counters, records,
    the stuck report footprint and the exact event stream (order included)."""
    from repro.obs import MemoryEventSink

    sink = MemoryEventSink()
    engine = _engine(
        engine_cls,
        graph,
        factory,
        schedule,
        predictions=predictions,
        faults=plan,
        sinks=[sink],
        max_rounds=200,
        on_round_limit="partial",
    )
    result = engine.run()
    return {
        "outputs": result.outputs,
        "rounds": result.rounds,
        "rounds_executed": result.rounds_executed,
        "messages": result.message_count,
        "bits": result.total_bits,
        "max_bits": result.max_message_bits,
        "dropped": result.dropped_messages,
        "corrupted": result.corrupted_messages,
        "duplicated": result.duplicated_messages,
        "violations": result.bandwidth_violations,
        "records": {
            node: (
                record.termination_round,
                record.output,
                record.crashed,
                record.recovery_round,
            )
            for node, record in result.records.items()
        },
        "stuck": None
        if result.stuck is None
        else (result.stuck.round, tuple(result.stuck.live_nodes)),
        "events": sink.events,
    }


class TestLayeredRuntimeDifferential:
    """The layered Transport/Scheduler/Interposer/Lifecycle runtime must be
    bit-identical to the frozen pre-refactor monolith
    (``tests/reference_engine.py``) on every problem family, under faults,
    on both the eager and the quiescent schedule."""

    def _families(self, seed):
        from repro.algorithms.coloring.greedy import PaletteGreedyColoringProgram
        from repro.algorithms.edge_coloring.greedy import GreedyEdgeColoringProgram
        from repro.algorithms.matching.greedy import GreedyMatchingProgram
        from repro.algorithms.mis.greedy import GreedyMISProgram

        return [
            ("mis", lambda node: GreedyMISProgram()),
            ("matching", lambda node: GreedyMatchingProgram()),
            ("coloring", lambda node: PaletteGreedyColoringProgram()),
            ("edge-coloring", lambda node: GreedyEdgeColoringProgram()),
            ("fuzz", lambda node: FuzzProgram(seed, node)),
        ]

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_engine(self, seed):
        from tests.reference_engine import ReferenceSyncEngine

        rng = random.Random(f"{seed}:old-vs-new")
        graph = erdos_renyi(
            rng.randint(3, 18), rng.choice([0.15, 0.3, 0.6]), seed=seed
        )
        plan = _random_plan(rng, graph)
        predictions = (
            {node: node % 2 for node in graph.nodes}
            if rng.random() < 0.5
            else None
        )
        name, factory = self._families(seed)[seed % 5]
        for schedule in ("eager", "quiescent"):
            old = _observables(
                ReferenceSyncEngine, graph, factory, plan, schedule, predictions
            )
            new = _observables(
                SyncEngine, graph, factory, plan, schedule, predictions
            )
            assert new == old, (name, schedule)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=8, deadline=None)
    def test_matches_reference_engine_faultless_congest(self, seed):
        """Fault-free CONGEST runs (bit accounting live, no interposer)
        agree too — the interposer-absent fast path of the new engine."""
        from repro.simulator import CONGEST

        from tests.reference_engine import ReferenceSyncEngine

        rng = random.Random(f"{seed}:old-vs-new-congest")
        graph = erdos_renyi(rng.randint(3, 14), 0.3, seed=seed)
        name, factory = self._families(seed)[seed % 5]

        def observe(engine_cls):
            engine = engine_cls(
                graph, factory, model=CONGEST, max_rounds=200,
                on_round_limit="partial",
            )
            result = engine.run()
            return (
                result.outputs,
                result.rounds,
                result.rounds_executed,
                result.message_count,
                result.total_bits,
                result.max_message_bits,
                result.bandwidth_violations,
            )

        assert observe(SyncEngine) == observe(ReferenceSyncEngine), name

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_matches_reference_engine_strict_congest(self, seed):
        """Strict CONGEST aborts on the same message as the unprofiled
        monolith: eager and quiescent, profiled or not, raise its
        exception type and text, with the counters it held at the abort.

        The monolith's text predates the ``from u to v in round r``
        clause, so that clause is compared across the four new runs
        instead, which must raise byte-identical text.
        """
        from repro.simulator.models import strict_congest

        from tests.reference_engine import ReferenceSyncEngine

        rng = random.Random(f"{seed}:old-vs-new-strict")
        graph = erdos_renyi(rng.randint(3, 14), 0.3, seed=seed)
        model = strict_congest(rng.choice([1, 2, 4]))
        name, factory = self._families(seed)[seed % 5]

        def outcome(engine_cls, schedule, profile=False):
            engine = _engine(
                engine_cls, graph, factory, schedule, model=model,
                max_rounds=200, on_round_limit="partial", profile=profile,
            )
            result = engine.result if engine_cls is SyncEngine else engine._result
            try:
                engine.run()
                error = None
            except (RuntimeError, ValueError) as exc:
                error = (type(exc).__name__, str(exc))
            return error, (
                result.outputs,
                result.message_count,
                result.total_bits,
                result.bandwidth_violations,
            )

        texts = set()
        for schedule in ("eager", "quiescent"):
            old_error, old_counters = outcome(ReferenceSyncEngine, schedule)
            for profile in (False, True):
                error, counters = outcome(SyncEngine, schedule, profile)
                assert counters == old_counters, (name, schedule, profile)
                if old_error is None:
                    assert error is None, (name, schedule, profile)
                    continue
                kind, text = error
                assert kind == old_error[0], (name, schedule, profile)
                clause = re.search(r" from \d+ to \d+ in round \d+", text)
                assert clause is not None, text
                assert text.replace(clause.group(), "") == old_error[1]
                texts.add(text)
        assert len(texts) <= 1, (name, texts)


# ----------------------------------------------------------------------
# Asynchronous-schedule fuzzing
# ----------------------------------------------------------------------

def _run_async_collect(graph, factory, plan, *, phi, seed=0, send_timeout=None):
    """One async run returning the full result plus its event sink."""
    from repro.obs import MemoryEventSink

    sink = MemoryEventSink()
    engine = SyncEngine(
        graph,
        factory,
        faults=plan,
        sinks=[sink],
        policy=ExecutionPolicy(
            schedule="async", phi=phi, send_timeout=send_timeout
        ),
        seed=seed,
        max_rounds=200,
        on_round_limit="partial",
    )
    return engine.run(), sink


class TestAsyncDifferentialFuzz:
    """``schedule='async'`` at phi=0 with no send timeouts IS the
    synchronous model: bit-identical to eager on every observable —
    outputs, counters, bit accounting and the exact event stream —
    under random fault plans across every algorithm family."""

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_phi_zero_matches_eager(self, seed):
        rng = random.Random(f"{seed}:async-phi0-fuzz")
        graph = erdos_renyi(
            rng.randint(3, 18), rng.choice([0.15, 0.3, 0.6]), seed=seed
        )
        plan = _random_plan(rng, graph)
        name, factory = _factories(seed)[seed % 5]
        eager = _run_collect(graph, factory, "eager", plan)
        phi0 = _run_collect(graph, factory, "async", plan)
        phi0_profiled = _run_collect(graph, factory, "async", plan, profile=True)
        assert phi0 == eager, name
        assert phi0_profiled == eager, name


class TestAsyncInvariantFuzz:
    """phi>0 executions diverge from eager by design (that is the model);
    what must hold instead are the scheduler's own invariants:
    determinism per seed, adversary delays bounded by phi, late
    deliveries never exceeding the number of parked messages, and
    counters that agree with the event stream."""

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_invariants_under_delays(self, seed):
        rng = random.Random(f"{seed}:async-phi-fuzz")
        graph = erdos_renyi(rng.randint(3, 14), 0.3, seed=seed)
        plan = _random_plan(rng, graph)
        phi = rng.randint(1, 4)
        timeout = rng.choice([None, 2])
        name, factory = _factories(seed)[seed % 5]
        r1, s1 = _run_async_collect(
            graph, factory, plan, phi=phi, seed=seed, send_timeout=timeout
        )
        r2, s2 = _run_async_collect(
            graph, factory, plan, phi=phi, seed=seed, send_timeout=timeout
        )

        # Same seed => identical execution (message events; lifecycle
        # entries carry wall-clock timings).
        assert s1.events == s2.events, name
        assert r1.outputs == r2.outputs, name
        assert r1.message_count == r2.message_count, name
        assert r1.rounds_executed == r2.rounds_executed, name

        # Every adversary delay respects the phi bound, and the counters
        # are exactly the event-stream tallies.
        delays = [
            ev["data"]["delay"]
            for ev in s1.events
            if ev["kind"] == "delay"
        ]
        assert all(1 <= delay <= phi for delay in delays), name
        assert r1.delayed_messages == len(delays), name
        delivers = [ev for ev in s1.events if ev["kind"] == "deliver"]
        assert len(delivers) <= len(delays), name
        retries = [ev for ev in s1.events if ev["kind"] == "retry"]
        assert r1.retried_messages == len(retries), name
        if timeout is None:
            assert not retries, name
