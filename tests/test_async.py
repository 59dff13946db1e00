"""The asynchronous execution model: delays, timeouts, stabilization.

``schedule="async"`` relaxes lockstep delivery behind a seeded delay
adversary bounded by phi, adds sender-side send timeouts with bounded
exponential-backoff retransmission, and ends runs that provably cannot
act again via a self-stabilization pulse.  At ``phi=0`` with no timeout
the model degenerates to the synchronous engine bit-for-bit (enforced
differentially in ``tests/test_engine_fuzz.py``); this file tests the
asynchronous behaviors themselves.
"""

from __future__ import annotations

import pytest

from repro.core import ExecutionPolicy, RunConfig, run
from repro.faults import FaultPlan
from repro.faults.plan import MessageAdversary
from repro.graphs import erdos_renyi, line
from repro.obs import MemoryEventSink, async_telemetry
from repro.simulator import (
    DelayAdversary,
    NodeProgram,
    RetryPolicy,
    RoundLimitExceeded,
    SyncEngine,
)


# ----------------------------------------------------------------------
# Test programs
# ----------------------------------------------------------------------
class WaiterProgram(NodeProgram):
    """Quiescent node that acts only when a message reaches it."""

    quiescent_when_idle = True

    def process(self, ctx, inbox):
        if inbox:
            ctx.set_output("woke")
            ctx.terminate()


class PingProgram(NodeProgram):
    """Node 1 pings every neighbor once in round 1 and waits for their
    outputs; everyone else terminates on receipt (Waiter-style)."""

    quiescent_when_idle = True

    def setup(self, ctx):
        if ctx.node_id == 1:
            ctx.wake_at(1)

    def compose(self, ctx):
        if ctx.node_id == 1 and ctx.round == 1:
            return {other: "ping" for other in ctx.active_neighbors}
        return {}

    def process(self, ctx, inbox):
        if ctx.node_id != 1 and inbox:
            ctx.set_output("got")
            ctx.terminate()
        elif ctx.node_id == 1 and ctx.neighbor_outputs:
            ctx.set_output("acked")
            ctx.terminate()


class SpinnerProgram(NodeProgram):
    """Never terminates; floods neighbors every round (deadline tests)."""

    def compose(self, ctx):
        return {other: "spin" for other in ctx.active_neighbors}

    def process(self, ctx, inbox):
        pass


def _run_async(graph, factory, *, phi=0, send_timeout=None, max_retries=2,
               faults=None, max_rounds=300, seed=0):
    sink = MemoryEventSink()
    engine = SyncEngine(
        graph,
        factory,
        faults=faults,
        seed=seed,
        policy=ExecutionPolicy(
            schedule="async",
            phi=phi,
            send_timeout=send_timeout,
            max_retries=max_retries,
        ),
        max_rounds=max_rounds,
        on_round_limit="partial",
        sinks=[sink],
    )
    return engine.run(), sink


# ----------------------------------------------------------------------
# Adversary and retry-policy units
# ----------------------------------------------------------------------
class TestDelayAdversary:
    def test_delays_bounded_by_phi(self):
        adversary = DelayAdversary(phi=3, seed=7)
        delays = {
            adversary.delay(tick, s, r)
            for tick in range(10) for s in range(5) for r in range(5)
        }
        assert delays <= set(range(4))
        assert max(delays) > 0  # the adversary actually delays something

    def test_deterministic_and_order_independent(self):
        a = DelayAdversary(phi=4, seed=11)
        b = DelayAdversary(phi=4, seed=11)
        keys = [(t, s, r) for t in range(5) for s in range(4) for r in range(4)]
        forward = [a.delay(*key) for key in keys]
        backward = [b.delay(*key) for key in reversed(keys)]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ(self):
        keys = [(t, s, r) for t in range(8) for s in range(6) for r in range(6)]
        a = [DelayAdversary(3, 1).delay(*key) for key in keys]
        b = [DelayAdversary(3, 2).delay(*key) for key in keys]
        assert a != b

    def test_phi_zero_never_delays(self):
        adversary = DelayAdversary(phi=0, seed=5)
        assert all(
            adversary.delay(t, s, r) == 0
            for t in range(10) for s in range(4) for r in range(4)
        )

    def test_negative_phi_rejected(self):
        with pytest.raises(ValueError, match="phi"):
            DelayAdversary(phi=-1, seed=0)


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(send_timeout=2, max_retries=4)
        dues = [policy.retry_due(10, attempt, 2) for attempt in (1, 2, 3, 4)]
        assert dues == [12, 14, 18, 26]  # 10 + 2*2**(k-1)

    def test_exhausted_budget_returns_none(self):
        policy = RetryPolicy(send_timeout=1, max_retries=2)
        assert policy.retry_due(0, 3, 1) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="send_timeout"):
            RetryPolicy(send_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(send_timeout=1, max_retries=-1)


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------
class TestAsyncConfig:
    def test_phi_requires_async_schedule(self):
        with pytest.raises(ValueError, match="async"):
            ExecutionPolicy(phi=2, schedule="eager")

    def test_send_timeout_requires_async_schedule(self):
        with pytest.raises(ValueError, match="async"):
            ExecutionPolicy(send_timeout=2, schedule="quiescent")

    def test_negative_phi_rejected(self):
        with pytest.raises(ValueError, match="phi"):
            ExecutionPolicy(phi=-1, schedule="async")

    def test_profiled_async_run(self):
        """Async runs profile like every schedule: one sample per tick,
        the stabilization pulse and the final empty tick included, and
        the profiled run is the unprofiled one."""
        graph = erdos_renyi(10, 0.6, seed=3)
        plan = FaultPlan(messages=MessageAdversary(drop_rate=0.4), seed=3)

        def execute(profile):
            sink = MemoryEventSink()
            engine = SyncEngine(
                graph, lambda n: PingProgram(), faults=plan, sinks=[sink],
                policy=ExecutionPolicy(schedule="async", phi=2, send_timeout=2),
                max_rounds=300, on_round_limit="partial", profile=profile,
            )
            return engine.run(), sink.events

        result, events = execute(True)
        plain, plain_events = execute(False)
        assert result.recovery_pulses == 1
        assert result.stuck.reason == "stabilized"
        assert result.delayed_messages and result.retried_messages
        samples = result.profile.samples
        assert [sample.round for sample in samples] == list(
            range(1, result.rounds_executed + 1)
        )
        assert sum(result.profile.message_counts()) == result.message_count
        assert result.message_count > 0
        assert (result.outputs, result.rounds_executed, events) == (
            plain.outputs, plain.rounds_executed, plain_events
        )

    def test_deadline_validation(self):
        for deadline_s in (0, -1.0):
            with pytest.raises(ValueError, match="deadline"):
                ExecutionPolicy(deadline_s=deadline_s)

    def test_run_accepts_async_overrides(self):
        from repro.algorithms.mis.greedy import GreedyMISAlgorithm

        graph = erdos_renyi(12, 0.3, seed=1)
        result = run(GreedyMISAlgorithm(), graph,
                     policy=ExecutionPolicy(schedule="async", phi=1),
                     on_round_limit="partial")
        assert result.all_terminated


# ----------------------------------------------------------------------
# Delayed delivery
# ----------------------------------------------------------------------
class TestDelays:
    def test_delay_events_bounded_by_phi(self):
        from repro.algorithms.mis.greedy import GreedyMISProgram

        graph = erdos_renyi(24, 0.25, seed=3)
        for phi in (1, 2, 5):
            result, sink = _run_async(
                graph, lambda n: GreedyMISProgram(), phi=phi, seed=9
            )
            delays = [
                ev["data"]["delay"]
                for ev in sink.events if ev["kind"] == "delay"
            ]
            assert delays, "the adversary never delayed anything"
            assert all(1 <= d <= phi for d in delays)
            assert result.delayed_messages == len(delays)

    def test_delayed_messages_are_delivered_not_duplicated(self):
        """Every parked message lands at most once, at send tick + delay,
        unless its receiver left the computation while it was in flight."""
        from repro.algorithms.mis.greedy import GreedyMISProgram

        graph = erdos_renyi(18, 0.3, seed=4)
        result, sink = _run_async(graph, lambda n: GreedyMISProgram(),
                                  phi=3, seed=2)
        parked = []
        delivers = []
        for ev in sink.events:
            if ev["kind"] == "delay":
                parked.append(
                    (ev["round"] + ev["data"]["delay"], ev["node"],
                     ev["data"]["to"])
                )
            elif ev["kind"] == "deliver":
                delivers.append((ev["round"], ev["node"], ev["data"]["to"]))
        assert len(delivers) <= len(parked)
        # Every deliver matches exactly one parked message (multiset-wise).
        remaining = list(parked)
        for deliver in delivers:
            assert deliver in remaining
            remaining.remove(deliver)

    def test_same_seed_identical_event_streams(self):
        from repro.algorithms.matching.greedy import GreedyMatchingProgram

        graph = erdos_renyi(20, 0.3, seed=6)
        plan = FaultPlan(messages=MessageAdversary(drop_rate=0.2), seed=3)
        runs = [
            _run_async(graph, lambda n: GreedyMatchingProgram(), phi=2,
                       send_timeout=2, faults=plan, seed=13)
            for _ in range(2)
        ]
        (r1, s1), (r2, s2) = runs
        # entries would include round_end wall-clock timings; the event
        # stream is the deterministic part.
        assert s1.events == s2.events
        assert r1.outputs == r2.outputs
        assert (r1.rounds, r1.message_count, r1.total_bits) == (
            r2.rounds, r2.message_count, r2.total_bits
        )

    def test_different_seeds_change_the_schedule(self):
        from repro.algorithms.mis.greedy import GreedyMISProgram

        graph = erdos_renyi(20, 0.3, seed=6)
        _, s1 = _run_async(graph, lambda n: GreedyMISProgram(), phi=3, seed=1)
        _, s2 = _run_async(graph, lambda n: GreedyMISProgram(), phi=3, seed=2)
        assert s1.events != s2.events

    def test_no_async_event_kinds_at_phi_zero(self):
        from repro.algorithms.mis.greedy import GreedyMISProgram

        graph = erdos_renyi(15, 0.3, seed=0)
        _, sink = _run_async(graph, lambda n: GreedyMISProgram(), phi=0)
        kinds = {ev["kind"] for ev in sink.events}
        assert not kinds & {"delay", "deliver", "retry", "stabilize"}


# ----------------------------------------------------------------------
# Send timeouts and retransmission
# ----------------------------------------------------------------------
class TestSendTimeouts:
    def _lossy_ping(self, *, send_timeout, max_retries, per_node=None):
        graph = line(2)

        def factory(node):
            program = PingProgram()
            if per_node is not None:
                original_setup = program.setup

                def setup(ctx, _orig=original_setup):
                    _orig(ctx)
                    ctx.set_send_timeout(per_node)

                program.setup = setup
            return program

        plan = FaultPlan(messages=MessageAdversary(drop_rate=0.95), seed=0)
        return _run_async(
            graph, factory, phi=0, send_timeout=send_timeout,
            max_retries=max_retries, faults=plan, max_rounds=120,
        )

    def test_retries_follow_exponential_backoff(self):
        result, sink = self._lossy_ping(send_timeout=1, max_retries=5)
        retries = [ev for ev in sink.events if ev["kind"] == "retry"]
        assert retries, "no retransmission fired"
        assert [ev["data"]["attempt"] for ev in retries] == list(
            range(1, len(retries) + 1)
        )
        drop_round = next(
            ev["round"] for ev in sink.events if ev["kind"] == "drop"
        )
        assert [ev["round"] for ev in retries] == [
            drop_round + (2 ** attempt - 1)
            for attempt in range(1, len(retries) + 1)
        ]
        assert result.retried_messages == len(retries)

    def test_retry_budget_is_bounded(self):
        _, sink = self._lossy_ping(send_timeout=1, max_retries=2)
        retries = [ev for ev in sink.events if ev["kind"] == "retry"]
        assert len(retries) <= 2

    def test_no_retries_without_timeout(self):
        result, sink = self._lossy_ping(send_timeout=None, max_retries=3)
        assert result.retried_messages == 0
        assert not [ev for ev in sink.events if ev["kind"] == "retry"]

    def test_per_node_timeout_overrides_engine_default(self):
        result, sink = self._lossy_ping(
            send_timeout=None, max_retries=3, per_node=1
        )
        assert [ev for ev in sink.events if ev["kind"] == "retry"]

    def test_set_send_timeout_validation(self):
        from repro.simulator.context import NodeContext

        ctx = NodeContext(1, frozenset(), n=1, d=1, delta=0)
        with pytest.raises(ValueError, match="timeout"):
            ctx.set_send_timeout(0)
        ctx.set_send_timeout(3)
        assert ctx._send_timeout == 3
        ctx.set_send_timeout(None)
        assert ctx._send_timeout is None

    def test_retry_can_complete_a_blocked_run(self):
        """With retransmission armed, an execution that would stabilize
        short of termination (the only JOIN was dropped) completes."""
        graph = line(2)
        plan = FaultPlan(messages=MessageAdversary(drop_rate=0.55), seed=5)
        without, _ = _run_async(graph, lambda n: PingProgram(), phi=0,
                                faults=plan, max_rounds=120)
        with_retry, _ = _run_async(graph, lambda n: PingProgram(), phi=0,
                                   send_timeout=1, max_retries=6,
                                   faults=plan, max_rounds=120)
        # The seeded adversary drops the round-1 ping; only the retrying
        # run finishes.
        assert not without.all_terminated
        assert with_retry.all_terminated


# ----------------------------------------------------------------------
# Self-stabilization and termination detection
# ----------------------------------------------------------------------
class TestStabilization:
    def test_stalled_run_stabilizes_early(self):
        graph = erdos_renyi(6, 0.5, seed=3)
        result, sink = _run_async(graph, lambda n: WaiterProgram(), phi=2,
                                  max_rounds=500)
        assert result.stuck is not None
        assert result.stuck.reason == "stabilized"
        assert result.recovery_pulses == 1
        assert result.rounds_executed < 500
        pulses = [ev for ev in sink.events if ev["kind"] == "stabilize"]
        assert len(pulses) == 1
        assert pulses[0]["node"] == -1

    def test_stabilization_raises_under_raise_mode(self):
        graph = erdos_renyi(6, 0.5, seed=3)
        engine = SyncEngine(graph, lambda n: WaiterProgram(),
                            policy=ExecutionPolicy(schedule="async", phi=2),
                            max_rounds=500)
        with pytest.raises(RoundLimitExceeded, match="stabilized"):
            engine.run()

    def test_pulse_does_not_fire_while_work_is_in_flight(self):
        """A healthy terminating run never needs a stabilization pulse."""
        from repro.algorithms.mis.greedy import GreedyMISProgram

        graph = erdos_renyi(20, 0.3, seed=8)
        result, _ = _run_async(graph, lambda n: GreedyMISProgram(), phi=4)
        assert result.all_terminated
        assert result.recovery_pulses == 0

    def test_detector_dormant_at_phi_zero(self):
        """At phi=0 a starved run spins to the round budget exactly like
        the synchronous schedules — no pulse, no early stabilization."""
        graph = erdos_renyi(6, 0.5, seed=3)
        result, sink = _run_async(graph, lambda n: WaiterProgram(), phi=0,
                                  max_rounds=40)
        assert result.recovery_pulses == 0
        assert result.stuck is not None
        assert result.stuck.reason == "round-limit"
        assert result.rounds_executed == 40


# ----------------------------------------------------------------------
# Wall-clock deadlines
# ----------------------------------------------------------------------
DEADLINE = ExecutionPolicy(deadline_s=0.15)


class TestDeadline:
    def test_deadline_returns_partial_result(self):
        graph = erdos_renyi(30, 0.5, seed=1)
        engine = SyncEngine(graph, lambda n: SpinnerProgram(),
                            max_rounds=10**9, policy=DEADLINE,
                            on_round_limit="partial")
        result = engine.run()
        assert result.stuck is not None
        assert result.stuck.reason == "deadline"
        assert result.stuck.live_nodes

    def test_deadline_is_graceful_even_under_raise_mode(self):
        """deadline_s exists so CI cannot hang; it never raises."""
        graph = erdos_renyi(30, 0.5, seed=1)
        engine = SyncEngine(graph, lambda n: SpinnerProgram(),
                            max_rounds=10**9, policy=DEADLINE)
        result = engine.run()
        assert result.stuck is not None
        assert result.stuck.reason == "deadline"

    def test_fast_run_beats_its_deadline(self):
        from repro.algorithms.mis.greedy import GreedyMISProgram

        graph = erdos_renyi(12, 0.3, seed=2)
        engine = SyncEngine(graph, lambda n: GreedyMISProgram(),
                            policy=ExecutionPolicy(deadline_s=30.0))
        result = engine.run()
        assert result.stuck is None
        assert result.all_terminated

    def test_runconfig_deadline_passthrough(self):
        from repro.algorithms.mis.greedy import GreedyMISAlgorithm

        graph = erdos_renyi(10, 0.3, seed=0)
        result = run(GreedyMISAlgorithm(), graph,
                     config=RunConfig(policy=ExecutionPolicy(deadline_s=30.0)))
        assert result.stuck is None


# ----------------------------------------------------------------------
# Template bound stretching
# ----------------------------------------------------------------------
class TestTemplateStretch:
    def test_required_bound_scales_with_phi(self):
        from repro.core.templates import _required_bound, _stretch
        from repro.simulator.context import NodeContext

        class Bounded:
            name = "bounded"

            def round_bound(self, n, delta, d):
                return 7

        plain = NodeContext(1, frozenset(), n=4, d=4, delta=2, phi=0)
        delayed = NodeContext(1, frozenset(), n=4, d=4, delta=2, phi=3)
        assert _stretch(plain) == 1
        assert _stretch(delayed) == 4
        assert _required_bound(Bounded(), plain) == 7
        assert _required_bound(Bounded(), delayed) == 28

    def test_template_runs_end_to_end_under_async(self):
        from repro.bench.algorithms import mis_simple
        from repro.predictions import all_zeros_mis

        graph = erdos_renyi(16, 0.25, seed=5)
        algorithm = mis_simple()
        result = run(algorithm, graph, all_zeros_mis(graph),
                     policy=ExecutionPolicy(schedule="async", phi=2),
                     on_round_limit="partial", max_rounds=400)
        assert result.rounds_executed > 0
        # Bookkeeping invariant: exactly the terminated nodes have outputs.
        terminated = {
            node for node, record in result.records.items()
            if record.termination_round is not None
        }
        assert set(result.outputs) == terminated


# ----------------------------------------------------------------------
# Telemetry digest
# ----------------------------------------------------------------------
class TestAsyncTelemetry:
    def test_digest_counts_async_kinds(self):
        from repro.algorithms.mis.greedy import GreedyMISProgram

        graph = erdos_renyi(20, 0.3, seed=7)
        plan = FaultPlan(messages=MessageAdversary(drop_rate=0.3), seed=1)
        result, sink = _run_async(graph, lambda n: GreedyMISProgram(),
                                  phi=3, send_timeout=2, faults=plan, seed=4)
        digest = async_telemetry(sink.entries)
        assert digest["delayed"] == result.delayed_messages
        assert digest["retries"] == result.retried_messages
        assert digest["pulses"] == result.recovery_pulses
        assert digest["max_delay"] <= 3
        assert sum(digest["delay_histogram"].values()) == digest["delayed"]

    def test_digest_is_empty_on_synchronous_runs(self):
        from repro.algorithms.mis.greedy import GreedyMISProgram

        graph = erdos_renyi(10, 0.3, seed=0)
        sink = MemoryEventSink()
        SyncEngine(graph, lambda n: GreedyMISProgram(), sinks=[sink]).run()
        digest = async_telemetry(sink.entries)
        assert digest == {
            "delayed": 0, "delivered_late": 0, "retries": 0, "pulses": 0,
            "delay_histogram": {}, "max_delay": 0, "max_retry_attempt": 0,
        }
