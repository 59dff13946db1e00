"""Tests for the synchronous engine (round semantics, announcements, faults)."""

import pytest

from repro.faults import FaultPlan
from repro.graphs import line, ring, star
from repro.simulator import (
    ExecutionPolicy,
    NodeProgram,
    RoundLimitExceeded,
    SyncEngine,
    TraceRecorder,
)
from repro.simulator.context import OutputAlreadySet
from repro.simulator.engine import BandwidthExceeded
from repro.simulator.models import strict_congest
from repro.simulator.program import IdleProgram


class _Echo(NodeProgram):
    """Sends its id every round; terminates upon first inbox."""

    def compose(self, ctx):
        return {other: ctx.node_id for other in ctx.active_neighbors}

    def process(self, ctx, inbox):
        if inbox:
            ctx.set_output(sorted(inbox.values()))
            ctx.terminate()


class _TerminateAtSetup(NodeProgram):
    def setup(self, ctx):
        ctx.set_output("early")
        ctx.terminate()


class _Stubborn(NodeProgram):
    """Never terminates."""


class TestBasicExecution:
    def test_idle_program_terminates_in_round_zero(self):
        result = SyncEngine(line(3), lambda v: IdleProgram("x")).run()
        assert result.rounds == 0
        assert all(
            record.termination_round == 0 for record in result.records.values()
        )
        assert result.outputs == {1: "x", 2: "x", 3: "x"}

    def test_setup_termination_counts_as_round_zero(self):
        result = SyncEngine(line(2), lambda v: _TerminateAtSetup()).run()
        assert result.rounds == 0

    def test_echo_terminates_after_one_round(self):
        result = SyncEngine(line(3), lambda v: _Echo()).run()
        assert result.rounds == 1
        assert result.outputs[2] == [1, 3]

    def test_round_limit_raises(self):
        with pytest.raises(RoundLimitExceeded):
            SyncEngine(line(3), lambda v: _Stubborn(), max_rounds=5).run()

    def test_send_to_non_neighbor_raises(self):
        class Bad(NodeProgram):
            def compose(self, ctx):
                return {999: "oops"}

        with pytest.raises(ValueError, match="non-neighbor"):
            SyncEngine(line(3), lambda v: Bad()).run()

    def test_all_terminated_flag(self):
        result = SyncEngine(line(4), lambda v: _Echo()).run()
        assert result.all_terminated


class TestMessageTiming:
    def test_message_composed_same_round_is_received(self):
        """A node's final-round message is delivered (notify-then-terminate)."""
        received = {}

        class OneShot(NodeProgram):
            def compose(self, ctx):
                if ctx.round == 1 and ctx.node_id == 1:
                    return {2: "bye"}
                return {}

            def process(self, ctx, inbox):
                if ctx.node_id == 1:
                    ctx.set_output(None)
                    ctx.terminate()
                elif inbox:
                    received.update(inbox)
                    ctx.set_output(None)
                    ctx.terminate()

        SyncEngine(line(2), lambda v: OneShot()).run()
        assert received == {1: "bye"}

    def test_message_to_terminated_node_is_dropped(self):
        class Probe(NodeProgram):
            def compose(self, ctx):
                if ctx.node_id == 2:
                    return {1: "late"}
                return {}

            def process(self, ctx, inbox):
                if ctx.node_id == 1:
                    ctx.set_output("gone")
                    ctx.terminate()
                elif ctx.round == 3:
                    ctx.set_output("done")
                    ctx.terminate()

        result = SyncEngine(line(2), lambda v: Probe()).run()
        assert result.outputs[1] == "gone"

    def test_neighbor_output_visible_next_round(self):
        seen_at = {}

        class Watcher(NodeProgram):
            def process(self, ctx, inbox):
                if ctx.node_id == 1 and ctx.round == 1:
                    ctx.set_output(42)
                    ctx.terminate()
                elif ctx.node_id == 2:
                    if 1 in ctx.neighbor_outputs and 2 not in seen_at:
                        seen_at[2] = ctx.round
                        ctx.set_output(ctx.neighbor_outputs[1])
                        ctx.terminate()

        result = SyncEngine(line(2), lambda v: Watcher()).run()
        assert seen_at[2] == 2
        assert result.outputs[2] == 42

    def test_active_neighbors_shrink_after_termination(self):
        sizes = {}

        class Shrink(NodeProgram):
            def process(self, ctx, inbox):
                if ctx.node_id == 1 and ctx.round == 1:
                    ctx.set_output(0)
                    ctx.terminate()
                if ctx.node_id == 2:
                    sizes[ctx.round] = len(ctx.active_neighbors)
                    if ctx.round == 2:
                        ctx.set_output(0)
                        ctx.terminate()
                if ctx.node_id == 3 and ctx.round == 3:
                    ctx.set_output(0)
                    ctx.terminate()

        SyncEngine(line(3), lambda v: Shrink()).run()
        assert sizes[1] == 2
        assert sizes[2] == 1


class TestOutputs:
    def test_double_output_raises(self):
        class Doubler(NodeProgram):
            def process(self, ctx, inbox):
                ctx.set_output(1)
                ctx.set_output(2)

        with pytest.raises(OutputAlreadySet):
            SyncEngine(line(2), lambda v: Doubler()).run()

    def test_output_parts_collected_as_dict(self):
        class Parts(NodeProgram):
            def process(self, ctx, inbox):
                for other in ctx.neighbors:
                    ctx.set_output_part(other, other * 10)
                ctx.terminate()

        result = SyncEngine(line(3), lambda v: Parts()).run()
        assert result.outputs[2] == {1: 10, 3: 30}

    def test_mixing_scalar_and_parts_raises(self):
        class Mixed(NodeProgram):
            def process(self, ctx, inbox):
                ctx.set_output_part("a", 1)
                ctx.set_output(2)

        with pytest.raises(OutputAlreadySet):
            SyncEngine(line(2), lambda v: Mixed()).run()


class TestMetricsAndModels:
    def test_message_counting(self):
        result = SyncEngine(line(3), lambda v: _Echo()).run()
        # Round 1: node1->2, node2->1, node2->3, node3->2.
        assert result.message_count == 4
        assert result.total_bits >= 4

    @pytest.mark.parametrize(
        "schedule", ["eager", "quiescent", "quiescent-debug", "async"]
    )
    def test_strict_congest_raises_on_wide_message(self, schedule):
        class Wide(NodeProgram):
            def compose(self, ctx):
                return {other: "x" * 5000 for other in ctx.active_neighbors}

            def process(self, ctx, inbox):
                ctx.set_output(0)
                ctx.terminate()

        with pytest.raises(BandwidthExceeded, match="in round 1 "):
            SyncEngine(
                line(3), lambda v: Wide(), model=strict_congest(2),
                policy=ExecutionPolicy(schedule=schedule),
            ).run()

    def test_non_strict_model_records_violations(self):
        class Wide(NodeProgram):
            def compose(self, ctx):
                return {other: "x" * 5000 for other in ctx.active_neighbors}

            def process(self, ctx, inbox):
                ctx.set_output(0)
                ctx.terminate()

        from repro.simulator.models import CONGEST

        result = SyncEngine(line(3), lambda v: Wide(), model=CONGEST).run()
        assert result.bandwidth_violations > 0

    def test_congest_compatibility_check(self):
        result = SyncEngine(line(3), lambda v: _Echo()).run()
        assert result.congest_compatible(3)


class TestFaultInjection:
    def test_crashed_node_produces_no_output(self):
        class StopOnCrash(NodeProgram):
            def process(self, ctx, inbox):
                if ctx.crashed_neighbors:
                    ctx.set_output("survivor")
                    ctx.terminate()

        result = SyncEngine(
            star(4),
            lambda v: _Stubborn() if v == 1 else StopOnCrash(),
            faults=FaultPlan.crash_stop({1: 1}),
            max_rounds=10,
        ).run()
        assert result.records[1].crashed
        assert 1 not in result.outputs
        assert result.outputs[2] == "survivor"

    def test_neighbors_observe_crash(self):
        crash_views = {}

        class Observer(NodeProgram):
            def process(self, ctx, inbox):
                if ctx.round == 3:
                    crash_views[ctx.node_id] = set(ctx.crashed_neighbors)
                    ctx.set_output(0)
                    ctx.terminate()

        SyncEngine(
            line(3),
            lambda v: Observer(),
            faults=FaultPlan.crash_stop({2: 1}),
        ).run()
        assert crash_views[1] == {2}
        assert crash_views[3] == {2}


class TestTrace:
    def test_trace_records_terminations(self):
        trace = TraceRecorder()
        SyncEngine(line(3), lambda v: _Echo(), trace=trace).run()
        assert trace.termination_rounds() == {1: 1, 2: 1, 3: 1}

    def test_trace_records_sends(self):
        trace = TraceRecorder()
        SyncEngine(line(2), lambda v: _Echo(), trace=trace).run()
        assert len(trace.sends_in_round(1)) == 2
        assert trace.messages_between(1, 2)[0].data["payload"] == 1

    def test_first_round_of(self):
        trace = TraceRecorder()
        SyncEngine(ring(4), lambda v: _Echo(), trace=trace).run()
        assert trace.first_round_of("terminate") == 1


class TestDeterminism:
    def test_runs_are_reproducible(self):
        def run_once():
            from repro.algorithms.mis import LubyMISAlgorithm
            from repro.core import run
            from repro.graphs import erdos_renyi

            graph = erdos_renyi(30, 0.2, seed=5)
            return run(LubyMISAlgorithm(), graph, seed=11).outputs

        assert run_once() == run_once()

    def test_different_seeds_change_randomized_runs(self):
        from repro.algorithms.mis import LubyMISAlgorithm
        from repro.core import run
        from repro.graphs import erdos_renyi

        graph = erdos_renyi(40, 0.3, seed=5)
        outputs = {
            seed: run(LubyMISAlgorithm(), graph, seed=seed).outputs
            for seed in range(4)
        }
        assert len({tuple(sorted(o.items())) for o in outputs.values()}) > 1
