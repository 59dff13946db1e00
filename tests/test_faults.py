"""Fault-injection subsystem: plans, adversaries, recovery, degradation.

The paper's model is reliable and synchronous; ``repro.faults`` measures
what happens outside it.  These tests pin down the subsystem's contracts:
declarative plans validate their inputs, every adversarial decision is a
deterministic function of (seed, round, edge), crash-recovery rejoins
nodes with fresh state, partial runs return a measurable
:class:`StuckReport`, and ``faults=`` takes a plan, never a bare
controller.
"""

from functools import partial

import pytest

from repro.algorithms.mis import GreedyMISAlgorithm, HardenedGreedyMIS
from repro.bench.algorithms import mis_hardened_simple, mis_simple
from repro.core import RunConfig, run
from repro.exec import FaultSpec, Sweep
from repro.faults import (
    CrashFault,
    FaultController,
    FaultPlan,
    MessageAdversary,
    PredictionAdversary,
    degradation_curve,
    degradation_metrics,
    random_crash_plan,
    survivor_coverage,
    survivor_violations,
)
from repro.graphs import erdos_renyi, grid2d, line, perturb_edges, ring
from repro.predictions import perfect_predictions
from repro.problems import MATCHING, MIS
from repro.problems.matching import UNMATCHED
from repro.simulator import StuckReport, SyncEngine
from repro.simulator.metrics import NodeRecords, RunResult


class TestFaultPlan:
    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            MessageAdversary(drop_rate=1.5)
        with pytest.raises(ValueError):
            MessageAdversary(corrupt_rate=-0.1)

    def test_rejects_bad_crash(self):
        with pytest.raises(ValueError):
            CrashFault(node=1, round=-1)
        with pytest.raises(ValueError):
            CrashFault(node=1, round=2, recover_after=0)

    def test_rejects_duplicate_crash_nodes(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes=(CrashFault(1, 2), CrashFault(1, 3)))

    def test_from_crash_rounds_round_trips(self):
        plan = FaultPlan.from_crash_rounds({3: 2, 7: 5})
        assert {(c.node, c.round) for c in plan.crashes} == {(3, 2), (7, 5)}
        assert all(c.recover_after is None for c in plan.crashes)

    def test_recovery_round(self):
        fault = CrashFault(node=4, round=3, recover_after=2)
        assert fault.recovery_round == 5

    def test_message_loss_constructor(self):
        plan = FaultPlan.message_loss(0.3, seed=7)
        assert plan.messages is not None
        assert plan.messages.drop_rate == 0.3
        assert plan.seed == 7


class TestMessageAdversaryDeterminism:
    def test_fate_is_a_function_of_seed_round_edge(self):
        plan = FaultPlan.message_loss(0.5, seed=11)
        a = FaultController(plan)
        b = FaultController(plan)
        for round_index in range(1, 6):
            for sender, receiver in [(0, 1), (1, 0), (2, 3)]:
                fa = a.message_fate(round_index, sender, receiver, "x")
                fb = b.message_fate(round_index, sender, receiver, "x")
                assert (fa.dropped, fa.corrupted, fa.duplicate) == (
                    fb.dropped,
                    fb.corrupted,
                    fb.duplicate,
                )

    def test_fate_is_order_independent(self):
        """Querying edges in a different order gives identical fates."""
        plan = FaultPlan.message_loss(0.5, seed=2)
        forward = FaultController(plan)
        backward = FaultController(plan)
        edges = [(u, v, r) for r in (1, 2) for u in range(4) for v in range(4) if u != v]
        fates_fwd = {e: forward.message_fate(e[2], e[0], e[1], "m") for e in edges}
        fates_bwd = {
            e: backward.message_fate(e[2], e[0], e[1], "m") for e in reversed(edges)
        }
        for e in edges:
            assert fates_fwd[e].dropped == fates_bwd[e].dropped

    def test_per_edge_adversary_only_attacks_listed_edges(self):
        adversary = MessageAdversary(drop_rate=1.0, edges=((0, 1),))
        plan = FaultPlan(messages=adversary, seed=0)
        controller = FaultController(plan)
        assert controller.message_fate(1, 0, 1, "m").dropped
        assert controller.message_fate(1, 1, 0, "m").dropped
        assert not controller.message_fate(1, 1, 2, "m").dropped

    def test_dropped_message_is_not_duplicated(self):
        """drop=1 and duplicate=1: the drop wins, nothing is replayed."""
        plan = FaultPlan(
            messages=MessageAdversary(drop_rate=1.0, duplicate_rate=1.0)
        )
        controller = FaultController(plan)
        fate = controller.message_fate(1, 0, 1, "m")
        assert fate.dropped and not fate.duplicate


class TestSeedDeterminismRegression:
    """Same plan + seed => byte-identical results; different seeds differ."""

    def _noisy_plan(self, seed):
        return FaultPlan(
            crashes=(CrashFault(5, 2), CrashFault(9, 3, recover_after=2)),
            messages=MessageAdversary(
                drop_rate=0.2, corrupt_rate=0.1, duplicate_rate=0.1
            ),
            seed=seed,
        )

    def test_identical_reruns(self):
        graph = erdos_renyi(30, 0.15, seed=1)
        predictions = perfect_predictions(MIS, graph, seed=1)
        results = [
            run(
                mis_hardened_simple(),
                graph,
                predictions,
                faults=self._noisy_plan(seed=4),
                max_rounds=40,
                on_round_limit="partial",
            )
            for _ in range(2)
        ]
        assert repr(results[0]) == repr(results[1])
        assert results[0].dropped_messages == results[1].dropped_messages
        assert results[0].outputs == results[1].outputs

    def test_different_seeds_differ(self):
        graph = erdos_renyi(30, 0.15, seed=1)
        predictions = perfect_predictions(MIS, graph, seed=1)
        a, b = (
            run(
                mis_hardened_simple(),
                graph,
                predictions,
                faults=self._noisy_plan(seed=seed),
                max_rounds=40,
                on_round_limit="partial",
            )
            for seed in (0, 1)
        )
        assert repr(a) != repr(b)


class TestTraceInterplay:
    def test_send_to_crashed_node_still_traced(self):
        """The send is the sender's act; the trace keeps it even though
        the crashed receiver never gets the message."""
        from repro.simulator import TraceRecorder
        from repro.simulator.program import NodeProgram

        class Broadcast(NodeProgram):
            def compose(self, ctx):
                return {other: "ping" for other in ctx.neighbors}

            def process(self, ctx, inbox):
                if ctx.round >= 3:
                    ctx.set_output(0)
                    ctx.terminate()

        graph = ring(6)
        plan = FaultPlan(crashes=(CrashFault(1, 1),))
        trace = TraceRecorder()
        engine = SyncEngine(
            graph, lambda node: Broadcast(), trace=trace, faults=plan
        )
        result = engine.run()
        sends_to_crashed = [
            e
            for e in trace.of_kind("send")
            if e.data.get("to") == 1 and e.round >= 2
        ]
        assert sends_to_crashed
        assert result.records[1].crashed

    def test_drop_events_reference_their_sends(self):
        graph = line(8)
        plan = FaultPlan.message_loss(0.5, seed=3)
        trace = run(
            HardenedGreedyMIS(), graph, faults=plan, max_rounds=100, trace=True
        ).trace
        drops = list(trace.of_kind("drop"))
        assert drops
        sends = {
            (e.round, e.node, e.data["to"]) for e in trace.of_kind("send")
        }
        for event in drops:
            assert (event.round, event.node, event.data["to"]) in sends

    def test_corrupt_events_carry_original_payload(self):
        graph = line(8)
        plan = FaultPlan(
            messages=MessageAdversary(corrupt_rate=1.0), seed=0
        )
        predictions = perfect_predictions(MIS, graph, seed=0)
        trace = run(
            mis_hardened_simple(),
            graph,
            predictions,
            faults=plan,
            max_rounds=100,
            trace=True,
        ).trace
        corruptions = list(trace.of_kind("corrupt"))
        assert corruptions
        for event in corruptions:
            assert "original" in event.data
            assert event.data["payload"] != event.data["original"]

    def test_duplicates_are_delivered_one_round_later(self):
        graph = line(8)
        plan = FaultPlan(
            messages=MessageAdversary(duplicate_rate=1.0), seed=0
        )
        result = run(
            HardenedGreedyMIS(), graph, faults=plan, max_rounds=100, trace=True
        )
        trace = result.trace
        duplicates = list(trace.of_kind("duplicate"))
        assert duplicates
        assert result.duplicated_messages == len(duplicates)
        sends = {
            (e.round, e.node, e.data["to"]) for e in trace.of_kind("send")
        }
        for event in duplicates:
            assert (event.round - 1, event.node, event.data["to"]) in sends

    def test_trace_records_crash_and_recover(self):
        graph = ring(6)
        plan = FaultPlan(crashes=(CrashFault(2, 1, recover_after=2),))
        trace = run(
            HardenedGreedyMIS(), graph, faults=plan, max_rounds=100, trace=True
        ).trace
        assert trace.first_round_of("crash") == 1
        assert trace.first_round_of("recover") == 3


class TestCrashRecovery:
    def test_recovered_node_rejoins_and_decides(self):
        graph = ring(8)
        plan = FaultPlan(crashes=(CrashFault(3, 1, recover_after=3),))
        result = run(HardenedGreedyMIS(), graph, faults=plan, max_rounds=100)
        record = result.records[3]
        assert not record.crashed
        assert record.recovery_round == 4
        assert 3 in result.outputs
        assert MIS.verify_solution(graph, result.outputs) == []

    def test_crash_stop_node_stays_dark(self):
        graph = ring(8)
        plan = FaultPlan(crashes=(CrashFault(3, 1),))
        result = run(HardenedGreedyMIS(), graph, faults=plan, max_rounds=100)
        assert result.records[3].crashed
        assert result.records[3].recovery_round is None
        assert 3 not in result.outputs


class TestPredictionAdversary:
    def test_flips_are_seeded_and_partial(self):
        graph = grid2d(5, 5)
        predictions = perfect_predictions(MIS, graph, seed=0)
        plan = FaultPlan(
            predictions=PredictionAdversary(flip_rate=0.4), seed=1
        )
        controller = FaultController(plan)
        corrupted_a = controller.corrupt_predictions(predictions, graph.nodes)
        corrupted_b = controller.corrupt_predictions(predictions, graph.nodes)
        assert corrupted_a == corrupted_b
        flipped = [n for n in graph.nodes if corrupted_a[n] != predictions[n]]
        assert 0 < len(flipped) < graph.n

    def test_corrupted_predictions_slow_but_stay_safe(self):
        graph = grid2d(5, 5)
        predictions = perfect_predictions(MIS, graph, seed=0)
        plan = FaultPlan(
            predictions=PredictionAdversary(flip_rate=0.5), seed=3
        )
        result = run(
            mis_hardened_simple(), graph, predictions, faults=plan, max_rounds=100
        )
        assert MIS.verify_solution(graph, result.outputs) == []


class TestRoundsExecuted:
    def test_stop_after_sets_rounds_executed(self):
        graph = line(30)
        engine = SyncEngine(graph, lambda node: GreedyMISAlgorithm().build_program())
        result = engine.run(stop_after=4)
        assert result.rounds_executed == 4

    def test_all_crashed_run_is_measurable(self):
        """Nobody can terminate in round 1 of the initialization, so a
        round-1 crash of every node leaves rounds=0 but a measurable run."""
        from repro.algorithms.mis import MISInitializationAlgorithm

        graph = ring(4)
        predictions = perfect_predictions(MIS, graph, seed=0)
        plan = FaultPlan(
            crashes=tuple(CrashFault(v, 1) for v in graph.nodes)
        )
        result = run(
            MISInitializationAlgorithm(),
            graph,
            predictions,
            faults=plan,
            max_rounds=50,
        )
        assert result.rounds == 0
        assert result.rounds_executed == 1
        assert all(record.crashed for record in result.records.values())

    def test_clean_run_rounds_match(self):
        graph = line(10)
        result = run(GreedyMISAlgorithm(), graph)
        assert result.rounds_executed == result.rounds


class TestPartialMode:
    def test_partial_returns_stuck_report(self):
        graph = line(40)
        result = run(
            GreedyMISAlgorithm(), graph, max_rounds=5, on_round_limit="partial"
        )
        assert isinstance(result.stuck, StuckReport)
        assert result.stuck.round == 5
        assert result.stuck.live_nodes
        assert result.stuck.total_nodes == 40
        assert result.rounds_executed == 5
        snapshot = result.stuck.snapshots[result.stuck.live_nodes[0]]
        assert snapshot.state  # program attrs captured as reprs
        # Decided nodes are still reported in outputs.
        assert result.outputs
        assert "node(s) still live" in result.stuck.summary()

    def test_raise_mode_still_raises(self):
        from repro.simulator import RoundLimitExceeded

        graph = line(40)
        with pytest.raises(RoundLimitExceeded):
            run(GreedyMISAlgorithm(), graph, max_rounds=5)

    def test_invalid_mode_rejected(self):
        graph = line(4)
        with pytest.raises(ValueError):
            SyncEngine(
                graph,
                lambda node: GreedyMISAlgorithm().build_program(),
                on_round_limit="explode",
            )


class TestValidatorsAndHarness:
    def test_survivor_coverage_counts_only_survivors(self):
        graph = ring(8)
        plan = FaultPlan(crashes=(CrashFault(0, 1), CrashFault(4, 1)))
        result = run(HardenedGreedyMIS(), graph, faults=plan, max_rounds=100)
        assert survivor_coverage(result) == 1.0
        assert survivor_violations(MIS, graph, result) == []

    def test_adjacent_ones_are_flagged(self):
        graph = line(4)
        result = run(GreedyMISAlgorithm(), graph)
        result.outputs[1] = 1
        result.outputs[2] = 1
        assert survivor_violations(MIS, graph, result)

    def test_matching_survivors_are_judged_on_the_whole_graph(self):
        graph = line(6)  # 1-2-3-4-5-6; node 2 crashed before it output
        outputs = {1: 2, 3: 4, 4: 3, 6: UNMATCHED}
        result = RunResult(
            outputs=outputs, records=NodeRecords(sorted(graph.nodes), outputs)
        )
        result.records.crashed.add(2)
        # 1's partner is its neighbor and never output; 5 is undecided.
        assert survivor_violations(MATCHING, graph, result) == []
        # A partner that did output, crashed or not, must name 1 back.
        outputs[2] = 3
        outputs[5] = 1
        assert survivor_violations(MATCHING, graph, result) == [
            "match 1->2 not reciprocated (partner output 3)",
            "node 5 matched to non-neighbor 1",
        ]
        # Two adjacent decided survivors left unmatched clash.
        outputs[5] = UNMATCHED
        del outputs[2]
        assert survivor_violations(MATCHING, graph, result) == [
            "adjacent unmatched nodes 5 and 6"
        ]

    def test_random_crash_plan_is_seeded(self):
        graph = erdos_renyi(30, 0.2, seed=0)
        a = random_crash_plan(graph, 0.3, seed=5)
        b = random_crash_plan(graph, 0.3, seed=5)
        assert a == b
        assert len(a.crashes) == 9

    @pytest.mark.parametrize("fraction", (-0.1, 1.5))
    def test_random_crash_plan_rejects_bad_fraction(self, fraction):
        graph = ring(8)
        with pytest.raises(ValueError, match="fraction"):
            random_crash_plan(graph, fraction)

    def test_degradation_sweep_shape(self):
        graph = grid2d(4, 4)
        sweep = Sweep()
        for rate in (0.0, 0.2):
            for seed in (0, 1):
                sweep.add(
                    f"d={rate}/s={seed}",
                    graph,
                    mis_hardened_simple,
                    predictions=perfect_predictions(MIS, graph, seed=seed),
                    faults=FaultSpec.of(
                        "random_crash_plan", 0.0, drop_rate=rate, seed=seed
                    ),
                    problem="mis",
                    seed=seed,
                    config=RunConfig(max_rounds=30, on_round_limit="partial"),
                    metrics=partial(degradation_metrics, drop_rate=rate),
                )
        result = sweep.run("serial")
        assert len(result) == 4
        rows = degradation_curve(result)
        assert [row["drop_rate"] for row in rows] == [0.0, 0.2]
        assert rows[0]["mean_coverage"] == 1.0
        assert all(row["violations"] == 0 for row in rows)


class TestChurnEdgePerturbation:
    def test_removed_edges_are_not_readded(self):
        graph = ring(12)
        perturbed = perturb_edges(graph, add=6, remove=6, seed=2)
        removed = set(graph.edges()) - set(perturbed.edges())
        assert len(removed) == 6
        assert not (removed & set(perturbed.edges()))

    def test_large_addition_terminates_quickly(self):
        """The rejection loop is set-based: adding hundreds of edges to a
        sparse graph stays linear in the number added."""
        graph = line(200)
        perturbed = perturb_edges(graph, add=400, seed=1)
        assert perturbed.num_edges == graph.num_edges + 400


class TestBareControllerDeprecation:
    """Passing a pre-built controller as ``faults=`` was a 1.x entry
    point that bypassed the plan layer and coupled callers to the
    engine's internal hook API.  Since 2.0 it is refused, directly and
    from a sweep cell alike."""

    def test_bare_controller_is_refused(self):
        from repro.algorithms.mis.greedy import GreedyMISProgram
        from repro.exec import GraphSpec, Sweep

        controller = FaultPlan.message_loss(0.4, seed=7).build_controller()
        with pytest.raises(TypeError, match="FaultPlan"):
            SyncEngine(line(8), lambda node: GreedyMISProgram(),
                       faults=controller)
        sweep = Sweep(name="bare", base_seed=1)
        sweep.add("a", GraphSpec.of("ring", 6), "mis_simple",
                  predictions="all_zeros_mis", faults=controller,
                  problem="mis", seed=0)
        with pytest.raises(TypeError, match="FaultPlan"):
            sweep.run("serial")

    def test_plan_path_does_not_warn(self):
        import warnings

        from repro.algorithms.mis.greedy import GreedyMISProgram

        graph = line(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SyncEngine(
                graph,
                lambda node: GreedyMISProgram(),
                faults=FaultPlan.message_loss(0.2, seed=1),
            ).run()
