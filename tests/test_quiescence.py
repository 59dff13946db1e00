"""Quiescence-aware scheduling: the wake-set engine paths.

``run(..., schedule="quiescent")`` skips nodes that declare
``quiescent_when_idle`` in rounds where they cannot observably act; the
tests here pin the two contracts that make the optimisation safe:

* observational identity — outputs, round counts, message counts, bit
  accounting and the full structured event stream match the eager
  schedule exactly, across algorithms, templates, graphs and fault
  plans (see also the three-way differential in ``test_engine_fuzz``);
* loud failure — a program that claims quiescence but acts from an idle
  state raises :class:`QuiescenceViolation` under
  ``schedule="quiescent-debug"``.

The satellite fixes of the same change ride along: the lazy per-node
``rng``, the fast-mode replay accounting fix, wake-API validation, the
``estimate_bits`` memoization and the profile's scheduled-vs-active
columns.
"""

import random

import pytest

from repro.algorithms.coloring import PaletteGreedyColoringAlgorithm
from repro.algorithms.matching import GreedyMatchingAlgorithm
from repro.algorithms.mis import (
    GreedyMISAlgorithm,
    MISInitializationAlgorithm,
)
from repro.core import ExecutionPolicy, RunConfig, SimpleTemplate, run
from repro.faults.plan import CrashFault, FaultPlan, MessageAdversary
from repro.graphs import erdos_renyi, grid2d, line, star
from repro.graphs.identifiers import sorted_path_ids
from repro.obs import MemoryEventSink
from repro.predictions import perfect_predictions
from repro.problems import MIS
from repro.simulator import (
    NodeContext,
    NodeProgram,
    QuiescenceViolation,
    SyncEngine,
    estimate_bits,
)

MIS_ALG = GreedyMISAlgorithm()
DEBUG = ExecutionPolicy(schedule="quiescent-debug")
MATCHING_ALG = GreedyMatchingAlgorithm()
COLORING_ALG = PaletteGreedyColoringAlgorithm()


def _run_with_events(algorithm, graph, schedule, predictions=None, **kwargs):
    sink = MemoryEventSink()
    result = run(
        algorithm,
        graph,
        predictions,
        policy=ExecutionPolicy(schedule=schedule),
        sinks=[sink],
        on_round_limit="partial",
        **kwargs,
    )
    return result, sink.events


def assert_observationally_identical(algorithm, graph, predictions=None, **kwargs):
    """Eager, quiescent and quiescent-debug agree on every observable."""
    eager, eager_events = _run_with_events(
        algorithm, graph, "eager", predictions, **kwargs
    )
    for schedule in ("quiescent", "quiescent-debug"):
        other, other_events = _run_with_events(
            algorithm, graph, schedule, predictions, **kwargs
        )
        label = f"{algorithm.name}/{graph.name}/{schedule}"
        assert other.outputs == eager.outputs, label
        assert other.rounds == eager.rounds, label
        assert other.rounds_executed == eager.rounds_executed, label
        assert other.message_count == eager.message_count, label
        assert other.total_bits == eager.total_bits, label
        assert other.max_message_bits == eager.max_message_bits, label
        assert other_events == eager_events, label


class TestObservationalIdentity:
    @pytest.mark.parametrize(
        "algorithm", [MIS_ALG, MATCHING_ALG, COLORING_ALG], ids=lambda a: a.name
    )
    def test_structured_graphs(self, algorithm):
        for graph in (
            sorted_path_ids(line(17)),
            grid2d(4, 5),
            star(9),
            erdos_renyi(20, 0.2, seed=3),
        ):
            assert_observationally_identical(algorithm, graph)

    @pytest.mark.parametrize(
        "algorithm", [MIS_ALG, MATCHING_ALG, COLORING_ALG], ids=lambda a: a.name
    )
    def test_under_faults(self, algorithm):
        graph = erdos_renyi(16, 0.3, seed=7)
        plan = FaultPlan(
            crashes=(CrashFault(3, 2), CrashFault(9, 3, recover_after=2)),
            messages=MessageAdversary(
                drop_rate=0.2, corrupt_rate=0.1, duplicate_rate=0.2
            ),
            seed=11,
        )
        assert_observationally_identical(
            algorithm, graph, faults=plan, seed=5, max_rounds=80
        )

    def test_template_with_predictions(self):
        graph = erdos_renyi(15, 0.25, seed=2)
        algorithm = SimpleTemplate(MISInitializationAlgorithm(), MIS_ALG)
        predictions = perfect_predictions(MIS, graph)
        assert_observationally_identical(algorithm, graph, predictions)

    def test_template_with_crash_recovery(self):
        # Regression: a crash-recovered node restarts with a fresh
        # SlicedProgram mid-run; its slice clock must start at the
        # recovery round, not owe a catch-up gap back to round 1.
        graph = erdos_renyi(14, 0.3, seed=6)
        algorithm = SimpleTemplate(MISInitializationAlgorithm(), MIS_ALG)
        predictions = perfect_predictions(MIS, graph)
        plan = FaultPlan(
            crashes=(
                CrashFault(2, 1, recover_after=3),
                CrashFault(8, 2, recover_after=1),
            ),
            seed=4,
        )
        assert_observationally_identical(
            algorithm, graph, predictions, faults=plan, max_rounds=60
        )

    def test_profiled_quiescent_matches(self):
        graph = sorted_path_ids(line(40))
        eager = run(MIS_ALG, graph)
        profiled = run(MIS_ALG, graph, profile=True,
                       policy=ExecutionPolicy(schedule="quiescent"))
        assert profiled.outputs == eager.outputs
        assert profiled.rounds == eager.rounds
        assert profiled.message_count == eager.message_count
        summary = profiled.profile.summary()
        # The frontier workload is the point: far fewer node-rounds run.
        assert summary["scheduled_rounds"] < summary["node_rounds"] / 3
        assert "sched" in profiled.profile.table().splitlines()[0]

    def test_eager_profile_scheduled_defaults_to_active(self):
        graph = line(8)
        result = run(MIS_ALG, graph, profile=True)
        for sample in result.profile.samples:
            assert sample.scheduled == sample.active
        assert result.profile.summary()["scheduled_share"] == 1.0


class _ChattyLiar(NodeProgram):
    """Claims quiescence, but node 1 sends in every round (idle or not).

    Its silent peers never write back, so from round 2 on node 1 has no
    wake reason — a send from that state breaks the idle contract.
    """

    quiescent_when_idle = True

    def __init__(self, node):
        self._chatty = node == 1

    def compose(self, ctx):
        if self._chatty:
            return {other: "spam" for other in ctx.active_neighbors}
        return {}

    def process(self, ctx, inbox):
        if ctx.round >= 6:
            ctx.set_output(0)
            ctx.terminate()


class _SilentLiar(NodeProgram):
    """Claims quiescence but terminates out of thin air at round 3."""

    quiescent_when_idle = True

    def compose(self, ctx):
        return {}

    def process(self, ctx, inbox):
        if ctx.round >= 3:
            ctx.set_output(0)
            ctx.terminate()


class TestQuiescenceViolation:
    def test_idle_send_is_rejected(self):
        engine = SyncEngine(
            line(6), lambda node: _ChattyLiar(node), policy=DEBUG
        )
        with pytest.raises(QuiescenceViolation, match="non-empty outbox"):
            engine.run()

    def test_idle_termination_is_rejected(self):
        engine = SyncEngine(line(6), lambda node: _SilentLiar(), policy=DEBUG)
        with pytest.raises(QuiescenceViolation):
            engine.run()

    def test_honest_programs_pass_debug(self):
        graph = sorted_path_ids(line(12))
        result = run(MIS_ALG, graph,
                     policy=ExecutionPolicy(schedule="quiescent-debug"))
        assert result.all_terminated


class TestScheduleConfig:
    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            ExecutionPolicy(schedule="lazy")

    def test_debug_supports_profiling(self):
        """The debug schedule profiles through the shared round loop:
        one sample per executed round, every active node scheduled."""
        result = run(MIS_ALG, sorted_path_ids(line(12)), profile=True,
                     policy=ExecutionPolicy(schedule="quiescent-debug"))
        samples = result.profile.samples
        assert [sample.round for sample in samples] == list(
            range(1, result.rounds_executed + 1)
        )
        assert sum(result.profile.message_counts()) == result.message_count
        assert result.message_count > 0
        assert all(sample.scheduled == sample.active for sample in samples)

    def test_round_limit_partial_still_works(self):
        for schedule in ("eager", "quiescent"):
            result = run(
                _SleeperAlgorithm(),
                line(5),
                policy=ExecutionPolicy(schedule=schedule),
                max_rounds=7,
                on_round_limit="partial",
            )
            assert result.rounds_executed == 7
            assert result.stuck is not None
            assert result.stuck.live_nodes == [1, 2, 3, 4, 5]
            for snapshot in result.stuck.snapshots.values():
                assert snapshot.last_inbox == {}


class _SleeperProgram(NodeProgram):
    quiescent_when_idle = True

    def compose(self, ctx):
        return {}

    def process(self, ctx, inbox):
        pass


class _SleeperAlgorithm:
    name = "sleeper"
    uses_predictions = False
    model = None

    def build_program(self):
        return _SleeperProgram()


class TestWakeAPI:
    def _context(self, seed=0):
        return NodeContext(1, frozenset({2}), n=2, d=2, delta=1, seed=seed)

    def test_wake_at_must_be_future(self):
        ctx = self._context()
        ctx.round = 4
        with pytest.raises(ValueError, match="not in the future"):
            ctx.wake_at(4)
        with pytest.raises(ValueError, match="not in the future"):
            ctx.wake_at(2)

    def test_request_wakeup_validates_delay(self):
        ctx = self._context()
        with pytest.raises(ValueError, match=">= 1"):
            ctx.request_wakeup(0)

    def test_earliest_request_wins(self):
        ctx = self._context()
        ctx.round = 1
        ctx.wake_at(8)
        ctx.wake_at(3)
        ctx.wake_at(5)
        assert ctx._wake_request == 3


class TestLazyRng:
    def test_not_built_until_accessed(self):
        ctx = NodeContext(7, frozenset(), n=1, d=1, delta=0, seed=42)
        assert ctx._rng is None
        stream = ctx.rng
        assert ctx._rng is stream

    def test_seeding_identical_to_eager_construction(self):
        ctx = NodeContext(7, frozenset(), n=1, d=1, delta=0, seed=42)
        reference = random.Random("42:7")
        assert [ctx.rng.random() for _ in range(5)] == [
            reference.random() for _ in range(5)
        ]

    def test_engine_never_builds_unused_streams(self):
        engine = SyncEngine(line(6), lambda node: _SleeperProgram(), max_rounds=3,
                            on_round_limit="partial")
        engine.run()
        assert all(ctx._rng is None for ctx in engine.contexts.values())


class TestFastModeReplays:
    def _plan(self):
        return FaultPlan(
            messages=MessageAdversary(duplicate_rate=1.0), seed=3
        )

    def test_fast_mode_keeps_bits_at_zero(self):
        graph = erdos_renyi(10, 0.4, seed=1)
        slow = run(MIS_ALG, graph, faults=self._plan(), seed=2)
        fast = run(MIS_ALG, graph, faults=self._plan(), seed=2, fast=True)
        assert slow.total_bits > 0
        # Regression: replay deliveries used to account bits in fast mode.
        assert fast.total_bits == 0
        assert fast.max_message_bits == 0
        assert fast.message_count == slow.message_count
        assert fast.outputs == slow.outputs


class TestEstimateBitsMemo:
    def test_numeric_identity_not_conflated(self):
        # 1, 1.0 and True are equal as dict keys but cost different bits;
        # the memo key must keep them apart.
        assert estimate_bits((1,)) != estimate_bits((1.0,))
        assert estimate_bits((True,)) != estimate_bits((1.0,))

    def test_repeated_payloads_are_stable(self):
        payload = {"k": [1, 2, 3], "tag": ("x", 2.5)}
        first = estimate_bits(payload)
        assert all(estimate_bits(payload) == first for _ in range(3))

    def test_unmarshallable_container_falls_back(self):
        class Custom:
            pass

        payload = (1, Custom())
        assert estimate_bits(payload) == estimate_bits(payload) > 0
