"""Template runs that interpret only the nodes the initialization leaves
undecided (``repro.core.initpass``).

The bar is bit identity with the full interpreted run — a ``SyncEngine``
built exactly as ``run()`` builds one for every node: the outputs in
termination order, the records, the round and message counters, the
bandwidth accounting, stuck reports and raised errors, and, for profiled
runs, the per-round message and live-node counts.  The hypothesis fuzz
draws graphs × predictions (including predictions that decide nobody) ×
every MIS template × schedule × ``fast`` × model and also asserts that
the by-index path ran wherever the MIS Initialization Algorithm decides
a node, and that ``mis_simple`` ran compiled — the pass, then the
``greedy-mis`` kernel over the undecided window — wherever it may.  The
ineligible runs below keep today's path and today's result.
"""

from __future__ import annotations

import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels
from repro.algorithms.coloring import (
    PaletteGreedyColoringAlgorithm,
    VertexColoringInitializationAlgorithm,
)
from repro.algorithms.matching import (
    GreedyMatchingAlgorithm,
    MatchingInitializationAlgorithm,
)
from repro.algorithms.mis import GreedyMISAlgorithm
from repro.algorithms.mis.initialization import (
    MISInitializationAlgorithm,
    MISInitializationProgram,
)
from repro.bench.algorithms import (
    mis_blackwhite_simple,
    mis_consecutive,
    mis_hardened_simple,
    mis_hedged,
    mis_interleaved,
    mis_parallel,
    mis_rooted_parallel,
    mis_rooted_simple,
    mis_simple,
)
from repro.bench.workloads import sorted_line
from repro.core import RunConfig, run
from repro.core.templates import SimpleTemplate
from repro.faults import FaultPlan
from repro.graphs import DistGraph, erdos_renyi, random_tree
from repro.graphs.rooted_trees import random_rooted_tree
from repro.graphs.window import GraphWindow
from repro.kernels import UnsupportedScheduleError, compiled_form
from repro.kernels.base import FrontierKernel, InitPass
from repro.kernels.matching import GreedyMatchingKernel
from repro.kernels.mis import mis_initialization_pass
from repro.obs import MemoryEventSink
from repro.predictions import noisy_predictions, perfect_predictions
from repro.problems import MIS
from repro.simulator import ExecutionPolicy, SyncEngine
from repro.simulator.engine import RoundLimitExceeded
from repro.simulator.metrics import RunResult
from repro.shard.plan import shard_view
from repro.simulator.models import CONGEST, LOCAL, ExecutionModel, strict_congest
from repro.simulator.transport import BandwidthExceeded, WindowTransport

#: Templates whose initialization is the MIS Initialization Algorithm.
WITH_PASS = (
    mis_simple,
    mis_consecutive,
    mis_interleaved,
    mis_parallel,
    mis_hedged,
    mis_blackwhite_simple,
)

#: Junk predictions: values a node may be handed that are not 0 or 1
#: (``True`` and ``1.0`` equal 1, so they count as predicting 1).
JUNK = (None, "1", "x", 1.0, 0.5, True, False, 2, -1, (1,))

#: The junk values that never equal 1: with only these, B decides nobody.
NEVER_ONE = tuple(value for value in JUNK if value != 1)

#: What a compiled ``mis_simple`` run names in ``result.compiled_slices``.
COMPILED = ("B", "R")

COUNTERS = (
    "rounds",
    "rounds_executed",
    "message_count",
    "total_bits",
    "max_message_bits",
    "bandwidth_violations",
)


def _full(factory, graph, predictions, config):
    """Today's path: one engine over every node, built as ``run()`` does."""
    algorithm = factory()
    return SyncEngine(
        graph,
        lambda node: algorithm.build_program(),
        predictions=predictions,
        model=config.model_for(algorithm),
        max_rounds=config.max_rounds,
        seed=config.effective_seed,
        profile=config.profile,
        faults=config.faults,
        on_round_limit=config.on_round_limit,
        fast=config.fast,
        policy=config.policy,
    ).run()


def _outcome(call):
    """A run's result, or the error it raised."""
    try:
        result = call()
    except (RoundLimitExceeded, BandwidthExceeded) as exc:
        return None, (type(exc), str(exc))
    return result, None


def _assert_same_outcome(factory, graph, predictions, config):
    """Both paths return identical results or raise identical errors;
    returns the result, if any."""
    mine, error = _outcome(lambda: run(factory(), graph, predictions, config=config))
    full, full_error = _outcome(lambda: _full(factory, graph, predictions, config))
    assert error == full_error
    if error is None:
        _assert_identical(mine, full)
    return mine


def _decided_by_interpreting(graph, predictions):
    """How many nodes the bare MIS Initialization program decides."""
    return len(
        SyncEngine(
            graph,
            lambda node: MISInitializationProgram(),
            predictions=predictions,
        )
        .run(stop_after=3)
        .outputs
    )


def _assert_identical(fast_path, full):
    assert list(fast_path.outputs.items()) == list(full.outputs.items())
    assert repr(fast_path.records) == repr(full.records)
    for name in COUNTERS:
        assert getattr(fast_path, name) == getattr(full, name), name
    assert (fast_path.stuck is None) == (full.stuck is None)
    if full.stuck is not None:
        mine, theirs = fast_path.stuck, full.stuck
        assert (mine.round, mine.live_nodes, mine.total_nodes, mine.reason) == (
            theirs.round,
            theirs.live_nodes,
            theirs.total_nodes,
            theirs.reason,
        )
        assert {
            node: (snap.round, snap.last_inbox, snap.has_output)
            for node, snap in mine.snapshots.items()
        } == {
            node: (snap.round, snap.last_inbox, snap.has_output)
            for node, snap in theirs.snapshots.items()
        }
    assert fast_path.kernel is None and full.kernel is None
    if full.profile is not None:
        samples = fast_path.profile.samples
        assert len(samples) == fast_path.rounds_executed
        assert [s.round for s in samples] == [s.round for s in full.profile.samples]
        assert [s.messages for s in samples] == full.profile.message_counts()
        assert [s.active for s in samples] == [s.active for s in full.profile.samples]
        assert sum(s.messages for s in samples) == fast_path.message_count
        # The pass's time is setup; the rounds keep the interpreted phases.
        assert fast_path.profile.phase_totals()["kernel"] == 0.0
        assert fast_path.profile.setup > 0.0


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(("gnp", "tree", "line", "isolated", "empty")))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    n = draw(st.integers(min_value=1, max_value=40))
    if kind == "gnp":
        graph = erdos_renyi(n, draw(st.sampled_from((0.05, 0.15, 0.3))), seed=seed)
    elif kind == "tree":
        graph = random_tree(n, seed=seed)
    elif kind == "line":
        graph = sorted_line(n)
    elif kind == "isolated":
        base = erdos_renyi(n, 0.2, seed=seed)
        adjacency = {node: base.neighbors(node) for node in base.nodes}
        for extra in range(n + 1, n + 1 + draw(st.integers(1, 4))):
            adjacency[extra] = ()
        graph = DistGraph(adjacency)
    else:
        graph = DistGraph({})
    noise = draw(st.sampled_from(("exact", "noisy", "junk", "nobody")))
    predictions = perfect_predictions(MIS, graph, seed=seed)
    if noise == "nobody":
        # B decides nobody: all zeros or junk that never equals 1, with
        # some (or all) keys missing.
        junk = draw(st.booleans())
        predictions = {
            node: draw(st.sampled_from(NEVER_ONE)) if junk else 0
            for node in graph.nodes
        }
        for node in graph.nodes[: draw(st.integers(0, graph.n))]:
            del predictions[node]
    elif noise == "noisy":
        rate = draw(st.sampled_from((0.05, 0.2, 0.6)))
        predictions = noisy_predictions(MIS, graph, rate, seed=seed, base=predictions)
    elif noise == "junk":
        predictions = dict(predictions)
        for node in graph.nodes:
            if draw(st.booleans()):
                predictions[node] = draw(st.sampled_from(JUNK))
        for node in graph.nodes[: draw(st.integers(0, 2))]:
            del predictions[node]
    return graph, predictions


class TestDifferentialFuzz:
    @given(
        instances(),
        st.sampled_from(WITH_PASS + (mis_hardened_simple,)),
        st.sampled_from(("eager", "quiescent")),
        st.booleans(),
        st.sampled_from((LOCAL, CONGEST)),
        st.booleans(),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_full_interpreted_run(
        self, instance, factory, schedule, fast, model, profile, seed
    ):
        graph, predictions = instance
        config = RunConfig(
            seed=seed,
            fast=fast,
            model=model,
            profile=profile,
            policy=ExecutionPolicy(schedule=schedule),
        )
        result = run(factory(), graph, predictions, config=config)
        _assert_identical(result, _full(factory, graph, predictions, config))
        decided = _decided_by_interpreting(graph, predictions)
        expected = decided if factory in WITH_PASS else 0
        if factory is mis_simple and not profile and graph.nodes:
            assert result.compiled_slices == COMPILED
            assert result.init_decided == decided
        else:
            assert result.compiled_slices == ()
            assert result.init_decided == expected

    @given(
        instances(),
        st.sampled_from(("raise", "partial")),
        st.sampled_from(("eager", "quiescent")),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_budget_of_the_initialization_plus_the_window(
        self, instance, mode, schedule, short
    ):
        """B's 3 rounds plus the window's node count compile; one round
        fewer keeps today's path.  Both match the full run."""
        graph, predictions = instance
        window = graph.n - _decided_by_interpreting(graph, predictions)
        config = RunConfig(
            seed=1,
            max_rounds=3 + window - short,
            on_round_limit=mode,
            policy=ExecutionPolicy(schedule=schedule),
        )
        result = _assert_same_outcome(mis_simple, graph, predictions, config)
        if result is not None:
            compiled = not short and graph.nodes
            assert result.compiled_slices == (COMPILED if compiled else ())

    @given(
        instances(),
        st.sampled_from(WITH_PASS),
        st.sampled_from((3, 4, 6)),
        st.sampled_from(("raise", "partial")),
        st.sampled_from(("eager", "quiescent")),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_limits_match(self, instance, factory, limit, mode, schedule):
        graph, predictions = instance
        config = RunConfig(
            seed=1,
            max_rounds=limit,
            on_round_limit=mode,
            policy=ExecutionPolicy(schedule=schedule),
        )
        _assert_same_outcome(factory, graph, predictions, config)

    @given(instances(), st.sampled_from(WITH_PASS), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_strict_congest_matches(self, instance, factory, factor):
        graph, predictions = instance
        config = RunConfig(seed=2, model=strict_congest(factor=factor))
        result = _assert_same_outcome(factory, graph, predictions, config)
        if result is not None and factory is mis_simple and graph.nodes:
            # A message over the strict budget raises; one that fits
            # compiles.
            assert result.compiled_slices == COMPILED


# ----------------------------------------------------------------------
# The table of compiled forms, keyed by exact program class
# ----------------------------------------------------------------------
#: Every entry of the table: the algorithm whose program it compiles,
#: the kind of its form, a Simple Template that runs the program in the
#: slot the form replaces, and the slices that template compiles (the
#: matching and coloring initializations have no pass yet).
FORMS = {
    MISInitializationAlgorithm: (
        InitPass,
        lambda b: SimpleTemplate(b, GreedyMISAlgorithm()),
        COMPILED,
    ),
    GreedyMISAlgorithm: (
        FrontierKernel,
        lambda r: SimpleTemplate(MISInitializationAlgorithm(), r),
        COMPILED,
    ),
    GreedyMatchingAlgorithm: (
        FrontierKernel,
        lambda r: SimpleTemplate(MatchingInitializationAlgorithm(), r),
        (),
    ),
    PaletteGreedyColoringAlgorithm: (
        FrontierKernel,
        lambda r: SimpleTemplate(VertexColoringInitializationAlgorithm(), r),
        (),
    ),
}


def _variant(algorithm_class):
    """``algorithm_class``, building a subclass of its program that
    overrides nothing."""
    program_class = type(algorithm_class().build_program())
    variant = type("Variant", (program_class,), {})
    return type(
        algorithm_class.__name__,
        (algorithm_class,),
        {"build_program": lambda self: variant()},
    )()


class TestTheTable:
    def test_every_entry_is_listed(self):
        assert set(repro.kernels._table()) == {
            type(algorithm().build_program()) for algorithm in FORMS
        }

    @pytest.mark.parametrize("algorithm", FORMS, ids=lambda a: a.__name__)
    def test_exact_program_class(self, algorithm):
        kind, template, slices = FORMS[algorithm]
        program = algorithm().build_program()
        form = compiled_form(program, kind)
        assert form is not None and form.program_class is type(program)
        other = FrontierKernel if kind is InitPass else InitPass
        assert compiled_form(program, other) is None
        variant = _variant(algorithm)
        assert compiled_form(variant.build_program(), kind) is None

        graph = erdos_renyi(50, 0.1, seed=5)
        vectorized = ExecutionPolicy(schedule="vectorized")
        refusal = (
            "no vectorized kernel is registered for program {}; compiled "
            "kernels exist for: greedy-coloring, greedy-matching, greedy-mis"
        )
        with pytest.raises(UnsupportedScheduleError) as refused:
            run(variant, graph, {}, policy=vectorized)
        assert str(refused.value) == refusal.format("Variant")
        if kind is InitPass:
            # A pass is no kernel: the bare initialization keeps its refusal.
            with pytest.raises(UnsupportedScheduleError) as refused:
                run(algorithm(), graph, {}, policy=vectorized)
            assert str(refused.value) == refusal.format(type(program).__name__)
        else:
            assert run(algorithm(), graph, {}, policy=vectorized).kernel == form.name

        # No node is predicted, so B decides nobody: only the variant's
        # missing entry keeps the template's slices from compiling.
        _assert_todays_path(lambda: template(variant), (graph, {}))
        compiled = run(template(algorithm()), graph, {}, seed=3)
        assert compiled.compiled_slices == slices


# ----------------------------------------------------------------------
# The pass and the window
# ----------------------------------------------------------------------
class TestPass:
    def test_registered_for_the_exact_program_class(self):
        assert compiled_form(MISInitializationProgram(), InitPass) is not None

        class Variant(MISInitializationProgram):
            pass

        assert compiled_form(Variant(), InitPass) is None

    def test_matches_the_interpreted_initialization(self):
        graph = erdos_renyi(80, 0.06, seed=4)
        predictions = noisy_predictions(MIS, graph, 0.3, seed=4)
        decided = mis_initialization_pass(graph.csr, predictions)
        interpreted = SyncEngine(
            graph,
            lambda node: MISInitializationProgram(),
            predictions=predictions,
        ).run(stop_after=3)
        ids = graph.csr.ids
        by_index = {
            ids[index]: (decided.rounds[index], decided.outputs[index])
            for index in range(graph.csr.n)
            if decided.rounds[index]
        }
        assert by_index == {
            node: (interpreted.termination_round(node), output)
            for node, output in interpreted.outputs.items()
        }

    def test_decides_nobody_without_a_prediction_of_one(self):
        """Nobody is decided, and round 1 — every node's prediction to
        every neighbor — is all B sends."""
        graph = erdos_renyi(20, 0.2, seed=1)
        predictions = {node: 0 for node in graph.nodes[1:]}
        decided = mis_initialization_pass(graph.csr, predictions)
        assert decided.rounds == bytearray(graph.n)
        round_one = dict(enumerate(map(predictions.get, graph.nodes)))
        assert decided.broadcasts == {1: round_one, 2: {}}

    def test_exact_predictions_leave_an_empty_window(self):
        graph = erdos_renyi(60, 0.08, seed=2)
        predictions = perfect_predictions(MIS, graph, seed=2)
        config = RunConfig(profile=True)
        result = run(mis_simple(), graph, predictions, config=config)
        assert result.init_decided == graph.n
        _assert_identical(result, _full(mis_simple, graph, predictions, config))

    def test_window_delegates_to_the_parent(self):
        graph = erdos_renyi(30, 0.2, seed=3)
        window = GraphWindow(graph, graph.nodes[5:9])
        assert window.nodes == graph.nodes[5:9]
        assert (window.n, window.d, window.delta) == (graph.n, graph.d, graph.delta)
        for node in window.nodes:
            assert window.neighbors(node) == graph.neighbors(node)


class TestWindowTransport:
    """The boundary rules the MIS pass alone cannot exercise: a decided
    neighbor and a window node terminating in the same round, a send
    into the decided region in its receiver's last round, and inbox
    order (the MIS Initialization program reads its inbox order-free)."""

    @staticmethod
    def _transport():
        result = RunResult(model=CONGEST)
        transport = WindowTransport(
            [5, 7],
            result,
            CONGEST,
            10,
            False,
            owned=frozenset({5, 7}),
            inbound={1: [(9, 0, 5, "b"), (2, 0, 5, "a")]},
            events={2: [("terminate", 4, 1), ("terminate", 9, 0)]},
            departures={2: 3, 4: 2, 9: 2},
        )
        return transport, result

    def test_decided_messages_land_in_ascending_sender_order(self):
        transport, result = self._transport()
        transport.round = 1
        transport.deposit(7, 5, "c")
        transport.sync(1, {5, 7})
        assert list(transport.inboxes[5].items()) == [(2, "a"), (7, "c"), (9, "b")]
        assert result.message_count == 1  # the pass accounted the others

    def test_events_publish_in_one_ascending_order(self):
        transport, _ = self._transport()
        assert transport.boundary_events(2, [("terminate", 5, 0)]) == [
            ("terminate", 4, 1),
            ("terminate", 5, 0),
            ("terminate", 9, 0),
        ]
        assert transport.boundary_events(3, [("terminate", 7, 1)]) == [
            ("terminate", 7, 1)
        ]

    def test_sends_into_the_decided_region_count_while_it_is_active(self):
        transport, result = self._transport()
        assert 4 in transport.remote and 5 not in transport.remote
        transport.round = 3
        transport.export(5, 2, "x")  # 2 terminates at the end of round 3
        transport.export(5, 4, "x")  # 4 terminated in round 2
        assert (result.message_count, result.total_bits) == (1, 8)
        transport.round = 4
        transport.export(5, 2, "x")
        assert result.message_count == 1


# ----------------------------------------------------------------------
# Compiled runs: the pass, then the greedy-mis kernel over the window
# ----------------------------------------------------------------------
def _noisy_instance(seed=5, n=50):
    graph = erdos_renyi(n, 0.1, seed=seed)
    return graph, noisy_predictions(MIS, graph, 0.2, seed=seed)


def _assert_compiled(instance=None, **overrides):
    graph, predictions = instance or _noisy_instance()
    config = RunConfig(seed=3).with_overrides(**overrides)
    result = run(mis_simple(), graph, predictions, config=config)
    assert result.compiled_slices == COMPILED
    _assert_identical(result, _full(mis_simple, graph, predictions, config))
    return result


class TestCompiledRuns:
    @staticmethod
    def _engines(graph, predictions):
        """The engines a ``mis_simple`` run builds: (graph, schedule)."""
        built = []
        construct = SyncEngine.__init__

        def recording(engine, view, *args, **kwargs):
            construct(engine, view, *args, **kwargs)
            built.append((view, engine.policy.schedule))

        with mock.patch.object(SyncEngine, "__init__", recording):
            result = run(mis_simple(), graph, predictions, seed=3)
        return result, built

    def test_the_kernel_runs_over_exactly_the_window(self):
        graph, predictions = _noisy_instance()
        result, built = self._engines(graph, predictions)
        [(view, schedule)] = built
        assert isinstance(view, GraphWindow) and view.parent is graph
        assert schedule == "vectorized"
        assert len(view.nodes) == graph.n - result.init_decided > 0
        decided = mis_initialization_pass(graph.csr, predictions)
        assert view.nodes == tuple(
            node
            for index, node in enumerate(graph.nodes)
            if not decided.rounds[index]
        )
        assert result.kernel is None and result.compiled_slices == COMPILED

    def test_exact_predictions_run_the_kernel_over_an_empty_window(self):
        graph = erdos_renyi(60, 0.08, seed=2)
        predictions = perfect_predictions(MIS, graph, seed=2)
        result, built = self._engines(graph, predictions)
        assert [(view.nodes, schedule) for view, schedule in built] == [
            ((), "vectorized")
        ]
        assert result.init_decided == graph.n
        _assert_compiled(instance=(graph, predictions))

    def test_pass_that_decides_nobody(self):
        graph, _ = _noisy_instance()
        zeros = {node: 0 for node in graph.nodes}
        result = _assert_compiled(instance=(graph, zeros))
        assert result.init_decided == 0

    def test_component_shard_view(self):
        """A component shard's view pins its parent's ``n``, which sets
        the CONGEST budget of B's messages and of the kernel's alike."""
        parent = erdos_renyi(1000, 0.001, seed=3)
        largest = max(parent.csr.components(), key=len)
        view = shard_view(parent, [parent.csr.ids[index] for index in largest])
        for predictions in (
            {node: 0 for node in view.nodes},
            noisy_predictions(MIS, view, 0.3, seed=1),
        ):
            _assert_compiled(
                instance=(view, predictions),
                model=ExecutionModel("CONGEST", bandwidth_factor=2),
            )

    def test_a_final_kernel_that_does_not_chain(self):
        """The matching kernel retires neighborless nodes at setup by
        their full degree, so it does not chain: MIS initialization plus
        greedy matching keeps the interpreted window."""

        def factory():
            return SimpleTemplate(
                MISInitializationAlgorithm(), GreedyMatchingAlgorithm()
            )

        assert not GreedyMatchingKernel.chains
        for seed in range(6):
            graph = erdos_renyi(40, 0.1, seed=seed)
            predictions = noisy_predictions(MIS, graph, 0.3, seed=seed)
            config = RunConfig(seed=3)
            result = run(factory(), graph, predictions, config=config)
            assert result.compiled_slices == () and result.init_decided > 0
            _assert_identical(result, _full(factory, graph, predictions, config))

    def test_profiled_runs_keep_todays_path(self):
        graph, predictions = _noisy_instance()
        config = RunConfig(seed=3, profile=True)
        result = run(mis_simple(), graph, predictions, config=config)
        assert result.compiled_slices == () and result.init_decided > 0
        _assert_identical(result, _full(mis_simple, graph, predictions, config))
        zeros = {node: 0 for node in graph.nodes}
        _assert_todays_path(instance=(graph, zeros), profile=True)

    @pytest.mark.parametrize("decides", (True, False))
    def test_strict_congest_over_budget_join(self, decides):
        """At factor 1 the 16-bit ``"in"`` is over the 6-bit budget, as B's
        message or the kernel's; the run keeps today's path and raises the
        interpreted error."""
        graph, predictions = _noisy_instance(n=40)
        if not decides:
            predictions = {node: 0 for node in graph.nodes}
        config = RunConfig(seed=3, model=strict_congest(factor=1))
        assert config.model.bandwidth_bits(graph.n) < 16
        mine, error = _outcome(
            lambda: run(mis_simple(), graph, predictions, config=config)
        )
        _, full_error = _outcome(
            lambda: _full(mis_simple, graph, predictions, config)
        )
        assert mine is None and error[0] is BandwidthExceeded
        assert error == full_error


# ----------------------------------------------------------------------
# Ineligible runs keep today's path and today's result
# ----------------------------------------------------------------------
def _assert_todays_path(factory=mis_simple, instance=None, **overrides):
    graph, predictions = instance or _noisy_instance()
    config = RunConfig(seed=3).with_overrides(**overrides)
    result = run(factory(), graph, predictions, config=config)
    assert result.init_decided == 0 and result.compiled_slices == ()
    _assert_identical(result, _full(factory, graph, predictions, config))
    return result


class TestIneligibleRuns:
    def test_the_same_instance_is_eligible(self):
        graph, predictions = _noisy_instance()
        assert run(mis_simple(), graph, predictions, seed=3).init_decided > 0

    def test_faults(self):
        plan = FaultPlan.from_crash_rounds({4: 2, 9: 5})
        _assert_todays_path(faults=plan, on_round_limit="partial")

    def test_sinks_and_trace(self):
        graph, predictions = _noisy_instance()
        reference = _full(mis_simple, graph, predictions, RunConfig(seed=3))
        sink = MemoryEventSink()
        with_sink = run(mis_simple(), graph, predictions, seed=3, sinks=[sink])
        traced = run(mis_simple(), graph, predictions, seed=3, trace=True)
        for result in (with_sink, traced):
            assert result.init_decided == 0
            _assert_identical(result, reference)
        assert sink.entries and traced.trace is not None

    @pytest.mark.parametrize("schedule", ("async", "quiescent-debug"))
    def test_other_schedules(self, schedule):
        _assert_todays_path(policy=ExecutionPolicy(schedule=schedule))

    def test_vectorized(self):
        graph, predictions = _noisy_instance()
        with pytest.raises(UnsupportedScheduleError):
            run(
                mis_simple(),
                graph,
                predictions,
                policy=ExecutionPolicy(schedule="vectorized"),
            )
        policy = ExecutionPolicy(schedule="vectorized", fallback="interpret")
        with pytest.warns(RuntimeWarning, match="falling back"):
            result = run(mis_simple(), graph, predictions, seed=3, policy=policy)
        assert result.init_decided == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reference = _full(
                mis_simple, graph, predictions, RunConfig(seed=3, policy=policy)
            )
        _assert_identical(result, reference)

    def test_deadline(self):
        _assert_todays_path(policy=ExecutionPolicy(deadline_s=60.0))

    def test_round_budget_shorter_than_the_initialization(self):
        _assert_todays_path(max_rounds=2, on_round_limit="partial")
        graph, predictions = _noisy_instance()
        with pytest.raises(RoundLimitExceeded) as mine:
            run(mis_simple(), graph, predictions, seed=3, max_rounds=2)
        with pytest.raises(RoundLimitExceeded) as full:
            _full(mis_simple, graph, predictions, RunConfig(seed=3, max_rounds=2))
        assert str(mine.value) == str(full.value)

    def test_initialization_without_a_pass(self):
        _assert_todays_path(mis_hardened_simple)
        tree = random_rooted_tree(40, seed=2)
        predictions = noisy_predictions(MIS, tree, 0.2, seed=2)
        for factory in (mis_rooted_simple, mis_rooted_parallel):
            _assert_todays_path(factory, instance=(tree, predictions))

    def test_strict_congest_over_budget_initialization_message(self):
        """A decided node's round-1 message over a strict budget: the
        error names the first over-budget edge in compose order."""
        graph = sorted_line(30)
        predictions = perfect_predictions(MIS, graph, seed=1)
        predictions[3] = "over budget"
        config = RunConfig(model=strict_congest(factor=1))
        with pytest.raises(BandwidthExceeded) as mine:
            run(mis_simple(), graph, predictions, config=config)
        with pytest.raises(BandwidthExceeded) as full:
            _full(mis_simple, graph, predictions, config)
        assert str(mine.value) == str(full.value)
        assert "from 3 to 2 in round 1" in str(mine.value)
