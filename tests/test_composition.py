"""Tests for the composition machinery (SubContext, SlicedProgram)."""

import pickle
import sys
import threading

import pytest

from repro.algorithms.mis.greedy import GreedyMISAlgorithm
from repro.bench.algorithms import mis_interleaved, mis_parallel, mis_simple
from repro.bench.workloads import corrupted_segment_mis
from repro.core import run
from repro.core.composition import (
    Knowledge,
    Slice,
    SlicedProgram,
    SubContext,
    _shared_plan,
)
from repro.core.templates import SimpleTemplate
from repro.graphs import erdos_renyi, line, ring, sorted_path_ids
from repro.predictions import noisy_predictions
from repro.problems.mis import MIS
from repro.simulator import ExecutionPolicy, NodeProgram, SyncEngine
from repro.simulator.context import NodeContext


def make_context(**overrides):
    defaults = dict(
        node_id=1, neighbors=frozenset({2, 3}), n=3, d=3, delta=2
    )
    defaults.update(overrides)
    return NodeContext(**defaults)


class TestSubContext:
    def test_delegates_knowledge(self):
        base = make_context(prediction=1)
        sub = SubContext(base)
        assert sub.node_id == 1
        assert sub.neighbors == frozenset({2, 3})
        assert sub.prediction == 1
        assert sub.n == 3 and sub.d == 3 and sub.delta == 2
        assert sub.degree == 2

    def test_private_round_counter(self):
        base = make_context()
        base.round = 10
        sub = SubContext(base)
        sub.round = 2
        assert base.round == 10 and sub.round == 2

    def test_passthrough_outputs_reach_base(self):
        base = make_context()
        sub = SubContext(base)
        sub.set_output(5)
        sub.terminate()
        assert base.output == 5
        assert base.terminate_requested
        assert sub.finished

    def test_intercepted_outputs_stay_local(self):
        base = make_context()
        sub = SubContext(base, intercept_outputs=True)
        sub.set_output(7)
        sub.terminate()
        assert base.output is None
        assert not base.terminate_requested
        assert sub.finished
        assert sub.stored_result == 7

    def test_intercepted_parts(self):
        base = make_context()
        sub = SubContext(base, intercept_outputs=True)
        sub.set_output_part("a", 1)
        sub.set_output_part("b", 2)
        assert sub.stored_result == {"a": 1, "b": 2}
        assert sub.output_part("a") == 1
        assert not base.has_output

    def test_local_maximum_follows_active_set(self):
        base = make_context(node_id=5, neighbors=frozenset({2, 9}))
        sub = SubContext(base)
        assert not sub.is_local_maximum()
        base.active_neighbors.discard(9)
        assert sub.is_local_maximum()

    def test_copies_fixed_knowledge_and_reads_the_rest_through(self):
        base = make_context(prediction=1, attrs={"pos": (0, 1)})
        sub = SubContext(base)
        assert sub.attrs is base.attrs
        assert sub.active_neighbors is base.active_neighbors
        assert sub.neighbor_outputs is base.neighbor_outputs
        assert sub.rng is base.rng
        base.neighbor_outputs[2] = 0
        assert sub.neighbor_outputs == {2: 0}
        with pytest.raises(AttributeError):
            sub.phi  # components see no delay bound, as before
        with pytest.raises(AttributeError):
            sub.unknown = 1


class _Counter(NodeProgram):
    """Records the virtual rounds it was driven at."""

    def __init__(self, log, tag):
        self._log = log
        self._tag = tag

    def process(self, ctx, inbox):
        self._log.append((self._tag, ctx.round))


class _FinishAt(NodeProgram):
    def __init__(self, at_round, output):
        self._at = at_round
        self._output = output

    def process(self, ctx, inbox):
        if ctx.round >= self._at:
            ctx.set_output(self._output)
            ctx.terminate()


class TestSlicedProgram:
    def test_sequential_slices_get_fresh_rounds(self):
        log = []

        def schedule(ctx):
            yield Slice("a", 2, lambda host: _Counter(log, "a"))
            yield Slice("b", None, lambda host: _FinishAt(2, "done"))

        graph = line(1)
        result = SyncEngine(graph, lambda v: SlicedProgram(schedule)).run()
        assert log == [("a", 1), ("a", 2)]
        assert result.outputs[1] == "done"
        assert result.rounds == 4  # 2 for slice a + 2 for slice b

    def test_resume_keeps_round_counter(self):
        log = []

        def schedule(ctx):
            yield Slice("u", 2, lambda host: _Counter(log, "u"), resume="u")
            yield Slice("x", 1, lambda host: _Counter(log, "x"))
            yield Slice("u", 2, lambda host: _Counter(log, "u"), resume="u")
            yield Slice("end", None, lambda host: _FinishAt(1, 0))

        SyncEngine(line(1), lambda v: SlicedProgram(schedule)).run()
        assert [entry for entry in log if entry[0] == "u"] == [
            ("u", 1),
            ("u", 2),
            ("u", 3),
            ("u", 4),
        ]
        assert ("x", 1) in log

    def test_parallel_slice_tags_and_intercepts(self):
        class Talker(NodeProgram):
            def compose(self, ctx):
                return {other: f"hi-{ctx.node_id}" for other in ctx.active_neighbors}

            def process(self, ctx, inbox):
                pass

        class Secret(NodeProgram):
            def compose(self, ctx):
                return {other: "psst" for other in ctx.active_neighbors}

            def process(self, ctx, inbox):
                if ctx.round == 2:
                    ctx.set_output("secret-result")
                    ctx.terminate()

        emitted = {}

        class Emit(NodeProgram):
            def process(self, ctx, inbox):
                emitted[ctx.node_id] = ctx  # inspect below

        def schedule(ctx):
            yield Slice(
                "par",
                3,
                lambda host: Talker(),
                parallel_builder=lambda host: Secret(),
            )
            yield Slice(
                "emit",
                None,
                lambda host: _FinishAt(1, host.last_parallel_result),
            )

        result = SyncEngine(line(2), lambda v: SlicedProgram(schedule)).run()
        assert result.outputs == {1: "secret-result", 2: "secret-result"}

    def test_exhausted_schedule_raises(self):
        def schedule(ctx):
            yield Slice("only", 1, lambda host: _Counter([], "o"))

        with pytest.raises(RuntimeError, match="exhausted"):
            SyncEngine(line(1), lambda v: SlicedProgram(schedule)).run()

    def test_early_termination_skips_rest(self):
        log = []

        def schedule(ctx):
            yield Slice("a", 5, lambda host: _FinishAt(1, "early"))
            yield Slice("b", None, lambda host: _Counter(log, "b"))

        result = SyncEngine(line(1), lambda v: SlicedProgram(schedule)).run()
        assert result.outputs[1] == "early"
        assert result.rounds == 1
        assert log == []


def _observables(result):
    return (
        result.outputs,
        repr(result.records),
        result.rounds,
        result.rounds_executed,
        result.message_count,
        result.total_bits,
    )


class TestSharedPlan:
    """Every host of a run reads one plan of its template's schedule."""

    def test_hosts_read_the_same_slices(self):
        graph = erdos_renyi(40, 0.1, seed=2)
        algorithm = mis_simple()
        engine = SyncEngine(
            graph,
            lambda node: algorithm.build_program(),
            predictions=noisy_predictions(MIS, graph, 0.3, seed=1),
        )
        engine.run(stop_after=1)
        hosts = list(engine.programs.values())
        first, second = hosts[0], hosts[-1]
        assert first._plan is second._plan
        assert first._plan.get(0) is second._plan.get(0)
        assert first._plan.get(first._index) is second._plan.get(second._index)

    def test_per_node_schedules_plan_each_node_alone(self):
        def schedule(ctx):
            yield Slice("a", None, lambda host: _FinishAt(1, ctx.node_id))

        engine = SyncEngine(line(3), lambda v: SlicedProgram(schedule))
        result = engine.run()
        assert result.outputs == {1: 1, 2: 2, 3: 3}
        plans = {id(host._plan) for host in engine.programs.values()}
        assert len(plans) == 3

    @pytest.mark.parametrize("factory", (mis_interleaved, mis_parallel))
    def test_reused_instance_matches_fresh_instances(self, factory):
        algorithm = factory()
        for n in (50, 200, 50):
            graph = sorted_path_ids(line(n))
            predictions = corrupted_segment_mis(graph, n // 2, seed=n)
            reused = run(algorithm, graph, predictions, seed=3)
            fresh = run(factory(), graph, predictions, seed=3)
            assert _observables(reused) == _observables(fresh), n

    def test_reused_instance_follows_the_delay_bound(self):
        algorithm = mis_interleaved()
        graph = erdos_renyi(30, 0.15, seed=4)
        predictions = noisy_predictions(MIS, graph, 0.4, seed=4)
        for phi in (0, 2, 0):
            policy = ExecutionPolicy(schedule="async", phi=phi)
            reused = run(algorithm, graph, predictions, policy=policy, seed=1)
            fresh = run(mis_interleaved(), graph, predictions, policy=policy, seed=1)
            assert _observables(reused) == _observables(fresh), phi

    def test_template_pickles_the_same_after_a_run(self):
        algorithm = mis_interleaved()
        before = pickle.dumps(algorithm, protocol=4)
        graph = erdos_renyi(30, 0.15, seed=5)
        predictions = noisy_predictions(MIS, graph, 0.4, seed=5)
        engine = SyncEngine(
            graph, lambda node: algorithm.build_program(), predictions=predictions
        )
        expected = engine.run()
        # The run's plan is still alive (the engine holds its hosts).
        assert pickle.dumps(algorithm, protocol=4) == before
        clone = pickle.loads(before)
        assert _observables(run(clone, graph, predictions)) == _observables(expected)

    def test_a_failing_schedule_fails_every_run_alike(self):
        # Greedy declares no round bound, so B cannot be scheduled.
        algorithm = SimpleTemplate(GreedyMISAlgorithm(), GreedyMISAlgorithm())
        graph = line(4)
        predictions = {node: 0 for node in graph.nodes}
        with pytest.raises(ValueError, match="declares no round bound") as first:
            run(algorithm, graph, predictions)
        # ``first`` keeps the failed run's hosts, and so its plan, alive.
        with pytest.raises(ValueError, match="declares no round bound"):
            run(algorithm, graph, predictions)
        assert first.value is not None

    def test_concurrent_first_use_shares_one_plan_and_its_slices(self):
        def schedule(owner, knowledge):
            phase = 0
            while True:
                phase += 1
                # Hand the interpreter to another thread mid-step: without
                # the plan's lock a second thread would resume the running
                # generator and raise ValueError.
                threading.Event().wait(0.0001)
                yield Slice(f"s{phase}", phase, lambda host: NodeProgram())

        owner = object()
        ctx = make_context(n=10, d=10, delta=2)
        seen = []
        errors = []
        workers = 8
        start = threading.Barrier(workers)

        def reader():
            start.wait()
            try:
                plan = _shared_plan(schedule, owner, ctx)
                seen.append((plan, [plan.get(index) for index in range(60)]))
            except Exception as exc:  # the failure this test guards against
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(seen) == workers
        plan, slices = seen[0]
        assert plan._args == (owner, Knowledge(10, 2, 10, 0))
        for other_plan, other_slices in seen:
            assert other_plan is plan
            assert all(a is b for a, b in zip(other_slices, slices))
        assert [entry.duration for entry in slices] == list(range(1, 61))


class TestRoundupHelper:
    def test_roundup(self):
        from repro.core.templates import _roundup

        assert _roundup(5, 2) == 6
        assert _roundup(4, 2) == 4
        assert _roundup(0, 2) == 2
        assert _roundup(7, 1) == 7
        assert _roundup(7, 3) == 9
