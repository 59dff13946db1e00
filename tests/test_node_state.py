"""Per-node run state: engine lifetime, allocation, and the records view.

An engine's stages reach it through a weak proxy, so a finished engine is
freed by reference counting alone; its per-node state is a slotted
context plus the program, with lazily built neighbor sets; and per-node
outcomes live in columns behind a read-only ``result.records`` mapping.
These tests pin all three.  The allocation bounds count objects tracked
by Python's cyclic collector, which differ between Python versions.
"""

import gc
import pickle
import weakref
from collections import Counter

import pytest

from repro.algorithms.mis.greedy import GreedyMISAlgorithm, GreedyMISProgram
from repro.bench.algorithms import mis_simple
from repro.core import run
from repro.faults import FaultPlan
from repro.graphs import erdos_renyi, preorder_kary_tree, random_tree
from repro.predictions import noisy_predictions, perfect_predictions
from repro.problems.mis import MIS
from repro.shard.edgecut import run_edgecut
from repro.simulator import (
    ExecutionPolicy,
    NodeRecord,
    NodeRecords,
    RunResult,
    SyncEngine,
)

INTERPRETED = ("eager", "quiescent", "quiescent-debug", "async")
SCHEDULES = INTERPRETED + ("vectorized",)


class _CollectorOff:
    """Disables the cyclic collector inside a ``with`` block."""

    def __enter__(self):
        gc.collect()
        self._was_enabled = gc.isenabled()
        gc.disable()
        return self

    def __exit__(self, *exc):
        if self._was_enabled:
            gc.enable()


def _tracked_by_type():
    return Counter(type(obj).__name__ for obj in gc.get_objects())


def _warm_tree(n, seed=3):
    graph = random_tree(n, seed=seed)
    for node in graph.nodes:
        graph.neighbors(node)  # cache the neighbor frozensets
    return graph


def _bare_engine(graph, schedule, **kwargs):
    return SyncEngine(
        graph,
        lambda node: GreedyMISProgram(),
        policy=ExecutionPolicy(schedule=schedule),
        **kwargs,
    )


class TestEngineLifetime:
    """Reference counting alone frees a finished engine."""

    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_finished_engine_dies_without_the_collector(self, schedule):
        graph = _warm_tree(300)
        with _CollectorOff():
            engine = _bare_engine(graph, schedule)
            engine.run()
            ref = weakref.ref(engine)
            program_refs = [weakref.ref(p) for p in engine.programs.values()]
            del engine
            assert ref() is None
            assert all(program_ref() is None for program_ref in program_refs)

    def test_faulted_engine_dies_without_the_collector(self):
        graph = erdos_renyi(60, 0.1, seed=2)
        plan = FaultPlan.from_crash_rounds({node: 1 for node in graph.nodes[::7]})
        with _CollectorOff():
            engine = SyncEngine(
                graph,
                lambda node: GreedyMISProgram(),
                faults=plan,
                max_rounds=200,
                on_round_limit="partial",
            )
            result = engine.run()
            assert any(record.crashed for record in result.records.values())
            ref = weakref.ref(engine)
            del engine
            assert ref() is None

    # Each garbage check runs its call once first, so lazy imports and
    # first-use caches are paid outside the counted window.

    @pytest.mark.parametrize("schedule", INTERPRETED)
    def test_run_leaves_no_cyclic_garbage(self, schedule):
        graph = erdos_renyi(120, 0.05, seed=3)
        predictions = perfect_predictions(MIS, graph, seed=1)
        policy = ExecutionPolicy(schedule=schedule)
        run(mis_simple(), graph, predictions, policy=policy)
        with _CollectorOff():
            result = run(mis_simple(), graph, predictions, policy=policy)
            assert result.all_terminated
            del result
            assert gc.collect() == 0

    def test_faulted_run_leaves_no_cyclic_garbage(self):
        graph = erdos_renyi(120, 0.05, seed=3)
        predictions = perfect_predictions(MIS, graph, seed=1)
        plan = FaultPlan.from_crash_rounds({5: 2, 17: 3})

        def faulted_run():
            return run(
                mis_simple(), graph, predictions, faults=plan,
                on_round_limit="partial",
            )

        faulted_run()
        with _CollectorOff():
            result = faulted_run()
            del result
            assert gc.collect() == 0

    def test_run_edgecut_leaves_no_cyclic_garbage(self):
        graph = preorder_kary_tree(4, 4)
        run_edgecut(GreedyMISAlgorithm(), graph, shard_count=2)
        with _CollectorOff():
            result = run_edgecut(GreedyMISAlgorithm(), graph, shard_count=2)
            assert result.all_terminated
            del result
            assert gc.collect() == 0


class TestTrackedObjectsPerNode:
    """Construction allocates at most the context and the program per node.

    Growth is measured at two sizes and compared, so objects a run
    allocates once (caches, the engine's own stages) cancel out.
    """

    SIZES = (1000, 3000)

    def _growth_per_node(self, schedule, run):
        def grown(n):
            graph = _warm_tree(n)
            with _CollectorOff():
                before = _tracked_by_type()
                engine = _bare_engine(graph, schedule)
                if run:
                    engine.run()
                after = _tracked_by_type()
                assert engine.graph is graph  # alive while counting
            return after - before

        _bare_engine(_warm_tree(50), schedule).run()  # pays for lazy imports
        small, large = (grown(n) for n in self.SIZES)
        per_node = Counter(
            {
                name: (large[name] - small[name]) / (self.SIZES[1] - self.SIZES[0])
                for name in large
            }
        )
        return sum(per_node.values()), per_node.most_common(4)

    @pytest.mark.parametrize("schedule", INTERPRETED)
    def test_interpreted_construction_adds_at_most_two_per_node(self, schedule):
        per_node, top = self._growth_per_node(schedule, run=False)
        assert per_node <= 2.0, top

    def test_vectorized_adds_nothing_per_node(self):
        per_node, top = self._growth_per_node("vectorized", run=True)
        assert per_node < 0.01, top


class TestTemplateTrackedObjectsPerNode:
    """A template node holds its context, its host, and the current
    component with its sub-context; the slice schedule is one plan
    shared by the run, not a closure, generator and slices per node.

    ``mis_simple`` on G(n, 6/(n-1)) with noisy predictions, counted by
    the slope between two sizes as above.
    """

    SIZES = (1000, 3000)

    @staticmethod
    def _instance(n):
        graph = erdos_renyi(n, 6 / (n - 1), seed=3)
        for node in graph.nodes:
            graph.neighbors(node)  # cache the neighbor frozensets
        return graph, noisy_predictions(MIS, graph, 0.2, seed=1)

    def _growth_per_node(self, stage):
        def grown(n):
            graph, predictions = self._instance(n)
            algorithm = mis_simple()
            with _CollectorOff():
                before = _tracked_by_type()
                engine = SyncEngine(
                    graph,
                    lambda node: algorithm.build_program(),
                    predictions=predictions,
                )
                if stage == "setup":
                    engine._setup_phase()
                elif stage == "run":
                    engine.run()
                after = _tracked_by_type()
                assert engine.graph is graph  # alive while counting
            return after - before

        grown(50)  # pays for lazy imports
        small, large = (grown(n) for n in self.SIZES)
        per_node = Counter(
            {
                name: (large[name] - small[name]) / (self.SIZES[1] - self.SIZES[0])
                for name in large
            }
        )
        return sum(per_node.values()), per_node.most_common(6)

    @pytest.mark.parametrize(
        "stage,bound", (("construction", 2.0), ("setup", 4.0), ("run", 5.0))
    )
    def test_template_engine(self, stage, bound):
        per_node, top = self._growth_per_node(stage)
        assert per_node <= bound, top


class TestRecordsContract:
    """``result.records``: a read-only mapping built from the columns."""

    @pytest.fixture
    def runs(self):
        from tests.reference_engine import ReferenceSyncEngine

        graph = erdos_renyi(40, 0.12, seed=5)
        new = SyncEngine(graph, lambda node: GreedyMISProgram()).run()
        old = ReferenceSyncEngine(graph, lambda node: GreedyMISProgram()).run()
        return graph, new, old

    def test_is_a_column_view(self, runs):
        _, new, old = runs
        assert isinstance(new.records, NodeRecords)
        assert type(old.records) is dict
        assert type(RunResult().records) is dict

    def test_equals_the_dict_of_records(self, runs):
        _, new, old = runs
        assert new.records == old.records
        assert old.records == new.records
        assert dict(new.records) == old.records
        assert all(isinstance(record, NodeRecord) for record in new.records.values())

    def test_repr_is_the_dict_repr(self, runs):
        _, new, old = runs
        assert repr(new.records) == repr(old.records)

    def test_iterates_in_ascending_id_order(self, runs):
        graph, new, _ = runs
        assert list(new.records) == sorted(graph.nodes)
        assert len(new.records) == graph.n
        assert [record.node_id for record in new.records.values()] == sorted(
            graph.nodes
        )

    def test_unknown_ids_raise_key_error(self, runs):
        graph, new, _ = runs
        missing = max(graph.nodes) + 1
        with pytest.raises(KeyError):
            new.records[missing]
        with pytest.raises(KeyError):
            new.records[0]
        assert missing not in new.records
        assert "node" not in new.records
        assert new.records.get(missing) is None
        assert new.termination_round(missing) is None

    def test_is_read_only(self, runs):
        graph, new, _ = runs
        node = min(graph.nodes)
        with pytest.raises(TypeError):
            new.records[node] = NodeRecord(node_id=node)
        record = new.records[node]
        record.output = "changed"
        record.termination_round = -1
        assert new.records[node].output == new.outputs[node]
        assert new.records[node].termination_round >= 0

    def test_pickle_round_trip(self, runs):
        _, new, _ = runs
        clone = pickle.loads(pickle.dumps(new))
        assert isinstance(clone.records, NodeRecords)
        assert clone.records == new.records
        assert repr(clone) == repr(new)
        assert clone.all_terminated

    def test_answers_from_the_columns(self, runs, monkeypatch):
        import repro.simulator.metrics as metrics

        graph, new, _ = runs
        expected = {node: new.records[node].termination_round for node in graph.nodes}

        def refuse(*args, **kwargs):
            raise AssertionError("a NodeRecord was built")

        monkeypatch.setattr(metrics, "NodeRecord", refuse)
        assert new.all_terminated
        assert {node: new.termination_round(node) for node in graph.nodes} == expected

    def test_unfinished_run_is_not_all_terminated(self):
        graph = random_tree(50, seed=1)
        result = SyncEngine(graph, lambda node: GreedyMISProgram()).run(stop_after=1)
        assert not result.all_terminated
        assert any(result.termination_round(node) is None for node in graph.nodes)
