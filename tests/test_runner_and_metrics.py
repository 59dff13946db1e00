"""Tests for the high-level runner, run metrics and the bench factories."""

import pytest

import repro
import repro.core
from repro.algorithms.mis import GreedyMISAlgorithm, LinialMISAlgorithm
from repro.bench.algorithms import (
    coloring_consecutive,
    coloring_parallel,
    coloring_simple,
    edge_coloring_consecutive,
    edge_coloring_simple,
    matching_consecutive,
    matching_simple,
    mis_blackwhite_simple,
    mis_consecutive,
    mis_interleaved,
    mis_parallel,
    mis_rooted_parallel,
    mis_rooted_simple,
    mis_simple,
)
from repro.core import RunConfig, run
from repro.graphs import erdos_renyi, line, random_rooted_tree
from repro.predictions import noisy_predictions
from repro.problems import EDGE_COLORING, MATCHING, MIS, VERTEX_COLORING
from repro.simulator import ExecutionPolicy, SyncEngine
from repro.simulator.models import LOCAL, strict_congest

#: 1.x spellings that 2.0 removed; each must now fail to bind.
REMOVED_SPELLINGS = {
    "run-schedule": lambda g: run(
        GreedyMISAlgorithm(), g, schedule="quiescent"
    ),
    "runconfig-schedule": lambda g: RunConfig(schedule="quiescent"),
    "run-crash-rounds": lambda g: run(
        GreedyMISAlgorithm(), g, crash_rounds={1: 1}
    ),
    "engine-crash-rounds": lambda g: SyncEngine(
        g, lambda node: GreedyMISAlgorithm().build_program(),
        crash_rounds={1: 1},
    ),
    "engine-phi": lambda g: SyncEngine(
        g, lambda node: GreedyMISAlgorithm().build_program(), phi=2
    ),
}


class TestRunner:
    def test_missing_predictions_rejected(self, path5):
        with pytest.raises(ValueError, match="requires predictions"):
            run(mis_simple(), path5)

    def test_prediction_free_algorithm_accepts_none(self, path5):
        result = run(GreedyMISAlgorithm(), path5)
        assert MIS.is_solution(path5, result.outputs)

    def test_model_override(self, path5):
        result = run(GreedyMISAlgorithm(), path5, model=strict_congest(32))
        assert result.model.strict

    def test_default_model_from_algorithm(self, path5):
        result = run(GreedyMISAlgorithm(), path5)
        assert result.model is LOCAL

    @pytest.mark.parametrize(
        "schedule,fast", (("eager", False), ("vectorized", True))
    )
    def test_algorithm_without_a_model_runs_under_local(self, schedule, fast):
        class Modelless(GreedyMISAlgorithm):
            model = None

        graph = erdos_renyi(60, 0.08, seed=2)
        config = RunConfig(seed=1, fast=fast, policy=ExecutionPolicy(schedule=schedule))
        modelless = run(Modelless(), graph, config=config)
        local = run(GreedyMISAlgorithm(), graph, config=config)
        assert modelless.model is LOCAL
        assert modelless.outputs == local.outputs
        assert repr(modelless.records) == repr(local.records)
        assert (modelless.rounds, modelless.message_count, modelless.total_bits) == (
            local.rounds,
            local.message_count,
            local.total_bits,
        )
        assert modelless.message_count > 0

    def test_run_trace_flag_attaches_recorder(self, path5):
        result = run(GreedyMISAlgorithm(), path5, trace=True)
        assert result.rounds >= 1
        assert result.trace.termination_rounds()

    def test_run_without_trace_has_no_recorder(self, path5):
        assert run(GreedyMISAlgorithm(), path5).trace is None

    @pytest.mark.parametrize("spelling", sorted(REMOVED_SPELLINGS))
    def test_removed_1x_spellings_are_refused(self, path5, spelling):
        with pytest.raises(TypeError):
            REMOVED_SPELLINGS[spelling](path5)
        assert "run_with_trace" not in repro.__all__
        assert not hasattr(repro.core, "run_with_trace")

    def test_run_config_is_single_entrypoint(self, path5):
        by_config = run(
            GreedyMISAlgorithm(), path5, config=RunConfig(seed=3, fast=True)
        )
        by_kwargs = run(GreedyMISAlgorithm(), path5, seed=3, fast=True)
        assert by_config.outputs == by_kwargs.outputs
        assert by_config.rounds == by_kwargs.rounds

    def test_run_config_kwargs_override(self, path5):
        config = RunConfig(max_rounds=1)
        from repro.simulator import RoundLimitExceeded
        from repro.simulator.program import NodeProgram

        class Never(NodeProgram):
            pass

        from repro.core.algorithm import FunctionalAlgorithm

        never = FunctionalAlgorithm("never", Never)
        with pytest.raises(RoundLimitExceeded):
            run(never, path5, config=config)
        partial = run(
            never, path5, config=config, on_round_limit="partial"
        )
        assert partial.stuck is not None

    def test_max_rounds_override_propagates(self, path5):
        from repro.simulator import RoundLimitExceeded
        from repro.simulator.program import NodeProgram

        class Never(NodeProgram):
            pass

        from repro.core import FunctionalAlgorithm

        with pytest.raises(RoundLimitExceeded):
            run(FunctionalAlgorithm("never", Never), path5, max_rounds=4)


class TestRunResultDetails:
    def test_termination_round_lookup(self, path5):
        result = run(GreedyMISAlgorithm(), path5)
        assert result.termination_round(5) is not None
        assert result.termination_round(999) is None

    def test_records_carry_outputs(self, path5):
        result = run(GreedyMISAlgorithm(), path5)
        for node in path5.nodes:
            assert result.records[node].output == result.outputs[node]


MIS_FACTORIES = [
    mis_simple,
    mis_consecutive,
    mis_interleaved,
    mis_parallel,
    mis_blackwhite_simple,
]


class TestBenchFactories:
    """Every canonical construction solves a shared noisy instance."""

    @pytest.mark.parametrize("factory", MIS_FACTORIES, ids=lambda f: f.__name__)
    def test_mis_factories(self, factory):
        graph = erdos_renyi(28, 0.15, seed=14)
        predictions = noisy_predictions(MIS, graph, 0.4, seed=5)
        result = run(factory(), graph, predictions, max_rounds=20000)
        assert MIS.is_solution(graph, result.outputs)

    @pytest.mark.parametrize(
        "factory", [mis_rooted_simple, mis_rooted_parallel], ids=lambda f: f.__name__
    )
    def test_rooted_factories(self, factory):
        graph = random_rooted_tree(40, seed=6)
        predictions = noisy_predictions(MIS, graph, 0.4, seed=6)
        result = run(factory(), graph, predictions)
        assert MIS.is_solution(graph, result.outputs)

    @pytest.mark.parametrize(
        "factory", [matching_simple, matching_consecutive], ids=lambda f: f.__name__
    )
    def test_matching_factories(self, factory):
        graph = erdos_renyi(26, 0.15, seed=15)
        predictions = noisy_predictions(MATCHING, graph, 0.4, seed=7)
        result = run(factory(), graph, predictions, max_rounds=20000)
        assert MATCHING.is_solution(graph, result.outputs)

    @pytest.mark.parametrize(
        "factory",
        [coloring_simple, coloring_consecutive, coloring_parallel],
        ids=lambda f: f.__name__,
    )
    def test_coloring_factories(self, factory):
        graph = erdos_renyi(26, 0.15, seed=16)
        predictions = noisy_predictions(VERTEX_COLORING, graph, 0.4, seed=8)
        result = run(factory(), graph, predictions, max_rounds=20000)
        assert VERTEX_COLORING.is_solution(graph, result.outputs)

    @pytest.mark.parametrize(
        "factory",
        [edge_coloring_simple, edge_coloring_consecutive],
        ids=lambda f: f.__name__,
    )
    def test_edge_coloring_factories(self, factory):
        graph = erdos_renyi(22, 0.18, seed=17)
        predictions = noisy_predictions(EDGE_COLORING, graph, 0.4, seed=9)
        result = run(factory(), graph, predictions, max_rounds=20000)
        assert EDGE_COLORING.is_solution(graph, result.outputs)


class TestLinialMIS:
    def test_valid_and_bounded(self):
        algorithm = LinialMISAlgorithm()
        for seed in range(5):
            graph = erdos_renyi(30, 0.15, seed=seed)
            result = run(algorithm, graph)
            assert MIS.is_solution(graph, result.outputs)
            assert result.rounds <= algorithm.round_bound(
                graph.n, graph.delta, graph.d
            )

    def test_bound_independent_of_n(self):
        algorithm = LinialMISAlgorithm()
        assert algorithm.round_bound(10, 4, 100) == algorithm.round_bound(
            10**6, 4, 100
        )

    def test_line_beats_greedy_worst_case(self):
        from repro.graphs import sorted_path_ids

        graph = sorted_path_ids(line(80))
        linial = run(LinialMISAlgorithm(), graph).rounds
        greedy = run(GreedyMISAlgorithm(), graph).rounds
        assert linial < greedy / 2
