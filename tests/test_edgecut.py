"""Tests for edge-cut sharding: the boundary transport, the lockstep
driver, and the sweep integration.

The correctness bar is *bit identity*: an edge-cut run must reproduce the
unsharded run's observables exactly — outputs, round counts, message and
bit accounting, and failure sites — for every shard count.  The
differential fuzz below sweeps three greedy families across schedules and
shard counts; the CONGEST tests assert that a boundary message blowing
the bandwidth budget names the same round and edge as the unsharded run
(down to the exception text).
"""

from __future__ import annotations

import warnings

import pytest

from repro.bench.algorithms import (
    coloring_simple,
    greedy_mis_reference,
    matching_simple,
    mis_consecutive,
    mis_interleaved,
    mis_parallel,
    mis_simple,
)
from repro.core import RunConfig, run
from repro.core.runner import ExecutionPolicy
from repro.exec import AlgorithmSpec, GraphSpec, Sweep
from repro.exec.plan import Cell
from repro.graphs import (
    DistGraph,
    complete_kary_tree,
    connected_erdos_renyi,
    preorder_kary_tree,
)
from repro.kernels import UnsupportedScheduleError
from repro.predictions import noisy_predictions, perfect_predictions
from repro.problems import PROBLEMS
from repro.problems.mis import MIS
from repro.shard import (
    EdgecutView,
    edgecut,
    edgecut_bounds,
    execute_edgecut_cell,
    run_edgecut,
)
from repro.simulator.engine import RoundLimitExceeded
from repro.simulator.models import strict_congest
from repro.simulator.transport import BandwidthExceeded

#: (algorithm factory, problem name, needs predictions) — one greedy
#: family per problem class exercised by the differential fuzz.
FAMILIES = (
    (greedy_mis_reference, "mis", False),
    (matching_simple, "matching", True),
    (coloring_simple, "vertex-coloring", True),
)

OBSERVABLES = (
    "rounds",
    "rounds_executed",
    "message_count",
    "total_bits",
    "max_message_bits",
)


def _fuzz_graph(seed, n=60, p=0.08):
    return connected_erdos_renyi(n, p, seed=seed)


def _setup(factory, problem_name, needs_predictions, graph, seed):
    algorithm = factory()
    predictions = None
    if needs_predictions:
        problem = PROBLEMS[problem_name]
        predictions = perfect_predictions(problem, graph, seed=seed)
    return algorithm, predictions


def _assert_identical(sharded, reference):
    assert list(sharded.outputs.items()) == list(reference.outputs.items())
    assert repr(sharded.records) == repr(reference.records)
    for name in OBSERVABLES:
        assert getattr(sharded, name) == getattr(reference, name), name


# ----------------------------------------------------------------------
# Partition plan
# ----------------------------------------------------------------------
class TestEdgecutPlan:
    def test_bounds_partition_the_id_space(self):
        for n in (1, 2, 7, 60, 61):
            for shards in (2, 3, 5, 8):
                bounds = edgecut_bounds(n, shards)
                assert bounds[0] == 0 and bounds[-1] == n
                assert all(a <= b for a, b in zip(bounds, bounds[1:]))
                sizes = [b - a for a, b in zip(bounds, bounds[1:])]
                assert max(sizes) - min(sizes) <= 1

    def test_view_pins_parent_ambient_quantities(self):
        graph = _fuzz_graph(1)
        view = EdgecutView(graph, 0, 3)
        assert view.n == graph.n
        assert view.d == graph.d
        assert view.delta == graph.delta
        assert (view.shard, view.shard_count) == (0, 3)
        assert set(view.nodes) < set(graph.nodes)
        # Neighbor lists come from the parent: they may cross the cut.
        for node in view.nodes:
            assert view.neighbors(node) == graph.neighbors(node)

    def test_views_partition_the_nodes(self):
        graph = _fuzz_graph(2)
        shards = 4
        seen = []
        for shard in range(shards):
            seen.extend(EdgecutView(graph, shard, shards).nodes)
        assert sorted(seen) == sorted(graph.nodes)


# ----------------------------------------------------------------------
# Differential fuzz: sharded ≡ unsharded
# ----------------------------------------------------------------------
class TestDifferentialFuzz:
    @pytest.mark.parametrize("factory,problem,needs", FAMILIES)
    @pytest.mark.parametrize("schedule", ("eager", "quiescent"))
    def test_families_and_schedules(self, factory, problem, needs, schedule):
        for seed in (11, 12):
            graph = _fuzz_graph(seed)
            algorithm, predictions = _setup(factory, problem, needs, graph, seed)
            config = RunConfig(
                seed=seed, policy=ExecutionPolicy(schedule=schedule)
            )
            reference = run(algorithm, graph, predictions, config=config)
            for shards in (2, 3, 5):
                sharded = run_edgecut(
                    _setup(factory, problem, needs, graph, seed)[0],
                    graph,
                    predictions,
                    config=config,
                    shard_count=shards,
                )
                _assert_identical(sharded, reference)

    def test_many_shard_counts_including_excess(self):
        """Shard counts up to (and past) the point where shards own a
        handful of nodes each — empty frontiers must not desync the
        barrier."""
        graph = _fuzz_graph(21, n=40)
        algorithm = greedy_mis_reference()
        reference = run(algorithm, graph, seed=5)
        for shards in (2, 4, 8):
            sharded = run_edgecut(
                greedy_mis_reference(),
                graph,
                config=RunConfig(seed=5),
                shard_count=shards,
            )
            _assert_identical(sharded, reference)

    @pytest.mark.parametrize("n", (0, 1))
    def test_empty_and_single_node_graphs(self, n):
        """Shards owning no node at all: the empty graph (every shard
        empty) and one node on two shards."""
        graph = DistGraph({node: () for node in range(1, n + 1)})
        config = RunConfig(seed=2, policy=ExecutionPolicy(schedule="quiescent"))
        reference = run(greedy_mis_reference(), graph, config=config)
        sharded = run_edgecut(
            greedy_mis_reference(), graph, config=config, shard_count=2
        )
        _assert_identical(sharded, reference)
        assert list(sharded.outputs.items()) == list(reference.outputs.items())

    def test_preorder_tree_round_count_is_depth_bounded(self):
        graph = preorder_kary_tree(3, 5)
        reference = run(greedy_mis_reference(), graph, seed=1)
        assert reference.rounds <= 5 + 2
        sharded = run_edgecut(
            greedy_mis_reference(), graph, config=RunConfig(seed=1), shard_count=4
        )
        _assert_identical(sharded, reference)

    def test_complete_kary_tree_bfs_ids_also_identical(self):
        """BFS-numbered trees cut far more edges per block — identity
        must hold regardless of how unfriendly the partition is."""
        graph = complete_kary_tree(3, 4)
        reference = run(greedy_mis_reference(), graph, seed=9)
        sharded = run_edgecut(
            greedy_mis_reference(), graph, config=RunConfig(seed=9), shard_count=3
        )
        _assert_identical(sharded, reference)


class TestTemplatesOnShardThreads:
    """The MIS templates with one instance shared by every shard thread
    and reused across runs.  The shards' hosts read one slice plan, and
    the Interleaved and Parallel schedules run past initialization on
    noisy predictions — the Interleaved one is an infinite generator,
    which two threads must never resume at once."""

    @pytest.mark.parametrize(
        "factory", (mis_simple, mis_consecutive, mis_interleaved, mis_parallel)
    )
    def test_reused_instance_matches_unsharded(self, factory):
        algorithm = factory()
        config = RunConfig(seed=4, policy=ExecutionPolicy(schedule="quiescent"))
        for seed in (31, 32):
            graph = _fuzz_graph(seed)
            predictions = noisy_predictions(MIS, graph, 0.3, seed=seed)
            reference = run(factory(), graph, predictions, config=config)
            for shards in (2, 3, 4):
                sharded = run_edgecut(
                    algorithm, graph, predictions, config=config, shard_count=shards
                )
                _assert_identical(sharded, reference)


# ----------------------------------------------------------------------
# CONGEST accounting parity (satellite: same round, same edge)
# ----------------------------------------------------------------------
class TestCongestParity:
    def test_total_bits_identical_under_congest(self):
        graph = _fuzz_graph(31)
        config = RunConfig(seed=3, model=strict_congest(factor=32))
        reference = run(greedy_mis_reference(), graph, config=config)
        sharded = run_edgecut(
            greedy_mis_reference(), graph, config=config, shard_count=3
        )
        _assert_identical(sharded, reference)

    def test_bandwidth_exceeded_names_same_round_and_edge(self):
        """A boundary message that blows the strict-CONGEST budget must
        raise with the *same* sender, receiver and round as the
        unsharded run — byte-for-byte the same message."""
        graph = _fuzz_graph(31)
        config = RunConfig(seed=3, model=strict_congest(factor=1))
        with pytest.raises(BandwidthExceeded) as reference:
            run(greedy_mis_reference(), graph, config=config)
        for shards in (2, 3, 4, 5):
            with pytest.raises(BandwidthExceeded) as sharded:
                run_edgecut(
                    greedy_mis_reference(),
                    graph,
                    config=config,
                    shard_count=shards,
                )
            assert str(sharded.value) == str(reference.value)


# ----------------------------------------------------------------------
# Round-limit and partial-result parity
# ----------------------------------------------------------------------
class TestLimitParity:
    def test_round_limit_raises_identically(self):
        graph = _fuzz_graph(41)
        config = RunConfig(seed=2, max_rounds=2)
        with pytest.raises(RoundLimitExceeded) as reference:
            run(greedy_mis_reference(), graph, config=config)
        with pytest.raises(RoundLimitExceeded) as sharded:
            run_edgecut(
                greedy_mis_reference(), graph, config=config, shard_count=3
            )
        assert str(sharded.value) == str(reference.value)

    def test_partial_result_and_stuck_report_match(self):
        graph = _fuzz_graph(42)
        config = RunConfig(seed=2, max_rounds=2, on_round_limit="partial")
        reference = run(greedy_mis_reference(), graph, config=config)
        sharded = run_edgecut(
            greedy_mis_reference(), graph, config=config, shard_count=3
        )
        _assert_identical(sharded, reference)
        assert reference.stuck is not None and sharded.stuck is not None
        _assert_same_stuck(sharded.stuck, reference.stuck)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("on_round_limit", ["raise", "partial"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_budget_boundary_matches_unsharded(
        self, offset, on_round_limit, mode, monkeypatch
    ):
        """Budgets of R - 1, R and R + 1 rounds, R the unsharded run's
        ``rounds``: only R - 1 cuts the run, and the edge-cut run stops
        as the unsharded one does — the same exception text, or the same
        result and stuck report — in thread mode (:func:`run_edgecut`)
        and process mode (``execute_edgecut_cell(mode="process")``)."""
        graph = _fuzz_graph(41)
        whole = run(greedy_mis_reference(), graph, config=RunConfig(seed=2))
        config = RunConfig(
            seed=2,
            max_rounds=whole.rounds + offset,
            on_round_limit=on_round_limit,
        )
        if offset < 0 and on_round_limit == "raise":
            with pytest.raises(RoundLimitExceeded) as reference:
                run(greedy_mis_reference(), graph, config=config)
            with pytest.raises(RoundLimitExceeded) as sharded:
                _limited_run(graph, config, mode, monkeypatch)
            assert str(sharded.value) == str(reference.value)
            return
        reference = run(greedy_mis_reference(), graph, config=config)
        sharded = _limited_run(graph, config, mode, monkeypatch)
        _assert_identical(sharded, reference)
        assert (reference.stuck is not None) == (offset < 0)
        if reference.stuck is None:
            assert sharded.stuck is None
        else:
            _assert_same_stuck(sharded.stuck, reference.stuck)


def _assert_same_stuck(sharded, reference):
    assert sharded is not None
    assert sharded.live_nodes == reference.live_nodes
    assert sharded.round == reference.round
    assert sharded.total_nodes == reference.total_nodes
    assert sharded.reason == reference.reason


def _limited_run(graph, config, mode, monkeypatch, shards=3):
    """The folded result of an edge-cut ``greedy_mis_reference`` run.

    Process mode goes through ``execute_edgecut_cell``; the process
    driver's result, whose row the cell builds, is kept on the way.
    """
    if mode == "thread":
        return run_edgecut(
            greedy_mis_reference(), graph, config=config, shard_count=shards
        )
    folded = []
    driver = edgecut._run_edgecut_process

    def kept(*args):
        folded.append(driver(*args))
        return folded[-1]

    monkeypatch.setattr(edgecut, "_run_edgecut_process", kept)
    cell = Cell(
        label="limit",
        graph=GraphSpec.literal(graph),
        algorithm=AlgorithmSpec.of(greedy_mis_reference),
        config=config,
    )
    row = execute_edgecut_cell(0, cell, config.seed, shards, mode="process")
    (result,) = folded
    assert (row.rounds, row.rounds_executed, row.message_count, row.stuck) == (
        result.rounds,
        result.rounds_executed,
        result.message_count,
        result.stuck is not None,
    )
    return result


# ----------------------------------------------------------------------
# Guard rails
# ----------------------------------------------------------------------
class TestGuards:
    def test_policy_rejects_unknown_shard_mode(self):
        with pytest.raises(ValueError, match="shard"):
            ExecutionPolicy(shard="edges")

    def test_policy_rejects_async_edgecut(self):
        with pytest.raises(ValueError, match="async"):
            ExecutionPolicy(schedule="async", shard="edgecut")

    def test_shard_count_below_two_rejected(self):
        graph = _fuzz_graph(51, n=20)
        with pytest.raises(ValueError, match="shard"):
            run_edgecut(greedy_mis_reference(), graph, shard_count=1)

    def test_trace_rejected(self):
        graph = _fuzz_graph(51, n=20)
        with pytest.raises(ValueError, match="trace"):
            run_edgecut(
                greedy_mis_reference(),
                graph,
                config=RunConfig(trace=True),
                shard_count=2,
            )

    def test_vectorized_kernels_rejected(self):
        graph = _fuzz_graph(52, n=20)
        with pytest.raises(UnsupportedScheduleError, match="edge-cut"):
            config = RunConfig(
                policy=ExecutionPolicy(schedule="vectorized", shard="edgecut")
            )
            run_edgecut(
                greedy_mis_reference(), graph, config=config, shard_count=2
            )

    def test_vectorized_fallback_interprets_identically(self):
        graph = _fuzz_graph(52, n=30)
        config = RunConfig(
            seed=4,
            policy=ExecutionPolicy(
                schedule="vectorized", shard="edgecut", fallback="interpret"
            ),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sharded = run_edgecut(
                greedy_mis_reference(), graph, config=config, shard_count=2
            )
        reference = run(
            greedy_mis_reference(),
            graph,
            config=RunConfig(
                seed=4, policy=ExecutionPolicy(schedule="quiescent")
            ),
        )
        _assert_identical(sharded, reference)


# ----------------------------------------------------------------------
# Sweep integration: serial and process backends
# ----------------------------------------------------------------------
def _edgecut_sweep(graph, *, shard=None, schedule="quiescent", share=False):
    sweep = Sweep(name="edgecut-test", base_seed=7)
    policy = ExecutionPolicy(schedule=schedule, shard=shard, share_graph=share)
    spec = GraphSpec.literal(graph)
    for seed in (11, 12):
        sweep.add(
            f"greedy-s{seed}",
            spec,
            "greedy_mis_reference",
            problem="mis",
            seed=seed,
            policy=policy,
        )
    return sweep


class TestSweepIntegration:
    def test_serial_backend_rows_are_equivalent(self):
        graph = _fuzz_graph(61, n=120)
        reference = _edgecut_sweep(graph).run("serial")
        sharded = _edgecut_sweep(graph, shard="edgecut").run("serial", jobs=3)
        assert sharded.equivalent_to(reference)
        assert all(row.valid for row in sharded.rows)
        for row in sharded.rows:
            assert row.shards == 3
            assert row.boundary_msgs > 0
            assert row.boundary_bytes > 0

    def test_process_backend_matches_serial_with_store(self):
        graph = _fuzz_graph(61, n=120)
        reference = _edgecut_sweep(graph).run("serial")
        sharded = _edgecut_sweep(graph, shard="edgecut", share=True).run(
            "process", jobs=3
        )
        assert sharded.equivalent_to(reference)
        thread_rows = _edgecut_sweep(graph, shard="edgecut").run(
            "serial", jobs=3
        )
        for process_row, thread_row in zip(sharded.rows, thread_rows.rows):
            assert process_row.boundary_msgs == thread_row.boundary_msgs
            assert process_row.boundary_bytes == thread_row.boundary_bytes

    def test_telemetry_sums_boundary_counters(self):
        graph = _fuzz_graph(62, n=80)
        sharded = _edgecut_sweep(graph, shard="edgecut").run("serial", jobs=2)
        telemetry = sharded.telemetry()
        assert telemetry["boundary_msgs_total"] == sum(
            row.boundary_msgs for row in sharded.rows
        )
        assert telemetry["boundary_bytes_total"] == sum(
            row.boundary_bytes for row in sharded.rows
        )
        assert telemetry["boundary_msgs_total"] > 0

    def test_single_job_degrades_to_unsharded_cell(self):
        graph = _fuzz_graph(63, n=40)
        result = _edgecut_sweep(graph, shard="edgecut").run("serial", jobs=1)
        reference = _edgecut_sweep(graph).run("serial")
        assert result.equivalent_to(reference)
        for row in result.rows:
            assert not row.shards
