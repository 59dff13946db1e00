"""The vectorized whole-frontier backend (``schedule="vectorized"``).

The contract of the compiled kernels is *bit-identity*: for every
registered greedy family, a vectorized run must reproduce the
interpreted engine's outputs, round counts, message counts and CONGEST
bit accounting exactly — same numbers, not approximately.  The
differential fuzz below checks that across families, graph shapes and
prediction-error levels.  The rest of the file pins the redesigned API
surface around the backend: :class:`repro.ExecutionPolicy`,
:func:`repro.schedules`, the kernel-capability handshake (loud
:class:`~repro.kernels.UnsupportedScheduleError` vs.
``fallback="interpret"``), and the kernel column in sweep/bench
exports.
"""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import ExecutionPolicy, RunConfig, UnsupportedScheduleError, run
from repro.algorithms.coloring import PaletteGreedyColoringAlgorithm
from repro.algorithms.matching import GreedyMatchingAlgorithm
from repro.algorithms.mis import GreedyMISAlgorithm
from repro.algorithms.mis.greedy import GreedyMISProgram
from repro.bench.algorithms import mis_simple
from repro.graphs import erdos_renyi, line, random_tree
from repro.graphs.window import GraphWindow
from repro.kernels.mis import GreedyMISKernel
from repro.predictions import noisy_predictions, perfect_predictions
from repro.problems import MATCHING, MIS, UNMATCHED, VERTEX_COLORING
from repro.shard.plan import shard_view
from repro.simulator import CONGEST, SyncEngine, schedule_capabilities
from repro.simulator.models import LOCAL, ExecutionModel, strict_congest
from repro.simulator.transport import BandwidthExceeded

FAMILIES = [
    ("mis", MIS, GreedyMISAlgorithm, "greedy-mis"),
    ("matching", MATCHING, GreedyMatchingAlgorithm, "greedy-matching"),
    ("coloring", VERTEX_COLORING, PaletteGreedyColoringAlgorithm,
     "greedy-coloring"),
]

VECTORIZED = ExecutionPolicy(schedule="vectorized")


def _footprint(result):
    """Everything the bit-identity contract covers, as one comparable."""
    return {
        "outputs": result.outputs,
        "rounds": result.rounds,
        "rounds_executed": result.rounds_executed,
        "messages": result.message_count,
        "total_bits": result.total_bits,
        "max_message_bits": result.max_message_bits,
        "violations": result.bandwidth_violations,
        "terminations": {
            node: record.termination_round
            for node, record in result.records.items()
        },
    }


def _assert_identical(algorithm_cls, graph, predictions=None, **kwargs):
    interpreted = run(algorithm_cls(), graph, predictions, **kwargs)
    vectorized = run(
        algorithm_cls(), graph, predictions, policy=VECTORIZED, **kwargs
    )
    assert _footprint(vectorized) == _footprint(interpreted)
    return interpreted, vectorized


# ----------------------------------------------------------------------
# Differential fuzz: vectorized ≡ interpreted, bit for bit
# ----------------------------------------------------------------------
class TestDifferentialFuzz:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=12, deadline=None)
    def test_gnp_instances(self, family, rate, seed):
        _, problem, algorithm_cls, kernel = family
        n = 10 + seed % 40
        p = (0.05, 0.15, 0.5, 0.95)[seed % 4]
        graph = erdos_renyi(n, p, seed=seed)
        predictions = noisy_predictions(problem, graph, rate, seed=seed)
        interpreted, vectorized = _assert_identical(
            algorithm_cls, graph, predictions
        )
        assert vectorized.kernel == kernel
        assert interpreted.kernel is None
        assert not problem.verify_solution(graph, vectorized.outputs)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=8, deadline=None)
    def test_tree_instances(self, family, seed):
        _, problem, algorithm_cls, _ = family
        graph = random_tree(12 + seed % 60, seed=seed)
        predictions = perfect_predictions(problem, graph, seed=seed)
        _, vectorized = _assert_identical(algorithm_cls, graph, predictions)
        assert not problem.verify_solution(graph, vectorized.outputs)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
    def test_congest_accounting_matches(self, family):
        _, _, algorithm_cls, _ = family
        graph = erdos_renyi(40, 0.2, seed=3)
        _assert_identical(algorithm_cls, graph, model=CONGEST)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
    def test_fast_mode_matches(self, family):
        _, _, algorithm_cls, _ = family
        graph = erdos_renyi(35, 0.25, seed=5)
        interpreted, vectorized = _assert_identical(
            algorithm_cls, graph, fast=True
        )
        assert vectorized.total_bits == 0  # fast mode skips bit estimation

    def test_isolated_and_empty_graphs(self):
        for graph in (erdos_renyi(20, 0.0, seed=0), erdos_renyi(0, 0.5, seed=0)):
            _assert_identical(GreedyMISAlgorithm, graph)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
    def test_bulk_write_back(self, family):
        """The kernel writes outputs in ascending id order, as plain
        ``int`` values (matching's ⊥ is the ``UNMATCHED`` object itself:
        pickle memoizes by identity, so a digest of the outputs sees the
        difference), and the interpreted run's termination rounds."""
        _, problem, algorithm_cls, _ = family
        graph = erdos_renyi(300, 0.02, seed=9)
        predictions = noisy_predictions(problem, graph, 0.3, seed=9)
        interpreted, vectorized = _assert_identical(
            algorithm_cls, graph, predictions
        )
        assert list(vectorized.outputs) == sorted(vectorized.outputs)
        for value in vectorized.outputs.values():
            assert type(value) is int or value is UNMATCHED
        if problem is MATCHING:
            assert UNMATCHED in vectorized.outputs.values()
        assert (
            vectorized.records.termination_rounds
            == interpreted.records.termination_rounds
        )


class _OneBitCongest(ExecutionModel):
    """Strict CONGEST with a 1-bit budget.  A palette color fits
    ``ceil(log2(n + 1))`` bits, so no ``bandwidth_factor`` makes the
    coloring break its budget; here every color from 2 up does."""

    def bandwidth_bits(self, n):
        return 1


#: A strict model each family breaks early: JOIN is 16 bits, PROPOSE 56.
STRICT = {
    "mis": strict_congest(2),
    "matching": strict_congest(2),
    "coloring": _OneBitCongest(name="CONGEST", bandwidth_factor=1, strict=True),
}


class TestStrictCongest:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
    def test_violation_matches_eager(self, family):
        """The kernel raises the interpreter's error for the first
        over-budget message in compose order: same width, sender,
        receiver, round and budget.  The receiver is the first of the
        sender's active neighbors in its outbox's order, which several of
        these graphs tell apart from the neighbor frozenset's."""
        name, _, algorithm_cls, _ = family
        model = STRICT[name]
        for seed in range(12):
            graph = erdos_renyi(30, 0.2, seed=seed)
            with pytest.raises(BandwidthExceeded) as eager:
                run(algorithm_cls(), graph, model=model)
            with pytest.raises(BandwidthExceeded) as vectorized:
                run(algorithm_cls(), graph, model=model, policy=VECTORIZED)
            assert type(vectorized.value) is type(eager.value)
            assert str(vectorized.value) == str(eager.value)


# ----------------------------------------------------------------------
# A kernel over a window: the parent's arrays, the window as active mask
# ----------------------------------------------------------------------
class TestKernelOnAWindow:
    """``greedy-mis`` over ``GraphWindow(graph, nodes)`` is interpreted
    bare greedy on ``graph.subgraph(nodes)``, with the parent's ``n`` for
    the CONGEST budget (``shard_view`` pins it), bit for bit: what its
    ``chains`` declares."""

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        p=st.sampled_from((0.05, 0.15, 0.4)),
        share=st.sampled_from((0.0, 0.2, 0.6, 1.0)),
        model=st.sampled_from(
            (LOCAL, CONGEST, ExecutionModel("CONGEST", bandwidth_factor=1))
        ),
        fast=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_interpreted_greedy_on_the_induced_subgraph(
        self, seed, p, share, model, fast
    ):
        rng = random.Random(seed)
        graph = erdos_renyi(1 + seed % 60, p, seed=seed)
        nodes = sorted(rng.sample(graph.nodes, round(share * graph.n)))
        window = SyncEngine(
            GraphWindow(graph, nodes),
            lambda node: GreedyMISProgram(),
            model=model,
            fast=fast,
            policy=VECTORIZED,
        ).run()
        interpreted = SyncEngine(
            shard_view(graph, nodes),
            lambda node: GreedyMISProgram(),
            model=model,
            fast=fast,
        ).run()
        assert GreedyMISKernel.chains
        assert window.kernel == ("greedy-mis" if nodes else "empty")
        assert _footprint(window) == _footprint(interpreted)
        assert list(window.records) == nodes

    def test_budget_of_a_component_shard_reads_the_pinned_n(self):
        """A component shard's view pins its parent's ``n``; the kernel's
        CONGEST budget reads it, as the interpreter's transport does.
        At factor 2 the 16-bit JOIN fits the parent's 20 bits and not the
        43-node component's 12."""
        parent = erdos_renyi(1000, 0.001, seed=3)
        largest = max(parent.csr.components(), key=len)
        view = shard_view(parent, [parent.csr.ids[index] for index in largest])
        assert view.n == 1000 and view.csr.n == 43
        model = ExecutionModel("CONGEST", bandwidth_factor=2)
        interpreted = run(GreedyMISAlgorithm(), view, model=model)
        vectorized = run(GreedyMISAlgorithm(), view, model=model, policy=VECTORIZED)
        assert _footprint(vectorized) == _footprint(interpreted)
        assert vectorized.bandwidth_violations == 0


# ----------------------------------------------------------------------
# Introspection: repro.schedules() and scheduler capabilities
# ----------------------------------------------------------------------
class TestSchedules:
    def test_all_schedules_listed(self):
        assert sorted(repro.schedules()) == [
            "async", "eager", "quiescent", "quiescent-debug", "vectorized",
        ]

    def test_vectorized_capabilities(self):
        caps = repro.schedules()["vectorized"]
        assert caps["kernels"] == (
            "greedy-coloring", "greedy-matching", "greedy-mis",
        )
        assert caps["profile"] is True
        assert caps["async"] is False

    def test_interpreted_schedules_have_no_kernels(self):
        for name, caps in repro.schedules().items():
            if name != "vectorized":
                assert caps["kernels"] == ()

    def test_matches_simulator_registry(self):
        assert repro.schedules() == schedule_capabilities()


# ----------------------------------------------------------------------
# ExecutionPolicy: the one execution surface
# ----------------------------------------------------------------------
class TestExecutionPolicy:
    def test_policy_is_hashable_and_validated(self):
        assert hash(VECTORIZED) == hash(ExecutionPolicy(schedule="vectorized"))
        with pytest.raises(ValueError, match="schedule"):
            ExecutionPolicy(schedule="nope")
        with pytest.raises(ValueError, match="fallback"):
            ExecutionPolicy(schedule="vectorized", fallback="nope")
        with pytest.raises(ValueError, match="vectorized"):
            ExecutionPolicy(schedule="eager", fallback="interpret")
        # Range checks run when the policy is built, on every schedule,
        # not when an async run first binds its retry policy.
        with pytest.raises(ValueError, match="send_timeout"):
            ExecutionPolicy(schedule="async", send_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            ExecutionPolicy(schedule="async", max_retries=-1)
        with pytest.raises(ValueError, match="max_retries"):
            ExecutionPolicy(max_retries=-1)

    def test_runconfig_exposes_policy_fields(self):
        config = RunConfig(policy=ExecutionPolicy(schedule="async", phi=2))
        assert config.policy.schedule == "async"
        assert config.policy.phi == 2
        assert not hasattr(config, "schedule")  # one spelling: config.policy

    def test_policy_kwarg_does_not_warn(self):
        graph = line(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run(GreedyMISAlgorithm(), graph,
                policy=ExecutionPolicy(schedule="quiescent"))
            RunConfig(policy=ExecutionPolicy(schedule="quiescent"))

    def test_with_overrides_routes_policy_fields_silently(self):
        config = RunConfig(seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            updated = config.with_overrides(policy=VECTORIZED, seed=2)
        assert updated.policy is VECTORIZED
        assert updated.seed == 2
        assert config.policy == ExecutionPolicy()  # frozen original untouched
        with pytest.raises(TypeError):
            config.with_overrides(schedule="vectorized")  # no flat folding


# ----------------------------------------------------------------------
# The capability handshake: loud failure or explicit fallback
# ----------------------------------------------------------------------
class TestFallback:
    def test_unregistered_program_raises(self):
        graph = erdos_renyi(12, 0.3, seed=0)
        algorithm = mis_simple()
        predictions = perfect_predictions(MIS, graph, seed=0)
        with pytest.raises(UnsupportedScheduleError, match="no vectorized"):
            run(algorithm, graph, predictions, policy=VECTORIZED)

    def test_sinks_raise(self):
        from repro.obs import MemoryEventSink

        graph = erdos_renyi(12, 0.3, seed=0)
        with pytest.raises(UnsupportedScheduleError, match="sink"):
            run(GreedyMISAlgorithm(), graph, policy=VECTORIZED,
                sinks=[MemoryEventSink()])

    def test_fallback_interpret_warns_and_matches(self):
        graph = erdos_renyi(12, 0.3, seed=0)
        algorithm = mis_simple()
        predictions = perfect_predictions(MIS, graph, seed=0)
        with pytest.warns(RuntimeWarning, match="falling back"):
            fell_back = run(
                algorithm, graph, predictions,
                policy=ExecutionPolicy(
                    schedule="vectorized", fallback="interpret"
                ),
            )
        reference = run(
            algorithm, graph, predictions,
            policy=ExecutionPolicy(schedule="quiescent"),
        )
        assert fell_back.kernel is None
        assert _footprint(fell_back) == _footprint(reference)

    def test_sweep_cell_failure_is_loud(self):
        from repro.exec import Sweep

        sweep = Sweep(name="vec-fallback")
        sweep.add(
            "bad", erdos_renyi(10, 0.3, seed=1), mis_simple, problem="mis",
            predictions=lambda graph: perfect_predictions(MIS, graph, seed=1),
            policy=VECTORIZED,
        )
        with pytest.raises(UnsupportedScheduleError, match="no vectorized"):
            sweep.run("serial")

    def test_sweep_cell_fallback_interpret_runs(self):
        from repro.exec import Sweep

        sweep = Sweep(name="vec-fallback-ok")
        sweep.add(
            "ok", erdos_renyi(10, 0.3, seed=1), mis_simple, problem="mis",
            predictions=lambda graph: perfect_predictions(MIS, graph, seed=1),
            policy=ExecutionPolicy(schedule="vectorized", fallback="interpret"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = sweep.run("serial")
        row = result.rows[0]
        assert row.failure is None
        assert row.valid is True
        assert row.kernel is None

    def test_cli_run_fails_loud_without_fallback(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="fallback"):
            main(["run", "--template", "simple",
                  "--graph", "gnp:20:0.2", "--schedule", "vectorized"])

    def test_cli_run_fallback_interpret(self):
        from repro.cli import main

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["run", "--template", "simple",
                         "--graph", "gnp:20:0.2", "--schedule", "vectorized",
                         "--fallback", "interpret"])
        assert code == 0

    def test_cli_run_vectorized_kernel(self, capsys):
        from repro.cli import main

        code = main(["run", "--template", "greedy",
                     "--graph", "gnp:50:0.1", "--schedule", "vectorized"])
        assert code == 0
        assert "kernel     : greedy-mis" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Observability: kernel phase, kernel column, sweep telemetry
# ----------------------------------------------------------------------
class TestVectorizedObservability:
    def test_profile_has_kernel_phase(self):
        from repro.obs.profile import PHASES

        assert "kernel" in PHASES
        graph = erdos_renyi(30, 0.2, seed=2)
        result = run(GreedyMISAlgorithm(), graph, policy=VECTORIZED,
                     profile=True)
        summary = result.profile.summary()
        assert summary["kernel_s"] > 0.0
        assert summary["compose_s"] == 0.0
        assert "kernel ms" in result.profile.table()

    def test_sweep_kernel_column_and_telemetry(self, tmp_path):
        from repro.exec import Sweep

        graph = random_tree(200, seed=1)
        sweep = Sweep(name="vec-sweep")
        sweep.add("vec", graph, GreedyMISAlgorithm, problem="mis",
                  policy=VECTORIZED)
        sweep.add("interp", graph, GreedyMISAlgorithm, problem="mis")
        result = sweep.run("serial")
        assert [row.kernel for row in result.rows] == ["greedy-mis", None]
        assert result.rows[0].as_tuple()[1:] != result.rows[1].as_tuple()[1:]
        assert result.telemetry()["vectorized_cells"] == 1

        path = tmp_path / "cells.csv"
        result.to_csv(str(path))
        header, vec_row, interp_row = path.read_text().splitlines()
        assert header.split(",")[12] == "kernel"
        assert vec_row.split(",")[12] == "greedy-mis"
        assert interp_row.split(",")[12] == ""

    def test_bench_baseline_round_trips_kernel(self, tmp_path):
        from repro.exec import Sweep
        from repro.obs.bench import load_baseline, record_run

        graph = random_tree(150, seed=2)
        sweep = Sweep(name="vec-bench")
        sweep.add("cell", graph, GreedyMISAlgorithm, problem="mis",
                  policy=VECTORIZED)
        path = str(tmp_path / "BENCH_vec.json")
        payload, diff = record_run(path, sweep.run("serial"))
        assert diff is None  # first recording
        assert payload["cells"][0]["kernel"] == "greedy-mis"
        assert load_baseline(path)["cells"][0]["kernel"] == "greedy-mis"

        # A second identical run diffs clean against the baseline.
        _, diff = record_run(path, sweep.run("serial"))
        assert diff is not None and not diff.determinism_breaks

    def test_older_baseline_without_kernel_column_is_tolerated(self, tmp_path):
        import json

        from repro.exec import Sweep
        from repro.obs.bench import load_baseline, record_run

        graph = random_tree(120, seed=3)
        sweep = Sweep(name="vec-old-baseline")
        sweep.add("cell", graph, GreedyMISAlgorithm, problem="mis",
                  policy=VECTORIZED)
        path = str(tmp_path / "BENCH_old.json")
        record_run(path, sweep.run("serial"))
        payload = load_baseline(path)
        for cell in payload["cells"]:  # simulate a pre-kernel-era baseline
            del cell["kernel"]
            del cell["retried"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        _, diff = record_run(path, sweep.run("serial"))
        assert diff is not None and not diff.determinism_breaks
