"""The capability table: which execution path reproduces which runs.

:mod:`repro.simulator.capabilities` holds one row per path and one check.
The policy-matrix fuzz below draws program family × schedule × shard ×
faults × sinks/trace × profile × sweep metrics × fast × prediction noise
and holds every draw to one rule: it reproduces the eager interpreter
run with the same faults, or it raises
:class:`~repro.UnsupportedScheduleError` before any engine's round 0 —
and it raises exactly where the table (or the kernel registry) refuses.
Every warning is an error except the requested fallback's, so a
warn-and-downgrade never passes.  Async runs with ``phi > 0`` are left
out: they do not reproduce the synchronous run (E27).
"""

import argparse
import re
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import ExecutionPolicy, RunConfig, UnsupportedScheduleError, run
from repro.algorithms.coloring import PaletteGreedyColoringAlgorithm
from repro.algorithms.matching import GreedyMatchingAlgorithm
from repro.algorithms.mis import GreedyMISAlgorithm
from repro.bench.algorithms import mis_consecutive, mis_simple
from repro.exec import GraphSpec, Sweep
from repro.faults import FaultPlan
from repro.graphs import erdos_renyi, path_forest, random_tree
from repro.obs import MemoryEventSink
from repro.predictions import noisy_predictions
from repro.problems import MATCHING, MIS, VERTEX_COLORING
from repro.shard import run_edgecut
from repro.simulator import SyncEngine
from repro.simulator.capabilities import (
    FALLBACK,
    FEATURES,
    PATHS,
    SHARDS,
    refusal,
    require,
)

FAMILIES = {
    "greedy-mis": (GreedyMISAlgorithm, MIS),
    "matching": (GreedyMatchingAlgorithm, MATCHING),
    "coloring": (PaletteGreedyColoringAlgorithm, VERTEX_COLORING),
    "mis_simple": (mis_simple, MIS),
    "mis_consecutive": (mis_consecutive, MIS),
}

SCHEDULES = {
    "eager": {"schedule": "eager"},
    "quiescent": {"schedule": "quiescent"},
    "quiescent-debug": {"schedule": "quiescent-debug"},
    "vectorized": {"schedule": "vectorized"},
    "vectorized+fallback": {"schedule": "vectorized", "fallback": "interpret"},
    "async": {"schedule": "async", "phi": 0},
}

#: Features a draw may add; ``metrics`` applies to sweep cells only.
EXTRAS = ("faults", "sinks", "trace", "profile", "metrics")

#: The families the kernel registry compiles.
KERNEL_FAMILIES = {"greedy-mis", "matching", "coloring"}


@contextmanager
def _strict_warnings():
    """Every warning an error, except the requested fallback's."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings(
            "ignore", message=".*falling back", category=RuntimeWarning
        )
        yield


@contextmanager
def _setups():
    """Count engine setup phases (round 0) while the block runs."""
    calls = []
    original = SyncEngine._setup_phase

    def counted(engine):
        calls.append(1)
        return original(engine)

    SyncEngine._setup_phase = counted
    try:
        yield calls
    finally:
        SyncEngine._setup_phase = original


def _accepted(family, spec, shard, extras):
    """Whether the table and the kernel registry take the drawn run."""
    used = {
        "faults": "faults" in extras,
        "sinks": bool({"sinks", "trace"} & extras),
        "profile": "profile" in extras,
    }
    schedule, fallback = spec["schedule"], spec.get("fallback")
    if shard is None:
        if schedule != "vectorized" or fallback:
            return True
        return family in KERNEL_FAMILIES and not refusal("kernel", **used)
    if fallback:
        schedule = FALLBACK[schedule]
    if refusal(shard, schedule, metrics="metrics" in extras, **used):
        return False
    return schedule != "vectorized" or family in KERNEL_FAMILIES


def _footprint(result):
    return (
        result.outputs,
        result.rounds,
        result.rounds_executed,
        result.message_count,
        result.total_bits,
        result.max_message_bits,
        result.bandwidth_violations,
        result.dropped_messages,
        dict(result.records),
        result.stuck is None,
    )


# ----------------------------------------------------------------------
# Policy-matrix fuzz
# ----------------------------------------------------------------------
class TestPolicyMatrix:
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        schedule=st.sampled_from(sorted(SCHEDULES)),
        shard=st.sampled_from([None, *SHARDS]),
        jobs=st.integers(min_value=2, max_value=3),
        extras=st.one_of(
            st.just(frozenset()),
            st.frozensets(st.sampled_from(EXTRAS), min_size=1, max_size=3),
        ),
        fast=st.booleans(),
        noise=st.sampled_from([0.0, 0.3, 1.0]),
        n=st.integers(min_value=1, max_value=24),
        p=st.sampled_from([0.08, 0.2, 0.4]),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=500, deadline=None)
    def test_reproduces_eager_or_refuses_before_round_one(
        self, family, schedule, shard, jobs, extras, fast, noise, n, p, seed
    ):
        factory, problem = FAMILIES[family]
        accepted = _accepted(family, SCHEDULES[schedule], shard, extras)
        graph = erdos_renyi(n, p, seed=seed)
        predictions = noisy_predictions(problem, graph, noise, seed=seed)
        faults = None
        if "faults" in extras:
            faults = FaultPlan.message_loss(0.2, seed=seed)
        base = RunConfig(
            seed=seed, faults=faults, fast=fast, on_round_limit="partial"
        )
        with _strict_warnings():
            reference = run(factory(), graph, predictions, config=base)
            try:
                policy = ExecutionPolicy(shard=shard, **SCHEDULES[schedule])
            except UnsupportedScheduleError:
                assert not accepted, "refused a run the table takes"
                return
            with _setups() as setups:
                try:
                    if shard is None:
                        drawn = self._direct(
                            factory, graph, predictions, base, policy, extras
                        )
                    else:
                        drawn = self._sharded(
                            factory, problem, graph, predictions, base,
                            policy, jobs, extras,
                        )
                except UnsupportedScheduleError:
                    assert setups == [], "refused after an engine started"
                    assert not accepted, "refused a run the table takes"
                    return
        assert accepted, "ran a run the table refuses"
        if shard is None:
            assert _footprint(drawn) == _footprint(reference)
            return
        sharded, unsharded, eager = drawn
        row = sharded.rows[0]
        assert row.shards == jobs
        # The kernel column names what ran: the drawn schedule where the
        # shard path's row takes it, the fallback's interpreter elsewhere.
        if policy.schedule in PATHS[shard].schedules:
            assert row.kernel == unsharded.rows[0].kernel
        else:
            assert row.kernel is None
        row.kernel = None
        assert sharded.equivalent_to(eager)

    @staticmethod
    def _direct(factory, graph, predictions, base, policy, extras):
        return run(
            factory(),
            graph,
            predictions,
            config=base.with_overrides(
                policy=policy,
                trace="trace" in extras,
                profile="profile" in extras,
            ),
            sinks=[MemoryEventSink()] if "sinks" in extras else None,
        )

    @staticmethod
    def _sharded(
        factory, problem, graph, predictions, base, policy, jobs, extras
    ):
        def sweep(shard_policy, **extra):
            grid = Sweep(name="matrix")
            grid.add(
                "cell",
                GraphSpec.literal(graph),
                factory,
                predictions=lambda _graph: predictions,
                problem=problem.name,
                seed=base.seed,
                config=base.with_overrides(policy=shard_policy, **extra),
                metrics=(lambda *args: {}) if "metrics" in extras else None,
            )
            return grid

        sharded = sweep(policy, trace="trace" in extras).run(
            "serial",
            jobs=jobs,
            profile="profile" in extras,
            events="sinks" in extras,
        )
        unsharded = sweep(
            ExecutionPolicy(schedule=policy.schedule, fallback=policy.fallback)
        ).run("serial")
        return sharded, unsharded, sweep(ExecutionPolicy()).run("serial")


# ----------------------------------------------------------------------
# Behaviour each layer takes from the table
# ----------------------------------------------------------------------
class TestRefusals:
    @pytest.mark.parametrize("shard", SHARDS)
    def test_run_and_engine_refuse_a_shard_policy(self, shard):
        graph = random_tree(40, seed=1)
        policy = ExecutionPolicy(shard=shard)
        with pytest.raises(UnsupportedScheduleError, match="shard"):
            run(GreedyMISAlgorithm(), graph, policy=policy)
        with pytest.raises(UnsupportedScheduleError, match="shard"):
            SyncEngine(
                graph,
                lambda node: GreedyMISAlgorithm().build_program(),
                policy=policy,
            )

    @pytest.mark.parametrize("shard", SHARDS)
    def test_async_shard_policy_refused_at_construction(self, shard):
        with pytest.raises(ValueError, match="async"):
            ExecutionPolicy(schedule="async", shard=shard)
        with pytest.raises(UnsupportedScheduleError, match="async"):
            ExecutionPolicy(schedule="async", shard=shard)

    @pytest.mark.parametrize("shard", SHARDS)
    @pytest.mark.parametrize(
        "cell_kwargs, run_kwargs, match",
        [
            ({"faults": FaultPlan.message_loss(0.1, seed=1)}, {}, "fault"),
            ({"metrics": lambda *args: {}}, {}, "metrics"),
            ({}, {"profile": True}, "profile"),
            ({}, {"events": True}, "sink"),
            ({"config": RunConfig(trace=True)}, {}, "trace"),
        ],
    )
    def test_sweep_refuses_before_any_cell_runs(
        self, shard, cell_kwargs, run_kwargs, match
    ):
        calls = []
        graph = GraphSpec.literal(path_forest(4, 5))
        sweep = Sweep(name="refused")
        sweep.add(
            "first",
            graph,
            "greedy_mis_reference",
            metrics=lambda *args: calls.append(args) or {},
        )
        sweep.add(
            "sharded",
            graph,
            "greedy_mis_reference",
            policy=ExecutionPolicy(shard=shard),
            **cell_kwargs,
        )
        with pytest.raises(UnsupportedScheduleError, match=match):
            sweep.run("serial", jobs=2, **run_kwargs)
        assert calls == []

    def test_edgecut_fallback_warns_once_and_matches_quiescent(self):
        graph = random_tree(60, seed=4)
        with pytest.raises(UnsupportedScheduleError, match="edge-cut"):
            vectorized = ExecutionPolicy(schedule="vectorized", shard="edgecut")
            run_edgecut(
                GreedyMISAlgorithm(),
                graph,
                config=RunConfig(policy=vectorized),
                shard_count=3,
            )
        policy = ExecutionPolicy(
            schedule="vectorized", shard="edgecut", fallback="interpret"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sharded = run_edgecut(
                GreedyMISAlgorithm(),
                graph,
                config=RunConfig(seed=2, policy=policy),
                shard_count=3,
            )
        assert len(caught) == 1
        assert "falling back" in str(caught[0].message)
        reference = run(
            GreedyMISAlgorithm(),
            graph,
            seed=2,
            policy=ExecutionPolicy(schedule="quiescent"),
        )
        assert _footprint(sharded) == _footprint(reference)

    @pytest.mark.parametrize("shard", SHARDS)
    def test_one_job_runs_whole_and_records_no_shards(self, shard):
        def sweep(policy):
            grid = Sweep(name="one-job")
            grid.add(
                "cell",
                GraphSpec.literal(path_forest(4, 6)),
                "greedy_mis_reference",
                problem="mis",
                seed=3,
                policy=policy,
            )
            return grid

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            whole = sweep(ExecutionPolicy(shard=shard)).run("serial", jobs=1)
        assert whole.equivalent_to(sweep(ExecutionPolicy()).run("serial"))
        assert [row.shards for row in whole.rows] == [None]

    def test_messages_name_what_is_refused(self):
        cases = [
            (("edgecut", "vectorized"), {}, "edge-cut"),
            (("edgecut",), {"sinks": True}, "trace"),
            (("components", "async"), {}, "async"),
            (("kernel",), {"sinks": True}, "sink"),
        ]
        for args, features, word in cases:
            with pytest.raises(UnsupportedScheduleError, match=word):
                require(*args, **features)


# ----------------------------------------------------------------------
# Everything else that reads the table
# ----------------------------------------------------------------------
class TestDerived:
    def test_schedules_read_their_rows(self):
        for name, caps in repro.schedules().items():
            assert caps["paths"] == tuple(
                path for path, row in PATHS.items() if name in row.schedules
            )
            assert set(caps) >= {"quiescence", "async", "profile", "kernels"}

    def test_shard_names_come_from_the_table(self):
        from repro.cli import build_parser

        commands = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        sweep = commands.choices["sweep"]
        shard = next(a for a in sweep._actions if a.dest == "shard")
        assert tuple(shard.choices) == SHARDS
        with pytest.raises(ValueError, match="shard"):
            ExecutionPolicy(shard="nodes")

    def test_performance_doc_carries_the_table(self):
        doc = (Path(__file__).parents[1] / "docs" / "PERFORMANCE.md").read_text(
            encoding="utf-8"
        )
        found = re.search(
            r"<!-- capability-table:begin -->\n(.*?)<!-- capability-table:end -->",
            doc,
            re.S,
        )
        assert found, "docs/PERFORMANCE.md lacks the capability-table markers"
        assert found.group(1) == markdown(), (
            "regenerate the block between the markers in "
            "docs/PERFORMANCE.md:\n" + markdown()
        )


def markdown():
    """The capability table as docs/PERFORMANCE.md carries it."""
    head = ["path", "schedules", *FEATURES, "why the rest is refused"]
    lines = [
        "| " + " | ".join(head) + " |",
        "|" + "---|" * len(head),
    ]
    for name, row in PATHS.items():
        kind = " (automatic)" if row.automatic else ""
        kind = " (`shard=`)" if row.shard else kind
        cells = [
            f"`{name}`{kind}",
            ", ".join(row.schedules),
            *("yes" if feature in row.features else "no" for feature in FEATURES),
            row.why or "refuses nothing but `shard=`",
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
