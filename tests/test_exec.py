"""Tests for the sweep executor: specs, cache, backends, seeding."""

from __future__ import annotations

import os
import pickle
import warnings

import pytest

from repro.core import RunConfig, run
from repro.exec import (
    AlgorithmSpec,
    ArtifactCache,
    FaultSpec,
    GraphSpec,
    PredictionSpec,
    Sweep,
    content_hash,
    derive_cell_seed,
)
from repro.graphs import grid2d, ring


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
class TestSpecs:
    def test_bare_name_resolves_in_namespace(self):
        graph = GraphSpec.of("ring", 8).build()
        assert graph.n == 8

    def test_dotted_path_resolves(self):
        spec = GraphSpec.of("repro.graphs:grid2d", 2, 3)
        assert spec.build().n == 6

    def test_callable_target(self):
        assert GraphSpec.of(ring, 5).build().n == 5

    def test_unknown_name_raises_lookup_error(self):
        with pytest.raises(LookupError, match="no_such_factory"):
            GraphSpec.of("no_such_factory").build()

    def test_literal_spec_round_trips_value(self):
        graph = grid2d(3, 3)
        spec = GraphSpec.literal(graph)
        assert spec.build() is graph
        assert "literal" in spec.key

    def test_key_changes_with_any_argument(self):
        base = GraphSpec.of("ring", 8)
        assert base.key != GraphSpec.of("ring", 9).key
        assert base.key != GraphSpec.of("line", 8).key
        assert (
            GraphSpec.of("erdos_renyi", 16, 0.1, seed=1).key
            != GraphSpec.of("erdos_renyi", 16, 0.1, seed=2).key
        )

    def test_key_is_stable_across_kwarg_order(self):
        a = GraphSpec.of("erdos_renyi", 16, seed=1, p=0.1)
        b = GraphSpec.of("erdos_renyi", 16, p=0.1, seed=1)
        assert a.key == b.key

    def test_specs_are_picklable(self):
        spec = AlgorithmSpec.of("mis_parallel")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.build().name == spec.build().name

    def test_prediction_spec_receives_graph_prefix(self):
        graph = ring(6)
        predictions = PredictionSpec.of("all_zeros_mis").build(graph)
        assert predictions == {node: 0 for node in graph.nodes}

    def test_fault_spec_builds_plan_from_graph(self):
        graph = ring(10)
        plan = FaultSpec.of("random_crash_plan", 0.2, seed=3).build(graph)
        assert len(plan.crashes) == 2
        assert all(crash.node in set(graph.nodes) for crash in plan.crashes)


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_hit_miss_accounting(self):
        cache = ArtifactCache(maxsize=4)
        calls = []
        build = lambda: calls.append(1) or "artifact"
        assert cache.get_or_build("k", build) == "artifact"
        assert cache.get_or_build("k", build) == "artifact"
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_invalidation_on_spec_change(self):
        cache = ArtifactCache(maxsize=8)
        a = cache.get_or_build(GraphSpec.of("ring", 8).key, lambda: "a")
        b = cache.get_or_build(GraphSpec.of("ring", 9).key, lambda: "b")
        assert (a, b) == ("a", "b")
        assert cache.stats()["misses"] == 2

    def test_lru_eviction(self):
        cache = ArtifactCache(maxsize=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("a", lambda: 1)  # refresh a
        cache.get_or_build("c", lambda: 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_disk_layer_survives_new_cache(self, tmp_path):
        disk = str(tmp_path / "cache")
        first = ArtifactCache(maxsize=4, disk_dir=disk)
        first.get_or_build("key", lambda: {"heavy": True})
        second = ArtifactCache(maxsize=4, disk_dir=disk)
        value = second.get_or_build(
            "key", lambda: pytest.fail("should load from disk")
        )
        assert value == {"heavy": True}
        assert second.stats()["disk_hits"] == 1

    def test_disk_layer_verifies_stored_key(self, tmp_path):
        disk = str(tmp_path / "cache")
        cache = ArtifactCache(maxsize=0, disk_dir=disk)
        cache.get_or_build("key-one", lambda: 1)
        # Simulate a digest collision: another key whose file we overwrite
        # with key-one's payload must rebuild, not alias.
        path = tmp_path / "cache" / f"{content_hash('key-two')}.pkl"
        path.write_bytes(pickle.dumps(("key-one", 1)))
        assert cache.get_or_build("key-two", lambda: 2) == 2

    def test_corrupt_disk_entry_rebuilds(self, tmp_path):
        disk = str(tmp_path / "cache")
        cache = ArtifactCache(maxsize=0, disk_dir=disk)
        cache.get_or_build("key", lambda: 7)
        path = tmp_path / "cache" / f"{content_hash('key')}.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.warns(UserWarning, match="corrupt artifact-cache entry"):
            assert cache.get_or_build("key", lambda: 7) == 7

    def test_corrupt_disk_entry_warns_evicts_and_counts(self, tmp_path):
        disk = str(tmp_path / "cache")
        cache = ArtifactCache(maxsize=0, disk_dir=disk)
        cache.get_or_build("key", lambda: 7)
        path = tmp_path / "cache" / f"{content_hash('key')}.pkl"
        path.write_bytes(b"not a pickle")
        with pytest.warns(UserWarning) as caught:
            assert cache.get_or_build("key", lambda: 7) == 7
        messages = [str(w.message) for w in caught]
        assert any(str(path) in message for message in messages)
        # The poisoned file is evicted (the rebuild re-stores a clean one),
        # so the *next* load round-trips without warning.
        assert cache.stats()["corrupt"] == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get_or_build("key", lambda: 7) == 7
        assert cache.stats()["corrupt"] == 1


# ----------------------------------------------------------------------
# Seeding
# ----------------------------------------------------------------------
class TestSeeding:
    def test_derived_seed_is_deterministic(self):
        assert derive_cell_seed(1, 0, "a") == derive_cell_seed(1, 0, "a")

    def test_derived_seed_varies_with_every_input(self):
        base = derive_cell_seed(1, 0, "a")
        assert base != derive_cell_seed(2, 0, "a")
        assert base != derive_cell_seed(1, 1, "a")
        assert base != derive_cell_seed(1, 0, "b")

    def test_explicit_cell_seed_wins(self):
        sweep = Sweep(base_seed=9)
        sweep.add(
            "cell",
            GraphSpec.of("ring", 8),
            "mis_parallel",
            predictions=PredictionSpec.of("all_zeros_mis"),
            seed=42,
        )
        row = sweep.run("serial").rows[0]
        assert row.seed == 42

    def test_rows_record_derived_seeds(self):
        sweep = Sweep(base_seed=9)
        sweep.add(
            "cell",
            GraphSpec.of("ring", 8),
            "mis_parallel",
            predictions=PredictionSpec.of("all_zeros_mis"),
        )
        row = sweep.run("serial").rows[0]
        assert row.seed == derive_cell_seed(9, 0, "cell")

    def test_sweep_row_matches_direct_run(self):
        """A sweep cell is one run(): re-executing it standalone with the
        recorded seed reproduces the row."""
        sweep = Sweep(base_seed=3)
        sweep.add(
            "cell",
            GraphSpec.of("erdos_renyi", 24, 0.15, seed=5),
            "mis_parallel",
            predictions=PredictionSpec.of("all_zeros_mis"),
        )
        row = sweep.run("serial").rows[0]
        from repro.bench.algorithms import mis_parallel
        from repro.graphs import erdos_renyi
        from repro.predictions import all_zeros_mis

        graph = erdos_renyi(24, 0.15, seed=5)
        result = run(mis_parallel(), graph, all_zeros_mis(graph), seed=row.seed)
        assert result.rounds == row.rounds
        assert result.message_count == row.message_count


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
def _noise_grid(base_seed=11):
    sweep = Sweep(name="grid", base_seed=base_seed)
    sweep.add_grid(
        {
            "ring24": GraphSpec.of("ring", 24),
            "gnp": GraphSpec.of("erdos_renyi", 24, 0.15, seed=5),
        },
        {"parallel": "mis_parallel", "simple": "mis_simple"},
        predictions={"zeros": "all_zeros_mis"},
        seeds=(0, 1),
        problem="mis",
    )
    return sweep


class TestBackends:
    def test_serial_and_process_are_equivalent(self):
        sweep = _noise_grid()
        serial = sweep.run("serial")
        process = sweep.run("process", jobs=2, chunk_size=3)
        assert serial.equivalent_to(process)
        assert serial.all_valid

    def test_chunking_does_not_change_results(self):
        sweep = _noise_grid()
        one_per_chunk = sweep.run("process", jobs=2, chunk_size=1)
        one_big_chunk = sweep.run("process", jobs=2, chunk_size=64)
        assert one_per_chunk.equivalent_to(one_big_chunk)

    def test_rows_come_back_in_cell_order(self):
        result = _noise_grid().run("process", jobs=2, chunk_size=1)
        assert [row.index for row in result.rows] == list(range(len(result)))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            _noise_grid().run("threads")

    def test_faulty_cells_execute_on_both_backends(self):
        sweep = Sweep(name="faults", base_seed=2)
        for seed in (0, 1, 2):
            sweep.add(
                f"s={seed}",
                GraphSpec.of("grid2d", 5, 5),
                "mis_hardened_simple",
                predictions=PredictionSpec.of("all_zeros_mis"),
                faults=FaultSpec.of(
                    "random_crash_plan", 0.1, drop_rate=0.05, seed=seed
                ),
                problem="mis",
                seed=seed,
                config=RunConfig(max_rounds=50, on_round_limit="partial"),
            )
        serial = sweep.run("serial")
        process = sweep.run("process", jobs=2)
        assert serial.equivalent_to(process)
        assert any(row.dropped_messages for row in serial.rows)

    def test_sweep_result_accessors(self):
        result = _noise_grid().run("serial")
        labels = [row.label for row in result]
        assert result.row(labels[0]).index == 0
        assert set(result.by_label()) == set(labels)
        assert result.rounds_by_error()
        with pytest.raises(KeyError):
            result.row("no-such-label")

    def test_to_csv(self, tmp_path):
        result = _noise_grid().run("serial")
        path = tmp_path / "rows.csv"
        result.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == len(result) + 1
        assert lines[0].startswith("label,graph,n,seed,rounds")

    def test_cache_reused_within_serial_sweep(self):
        result = _noise_grid().run("serial")
        # 2 graphs + 2 prediction mappings built once each; every other
        # lookup is a hit.
        assert result.cache_stats["misses"] == 4
        assert result.cache_stats["hits"] > 0

    def test_disk_cache_shared_across_sweeps(self, tmp_path):
        disk = str(tmp_path / "artifacts")
        first = _noise_grid().run("serial", cache_dir=disk)
        second = _noise_grid().run("serial", cache_dir=disk)
        assert first.equivalent_to(second)
        assert second.cache_stats["disk_hits"] == 4
        assert second.cache_stats["misses"] == 0


# ----------------------------------------------------------------------
# Regressions: None-valued artifacts, seed=0, effective backend
# ----------------------------------------------------------------------
class TestCacheNoneArtifacts:
    def test_memory_layer_caches_none(self):
        """A legitimately-None artifact is a hit, not a rebuild."""
        cache = ArtifactCache(maxsize=4)
        calls = []
        build = lambda: calls.append(1)  # returns None
        assert cache.get_or_build("k", build) is None
        assert cache.get_or_build("k", build) is None
        assert len(calls) == 1
        stats = cache.stats()
        assert (stats["hits"], stats["disk_hits"], stats["misses"]) == (1, 0, 1)

    def test_disk_layer_caches_none(self, tmp_path):
        disk = str(tmp_path / "cache")
        first = ArtifactCache(maxsize=4, disk_dir=disk)
        assert first.get_or_build("k", lambda: None) is None
        second = ArtifactCache(maxsize=4, disk_dir=disk)
        value = second.get_or_build(
            "k", lambda: pytest.fail("should load None from disk")
        )
        assert value is None
        assert second.stats()["disk_hits"] == 1


class TestSeedZero:
    def test_explicit_cell_seed_zero_wins(self):
        sweep = Sweep(base_seed=9)
        sweep.add(
            "cell",
            GraphSpec.of("ring", 8),
            "mis_parallel",
            predictions=PredictionSpec.of("all_zeros_mis"),
            seed=0,
        )
        assert sweep.run("serial").rows[0].seed == 0

    def test_config_seed_zero_wins(self):
        """RunConfig(seed=0) is an explicit seed, not 'unset'."""
        sweep = Sweep(base_seed=9)
        sweep.add(
            "cell",
            GraphSpec.of("ring", 8),
            "mis_parallel",
            predictions=PredictionSpec.of("all_zeros_mis"),
            config=RunConfig(seed=0),
        )
        assert sweep.run("serial").rows[0].seed == 0

    def test_unset_config_seed_still_derives(self):
        sweep = Sweep(base_seed=9)
        sweep.add(
            "cell",
            GraphSpec.of("ring", 8),
            "mis_parallel",
            predictions=PredictionSpec.of("all_zeros_mis"),
            config=RunConfig(max_rounds=50),
        )
        assert sweep.run("serial").rows[0].seed == derive_cell_seed(9, 0, "cell")

    def test_run_config_effective_seed(self):
        assert RunConfig().seed is None
        assert RunConfig().effective_seed == 0
        assert RunConfig(seed=0).effective_seed == 0
        assert RunConfig(seed=5).effective_seed == 5


class TestEffectiveBackend:
    def test_serial_sweep_reports_serial(self):
        result = _noise_grid().run("serial")
        assert result.backend == "serial"
        assert result.requested_backend == "serial"

    def test_process_sweep_reports_what_actually_ran(self):
        result = _noise_grid().run("process", jobs=2)
        assert result.requested_backend == "process"
        assert result.backend in ("process", "serial")

    def test_single_cell_process_request_runs_serially(self):
        """One cell never pays for a pool — and the result says so
        instead of claiming parallelism it didn't have."""
        sweep = Sweep(base_seed=1)
        sweep.add(
            "only",
            GraphSpec.of("ring", 8),
            "mis_parallel",
            predictions=PredictionSpec.of("all_zeros_mis"),
        )
        result = sweep.run("process")
        assert result.requested_backend == "process"
        assert result.backend == "serial"

    def test_caller_cache_with_process_backend_raises(self):
        """cache= used to be silently ignored by the process backend."""
        with pytest.raises(ValueError, match="cache"):
            _noise_grid().run("process", cache=ArtifactCache(maxsize=4))

    def test_caller_cache_honored_by_serial_backend(self):
        cache = ArtifactCache(maxsize=16)
        _noise_grid().run("serial", cache=cache)
        assert cache.stats()["misses"] > 0

    def test_telemetry_carries_both_backends(self):
        result = _noise_grid().run("serial")
        telemetry = result.telemetry()
        assert telemetry["backend"] == "serial"
        assert telemetry["requested_backend"] == "serial"


class TestSolutionSize:
    def test_mis_counts_ones_not_outputs(self):
        from repro.problems import solution_size

        outputs = {1: 1, 2: 0, 3: 1, 4: 0}
        assert solution_size(outputs, "mis") == 2
        assert solution_size(outputs, "matching") == 4
        assert solution_size(outputs) == 4
        assert solution_size({}, "mis") == 0

    def test_sweep_rows_use_ones_count_for_mis(self):
        sweep = Sweep(base_seed=1)
        sweep.add(
            "cell",
            GraphSpec.of("ring", 8),
            "mis_parallel",
            predictions=PredictionSpec.of("all_zeros_mis"),
            problem="mis",
        )
        row = sweep.run("serial").rows[0]
        # A ring MIS is a proper subset: strictly between 1 and n-1 ones.
        assert 0 < row.solution_size < 8


class TestSweepObservability:
    def test_rows_carry_elapsed(self):
        result = _noise_grid().run("serial")
        assert all(row.elapsed > 0 for row in result.rows)

    def test_profile_off_by_default(self):
        result = _noise_grid().run("serial")
        assert all(row.profile is None for row in result.rows)
        assert all(row.events is None for row in result.rows)

    def test_profiled_sweep_attaches_summaries(self):
        result = _noise_grid().run("serial", profile=True)
        for row in result.rows:
            assert row.profile["rounds"] == row.rounds_executed
            assert row.profile["messages"] == row.message_count

    def test_profiled_rows_match_unprofiled(self):
        plain = _noise_grid().run("serial")
        profiled = _noise_grid().run("serial", profile=True)
        assert plain.equivalent_to(profiled)

    def test_events_path_exports_all_cells(self, tmp_path):
        from repro.obs.events import LIFECYCLE_KINDS, read_jsonl_events

        path = str(tmp_path / "events.jsonl")
        result = _noise_grid().run("serial", events_path=path)
        entries = read_jsonl_events(path)
        assert {entry["cell"] for entry in entries} == {
            row.label for row in result.rows
        }
        sends = [e for e in entries if e["kind"] == "send"]
        assert len(sends) == sum(row.message_count for row in result.rows)
        assert any(e["kind"] in LIFECYCLE_KINDS for e in entries)

    def test_process_backend_ships_events_and_profiles(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        result = _noise_grid().run(
            "process", jobs=2, profile=True, events_path=path
        )
        from repro.obs.events import read_jsonl_events

        assert all(row.profile is not None for row in result.rows)
        assert {e["cell"] for e in read_jsonl_events(path)} == {
            row.label for row in result.rows
        }

    def test_telemetry_aggregates(self):
        result = _noise_grid().run("serial")
        telemetry = result.telemetry()
        assert telemetry["cells"] == len(result)
        assert telemetry["rounds_total"] == sum(r.rounds for r in result.rows)
        assert telemetry["messages_total"] == sum(
            r.message_count for r in result.rows
        )
        assert telemetry["valid_cells"] == len(result)
        assert telemetry["invalid_cells"] == 0
        assert telemetry["node_rounds_total"] == sum(
            r.rounds_executed * r.n for r in result.rows
        )
        assert telemetry["node_rounds_per_sec"] > 0


# ----------------------------------------------------------------------
# Worker-death recovery
# ----------------------------------------------------------------------
def _killer_ring(n, marker):
    """``ring(n)``, except building it kills the whole process first —
    unconditionally when ``marker == "ALWAYS"``, once (recording the kill
    in the marker file) otherwise.  ``os._exit`` skips all Python-level
    cleanup, so the pool loses the worker mid-chunk exactly like a
    segfault or an OOM kill would."""
    if marker == "ALWAYS":
        os._exit(1)
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("killed")
        os._exit(1)
    return ring(n)


def _killer_sweep(marker):
    sweep = Sweep(name="killer", base_seed=3)
    for index in range(4):
        sweep.add(
            f"ok{index}",
            GraphSpec.of("ring", 8),
            "mis_simple",
            predictions="all_zeros_mis",
            problem="mis",
            seed=index,
        )
    # Last, alone in its chunk at chunk_size=2: the kill deterministically
    # hits the chunk holding only this cell.
    sweep.add(
        "boom",
        GraphSpec.of(_killer_ring, 8, marker),
        "mis_simple",
        predictions="all_zeros_mis",
        problem="mis",
        seed=9,
    )
    return sweep


class TestBrokenPoolRecovery:
    def test_worker_death_retried_on_fresh_pool(self, tmp_path):
        """A transient worker death (here: dies on first build, healthy on
        retry) loses no cells: the affected cells rerun on a fresh pool and
        the sweep completes as if nothing happened — plus a warning."""
        marker = str(tmp_path / "killed-once")
        with pytest.warns(RuntimeWarning, match="worker died"):
            result = _killer_sweep(marker).run("process", jobs=2, chunk_size=2)
        assert len(result) == 5
        assert [row.index for row in result.rows] == list(range(5))
        assert all(row.failure is None for row in result.rows)
        assert result.all_valid
        assert result.row("boom").rounds > 0

    def test_unrecoverable_cell_becomes_failed_placeholder(self):
        """A cell whose worker dies on the retry too is recorded as a
        failed placeholder row; completed cells keep their results and
        the table stays complete and ordered."""
        with pytest.warns(RuntimeWarning, match="worker died"):
            result = _killer_sweep("ALWAYS").run(
                "process", jobs=2, chunk_size=2
            )
        assert len(result) == 5
        assert [row.index for row in result.rows] == list(range(5))
        boom = result.row("boom")
        assert boom.failure is not None
        assert "BrokenProcessPool" in boom.failure
        assert boom.rounds == 0
        assert boom.valid is None
        others = [row for row in result.rows if row.label != "boom"]
        assert all(row.failure is None for row in others)
        assert all(row.valid for row in others)
        assert result.telemetry()["failed_cells"] == 1


# ----------------------------------------------------------------------
# Fault plans through the sweep path (bare controllers: test_faults.py)
# ----------------------------------------------------------------------
class TestSweepBareControllerWarning:
    def _sweep(self, faults):
        from repro.faults import FaultPlan  # noqa: F401 (namespace check)

        sweep = Sweep(name="bare", base_seed=1)
        sweep.add(
            "a",
            GraphSpec.of("ring", 6),
            "mis_simple",
            predictions="all_zeros_mis",
            faults=faults,
            problem="mis",
            seed=0,
            config=RunConfig(max_rounds=50, on_round_limit="partial"),
        )
        return sweep

    def test_fault_plan_does_not_warn(self):
        from repro.faults import FaultPlan

        sweep = self._sweep(FaultPlan.crash_stop({1: 2}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sweep.run("serial")
