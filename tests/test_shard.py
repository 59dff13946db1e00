"""Tests for the shared-memory CSR store and component-sharded sweeps."""

from __future__ import annotations

import gc
import os
import pickle
import re
import sys
import warnings
import weakref

import pytest

from repro import run
from repro.algorithms.mis import GreedyMISAlgorithm
from repro.core import RunConfig
from repro.core.runner import ExecutionPolicy
from repro.errors import eta1
from repro.exec import ArtifactCache, FaultSpec, GraphSpec, Sweep
from repro.graphs import DistGraph, path_forest, ring
from repro.graphs.csr import plain_reduce
from repro.problems import MIS
from repro.shard import (
    SharedCSRStore,
    SharedCSRStoreError,
    attach_csr,
    shard_mode,
    shard_node_ids,
    shard_view,
)
from repro.shard import store as store_module


@pytest.fixture
def forest():
    return path_forest(6, 5)


# ----------------------------------------------------------------------
# SharedCSRStore lifecycle
# ----------------------------------------------------------------------
class TestSharedCSRStore:
    def test_pickle_under_store_ships_a_handle(self, forest):
        flat = pickle.dumps(forest)
        with SharedCSRStore() as store:
            blob = pickle.dumps(forest)
            assert len(blob) < 300  # a handle, not the buffers
            assert len(blob) < len(flat)
            clone = pickle.loads(blob)
        assert clone.nodes == forest.nodes
        assert clone.edges() == forest.edges()
        assert clone.delta == forest.delta

    def test_publish_is_idempotent_and_refcounted(self, forest):
        with SharedCSRStore() as store:
            first = store.publish(forest.csr)
            second = store.publish(forest.csr)
            assert first == second
            assert len(store) == 1
            store.release(forest.csr)  # drops one pin, segment stays
            assert store.handle_for(forest.csr) == first
            store.release(forest.csr)  # last pin: unlinked early
            assert store.handle_for(forest.csr) is None
            assert len(store) == 0

    def test_total_bytes_matches_handle_formula(self, forest):
        with SharedCSRStore() as store:
            handle = store.publish(forest.csr)
            n, nnz = forest.csr.n, len(forest.csr.indices)
            assert handle.nbytes == 8 * (2 * n + 1 + nnz)
            assert store.total_bytes == handle.nbytes

    def test_attach_after_close_raises_clear_error(self, forest):
        store = SharedCSRStore()
        store.activate()
        handle = store.publish(forest.csr)
        store.close()
        with pytest.raises(SharedCSRStoreError, match="is gone"):
            attach_csr(handle)

    def test_closed_store_rejects_use(self, forest):
        store = SharedCSRStore()
        store.close()
        with pytest.raises(SharedCSRStoreError):
            store.publish(forest.csr)
        with pytest.raises(SharedCSRStoreError):
            store.activate()
        store.close()  # idempotent

    def test_deactivate_restores_flat_pickling(self, forest):
        flat = pickle.dumps(forest)
        store = SharedCSRStore()
        try:
            store.activate()
            assert len(pickle.dumps(forest)) < len(flat)
            store.deactivate()
            assert pickle.dumps(forest) == flat
        finally:
            store.close()

    def test_attached_topology_flat_pickles_without_store(self, forest):
        """A worker re-pickling an attached graph with no store active
        must fall back to flat buffers, not a dead handle."""
        with SharedCSRStore() as store:
            clone = pickle.loads(pickle.dumps(forest))
            store.deactivate()
            blob = pickle.dumps(clone)
        reclone = pickle.loads(blob)  # store closed: only flat data works
        assert reclone.edges() == forest.edges()

    def test_file_backend_roundtrip_and_cleanup(self, forest, tmp_path):
        directory = str(tmp_path / "segments")
        with SharedCSRStore(backend="file", directory=directory) as store:
            blob = pickle.dumps(forest)
            handle = store.handle_for(forest.csr)
            assert handle.kind == "file"
            assert os.path.exists(handle.name)
            clone = pickle.loads(blob)
            assert clone.edges() == forest.edges()
        assert not os.path.exists(handle.name)

    def test_file_backend_attach_after_close_raises(self, forest, tmp_path):
        store = SharedCSRStore(backend="file", directory=str(tmp_path))
        store.activate()
        handle = store.publish(forest.csr)
        store.close()
        with pytest.raises(SharedCSRStoreError, match="is gone"):
            attach_csr(handle)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SharedCSRStore(backend="carrier-pigeon")

    def test_auto_backend_falls_back_to_files_on_eacces(
        self, forest, tmp_path, monkeypatch
    ):
        """A sandbox denying POSIX shared memory (EACCES on segment
        creation) must silently degrade ``"auto"`` to the mmap'd-file
        backend — and the refcounted release path must leave no stray
        segment files under the cache directory."""
        import errno
        from multiprocessing import shared_memory

        def denied(*args, **kwargs):
            raise PermissionError(errno.EACCES, "shm denied by sandbox")

        monkeypatch.setattr(shared_memory, "SharedMemory", denied)
        directory = str(tmp_path / "cache")
        with SharedCSRStore(directory=directory) as store:
            blob = pickle.dumps(forest)
            handle = store.handle_for(forest.csr)
            assert handle is not None and handle.kind == "file"
            assert os.path.dirname(handle.name) == directory
            clone = pickle.loads(blob)  # attach path never touches shm
            assert clone.edges() == forest.edges()
            store.publish(forest.csr)  # second pin
            store.release(forest.csr)  # drops to one: file stays
            assert os.path.exists(handle.name)
            store.release(forest.csr)  # last pin: unlinked early
            assert not os.path.exists(handle.name)
            assert os.listdir(directory) == []
        assert os.listdir(directory) == []

    def test_shm_backend_surfaces_eacces_instead_of_falling_back(
        self, forest, monkeypatch
    ):
        """An explicit ``backend="shm"`` request must fail loudly when
        shared memory is denied, not quietly switch to files."""
        import errno
        from multiprocessing import shared_memory

        def denied(*args, **kwargs):
            raise PermissionError(errno.EACCES, "shm denied by sandbox")

        monkeypatch.setattr(shared_memory, "SharedMemory", denied)
        store = SharedCSRStore(backend="shm")
        try:
            with pytest.raises(PermissionError):
                store.publish(forest.csr)
        finally:
            store.close()


# ----------------------------------------------------------------------
# Content-key and pickle-protocol invariants
# ----------------------------------------------------------------------
class TestContentKeyStability:
    def test_literal_key_ignores_active_store(self, forest):
        """Content identity must not encode ephemeral segment names."""
        key_before = GraphSpec.literal(forest).key
        with SharedCSRStore():
            key_during = GraphSpec.literal(forest).key
        key_after = GraphSpec.literal(forest).key
        assert key_before == key_during == key_after

    def test_plain_reduce_suspends_and_restores_hook(self, forest):
        flat = pickle.dumps(forest.csr)
        with SharedCSRStore():
            with plain_reduce():
                assert pickle.dumps(forest.csr) == flat
            assert len(pickle.dumps(forest.csr)) < len(flat)

    def test_disk_cache_entries_outlive_the_store(self, forest, tmp_path):
        """_store_to_disk pins flat buffers even while a store is active:
        the cache entry must be loadable after the store is gone."""
        disk = str(tmp_path / "cache")
        with SharedCSRStore():
            cache = ArtifactCache(maxsize=0, disk_dir=disk)
            cache.get_or_build("graph-key", lambda: forest)
        fresh = ArtifactCache(maxsize=0, disk_dir=disk)
        loaded = fresh.get_or_build(
            "graph-key", lambda: pytest.fail("should load from disk")
        )
        assert loaded.edges() == forest.edges()

    def test_key_is_protocol_stable_for_csr_payloads(self, forest):
        """The literal key pins protocol=4; HIGHEST_PROTOCOL storage
        variation must not leak into identity."""
        key = GraphSpec.literal(forest).key
        highest = pickle.dumps(forest, protocol=pickle.HIGHEST_PROTOCOL)
        clone = pickle.loads(highest)
        assert GraphSpec.literal(clone).key == key


# ----------------------------------------------------------------------
# Detaching attached topologies
# ----------------------------------------------------------------------
def _mapping_closed(closer):
    """Whether an attachment's mapping is closed (shm or mmap'd file)."""
    if isinstance(closer, store_module._MappedFile):
        return closer.map.closed
    # ``SharedMemory.close`` drops ``buf`` before closing the mmap, which
    # an outliving export can still refuse.
    return closer._mmap is None


class TestDetach:
    @pytest.mark.parametrize("backend", ["auto", "file"])
    @pytest.mark.parametrize("use", ["eta1", "vectorized"])
    def test_detach_closes_mapping_after_array_view(
        self, forest, tmp_path, backend, use
    ):
        """The topology's array view exports the segment's buffers; the
        detach drops it, so the mapping still closes."""
        with SharedCSRStore(backend=backend, directory=str(tmp_path)) as store:
            attached = pickle.loads(pickle.dumps(forest))
            name = store.handle_for(forest.csr).name
            if use == "eta1":
                predictions = dict.fromkeys(attached.nodes, 1)
                assert eta1(attached, predictions) == eta1(forest, predictions)
            else:
                result = run(
                    GreedyMISAlgorithm(),
                    attached,
                    policy=ExecutionPolicy(schedule="vectorized"),
                )
                assert MIS.is_solution(attached, result.outputs)
            assert attached.csr._arrays is not None
            _topology, closer = store_module._ATTACHED[name]
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                store_module.detach_all()
            assert _mapping_closed(closer)
            assert name not in store_module._ATTACHED

    @pytest.mark.parametrize("backend", ["auto", "file"])
    def test_export_outliving_detach_warns_with_segment_name(
        self, forest, tmp_path, backend, monkeypatch
    ):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with SharedCSRStore(backend=backend, directory=str(tmp_path)) as store:
            attached = pickle.loads(pickle.dumps(forest))
            name = store.handle_for(forest.csr).name
            closer = weakref.ref(store_module._ATTACHED[name][1])
            held = attached.csr.arrays.indptr
            with pytest.warns(ResourceWarning, match=re.escape(repr(name))):
                store_module.detach_all()
            assert not _mapping_closed(closer())
            # The open mapping stays held, so collecting the graph runs
            # no finalizer that would retry the close and fail.
            del attached
            gc.collect()
            mapping = closer()
            assert mapping is not None
            assert unraisable == []
            # Once the export is gone, the next detach closes it.
            del held
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                store_module.detach_all()
            assert _mapping_closed(mapping)
            assert store_module._UNCLOSED == []


# ----------------------------------------------------------------------
# Subgraph freshness on attached topologies
# ----------------------------------------------------------------------
class TestAttachedSubgraphs:
    def test_subgraph_of_attached_subgraph_is_fresh(self, forest):
        with SharedCSRStore():
            attached = pickle.loads(pickle.dumps(forest))
        one_path = sorted(forest.components()[0])
        sub = attached.subgraph(one_path)
        assert sub.n == len(one_path)
        inner = sub.subgraph(one_path[:3])
        assert inner.n == 3
        assert inner.num_edges == 2
        assert inner.delta == 2

    def test_attached_components_match_plain(self, forest):
        with SharedCSRStore():
            attached = pickle.loads(pickle.dumps(forest))
        assert attached.components() == forest.components()
        assert attached.csr.components() == forest.csr.components()


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_shard_node_ids_partition_the_graph(self, forest):
        shard_count = 4
        seen = []
        for shard in range(shard_count):
            seen.extend(shard_node_ids(forest, shard, shard_count))
        assert sorted(seen) == sorted(forest.nodes)
        assert len(seen) == len(set(seen))

    def test_shards_never_split_a_component(self, forest):
        shard_count = 4
        for shard in range(shard_count):
            members = set(shard_node_ids(forest, shard, shard_count))
            for component in forest.components():
                overlap = members & component
                assert overlap in (set(), component)

    def test_shard_view_pins_parent_ambient_quantities(self, forest):
        one_path = sorted(forest.components()[0])
        view = shard_view(forest, one_path)
        assert view.n == forest.n
        assert view.delta == forest.delta
        assert len(view.nodes) == len(one_path)
        # ...but the view survives pickling with the pins intact.
        clone = pickle.loads(pickle.dumps(view))
        assert clone.n == forest.n
        assert clone.delta == forest.delta

    def test_shard_mode_gates_whole_graph_features(self, forest):
        def cell_for(**kwargs):
            sweep = Sweep()
            sweep.add(
                "c",
                GraphSpec.literal(forest),
                "greedy_mis_reference",
                policy=ExecutionPolicy(shard="components"),
                **kwargs,
            )
            return sweep.cells[0]

        plain = cell_for()
        assert shard_mode(plain) == "components"
        assert shard_mode(plain, profile=True) is None
        assert shard_mode(plain, events=True) is None
        faulted = cell_for(faults=FaultSpec.of("random_crash_plan", 0.2, seed=1))
        assert shard_mode(faulted) is None
        metered = cell_for(metrics=lambda **kw: {})
        assert shard_mode(metered) is None

    def test_async_schedule_rejects_sharding(self):
        with pytest.raises(ValueError, match="async"):
            ExecutionPolicy(schedule="async", shard="components")

    def test_unknown_shard_mode_rejected(self):
        with pytest.raises(ValueError, match="shard"):
            ExecutionPolicy(shard="edges")


# ----------------------------------------------------------------------
# Differential: sharded runs are bit-identical to unsharded runs
# ----------------------------------------------------------------------
def _sweep(graph, *, shard=None, share=False, schedule="eager", faults=None):
    sweep = Sweep(name="differential", base_seed=11)
    policy = ExecutionPolicy(schedule=schedule, shard=shard, share_graph=share)
    for template in ("greedy_mis_reference", "mis_simple"):
        sweep.add(
            template,
            GraphSpec.literal(graph),
            template,
            predictions="all_zeros_mis",
            problem="mis",
            faults=faults,
            policy=policy,
        )
    return sweep


class TestShardedExecution:
    @pytest.mark.parametrize("schedule", ["eager", "quiescent"])
    def test_serial_sharded_matches_unsharded(self, forest, schedule):
        base = _sweep(forest, schedule=schedule).run("serial")
        sharded = _sweep(forest, shard="components", schedule=schedule).run(
            "serial", jobs=3
        )
        assert sharded.equivalent_to(base)
        assert all(row.shards == 3 for row in sharded.rows)
        assert all(row.shards is None for row in base.rows)

    def test_vectorized_sharded_matches_unsharded(self, forest):
        # Only the greedy template has a compiled whole-frontier kernel.
        def sweep(shard):
            grid = Sweep(name="vectorized", base_seed=11)
            grid.add(
                "greedy",
                GraphSpec.literal(forest),
                "greedy_mis_reference",
                predictions="all_zeros_mis",
                problem="mis",
                policy=ExecutionPolicy(schedule="vectorized", shard=shard),
            )
            return grid

        base = sweep(None).run("serial")
        sharded = sweep("components").run("serial", jobs=3)
        assert sharded.equivalent_to(base)
        assert sharded.rows[0].kernel == base.rows[0].kernel

    def test_process_sharded_with_store_matches_unsharded(self, forest):
        base = _sweep(forest).run("serial")
        sharded = _sweep(forest, shard="components", share=True).run(
            "process", jobs=2
        )
        assert sharded.equivalent_to(base)
        assert sharded.shared_bytes > 0
        for row in sharded.rows:
            assert row.shards == 2
            assert row.ship_bytes is not None
            assert row.shared_bytes == 8 * (
                2 * forest.csr.n + 1 + len(forest.csr.indices)
            )
        telemetry = sharded.telemetry()
        assert telemetry["sharded_cells"] == len(sharded.rows)
        assert telemetry["shards_total"] == 2 * len(sharded.rows)
        assert telemetry["ship_bytes_total"] > 0
        assert telemetry["shared_bytes"] == sharded.shared_bytes

    def test_connected_graph_tolerates_empty_shards(self):
        graph = ring(9)
        base = _sweep(graph).run("serial")
        sharded = _sweep(graph, shard="components").run("serial", jobs=4)
        assert sharded.equivalent_to(base)

    def test_shard_count_does_not_change_results(self, forest):
        runs = [
            _sweep(forest, shard="components").run("serial", jobs=jobs)
            for jobs in (1, 2, 5)
        ]
        assert runs[0].equivalent_to(runs[1])
        assert runs[1].equivalent_to(runs[2])

    def test_faulted_cells_run_unsharded_with_warning(self, forest):
        faults = FaultSpec.of("random_crash_plan", 0.2, seed=5)
        with pytest.warns(RuntimeWarning, match="running unsharded"):
            result = _sweep(forest, shard="components", faults=faults).run(
                "serial", jobs=3
            )
        assert all(row.shards is None for row in result.rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            base = _sweep(forest, faults=faults).run("serial")
        assert result.equivalent_to(base)

    def test_ship_bytes_are_constant_in_graph_size(self):
        """The whole point: per-cell pool traffic is a handle plus spec
        overhead, independent of n — a 10× larger graph ships the same."""
        small, large = path_forest(6, 5), path_forest(6, 50)
        results = [
            _sweep(graph, shard="components", share=True).run("process", jobs=2)
            for graph in (small, large)
        ]
        ship_small = sum(row.ship_bytes for row in results[0].rows)
        ship_large = sum(row.ship_bytes for row in results[1].rows)
        flat_growth = len(pickle.dumps(large)) - len(pickle.dumps(small))
        assert flat_growth > 2000  # flat buffers grow linearly...
        assert abs(ship_large - ship_small) < 500  # ...handles do not

    def test_share_graph_without_shard_still_ships_handles(self, forest):
        base = _sweep(forest).run("serial")
        shared = _sweep(forest, share=True).run("process", jobs=2)
        assert shared.equivalent_to(base)
        assert shared.shared_bytes > 0
        assert all(row.shards is None for row in shared.rows)
        assert all(row.ship_bytes is not None for row in shared.rows)

    def test_sharded_csv_row_includes_shard_columns(self, forest, tmp_path):
        result = _sweep(forest, shard="components").run("serial", jobs=2)
        path = tmp_path / "rows.csv"
        result.to_csv(str(path))
        header = path.read_text().splitlines()[0].split(",")
        assert "shards" in header
        assert "shared_bytes" in header
        assert "ship_bytes" in header
