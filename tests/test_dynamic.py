"""Tests for the dynamic epoch-stream pipeline (repro.dynamic)."""

import random
import subprocess
import sys
import warnings

import pytest

from repro.bench.algorithms import matching_simple, mis_simple
from repro.dynamic import (
    DATASET_SHA256,
    DATASET_URLS,
    DatasetFetchError,
    DynamicRunner,
    EpochBatch,
    SyntheticChurnStream,
    TEMPORAL_DATASETS,
    TemporalStream,
    apply_batch,
    fetch_dataset,
    parse_temporal_events,
    recourse_between,
    synthetic_temporal_events,
    temporal_stream,
)
from repro.graphs import CSRTopology, DistGraph, erdos_renyi, line
from repro.problems import MATCHING, MIS


def _fallback_stream(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return temporal_stream("collegemsg", **kwargs)


class TestApplyBatch:
    def test_insert_and_delete(self):
        graph = line(5)
        batch = EpochBatch(insert_edges=((1, 5),), delete_edges=((2, 3),))
        updated = apply_batch(graph, batch)
        assert updated.has_edge(1, 5)
        assert not updated.has_edge(2, 3)
        assert updated.nodes == graph.nodes

    def test_node_arrival_with_attachments(self):
        graph = line(4)
        batch = EpochBatch(insert_edges=((1, 5), (4, 5)), add_nodes=(5,))
        updated = apply_batch(graph, batch)
        assert 5 in updated
        assert updated.neighbors(5) == frozenset({1, 4})
        assert updated.d >= 5

    def test_node_departure_drops_incident_edges(self):
        graph = line(5)
        updated = apply_batch(graph, EpochBatch(remove_nodes=(3,)))
        assert 3 not in updated
        assert not updated.has_edge(2, 3)
        assert updated.num_edges == graph.num_edges - 2

    def test_sloppy_events_ignored(self):
        graph = line(4)
        batch = EpochBatch(
            insert_edges=((1, 99), (2, 2)),  # unknown endpoint, self-loop
            delete_edges=((1, 4),),          # not an edge
        )
        updated = apply_batch(graph, batch)
        assert updated.edges() == graph.edges()

    def test_d_never_shrinks(self):
        graph = line(6)
        updated = apply_batch(graph, EpochBatch(remove_nodes=(6,)))
        assert updated.d == graph.d

    def test_non_positive_arrivals_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            apply_batch(line(3), EpochBatch(add_nodes=(0,)))

    def test_same_graph_as_the_adjacency_constructor(self):
        from repro.graphs import grid2d

        graph = grid2d(5, 5)
        batch = EpochBatch(
            insert_edges=((1, 26), (3, 9)),
            delete_edges=((1, 2),),
            add_nodes=(26,),
            remove_nodes=(13,),
        )
        updated = apply_batch(graph, batch, name="next")
        adjacency = {node: updated.neighbors(node) for node in updated.nodes}
        attrs = {node: updated.node_attrs(node) for node in updated.nodes}
        rebuilt = DistGraph(adjacency, d=updated.d, attrs=attrs, name="next")
        assert updated.nodes == rebuilt.nodes
        assert updated.edges() == rebuilt.edges()
        assert updated.csr.indptr == rebuilt.csr.indptr
        assert updated.csr.indices == rebuilt.csr.indices
        assert updated.node_attrs(1) == graph.node_attrs(1)
        assert updated.node_attrs(1) is not graph.node_attrs(1)
        assert not updated.node_attrs(26)


def _apply_batch_oracle(graph, batch, name=""):
    """``apply_batch`` as it was when it read ``graph.neighbors``, kept
    verbatim as an oracle for the CSR-row version."""
    removed = set(batch.remove_nodes)
    adjacency = {
        node: {other for other in graph.neighbors(node) if other not in removed}
        for node in graph.nodes
        if node not in removed
    }
    for u, v in batch.delete_edges:
        if u in adjacency and v in adjacency:
            adjacency[u].discard(v)
            adjacency[v].discard(u)
    for node in batch.add_nodes:
        adjacency.setdefault(int(node), set())
    for u, v in batch.insert_edges:
        if u in adjacency and v in adjacency and u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    top = max(adjacency, default=0)
    attrs = {
        node: graph.node_attrs(node)
        for node in adjacency
        if node in graph and graph.node_attrs(node)
    }
    return DistGraph._from_csr(
        CSRTopology.from_adjacency(adjacency),
        d=max(graph.d, top),
        attrs=attrs,
        name=name or graph.name,
    )


def _sloppy(batch, graph, rng):
    """``batch`` plus events a temporal stream may carry: deletions of
    absent edges, and inserts with a removed or an unknown endpoint."""
    nodes = graph.nodes
    pairs = [tuple(sorted(rng.sample(nodes, 2))) for _ in range(4)]
    absent = tuple(pair for pair in pairs if not graph.has_edge(*pair))
    inserts = [(rng.choice(nodes), graph.d + 1000)]
    for gone in batch.remove_nodes:
        other = rng.choice([node for node in nodes if node != gone])
        inserts.append((min(gone, other), max(gone, other)))
    return EpochBatch(
        insert_edges=batch.insert_edges + tuple(inserts),
        delete_edges=batch.delete_edges + absent,
        add_nodes=batch.add_nodes,
        remove_nodes=batch.remove_nodes,
    )


class TestApplyBatchOracle:
    def test_the_same_graphs_as_reading_neighbor_sets(self):
        """100 seeded churn epochs with node departures and arrivals and
        sloppy events: the CSR-row version builds the oracle's graph
        (ids, rows, ``d``, attrs, name) and no neighbor set of its input."""
        base = erdos_renyi(60, 0.08, seed=11)
        base = base.with_attrs({node: {"w": node} for node in base.nodes[::4]})
        stream = SyntheticChurnStream(
            base, 100, add=4, remove=4, add_nodes=1, remove_nodes=1, seed=5
        )
        rng = random.Random(7)
        graph = base
        for epoch, batch in enumerate(stream.batches(), start=1):
            batch = _sloppy(batch, graph, rng)
            updated = apply_batch(graph, batch, name=f"e{epoch}")
            assert graph._neighbor_cache == {}
            expected = _apply_batch_oracle(graph, batch, name=f"e{epoch}")
            assert updated.csr.ids == expected.csr.ids
            assert updated.csr.indptr == expected.csr.indptr
            assert updated.csr.indices == expected.csr.indices
            assert updated.d == expected.d and updated.name == expected.name
            assert updated._attrs == expected._attrs
            graph = updated
        assert graph.d > base.d and len(graph._attrs) > 0


class TestSyntheticChurnStream:
    def test_replayable(self):
        graph = erdos_renyi(30, 0.15, seed=1)
        stream = SyntheticChurnStream(
            graph, 4, add=3, remove=3, add_nodes=1, remove_nodes=1, seed=5
        )
        assert list(stream.batches()) == list(stream.batches())

    def test_batch_sizes_match_request(self):
        graph = erdos_renyi(40, 0.1, seed=2)
        stream = SyntheticChurnStream(graph, 5, add=4, remove=4, seed=3)
        for batch in stream.batches():
            assert len(batch.insert_edges) == 4
            assert len(batch.delete_edges) == 4
            assert not batch.add_nodes and not batch.remove_nodes

    def test_batches_apply_cleanly_in_sequence(self):
        graph = erdos_renyi(25, 0.15, seed=4)
        stream = SyntheticChurnStream(
            graph, 6, add=3, remove=3, add_nodes=2, remove_nodes=2, seed=7
        )
        current = graph
        for t, batch in enumerate(stream.batches(), start=1):
            before = current
            current = apply_batch(current, batch, name=f"t{t}")
            # Inserted edges really appear, deleted ones really vanish.
            for u, v in batch.insert_edges:
                assert current.has_edge(u, v)
            for u, v in batch.delete_edges:
                assert not current.has_edge(u, v)
            for node in batch.remove_nodes:
                assert node in before and node not in current
            for node in batch.add_nodes:
                assert node not in before and node in current

    def test_deleted_edges_not_reinserted_same_epoch(self):
        graph = erdos_renyi(20, 0.3, seed=5)
        stream = SyntheticChurnStream(graph, 8, add=5, remove=5, seed=11)
        for batch in stream.batches():
            assert not (set(batch.insert_edges) & set(batch.delete_edges))

    def test_different_seeds_differ(self):
        graph = erdos_renyi(30, 0.15, seed=1)
        a = list(SyntheticChurnStream(graph, 3, add=3, remove=3, seed=1).batches())
        b = list(SyntheticChurnStream(graph, 3, add=3, remove=3, seed=2).batches())
        assert a != b

    def test_node_churn_matches_the_reference_schedule(self):
        graph = erdos_renyi(120, 0.05, seed=8)
        stream = SyntheticChurnStream(
            graph, 6, add=4, remove=4, add_nodes=5, remove_nodes=7, seed=13
        )
        batches = list(stream.batches())
        assert batches == list(_reference_batches(stream))
        assert all(batch.remove_nodes and batch.add_nodes for batch in batches)


def _reference_batches(stream):
    """The plain form of ``SyntheticChurnStream.batches``, which rebuilds
    the departing set at every membership test: a reference the stream
    must match batch for batch."""
    from repro.graphs.churn import sample_non_edges

    def canonical(edges):
        return tuple(sorted((min(u, v), max(u, v)) for u, v in edges))

    nodes = list(stream.initial_graph.nodes)
    edges = set(stream.initial_graph.edges())
    next_id = (max(nodes) if nodes else 0) + 1
    for t in range(1, stream.epochs + 1):
        rng = random.Random(f"{stream.seed}:epoch:{t}")
        clamp = max(0, len(nodes) - 1)
        departing = sorted(rng.sample(nodes, min(stream.remove_nodes, clamp)))
        survivors = [node for node in nodes if node not in set(departing)]
        surviving_edges = {
            (u, v) for u, v in edges
            if u not in set(departing) and v not in set(departing)
        }
        deletions = sorted(
            rng.sample(
                sorted(surviving_edges), min(stream.remove, len(surviving_edges))
            )
        )
        remaining = surviving_edges - set(deletions)
        arrivals = list(range(next_id, next_id + stream.add_nodes))
        next_id += stream.add_nodes
        attach = []
        pool = list(survivors)
        for node in arrivals:
            targets = (
                rng.sample(pool, min(stream.attach_degree, len(pool))) if pool else []
            )
            attach.extend((min(node, v), max(node, v)) for v in targets)
            pool.append(node)
        additions = sample_non_edges(
            survivors, remaining | set(deletions), stream.add, rng
        )
        yield EpochBatch(
            insert_edges=canonical(additions + attach),
            delete_edges=canonical(deletions),
            add_nodes=tuple(arrivals),
            remove_nodes=tuple(departing),
        )
        nodes = survivors + arrivals
        edges = remaining | set(additions) | set(attach)


class TestTemporalStream:
    def test_parse_events(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text(
            "# comment\n"
            "0 1 30\n"
            "1 2 10\n"
            "2 2 5\n"     # self-loop: skipped
            "3 4 20\n"
        )
        events = parse_temporal_events(str(path))
        # Sorted by timestamp, ids shifted to 1-based.
        assert events == [(2, 3, 10), (4, 5, 20), (1, 2, 30)]

    def test_real_file_builds_stream(self, tmp_path):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        lines = []
        ts = 0
        for u in range(12):
            for v in range(u + 1, 12):
                ts += 1
                lines.append(f"{u} {v} {ts}")
        (data_dir / "CollegeMsg.txt").write_text("\n".join(lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fallback warning expected
            stream = temporal_stream(
                "collegemsg", epochs=3, data_dir=str(data_dir)
            )
        assert stream.initial_graph.n == 12
        assert len(list(stream.batches())) == 3

    def test_fallback_warns_and_is_deterministic(self):
        with pytest.warns(UserWarning, match="synthetic fallback"):
            a = temporal_stream("collegemsg", epochs=4, seed=9)
        b = _fallback_stream(epochs=4, seed=9)
        assert list(a.batches()) == list(b.batches())
        assert a.initial_graph.edges() == b.initial_graph.edges()

    def test_synthetic_events_seeded(self):
        assert synthetic_temporal_events("x", seed=1) == synthetic_temporal_events(
            "x", seed=1
        )
        assert synthetic_temporal_events("x", seed=1) != synthetic_temporal_events(
            "x", seed=2
        )

    def test_window_produces_deletions(self):
        stream = _fallback_stream(epochs=5, window=2, seed=3)
        batches = list(stream.batches())
        assert any(batch.delete_edges for batch in batches)
        # Replaying the stream, every deletion was live when it fired.
        current = stream.initial_graph
        for batch in batches:
            for u, v in batch.delete_edges:
                assert current.has_edge(u, v)
            current = apply_batch(current, batch)

    def test_no_duplicate_inserts(self):
        stream = _fallback_stream(epochs=5, seed=3)
        current = stream.initial_graph
        for batch in stream.batches():
            for u, v in batch.insert_edges:
                assert not current.has_edge(u, v)
            current = apply_batch(current, batch)

    def test_unknown_dataset_name_is_a_file_name(self, tmp_path):
        with pytest.warns(UserWarning):
            stream = temporal_stream(
                "my-custom.txt", epochs=2, data_dir=str(tmp_path), seed=1
            )
        assert stream.epochs == 2


class TestDatasetFetch:
    """The ``repro datasets fetch`` machinery — checksum-verified
    downloads that can never poison the loader's offline fallback."""

    PAYLOAD = b"0 1 100\n1 2 200\n2 3 300\n"

    @staticmethod
    def _digest(payload):
        import hashlib

        return hashlib.sha256(payload).hexdigest()

    def _opener(self, calls=None):
        import gzip

        payload = gzip.compress(self.PAYLOAD)

        def opener(url):
            if calls is not None:
                calls.append(url)
            return payload

        return opener

    def test_registry_covers_every_dataset(self):
        assert set(DATASET_URLS) == set(TEMPORAL_DATASETS)
        assert set(DATASET_SHA256) == set(TEMPORAL_DATASETS)
        for url in DATASET_URLS.values():
            assert url.startswith("https://snap.stanford.edu/data/")

    def test_fetch_decompresses_verifies_and_writes(self, tmp_path):
        calls = []
        outcome = fetch_dataset(
            "collegemsg",
            data_dir=str(tmp_path),
            sha256=self._digest(self.PAYLOAD),
            opener=self._opener(calls),
        )
        assert outcome.downloaded
        assert calls == [DATASET_URLS["collegemsg"]]
        assert outcome.path == str(tmp_path / "CollegeMsg.txt")
        assert open(outcome.path, "rb").read() == self.PAYLOAD
        # The fetched file feeds straight into the loader, no fallback.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream = temporal_stream(
                "collegemsg", epochs=2, data_dir=str(tmp_path)
            )
        assert stream.name == "CollegeMsg"

    def test_bad_checksum_rejected_and_nothing_written(self, tmp_path):
        with pytest.raises(DatasetFetchError, match="sha256"):
            fetch_dataset(
                "collegemsg",
                data_dir=str(tmp_path),
                sha256="0" * 64,
                opener=self._opener(),
            )
        assert list(tmp_path.iterdir()) == []  # no file, no .part debris

    def test_existing_verified_copy_skips_the_network(self, tmp_path):
        digest = self._digest(self.PAYLOAD)
        (tmp_path / "CollegeMsg.txt").write_bytes(self.PAYLOAD)

        def no_network(url):
            raise AssertionError("fetch must not touch the network")

        outcome = fetch_dataset(
            "collegemsg",
            data_dir=str(tmp_path),
            sha256=digest,
            opener=no_network,
        )
        assert not outcome.downloaded
        assert outcome.sha256 == digest

    def test_corrupt_existing_copy_reported_without_overwrite(self, tmp_path):
        (tmp_path / "CollegeMsg.txt").write_bytes(b"tampered\n")
        with pytest.raises(DatasetFetchError, match="force"):
            fetch_dataset(
                "collegemsg",
                data_dir=str(tmp_path),
                sha256=self._digest(self.PAYLOAD),
                opener=self._opener(),
            )
        # force=True re-downloads and repairs it.
        outcome = fetch_dataset(
            "collegemsg",
            data_dir=str(tmp_path),
            sha256=self._digest(self.PAYLOAD),
            force=True,
            opener=self._opener(),
        )
        assert outcome.downloaded
        assert open(outcome.path, "rb").read() == self.PAYLOAD

    def test_unpinned_digest_warns_and_records(self, tmp_path):
        with pytest.warns(UserWarning, match="pin"):
            outcome = fetch_dataset(
                "mathoverflow",
                data_dir=str(tmp_path),
                opener=self._opener(),
            )
        assert outcome.sha256 == self._digest(self.PAYLOAD)

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(DatasetFetchError, match="unknown dataset"):
            fetch_dataset("not-a-dataset", data_dir=str(tmp_path))

    def test_download_failure_wrapped(self, tmp_path):
        def broken(url):
            raise OSError("connection refused")

        with pytest.raises(DatasetFetchError, match="download"):
            fetch_dataset(
                "collegemsg", data_dir=str(tmp_path), opener=broken
            )
        assert list(tmp_path.iterdir()) == []

    def test_loading_never_touches_the_network(self, tmp_path, monkeypatch):
        """The offline-fallback contract: ``temporal_stream`` on a missing
        file synthesizes — it must never import-and-call urllib."""
        import urllib.request

        def poisoned(*args, **kwargs):
            raise AssertionError("temporal_stream opened a socket")

        monkeypatch.setattr(urllib.request, "urlopen", poisoned)
        with pytest.warns(UserWarning, match="fallback"):
            stream = temporal_stream(
                "collegemsg", epochs=2, data_dir=str(tmp_path), seed=3
            )
        assert stream.name == "collegemsg-synthetic"

    def test_cli_fetch_and_list(self, tmp_path, capsys, monkeypatch):
        import gzip

        from repro.cli import main
        from repro.dynamic import datasets as datasets_module

        payload = gzip.compress(self.PAYLOAD)

        class _Response:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return payload

        monkeypatch.setattr(
            "urllib.request.urlopen", lambda url: _Response()
        )
        monkeypatch.setitem(
            datasets_module.DATASET_SHA256,
            "collegemsg",
            self._digest(self.PAYLOAD),
        )
        code = main(
            ["datasets", "fetch", "collegemsg", "--data-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "downloaded" in out
        assert (tmp_path / "CollegeMsg.txt").read_bytes() == self.PAYLOAD

        code = main(["datasets", "list", "--data-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "present" in out and "missing" in out

        # A digest mismatch surfaces as a nonzero exit.
        code = main(
            [
                "datasets", "fetch", "email-eu-core",
                "--data-dir", str(tmp_path),
                "--sha256", "0" * 64,
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out


class TestRecourse:
    def test_counts_only_standing_nodes(self):
        old = line(4)
        new = apply_batch(old, EpochBatch(remove_nodes=(4,), add_nodes=(9,)))
        old_outputs = {1: 1, 2: 0, 3: 1, 4: 0}
        new_outputs = {1: 1, 2: 1, 3: 1, 9: 1}
        # Node 2 flipped; 4 departed and 9 arrived (neither counts).
        assert recourse_between(old, old_outputs, new, new_outputs) == 1

    def test_zero_when_solution_stands(self):
        graph = line(5)
        outputs = {1: 1, 2: 0, 3: 1, 4: 0, 5: 1}
        assert recourse_between(graph, outputs, graph, outputs) == 0


class TestDynamicRunner:
    def test_epoch_rows_and_columns(self):
        graph = erdos_renyi(30, 0.12, seed=2)
        stream = SyntheticChurnStream(graph, 3, add=3, remove=3, seed=4)
        result = DynamicRunner(mis_simple, MIS, stream, seed=6).run()
        assert len(result.rows) == 4
        assert [row.epoch for row in result.rows] == [0, 1, 2, 3]
        assert result.rows[0].recourse is None
        assert all(row.recourse is not None for row in result.rows[1:])
        assert all(row.scratch_rounds is not None for row in result.rows)
        assert result.all_valid

    def test_zero_churn_stream_has_zero_recourse(self):
        graph = erdos_renyi(30, 0.12, seed=2)
        stream = SyntheticChurnStream(graph, 3, seed=4)
        result = DynamicRunner(mis_simple, MIS, stream, seed=6).run()
        assert all(row.recourse == 0 for row in result.rows[1:])
        assert all(row.error == 0 for row in result.rows[1:])

    def test_replay_is_deterministic(self):
        graph = erdos_renyi(30, 0.12, seed=2)

        def execute():
            stream = SyntheticChurnStream(
                graph, 3, add=4, remove=4, add_nodes=1, remove_nodes=1, seed=4
            )
            return DynamicRunner(mis_simple, MIS, stream, seed=6).run()

        assert execute().equivalent_to(execute())

    def test_scratch_disabled(self):
        graph = erdos_renyi(20, 0.15, seed=3)
        stream = SyntheticChurnStream(graph, 2, add=2, remove=2, seed=1)
        result = DynamicRunner(
            mis_simple, MIS, stream, scratch=False, seed=1
        ).run()
        assert result.rows[0].scratch_rounds is None
        assert all(row.scratch_rounds is None for row in result.rows)

    def test_matching_family_under_node_churn(self):
        graph = erdos_renyi(24, 0.15, seed=5)
        stream = SyntheticChurnStream(
            graph, 3, add=3, remove=3, add_nodes=2, remove_nodes=2, seed=8
        )
        result = DynamicRunner(matching_simple, MATCHING, stream, seed=2).run()
        assert result.all_valid

    def test_csv_and_telemetry_carry_dynamic_columns(self, tmp_path):
        graph = erdos_renyi(20, 0.15, seed=3)
        stream = SyntheticChurnStream(graph, 2, add=2, remove=2, seed=1)
        result = DynamicRunner(mis_simple, MIS, stream, seed=1).run()
        path = tmp_path / "dyn.csv"
        result.to_csv(str(path))
        header = path.read_text().splitlines()[0].split(",")
        assert header[12] == "kernel"
        assert header[13:16] == ["epoch", "recourse", "scratch_rounds"]
        telemetry = result.telemetry()
        assert telemetry["epochs"] == 3
        assert telemetry["recourse_total"] == sum(
            row.recourse or 0 for row in result.rows
        )
        assert telemetry["scratch_rounds_total"] > 0

    def test_bench_baseline_roundtrip(self, tmp_path):
        from repro.obs.bench import record_run

        graph = erdos_renyi(20, 0.15, seed=3)

        def execute():
            stream = SyntheticChurnStream(graph, 2, add=2, remove=2, seed=1)
            return DynamicRunner(mis_simple, MIS, stream, seed=1).run()

        path = str(tmp_path / "BENCH_dyn.json")
        payload, diff = record_run(path, execute(), gate=2.0)
        assert diff is None
        assert all("epoch" in cell for cell in payload["cells"][0:1])
        payload, diff = record_run(path, execute(), gate=2.0)
        assert diff is not None
        assert not diff.determinism_breaks

    def test_temporal_stream_end_to_end(self):
        stream = _fallback_stream(epochs=3, window=2, seed=4)
        result = DynamicRunner(mis_simple, MIS, stream, seed=9).run()
        assert len(result.rows) == 4
        assert result.all_valid
        assert result.recourse_curve() and result.repair_curve()


class TestCrossProcessDeterminism:
    """ISSUE 8 satellite: churn/stale seeding must reproduce seed-for-
    seed on the process-pool backend and across interpreter processes
    (string-keyed ``random.Random`` seeds are sha512-based, so
    ``PYTHONHASHSEED`` must not matter)."""

    @staticmethod
    def _dynamic_sweep():
        from repro.exec import GraphSpec, PredictionSpec, Sweep

        sweep = Sweep(name="dynamic-determinism", base_seed=3)
        for churn in (2, 5):
            for seed in (0, 1):
                sweep.add(
                    f"c={churn}/s={seed}",
                    GraphSpec.of(
                        "repro.bench.workloads:churned_gnp",
                        36, 0.12,
                        seed=seed, add=churn, remove=churn, churn_seed=churn,
                    ),
                    "mis_simple",
                    predictions=PredictionSpec.of(
                        "repro.bench.workloads:stale_for",
                        "mis", 36, 0.12, seed=seed,
                    ),
                    problem="mis",
                )
        return sweep

    def test_serial_and_process_backends_agree(self):
        sweep = self._dynamic_sweep()
        serial = sweep.run("serial")
        process = sweep.run("process", jobs=2, chunk_size=1)
        assert serial.equivalent_to(process)
        assert serial.all_valid
        assert any(row.error for row in serial.rows), (
            "stale predictions should produce nonzero eta1 somewhere"
        )

    def test_seeding_survives_hash_randomization(self):
        """Churn, stale predictions, and stream batches are identical in
        a fresh interpreter with a different PYTHONHASHSEED."""
        script = (
            "from repro.bench.workloads import churned_gnp, stale_for\n"
            "from repro.dynamic import SyntheticChurnStream\n"
            "g = churned_gnp(30, 0.15, seed=1, add=4, remove=4, churn_seed=9)\n"
            "p = stale_for(g, 'mis', 30, 0.15, seed=1)\n"
            "s = SyntheticChurnStream(g, 3, add=3, remove=3, seed=5)\n"
            "print(repr((g.edges(), sorted(p.items()),"
            " list(s.batches()))))\n"
        )

        def digest(hash_seed):
            import os

            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            return out.stdout

        assert digest("0") == digest("12345")
