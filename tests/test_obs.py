"""Tests for the observability layer: sinks, profiling, bench baselines."""

from __future__ import annotations

import json

import pytest

from repro.core import RunConfig, run
from repro.faults import FaultPlan
from repro.faults.plan import MessageAdversary
from repro.graphs import erdos_renyi, grid2d
from repro.obs import (
    EventSink,
    JsonlEventSink,
    MemoryEventSink,
    RoundProfile,
)
from repro.obs.bench import (
    SCHEMA,
    BaselineDiff,
    diff_payloads,
    load_baseline,
    record_run,
    write_baseline,
)
from repro.obs.events import (
    LIFECYCLE_KINDS,
    event_dict,
    read_jsonl_events,
    write_jsonl_events,
)
from repro.predictions import noisy_predictions
from repro.problems import MIS
from repro.simulator import NodeProgram


def _mis_setup(n=24, p=0.15, seed=3, noise=0.2):
    from repro.bench.algorithms import mis_simple

    graph = erdos_renyi(n, p, seed=seed)
    predictions = noisy_predictions(MIS, graph, noise, seed=seed)
    return mis_simple(), graph, predictions


def _fault_plan(drop_rate=0.1, seed=5):
    return FaultPlan(
        messages=MessageAdversary(drop_rate=drop_rate, duplicate_rate=0.05),
        seed=seed,
    )


def _trace_stream(trace):
    """TraceEvents in canonical dict form, for stream comparison."""
    return [event_dict(e.round, e.kind, e.node, e.data) for e in trace.events]


# ----------------------------------------------------------------------
# Event sinks
# ----------------------------------------------------------------------
class TestEventSinks:
    def test_memory_sink_agrees_with_trace_recorder(self):
        """A sink receives exactly the TraceRecorder stream, in order —
        including adversarial drop/duplicate events under faults."""
        algorithm, graph, predictions = _mis_setup()
        sink = MemoryEventSink()
        kwargs = dict(
            seed=7, faults=_fault_plan(), max_rounds=60, on_round_limit="partial"
        )
        run(algorithm, graph, predictions, sinks=[sink], **kwargs)

        algorithm, graph, predictions = _mis_setup()
        traced = run(algorithm, graph, predictions, trace=True, **kwargs)
        expected = _trace_stream(traced.trace)
        assert any(e["kind"] == "drop" for e in expected)  # faults did fire
        assert sink.events == expected

    def test_jsonl_sink_replays_event_for_event(self, tmp_path):
        """The JSONL export, read back, is the TraceRecorder stream."""
        path = str(tmp_path / "events.jsonl")
        algorithm, graph, predictions = _mis_setup()
        kwargs = dict(
            seed=7, faults=_fault_plan(), max_rounds=60, on_round_limit="partial"
        )
        with JsonlEventSink(path) as sink:
            run(algorithm, graph, predictions, sinks=[sink], **kwargs)
        assert sink.lines_written > 0

        algorithm, graph, predictions = _mis_setup()
        traced = run(algorithm, graph, predictions, trace=True, **kwargs)
        replayed = [
            entry
            for entry in read_jsonl_events(path)
            if entry["kind"] not in LIFECYCLE_KINDS
        ]
        assert replayed == _trace_stream(traced.trace)

    def test_lifecycle_entries_bracket_rounds(self):
        algorithm, graph, predictions = _mis_setup()
        sink = MemoryEventSink()
        result = run(algorithm, graph, predictions, seed=1, sinks=[sink])
        lifecycle = sink.lifecycle
        assert lifecycle[0]["kind"] == "run_begin"
        assert lifecycle[0]["n"] == graph.n
        assert lifecycle[-1]["kind"] == "run_end"
        begins = [e for e in lifecycle if e["kind"] == "round_begin"]
        ends = [e for e in lifecycle if e["kind"] == "round_end"]
        assert len(begins) == len(ends) == result.rounds_executed

    def test_round_end_timing_is_monotone_and_consistent(self):
        """Round indices increase 1..R, elapsed is non-negative, and the
        per-round message deltas sum to the run's message count."""
        algorithm, graph, predictions = _mis_setup()
        sink = MemoryEventSink()
        result = run(algorithm, graph, predictions, seed=1, sinks=[sink])
        ends = [e for e in sink.lifecycle if e["kind"] == "round_end"]
        assert [e["round"] for e in ends] == list(
            range(1, result.rounds_executed + 1)
        )
        assert all(e["elapsed"] >= 0.0 for e in ends)
        assert sum(e["messages"] for e in ends) == result.message_count

    def test_multiple_sinks_receive_the_same_stream(self):
        algorithm, graph, predictions = _mis_setup()
        first, second = MemoryEventSink(), MemoryEventSink()
        run(algorithm, graph, predictions, seed=1, sinks=[first, second])
        assert first.entries == second.entries

    def test_sinks_disabled_by_default(self):
        """A plain run attaches no sinks and records no profile."""
        from repro.simulator import SyncEngine

        algorithm, graph, predictions = _mis_setup()
        result = run(algorithm, graph, predictions, seed=1)
        assert result.profile is None
        engine = SyncEngine(grid2d(2, 2), lambda v: _Noop())
        assert engine.obs.sinks == ()
        assert engine.obs.profile is None

    def test_custom_sink_needs_only_the_hooks_it_wants(self):
        class CountingSink(EventSink):
            sends = 0

            def record(self, round_index, kind, node, data=None):
                if kind == "send":
                    self.sends += 1

        algorithm, graph, predictions = _mis_setup()
        sink = CountingSink()
        result = run(algorithm, graph, predictions, seed=1, sinks=[sink])
        assert sink.sends == result.message_count

    def test_jsonl_sink_reprs_unserializable_payloads(self, tmp_path):
        path = str(tmp_path / "weird.jsonl")
        with JsonlEventSink(path) as sink:
            sink.record(1, "send", 2, {"payload": object()})
        (entry,) = read_jsonl_events(path)
        assert entry["data"]["payload"].startswith("<object object")

    def test_write_jsonl_events_tags_cells_and_appends(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        open(path, "w").close()
        write_jsonl_events(path, [event_dict(1, "send", 2)], cell="a")
        write_jsonl_events(path, [event_dict(1, "send", 3)], cell="b")
        entries = read_jsonl_events(path)
        assert [e["cell"] for e in entries] == ["a", "b"]


class _Noop(NodeProgram):
    def compose(self, ctx):
        return {}

    def process(self, ctx, inbox):
        ctx.set_output(0)
        ctx.terminate()


# ----------------------------------------------------------------------
# Round profiling
# ----------------------------------------------------------------------
class TestRoundProfile:
    def _profiled(self, **kwargs):
        algorithm, graph, predictions = _mis_setup()
        return run(
            algorithm, graph, predictions, seed=2, profile=True, **kwargs
        )

    def test_profiled_run_is_observationally_identical(self):
        """Same outputs, rounds, message counts and event stream as the
        unprofiled path — the split loop only adds timers."""
        kwargs = dict(
            seed=7, faults=_fault_plan(), max_rounds=60, on_round_limit="partial"
        )
        algorithm, graph, predictions = _mis_setup()
        sink = MemoryEventSink()
        profiled = run(
            algorithm, graph, predictions, sinks=[sink], profile=True, **kwargs
        )
        algorithm, graph, predictions = _mis_setup()
        plain_sink = MemoryEventSink()
        plain = run(algorithm, graph, predictions, sinks=[plain_sink], **kwargs)
        assert profiled.outputs == plain.outputs
        assert profiled.rounds == plain.rounds
        assert profiled.message_count == plain.message_count
        assert profiled.dropped_messages == plain.dropped_messages
        assert sink.events == plain_sink.events

    def test_one_sample_per_executed_round(self):
        result = self._profiled()
        profile = result.profile
        assert isinstance(profile, RoundProfile)
        assert len(profile) == result.rounds_executed
        assert [s.round for s in profile.samples] == list(
            range(1, result.rounds_executed + 1)
        )

    def test_phase_timings_are_nonnegative_and_sum_to_elapsed(self):
        profile = self._profiled().profile
        for sample in profile.samples:
            for phase in ("compose", "deliver", "process", "finalize"):
                assert getattr(sample, phase) >= 0.0
            assert sample.elapsed == pytest.approx(
                sample.compose + sample.deliver + sample.process + sample.finalize
            )
        assert profile.elapsed >= sum(profile.round_times())

    def test_message_counts_match_run_total(self):
        result = self._profiled()
        assert sum(result.profile.message_counts()) == result.message_count

    def test_summary_is_flat_and_json_safe(self):
        result = self._profiled()
        summary = result.profile.summary()
        json.dumps(summary)  # must not raise
        assert summary["rounds"] == result.rounds_executed
        assert summary["messages"] == result.message_count
        shares = [
            summary[f"{phase}_share"]
            for phase in ("compose", "deliver", "process", "finalize")
        ]
        assert sum(shares) == pytest.approx(1.0)
        assert summary["max_round_s"] >= 0.0

    def test_histograms_cover_every_round(self):
        profile = self._profiled().profile
        timing = profile.timing_histogram(bins=4)
        messages = profile.message_histogram(bins=4)
        assert sum(count for _, _, count in timing) == len(profile)
        assert sum(count for _, _, count in messages) == len(profile)

    def test_table_renders_one_line_per_round(self):
        profile = self._profiled().profile
        lines = profile.table().splitlines()
        assert len(lines) == len(profile) + 2  # header + rounds + total
        assert "compose" in lines[0] and lines[-1].startswith("total")

    def test_profile_via_run_config(self):
        algorithm, graph, predictions = _mis_setup()
        result = run(
            algorithm,
            graph,
            predictions,
            config=RunConfig(seed=2, profile=True),
        )
        assert isinstance(result.profile, RoundProfile)

    def test_empty_profile_aggregates(self):
        profile = RoundProfile()
        assert profile.summary()["rounds"] == 0
        assert profile.timing_histogram() == []
        assert profile.phase_totals()["compose"] == 0.0


# ----------------------------------------------------------------------
# Bench baselines
# ----------------------------------------------------------------------
def _tiny_sweep():
    from repro.exec import GraphSpec, PredictionSpec, Sweep

    sweep = Sweep(name="bench-test", base_seed=1)
    sweep.add_grid(
        {"gnp": GraphSpec.of("erdos_renyi", 16, 0.2, seed=4)},
        {"simple": "mis_simple"},
        predictions={"zeros": "all_zeros_mis"},
        seeds=(0, 1),
        problem="mis",
    )
    return sweep


class TestBenchBaselines:
    def test_write_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        result = _tiny_sweep().run("serial")
        payload = write_baseline(path, result)
        loaded = load_baseline(path)
        assert loaded["schema"] == SCHEMA
        assert loaded["name"] == "bench-test"
        assert len(loaded["cells"]) == len(result.rows)
        assert loaded["telemetry"] == payload["telemetry"]

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/v9"}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(str(path))

    def test_first_record_run_has_no_diff(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        payload, diff = record_run(path, _tiny_sweep().run("serial"))
        assert diff is None
        assert load_baseline(path) == json.loads(json.dumps(payload))

    def test_second_identical_run_diffs_clean(self, tmp_path):
        """The acceptance check: same sweep twice -> clean diff (same
        per-cell rounds/messages; throughput within the gate)."""
        path = str(tmp_path / "BENCH_test.json")
        record_run(path, _tiny_sweep().run("serial"))
        _, diff = record_run(path, _tiny_sweep().run("serial"))
        assert isinstance(diff, BaselineDiff)
        assert diff.ok, diff.summary()
        assert diff.determinism_breaks == []
        assert "clean" in diff.summary()

    def test_throughput_regression_beyond_gate_fails(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        result = _tiny_sweep().run("serial")
        previous = write_baseline(path, result)
        current = json.loads(json.dumps(previous))
        current["telemetry"]["node_rounds_per_sec"] = (
            previous["telemetry"]["node_rounds_per_sec"] / 3.0
        )
        diff = diff_payloads(current, previous, gate=2.0)
        assert not diff.ok
        assert diff.throughput_ratio == pytest.approx(3.0)
        assert any("regressed" in entry for entry in diff.regressions)
        assert "REGRESSED" in diff.summary()

    def test_determinism_break_fails_regardless_of_timing(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        previous = write_baseline(path, _tiny_sweep().run("serial"))
        current = json.loads(json.dumps(previous))
        current["cells"][0]["rounds"] += 1
        diff = diff_payloads(current, previous)
        assert not diff.ok
        assert diff.determinism_breaks
        assert diff.throughput_ratio is not None

    def test_new_and_missing_cells_are_notes_not_failures(self):
        previous = {
            "name": "x",
            "telemetry": {},
            "cells": [{"label": "old", "rounds": 3}],
        }
        current = {
            "name": "x",
            "telemetry": {},
            "cells": [{"label": "new", "rounds": 3}],
        }
        diff = diff_payloads(current, previous)
        assert diff.ok
        assert len(diff.notes) == 2

    def test_record_run_replaces_baseline_even_on_regression(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        result = _tiny_sweep().run("serial")
        first = write_baseline(path, result)
        # Rewrite the stored baseline to claim implausibly high throughput
        # so the next record_run sees a >2x regression.
        doctored = json.loads(json.dumps(first))
        doctored["telemetry"]["node_rounds_per_sec"] *= 1e6
        with open(path, "w") as handle:
            json.dump(doctored, handle)
        payload, diff = record_run(path, _tiny_sweep().run("serial"))
        assert diff is not None and not diff.ok
        assert load_baseline(path)["telemetry"] == payload["telemetry"]
