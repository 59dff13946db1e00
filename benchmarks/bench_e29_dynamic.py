"""E29 — Dynamic epoch streams: warm starts, recourse, staleness.

The paper's motivating scenario (Section 1.1) iterated: each epoch's
solution is carried forward as the next epoch's *prediction*
(``repro.dynamic``), so prediction error is no longer injected noise but
the genuine staleness produced by churn.  Three measured claims:

* **degradation vs. staleness**: mean recourse (standing nodes whose
  output flips) and mean rounds-to-repair are weakly increasing in the
  churn applied per epoch — more churn, staler predictions, more work;
* **warm starts win**: at every churn level the warm-started runs take
  fewer total rounds than the same instances solved from scratch with
  default predictions (and at zero churn the repair cost collapses to
  the consistency floor);
* **warm epochs run only the undecided nodes**: each warm run's one
  engine (the ``greedy-mis`` kernel's, for ``mis_simple``) holds exactly
  the nodes the MIS Initialization Algorithm leaves undecided (checked
  against an interpreted run of the bare initialization), and the
  others are decided by index;
* **temporal streams are reproducible offline**: the timestamp-bucketed
  dataset loader falls back to a deterministic synthetic event stream
  (no downloads), its sliding window produces genuine deletions, and
  two replays of the same stream are row-for-row identical.

Set ``REPRO_E29_N`` to scale the base graph (default 120; expected
degree is held at ~6 as n grows).  CI's ``dynamic-smoke`` job runs the
same shape through ``repro dynamic`` twice and gates it against the
committed ``benchmarks/BENCH_e29_dynamic.json`` baseline (per-epoch
determinism — rounds, messages, recourse, scratch rounds — plus round
throughput).
"""

import os
import time
import warnings
from unittest import mock

from repro.algorithms.mis.initialization import MISInitializationProgram
from repro.bench.algorithms import mis_simple
from repro.core import run
from repro.dynamic import DynamicRunner, SyntheticChurnStream, temporal_stream
from repro.dynamic.stream import apply_batch
from repro.graphs import erdos_renyi
from repro.predictions import carry_predictions, default_predictions
from repro.problems import MIS
from repro.simulator import SyncEngine

#: Base-graph size (expected degree stays ~6 as this scales).
N = int(os.environ.get("REPRO_E29_N", "120"))

EDGE_P = min(0.5, 6.0 / N)
EPOCHS = 6
SEEDS = (0, 1, 2)
CHURN_LEVELS = (0, 2, 6, 12, 24)


def _curve_point(churn: int, seed: int):
    """Totals over the churned epochs (1..EPOCHS) of one dynamic run."""
    graph = erdos_renyi(N, EDGE_P, seed=9)
    stream = SyntheticChurnStream(
        graph, EPOCHS, add=churn, remove=churn, seed=seed
    )
    result = DynamicRunner(mis_simple, MIS, stream, seed=seed).run()
    assert result.all_valid
    tail = result.rows[1:]
    return {
        "recourse": sum(row.recourse for row in tail),
        "warm": sum(row.rounds for row in tail),
        "scratch": sum(row.scratch_rounds for row in tail),
        "error": sum(row.error for row in tail),
    }


def test_e29_degradation_vs_staleness(once):
    """Mean recourse and mean rounds-to-repair weakly increase with the
    churn per epoch; warm starts beat solve-from-scratch at every level."""

    def execute():
        return {
            churn: [_curve_point(churn, seed) for seed in SEEDS]
            for churn in CHURN_LEVELS
        }

    curve = once(execute)
    print(f"\nE29 staleness curve (mis/simple, gnp n={N} p={EDGE_P:.3g}, "
          f"epochs={EPOCHS}, mean over {len(SEEDS)} seeds):")
    print(f"{'churn':>6}  {'recourse':>8}  {'eta1':>6}  {'warm':>6}  {'scratch':>7}")
    means = {}
    for churn in CHURN_LEVELS:
        points = curve[churn]
        means[churn] = {
            key: sum(point[key] for point in points) / len(points)
            for key in points[0]
        }
        row = means[churn]
        print(
            f"{churn:>6}  {row['recourse']:>8.1f}  {row['error']:>6.1f}  "
            f"{row['warm']:>6.1f}  {row['scratch']:>7.1f}"
        )

    for low, high in zip(CHURN_LEVELS, CHURN_LEVELS[1:]):
        assert means[low]["recourse"] <= means[high]["recourse"], (
            f"mean recourse not weakly increasing: churn {low} -> {high} "
            f"({means[low]['recourse']:.1f} -> {means[high]['recourse']:.1f})"
        )
        assert means[low]["warm"] <= means[high]["warm"], (
            f"mean rounds-to-repair not weakly increasing: churn {low} -> "
            f"{high} ({means[low]['warm']:.1f} -> {means[high]['warm']:.1f})"
        )
    assert means[0]["recourse"] == 0, "zero churn must need zero recourse"
    for churn in CHURN_LEVELS:
        for point in curve[churn]:
            assert point["warm"] < point["scratch"], (
                f"warm start lost to solve-from-scratch at churn={churn}: "
                f"{point['warm']} vs {point['scratch']} rounds"
            )


def test_e29_temporal_fallback_determinism(once):
    """The dataset loader's synthetic fallback is offline-deterministic:
    two constructions yield identical batches, the sliding window
    produces real deletions, and two full replays agree row-for-row."""

    def build():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return temporal_stream(
                "collegemsg", epochs=5, window=2, seed=3, data_dir="data"
            )

    def execute():
        first, second = build(), build()
        batches_a = list(first.batches())
        batches_b = list(second.batches())
        result_a = DynamicRunner(mis_simple, MIS, first, seed=5).run()
        result_b = DynamicRunner(mis_simple, MIS, second, seed=5).run()
        return first, batches_a, batches_b, result_a, result_b

    stream, batches_a, batches_b, result_a, result_b = once(execute)
    assert batches_a == batches_b
    assert len(batches_a) == stream.epochs == 5
    assert any(batch.delete_edges for batch in batches_a), (
        "window=2 should age edges out of the stream"
    )
    assert result_a.equivalent_to(result_b)
    assert result_a.all_valid
    assert all(
        row.recourse is not None for row in result_a.rows if row.epoch > 0
    )
    print(
        f"\nE29 temporal fallback: {stream.name} epochs={stream.epochs} "
        f"recourse={[row.recourse for row in result_a.rows]} "
        f"warm={[row.rounds for row in result_a.rows]} "
        f"scratch={[row.scratch_rounds for row in result_a.rows]}"
    )


def _undecided(graph, predictions):
    """The nodes the bare MIS Initialization program leaves undecided."""
    decided = SyncEngine(
        graph,
        lambda node: MISInitializationProgram(),
        predictions=predictions,
    ).run(stop_after=3).outputs
    return tuple(node for node in graph.nodes if node not in decided)


def test_e29_warm_epochs_interpret_only_the_undecided(once):
    """Each warm epoch builds one engine, over exactly the undecided nodes.

    The check is a count (and the node set), not a time; the warm runs'
    wall time is printed next to a full interpreted run of the same
    epochs for EXPERIMENTS.md, and asserted nothing about.
    """
    churn = CHURN_LEVELS[-2]

    def execute():
        graph = erdos_renyi(N, EDGE_P, seed=9)
        stream = SyntheticChurnStream(graph, EPOCHS, add=churn, remove=churn, seed=0)
        outputs = run(mis_simple(), graph, default_predictions(MIS, graph)).outputs
        built = []
        construct = SyncEngine.__init__

        def recording(engine, view, *args, **kwargs):
            construct(engine, view, *args, **kwargs)
            built.append(tuple(view.nodes))

        epochs = []
        for epoch, batch in enumerate(stream.batches(), start=1):
            graph = apply_batch(graph, batch)
            predictions = carry_predictions(MIS, outputs, graph)
            undecided = _undecided(graph, predictions)
            built.clear()
            with mock.patch.object(SyncEngine, "__init__", recording):
                started = time.perf_counter()
                result = run(mis_simple(), graph, predictions, seed=epoch)
                warm = time.perf_counter() - started
            algorithm = mis_simple()
            started = time.perf_counter()
            full = SyncEngine(
                graph,
                lambda node: algorithm.build_program(),
                predictions=predictions,
                seed=epoch,
            ).run()
            interpreted = time.perf_counter() - started
            assert result.outputs == full.outputs
            epochs.append(
                (graph.n, built[:], undecided, result.init_decided, warm, interpreted)
            )
            outputs = result.outputs
        return epochs

    epochs = once(execute)
    for n, built, undecided, init_decided, _, _ in epochs:
        assert built == [undecided], "the warm engine must hold the undecided nodes"
        assert init_decided == n - len(undecided)
    total_n = sum(epoch[0] for epoch in epochs)
    total_undecided = sum(len(epoch[2]) for epoch in epochs)
    warm = sum(epoch[4] for epoch in epochs)
    interpreted = sum(epoch[5] for epoch in epochs)
    print(
        f"\nE29 warm epochs (mis/simple, gnp n={N}, churn={churn}, "
        f"epochs={EPOCHS}): engines held {total_undecided} of {total_n} "
        f"node-epochs; warm {warm * 1e3:.2f} ms vs full interpretation "
        f"{interpreted * 1e3:.2f} ms"
    )
