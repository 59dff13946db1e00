"""E28 — Vectorized whole-frontier kernels (engineering, not a paper claim).

The interpreted engine pays Python-level dispatch per node per round:
even the quiescent schedule, which skips idle nodes, walks the wake-set
one context at a time.  ``schedule="vectorized"`` replaces the whole
round loop with compiled NumPy kernels over the CSR buffers — one array
pass per round for the entire frontier — while staying **bit-identical**
to the interpreted engine (same outputs, rounds, message counts, bit
accounting; differentially fuzzed in ``tests/test_vectorized.py``).

Every workload here asserts that identity before trusting a timing, then
asserts the speedup floor over the quiescent schedule and finally runs
the headline scale: greedy MIS on a random tree with a **million nodes**,
end to end, through the same ``run()`` API as every other experiment.

Set ``REPRO_E28_N`` to scale the workloads (default 1_000_000; CI uses
10^5 to keep the job fast — the speedup grows with n, so the floor holds
a fortiori at full size).  The committed baseline artifact is
``benchmarks/BENCH_e28_vectorized.json`` (see docs/PERFORMANCE.md).
"""

import os
import time

from repro.algorithms.coloring import PaletteGreedyColoringAlgorithm
from repro.algorithms.matching import GreedyMatchingAlgorithm
from repro.algorithms.mis import GreedyMISAlgorithm
from repro.core import ExecutionPolicy, run
from repro.graphs import erdos_renyi, random_tree
from repro.predictions import noisy_predictions
from repro.problems import MATCHING, MIS, VERTEX_COLORING
from repro.simulator import SyncEngine

#: Headline scale of the end-to-end run (nodes).
N = int(os.environ.get("REPRO_E28_N", "1000000"))

#: Size of the vectorized-vs-quiescent timing duel.
DUEL_N = min(N, 100_000)

#: Round-loop speedup floor over ``schedule="quiescent"`` at DUEL_N.
MIN_SPEEDUP = 10.0

VECTORIZED = ExecutionPolicy(schedule="vectorized")


def _timed_run(engine):
    """Time ``engine.run()`` alone — setup/graph construction excluded."""
    start = time.perf_counter()
    result = engine.run()
    return result, time.perf_counter() - start


def _identical(a, b):
    assert a.outputs == b.outputs
    assert a.rounds == b.rounds
    assert a.rounds_executed == b.rounds_executed
    assert a.message_count == b.message_count
    assert a.total_bits == b.total_bits
    assert a.max_message_bits == b.max_message_bits


def test_e28_identity_smoke(once):
    """All three kernel families reproduce the interpreted engine bit
    for bit on a dense and a sparse instance before any timing runs."""

    def execute():
        pairs = []
        for graph in (erdos_renyi(2000, 0.01, seed=7), random_tree(2000, seed=7)):
            for problem, algorithm in (
                (MIS, GreedyMISAlgorithm),
                (MATCHING, GreedyMatchingAlgorithm),
                (VERTEX_COLORING, PaletteGreedyColoringAlgorithm),
            ):
                interpreted = run(algorithm(), graph)
                vectorized = run(algorithm(), graph, policy=VECTORIZED)
                pairs.append((problem, graph, interpreted, vectorized))
        return pairs

    for problem, graph, interpreted, vectorized in once(execute):
        _identical(interpreted, vectorized)
        assert not problem.verify_solution(graph, vectorized.outputs)


def test_e28_round_loop_speedup(once):
    """The tentpole number: the vectorized round loop is >= 10x faster
    than the interpreted quiescent schedule at n=10^5 (engine.run() only,
    identical results asserted first)."""
    graph = random_tree(DUEL_N, seed=1)

    def _engine(schedule):
        return SyncEngine(
            graph, lambda node: GreedyMISAlgorithm().build_program(),
            fast=True, policy=ExecutionPolicy(schedule=schedule),
        )

    def execute():
        # Best of two trials per side, fresh engines each: the first
        # vectorized run in a process pays numpy/allocator first-touch
        # costs that are not the round loop being measured.
        quiescent_s = vectorized_s = float("inf")
        for _ in range(2):
            quiescent, elapsed = _timed_run(_engine("quiescent"))
            quiescent_s = min(quiescent_s, elapsed)
            vectorized, elapsed = _timed_run(_engine("vectorized"))
            vectorized_s = min(vectorized_s, elapsed)
        return quiescent, quiescent_s, vectorized, vectorized_s

    quiescent, quiescent_s, vectorized, vectorized_s = once(execute)
    _identical(quiescent, vectorized)
    assert vectorized.kernel == "greedy-mis"
    speedup = quiescent_s / vectorized_s if vectorized_s else float("inf")
    print(
        f"\nE28 greedy-mis/random-tree: n={graph.n} rounds={vectorized.rounds} "
        f"quiescent={quiescent_s:.2f}s vectorized={vectorized_s:.3f}s "
        f"speedup={speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized speedup {speedup:.1f}x below the {MIN_SPEEDUP:.0f}x "
        f"floor (quiescent {quiescent_s:.2f}s, vectorized {vectorized_s:.3f}s)"
    )


def test_e28_million_node_scaling(once):
    """The headline scale: greedy MIS on a random tree at REPRO_E28_N
    (10^6 by default) end to end through run(), with a scaling table.

    Each size times four phases separately: building the graph, building
    noisy MIS predictions on it at rate 0.1 (the input an algorithm with
    predictions needs; this run does not read them), the run, and its
    validation.  Each size is verified right after its own run and only
    its numbers are kept, so no smaller size's graph or result is alive
    while the next size is timed.
    """
    sizes = [max(N // 100, 1000), max(N // 10, 10_000), N]

    def execute():
        rows = []
        for n in sizes:
            start = time.perf_counter()
            graph = random_tree(n, seed=2)
            build_s = time.perf_counter() - start
            start = time.perf_counter()
            predictions = noisy_predictions(MIS, graph, 0.1, seed=2)
            predictions_s = time.perf_counter() - start
            start = time.perf_counter()
            result = run(GreedyMISAlgorithm(), graph, fast=True,
                         policy=VECTORIZED)
            elapsed = time.perf_counter() - start
            assert result.kernel == "greedy-mis"
            assert result.all_terminated
            start = time.perf_counter()
            violations = MIS.verify_solution(graph, result.outputs)
            validate_s = time.perf_counter() - start
            assert not violations
            rows.append(
                (n, result.rounds, result.message_count, build_s,
                 predictions_s, elapsed, validate_s)
            )
            del graph, predictions, result
        return rows

    rows = once(execute)
    print(f"\nE28 scaling (greedy-mis/random-tree, schedule=vectorized):")
    print(
        f"{'n':>9}  {'rounds':>6}  {'messages':>9}  {'build s':>8}  "
        f"{'predict s':>9}  {'run s':>8}  {'validate s':>10}  {'nodes/s':>10}"
    )
    for n, rounds, messages, build_s, predictions_s, elapsed, validate_s in rows:
        print(
            f"{n:>9}  {rounds:>6}  {messages:>9}  {build_s:>8.3f}  "
            f"{predictions_s:>9.3f}  {elapsed:>8.3f}  {validate_s:>10.3f}  "
            f"{n / elapsed if elapsed else 0:>10.0f}"
        )
