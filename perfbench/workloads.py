"""The benchmark's four workloads: inputs from a seed, timed calls, checks.

Each workload builds its inputs in :meth:`Workload.setup` (the part a user
pays before the first result: graphs, predictions, the churn stream) and
then runs its timed calls through the public entry points, ``Sweep.run``
on the serial backend or ``DynamicRunner.run``, in :meth:`Workload.rep`.
Every input seed is derived from the one workload seed, so the same seed
always yields the same inputs and the program only ever sees generated
data.  :func:`check_rep` validates one rep's rows; README.md gives the
reason each workload exists.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import pickle
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms.coloring import PaletteGreedyColoringAlgorithm
from repro.algorithms.matching import GreedyMatchingAlgorithm
from repro.algorithms.mis import GreedyMISAlgorithm
from repro.bench import algorithms as templates
from repro.core import ExecutionPolicy, RunConfig
from repro.dynamic import DynamicRunner, EpochStream, SyntheticChurnStream
from repro.exec import AlgorithmSpec, ArtifactCache, GraphSpec, PredictionSpec, Sweep
from repro.problems import MIS

#: The seed whose per-cell statistics are stored in reference.json.
DEFAULT_SEED = 0

#: Edge-cut shards / component shards of the ``sharded`` workload: at
#: most two threads, so the load fits a two-core machine.
SHARD_JOBS = 2


def derive_seed(seed: int, purpose: str) -> int:
    """A sub-seed for one input (graph, predictions, stream, cells)."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


class OutcomeDigest:
    """Sweep ``metrics=`` hook: the run's bit count and an output digest.

    Sweep rows carry no outputs, so the hook condenses them into a
    digest the correctness gate can compare against reference.json.  It
    is a class so a traced run can wrap ``__call__`` like any other
    layer call and keep this benchmark-side cost out of the exec layer.
    """

    def __call__(self, problem, graph, predictions, result) -> Dict[str, Any]:
        # Protocol 4 is pinned so the digest is the same on every Python.
        payload = pickle.dumps(sorted(result.outputs.items()), protocol=4)
        return {
            "bits": result.total_bits,
            "digest": hashlib.sha256(payload).hexdigest()[:16],
        }


@dataclass
class Rep:
    """One timed pass over a workload's calls."""

    #: ``time.perf_counter()`` when the timed calls began.
    start: float
    seconds: float
    #: Wall-clock ``(start, end)`` of each unit a user waits on: sweep
    #: cells, stream epochs.
    windows: List[Tuple[float, float]]
    rows: List[Any]
    node_rounds: int
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass
class SweepState:
    sweep: Sweep
    #: Artifacts built in setup, keyed as the sweep executor looks them up.
    artifacts: Dict[str, Any]
    profile: bool = False


@dataclass
class DynamicState:
    graph: Any
    batches: Tuple[Any, ...]
    runner_seed: int
    profile: bool = False


class ReplayStream(EpochStream):
    """Replays pre-generated batches and calls ``on_boundary`` whenever
    the runner finishes an epoch (before each batch, and after the last)."""

    def __init__(
        self, graph: Any, batches: Sequence[Any], on_boundary: Callable[[], None]
    ) -> None:
        self.initial_graph = graph
        self.epochs = len(batches)
        self.name = "dynamic-churn"
        self._batches = batches
        self._on_boundary = on_boundary

    def batches(self):
        for batch in self._batches:
            self._on_boundary()
            yield batch
        self._on_boundary()


class Workload:
    """Base class: a name, setup, one timed rep, and per-row checks."""

    name = ""
    #: Whether a traced run may profile the rounds (``profile=True``).
    profiles = True

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def rep(self, state: Any, tracer: Any = None) -> Rep:
        raise NotImplementedError

    def labels(self, state: Any) -> List[str]:
        raise NotImplementedError

    def check_row(self, state: Any, row: Any) -> Optional[str]:
        """Seed-independent checks beyond validity; a reason, or None."""
        return None


# ----------------------------------------------------------------------
# Sweep workloads
# ----------------------------------------------------------------------
class SweepWorkload(Workload):
    jobs: Optional[int] = None

    def sweep(self, seed: int) -> Sweep:
        raise NotImplementedError

    def setup(self, seed: int) -> SweepState:
        sweep = self.sweep(seed)
        artifacts: Dict[str, Any] = {}
        for cell in sweep.cells:
            graph_key = cell.graph.key
            if graph_key not in artifacts:
                artifacts[graph_key] = cell.graph.build()
            if cell.predictions is not None:
                key = f"{cell.predictions.key}@{graph_key}"
                if key not in artifacts:
                    artifacts[key] = cell.predictions.build(artifacts[graph_key])
        return SweepState(sweep=sweep, artifacts=artifacts)

    def labels(self, state: SweepState) -> List[str]:
        return [cell.label for cell in state.sweep.cells]

    def rep(self, state: SweepState, tracer: Any = None) -> Rep:
        cache = ArtifactCache()
        for key, artifact in state.artifacts.items():
            cache.get_or_build(key, lambda artifact=artifact: artifact)
        before = cache.stats()
        gc.collect()
        with _timed(tracer) as timer:
            result = state.sweep.run(
                "serial", jobs=self.jobs, cache=cache, profile=state.profile
            )
        after = cache.stats()
        rows = result.rows
        # The serial backend runs the cells back to back in row order, so
        # each cell's window follows the previous one's.
        windows = []
        end = timer.start
        for row in rows:
            windows.append((end, end + row.elapsed))
            end += row.elapsed
        return Rep(
            start=timer.start,
            seconds=timer.seconds,
            windows=windows,
            rows=rows,
            node_rounds=sum(row.n * row.rounds_executed for row in rows),
            cache_hits=after["hits"] - before["hits"],
            cache_misses=after["misses"] - before["misses"],
        )


VECTORIZED = ExecutionPolicy(schedule="vectorized")
QUIESCENT = ExecutionPolicy(schedule="quiescent")

#: (problem, algorithm class, kernel that must execute it).
KERNEL_FAMILIES = (
    ("mis", GreedyMISAlgorithm, "greedy-mis"),
    ("matching", GreedyMatchingAlgorithm, "greedy-matching"),
    ("vertex-coloring", PaletteGreedyColoringAlgorithm, "greedy-coloring"),
)

#: The paper's four MIS templates (names in ``repro.bench.algorithms``).
TEMPLATES = ("mis_simple", "mis_consecutive", "mis_interleaved", "mis_parallel")


class KernelTree(SweepWorkload):
    name = "kernel-tree"

    def __init__(self, n: int = 50_000, trees: int = 2) -> None:
        # Two trees rather than one twice the size: a tree's round counts
        # vary with its seed, and the sum over two varies less.
        self.n = n
        self.trees = trees
        self.digest = OutcomeDigest()

    def sweep(self, seed: int) -> Sweep:
        sweep = Sweep(self.name, base_seed=derive_seed(seed, "cells"))
        for tree in range(self.trees):
            graph = GraphSpec.of(
                "random_tree", self.n, seed=derive_seed(seed, f"graph:{tree}")
            )
            for problem, algorithm, _kernel in KERNEL_FAMILIES:
                predictions = PredictionSpec.of(
                    "repro.bench.workloads:noisy_for",
                    problem,
                    0.1,
                    seed=derive_seed(seed, f"predictions:{tree}:{problem}"),
                )
                sweep.add(
                    f"{problem}/tree={tree}",
                    graph,
                    AlgorithmSpec.of(algorithm),
                    predictions=predictions,
                    problem=problem,
                    config=RunConfig(fast=True),
                    policy=VECTORIZED,
                    metrics=self.digest,
                )
        return sweep

    def check_row(self, state: SweepState, row: Any) -> Optional[str]:
        expected = {problem: kernel for problem, _, kernel in KERNEL_FAMILIES}
        kernel = expected[row.label.split("/")[0]]
        if row.kernel != kernel:
            return f"ran kernel {row.kernel!r}, expected {kernel!r}"
        return None


class TemplateDegradation(SweepWorkload):
    name = "template-degradation"

    def __init__(self, n: int = 128, draws: int = 16) -> None:
        # Many draws of each cell rather than one long line: the
        # randomized robust phase of mis_interleaved at prefix n takes
        # most of a rep, and its cost varies twofold with the cell's run
        # seed; the sum over draws varies far less from seed to seed.
        self.n = n
        self.draws = draws
        self.digest = OutcomeDigest()

    def prefixes(self) -> Tuple[int, ...]:
        return (0, self.n // 16, self.n // 4, self.n)

    def sweep(self, seed: int) -> Sweep:
        sweep = Sweep(self.name, base_seed=derive_seed(seed, "cells"))
        graph = GraphSpec.of("repro.bench.workloads:sorted_line", self.n)
        for draw, prefix in itertools.product(range(self.draws), self.prefixes()):
            predictions = PredictionSpec.of(
                "repro.bench.workloads:corrupted_segment_mis",
                prefix,
                seed=derive_seed(seed, f"predictions:{draw}"),
            )
            for template in TEMPLATES:
                sweep.add(
                    f"{template}/prefix={prefix}/draw={draw}",
                    graph,
                    template,
                    predictions=predictions,
                    problem="mis",
                    policy=QUIESCENT,
                    metrics=self.digest,
                )
        return sweep

    def check_row(self, state: SweepState, row: Any) -> Optional[str]:
        if row.error != 0:
            return None
        template = row.label.split("/")[0]
        graph = state.artifacts[state.sweep.cells[0].graph.key]
        bound = getattr(templates, template)().consistency_bound(
            graph.n, graph.delta, graph.d
        )
        if row.rounds > bound:
            return f"eta1 = 0 but {row.rounds} rounds > consistency bound {bound}"
        return None


class Sharded(SweepWorkload):
    name = "sharded"
    jobs = SHARD_JOBS
    # Sharding refuses profiled cells: a traced run must not profile them.
    profiles = False

    def __init__(
        self,
        forest: Tuple[int, int] = (500, 100),
        tree: Tuple[int, int] = (8, 5),
    ) -> None:
        self.forest = forest
        self.tree = tree

    def sweep(self, seed: int) -> Sweep:
        # Both graph families are deterministic; the seed reaches the
        # cells' run seeds.  Preorder ids keep the edge cut near
        # shards x height, so boundary traffic stays small but nonzero.
        sweep = Sweep(self.name, base_seed=derive_seed(seed, "cells"))
        config = RunConfig(fast=True)
        for shard, family, size in (
            ("components", "path_forest", self.forest),
            ("edgecut", "preorder_kary_tree", self.tree),
        ):
            sweep.add(
                f"{shard}/{family}",
                GraphSpec.of(family, *size),
                "greedy_mis_reference",
                problem="mis",
                config=config,
                policy=ExecutionPolicy(schedule="quiescent", shard=shard),
            )
        return sweep

    def check_row(self, state: SweepState, row: Any) -> Optional[str]:
        if row.shards != SHARD_JOBS:
            return f"ran on {row.shards} shards, expected {SHARD_JOBS}"
        if row.label.startswith("edgecut/") and not row.boundary_msgs:
            return "edge-cut run exchanged no boundary messages"
        return None


# ----------------------------------------------------------------------
# Dynamic workload
# ----------------------------------------------------------------------
class DynamicChurn(Workload):
    name = "dynamic-churn"

    def __init__(
        self, n: int = 350, degree: float = 6.0, epochs: int = 100, churn: int = 10
    ) -> None:
        self.n = n
        self.degree = degree
        self.epochs = epochs
        self.churn = churn

    def setup(self, seed: int) -> DynamicState:
        graph = GraphSpec.of(
            "erdos_renyi",
            self.n,
            self.degree / (self.n - 1),
            seed=derive_seed(seed, "graph"),
        ).build()
        stream = SyntheticChurnStream(
            graph,
            self.epochs,
            add=self.churn,
            remove=self.churn,
            seed=derive_seed(seed, "stream"),
        )
        return DynamicState(
            graph=graph,
            batches=tuple(stream.batches()),
            runner_seed=derive_seed(seed, "runner"),
        )

    def labels(self, state: DynamicState) -> List[str]:
        return [f"epoch={epoch}" for epoch in range(len(state.batches) + 1)]

    def rep(self, state: DynamicState, tracer: Any = None) -> Rep:
        marks: List[float] = []

        def boundary() -> None:
            marks.append(time.perf_counter())
            if tracer is not None:
                tracer.new_epoch()

        runner = DynamicRunner(
            templates.mis_simple,
            MIS,
            ReplayStream(state.graph, state.batches, boundary),
            config=RunConfig(profile=state.profile),
            seed=state.runner_seed,
        )
        gc.collect()
        with _timed(tracer) as timer:
            marks.append(time.perf_counter())
            result = runner.run()
        rows = result.rows
        return Rep(
            start=timer.start,
            seconds=timer.seconds,
            windows=list(zip(marks, marks[1:])),
            rows=rows,
            node_rounds=sum(row.n * row.rounds_executed for row in rows),
        )

    def check_row(self, state: DynamicState, row: Any) -> Optional[str]:
        if row.error != 0:
            return None
        graph = state.graph
        bound = templates.mis_simple().consistency_bound(graph.n, graph.delta, graph.d)
        if row.rounds > bound:
            return f"eta1 = 0 but {row.rounds} rounds > consistency bound {bound}"
        return None


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    KernelTree.name: KernelTree,
    TemplateDegradation.name: TemplateDegradation,
    DynamicChurn.name: DynamicChurn,
    Sharded.name: Sharded,
}


# ----------------------------------------------------------------------
# Timing and correctness
# ----------------------------------------------------------------------
class _timed:
    """Times the timed calls; under a tracer, also marks them as one rep."""

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self) -> "_timed":
        if self.tracer is not None:
            self.tracer.begin_rep()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.seconds = time.perf_counter() - self.start
        if self.tracer is not None:
            self.tracer.end_rep()


def row_stats(row: Any) -> Dict[str, Any]:
    """The simulated statistics of one row that reference.json pins."""
    stats = {
        "rounds": row.rounds,
        "rounds_executed": row.rounds_executed,
        "messages": row.message_count,
        "eta1": row.error,
        "solution_size": row.solution_size,
        "kernel": row.kernel,
        "recourse": row.recourse,
        "scratch_rounds": row.scratch_rounds,
        "shards": row.shards,
        "boundary_msgs": row.boundary_msgs,
    }
    stats.update(row.metrics)
    return {key: value for key, value in stats.items() if value is not None}


def check_rep(
    workload: Workload,
    state: Any,
    rows: Sequence[Any],
    reference: Optional[Dict[str, Dict[str, Any]]],
) -> List[str]:
    """Failure reasons for one rep's rows (one entry per failed cell).

    Every row must have run (no ``failure``), be valid and not stuck and
    pass the workload's own checks; with a ``reference`` (the default
    seed) its statistics must also equal the stored ones.
    """
    failures = []
    labels = workload.labels(state)
    by_label = {row.label: row for row in rows}
    for label in labels:
        row = by_label.get(label)
        if row is None:
            reason = "no row"
        elif row.failure is not None:
            reason = f"failed: {row.failure}"
        elif row.valid is not True:
            reason = "invalid output"
        elif row.stuck:
            reason = "stuck"
        else:
            reason = workload.check_row(state, row)
            if reason is None and reference is not None:
                expected = reference.get(label)
                actual = row_stats(row)
                if expected != actual:
                    reason = f"statistics {actual} differ from reference {expected}"
        if reason is not None:
            failures.append(f"{label}: {reason}")
    return failures
