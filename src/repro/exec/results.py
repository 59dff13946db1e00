"""Sweep results: per-cell rows and whole-sweep aggregation.

A :class:`CellResult` is the flat, picklable record a worker sends back
for one cell — everything the benchmark tables need (rounds, validity,
error, fault counters, custom metrics) without dragging the full
:class:`~repro.simulator.metrics.RunResult` across the process boundary.
:class:`SweepResult` collects the rows in cell order, whatever backend or
chunking produced them, so serial and process-parallel executions of the
same sweep compare equal row-for-row.

:data:`CELL_COLUMNS` is the canonical per-cell column registry: one
entry per exported column, in export order.  The sweep CSV header, the
bench baseline cells (``repro.obs.bench``) and the determinism-compared
column set are all derived from it, so adding a counter (as PRs 5–7 did
with ``delayed``/``retried``/``kernel``) is a one-line change here
instead of three hand-maintained lists drifting apart.

Every path that executes a cell — whole, one component shard, or an
edge-cut run — fetches its inputs with :func:`cell_inputs` and turns its
:class:`~repro.simulator.metrics.RunResult` into a row with
:func:`cell_row`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

if TYPE_CHECKING:
    from repro.exec.cache import ArtifactCache
    from repro.exec.plan import Cell
    from repro.simulator.metrics import RunResult


@dataclass(frozen=True)
class CellColumn:
    """One canonical per-cell export column.

    Attributes:
        name: Column name in CSV headers and baseline cell documents.
        attr: The :class:`CellResult` attribute the value comes from.
        compare: Whether the bench diff treats a changed value as a
            determinism break (see ``repro.obs.bench.diff_payloads``).
        default: Value used when a (pickled, older) row lacks the
            attribute — also the value older baselines implicitly carry.
        semantic: Whether the column describes the run's *outcome*
            (included in :meth:`CellResult.as_tuple`, hence in
            backend/shard equivalence checks) rather than transport
            provenance — shard counts and ship/shared byte measurements
            legitimately differ between backends that produced
            identical results.
    """

    name: str
    attr: str
    compare: bool = False
    default: Any = None
    semantic: bool = True

    def value_of(self, row: Any) -> Any:
        """The column's value on one row (``default`` if absent)."""
        return getattr(row, self.attr, self.default)


#: Canonical per-cell columns, in export (CSV) order.
CELL_COLUMNS: Tuple[CellColumn, ...] = (
    CellColumn("label", "label"),
    CellColumn("graph", "graph_name"),
    CellColumn("n", "n", default=0),
    CellColumn("seed", "seed", compare=True, default=0),
    CellColumn("rounds", "rounds", compare=True, default=0),
    CellColumn("rounds_executed", "rounds_executed", compare=True, default=0),
    CellColumn("valid", "valid"),
    CellColumn("error", "error"),
    CellColumn("messages", "message_count", compare=True, default=0),
    CellColumn("dropped", "dropped_messages", default=0),
    CellColumn("delayed", "delayed_messages", compare=True, default=0),
    CellColumn("retried", "retried_messages", compare=True, default=0),
    CellColumn("kernel", "kernel", compare=True),
    CellColumn("epoch", "epoch", compare=True),
    CellColumn("recourse", "recourse", compare=True),
    CellColumn("scratch_rounds", "scratch_rounds", compare=True),
    CellColumn("stuck", "stuck", default=False),
    CellColumn("solution_size", "solution_size", default=0),
    CellColumn("shards", "shards", semantic=False),
    CellColumn("shared_bytes", "shared_bytes", semantic=False),
    CellColumn("ship_bytes", "ship_bytes", semantic=False),
    CellColumn("boundary_msgs", "boundary_msgs", semantic=False),
    CellColumn("boundary_bytes", "boundary_bytes", semantic=False),
    CellColumn("failure", "failure"),
)

#: Names of the columns whose per-cell change is a determinism break.
COMPARE_COLUMNS: Tuple[str, ...] = tuple(
    column.name for column in CELL_COLUMNS if column.compare
)


@dataclass
class CellResult:
    """Executed outcome of one sweep cell.

    Attributes:
        index: Position of the cell in the sweep (rows are sorted by it).
        label: The cell's label.
        graph_name: Name of the built instance.
        n: Number of nodes of the instance.
        seed: The seed the run actually used (explicit or derived).
        rounds: Last-termination round — the paper's measure.
        rounds_executed: Rounds the engine ran (≥ ``rounds`` under
            faults/partial runs).
        valid: Whether the output solves the cell's problem (``None``
            when the cell named no problem).
        error: η₁ prediction error (``None`` without problem or
            predictions).
        message_count: Messages delivered.
        dropped_messages: Messages removed by the cell's adversary.
        delayed_messages: Messages the async delay adversary held in
            flight (``schedule="async"`` cells; 0 otherwise).
        retried_messages: Send-timeout retransmissions the async
            scheduler fired (``schedule="async"`` cells; 0 otherwise).
        kernel: Name of the compiled whole-frontier kernel that executed
            the cell (``schedule="vectorized"`` cells; ``None``
            otherwise, including after a ``fallback="interpret"``
            downgrade).
        epoch: Position of the cell in a dynamic epoch stream
            (``repro.dynamic`` rows; ``None`` for static cells).
        recourse: Number of surviving nodes whose output changed from
            the previous epoch (dynamic rows from epoch 1 on; ``None``
            otherwise).
        scratch_rounds: Rounds a solve-from-scratch run (default
            predictions, same instance/seed) took, recorded alongside
            the warm-start ``rounds`` (dynamic rows executed with the
            scratch comparison enabled; ``None`` otherwise).
        stuck: Whether the run hit its round budget in graceful mode.
        solution_size: Nodes outputting 1 (MIS-style problems), else the
            number of decided nodes.
        shards: Number of component shards merged into this row
            (``shard="components"`` cells; ``None`` for unsharded).
        shared_bytes: Bytes of this cell's graph resident in the sweep's
            :class:`~repro.shard.store.SharedCSRStore` segment (``None``
            when no store was active or the graph wasn't published).
        ship_bytes: Pickled size of the dispatched cell — the bytes that
            actually crossed the pool boundary, measured when a store is
            active (``None`` otherwise).  With zero-copy sharing this is
            the ~100-byte handle plus specs instead of the flat CSR
            buffers.
        boundary_msgs: Cut-crossing messages exchanged through the
            edge-cut barrier over the whole run (``shard="edgecut"``
            cells; ``None`` otherwise).
        boundary_bytes: Serialized size of those boundary batches —
            the actual inter-shard traffic an edge-cut run pays
            (``shard="edgecut"`` cells; ``None`` otherwise).
        metrics: Output of the cell's custom metrics callable, if any.
        elapsed: Wall-clock seconds this cell took to execute (artifact
            builds included).  Excluded from :meth:`as_tuple`: timings
            are observability, not semantics.
        profile: ``RoundProfile.summary()`` of the cell's run when the
            sweep was executed with profiling, else ``None``.
        events: The cell's event dicts (``MemoryEventSink`` form) when
            the sweep was executed with event capture, else ``None``.
        failure: ``None`` for a cell that executed; otherwise a one-line
            ``"ExcType: message"`` describing why the cell could not run
            (e.g. its worker process died and the retry died too).  A
            failed row is a placeholder — every run-derived field is
            zero/``None`` — kept so the sweep table stays complete
            instead of silently losing cells.
    """

    index: int
    label: str
    graph_name: str
    n: int
    seed: int
    rounds: int
    rounds_executed: int
    valid: Optional[bool] = None
    error: Optional[int] = None
    message_count: int = 0
    dropped_messages: int = 0
    delayed_messages: int = 0
    retried_messages: int = 0
    kernel: Optional[str] = None
    epoch: Optional[int] = None
    recourse: Optional[int] = None
    scratch_rounds: Optional[int] = None
    stuck: bool = False
    solution_size: int = 0
    shards: Optional[int] = None
    shared_bytes: Optional[int] = None
    ship_bytes: Optional[int] = None
    boundary_msgs: Optional[int] = None
    boundary_bytes: Optional[int] = None
    metrics: Dict[str, Any] = field(default_factory=dict)
    elapsed: float = 0.0
    profile: Optional[Dict[str, Any]] = None
    events: Optional[List[Dict[str, Any]]] = None
    failure: Optional[str] = None

    def as_tuple(self) -> Tuple[Any, ...]:
        """Canonical comparison form (used by backend-equivalence tests).

        ``index`` plus every *semantic* registry column plus the custom
        metrics — outcomes, nothing timing- or transport-derived (shard
        counts and ship/shared bytes vary across equivalent backends).
        """
        return (
            self.index,
            *(
                column.value_of(self)
                for column in CELL_COLUMNS
                if column.semantic
            ),
            tuple(sorted(self.metrics.items())),
        )


def cell_inputs(
    cell: "Cell", cache: "ArtifactCache"
) -> Tuple[Any, Optional[Mapping[int, Any]]]:
    """The cell's graph and predictions, built once per cache under the
    keys ``cell.graph.key`` and ``f"{spec.key}@{cell.graph.key}"``."""
    graph = cache.get_or_build(cell.graph.key, cell.graph.build)
    spec = cell.predictions
    if spec is None:
        return graph, None
    return graph, cache.get_or_build(
        f"{spec.key}@{cell.graph.key}", lambda: spec.build(graph)
    )


def cell_row(
    index: int,
    cell: "Cell",
    seed: int,
    graph: Any,
    predictions: Optional[Mapping[int, Any]],
    result: "RunResult",
    started: float,
    **columns: Any,
) -> CellResult:
    """The row of a cell whose run on ``graph`` returned ``result``.

    Validity, η₁ and the cell's metrics are judged on ``graph``, the
    world the run saw: the whole graph, or one component shard's view.
    ``started`` is the ``time.perf_counter()`` reading the cell's
    ``elapsed`` counts from; ``columns`` sets the rest (``events``,
    ``shards`` and the boundary counters).
    """
    problem = None
    valid = None
    error = None
    if cell.problem is not None:
        from repro.problems import get_problem

        problem = get_problem(cell.problem)
        valid = problem.is_solution(graph, result.outputs)
        if predictions is not None:
            from repro.errors import eta1

            error = eta1(graph, predictions, problem.name)
    from repro.problems import solution_size

    metrics: Dict[str, Any] = {}
    if cell.metrics is not None:
        metrics = dict(cell.metrics(problem, graph, predictions, result))
    return CellResult(
        index=index,
        label=cell.label,
        graph_name=graph.name,
        n=graph.n,
        seed=seed,
        rounds=result.rounds,
        rounds_executed=result.rounds_executed,
        valid=valid,
        error=error,
        message_count=result.message_count,
        dropped_messages=result.dropped_messages,
        delayed_messages=result.delayed_messages,
        retried_messages=result.retried_messages,
        kernel=result.kernel,
        stuck=result.stuck is not None,
        solution_size=solution_size(
            result.outputs, problem.name if problem is not None else None
        ),
        metrics=metrics,
        elapsed=time.perf_counter() - started,
        profile=result.profile.summary() if result.profile is not None else None,
        **columns,
    )


@dataclass
class SweepResult:
    """All rows of an executed sweep, in cell order.

    Attributes:
        name: The sweep's name.
        rows: One :class:`CellResult` per cell.
        backend: The backend that *actually* executed the cells
            (``"serial"`` or ``"process"``).  May differ from
            :attr:`requested_backend`: a sweep of one unsharded cell,
            and platforms that cannot spawn worker or shard processes,
            run serially even when the process backend was requested.
        requested_backend: The backend the caller asked for.
        elapsed: Wall-clock seconds for the whole execution.
        cache_stats: Aggregated artifact-cache counters (summed over
            worker processes for the process backend).
        shared_bytes: Total bytes the sweep's
            :class:`~repro.shard.store.SharedCSRStore` held across all
            published segments (0 when no store was active) — the one
            resident graph copy all workers attached.
    """

    name: str = ""
    rows: List[CellResult] = field(default_factory=list)
    backend: str = "serial"
    requested_backend: str = ""
    elapsed: float = 0.0
    cache_stats: Dict[str, int] = field(default_factory=dict)
    shared_bytes: int = 0

    def __post_init__(self) -> None:
        if not self.requested_backend:
            self.requested_backend = self.backend

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[CellResult]:
        return iter(self.rows)

    def __getitem__(self, index: int) -> CellResult:
        return self.rows[index]

    # ------------------------------------------------------------------
    @property
    def all_valid(self) -> bool:
        """Whether every row with a verdict solved its problem."""
        return all(row.valid for row in self.rows if row.valid is not None)

    def row(self, label: str) -> CellResult:
        """The (first) row with the given label."""
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def by_label(self) -> Dict[str, CellResult]:
        """Label -> row mapping (labels should be unique per sweep)."""
        return {row.label: row for row in self.rows}

    def rounds_by_error(self, key: Optional[str] = None) -> List[Tuple[int, int]]:
        """Sorted ``(error, max rounds at that error)`` series — the
        degradation curve a learning-augmented plot shows.

        The error is the row's η₁ ``error`` column, or ``metrics[key]``
        when a metrics key such as ``"eta2"`` is given; rows without one
        are left out.
        """
        by_error: Dict[int, int] = {}
        for row in self.rows:
            error = row.error if key is None else row.metrics.get(key)
            if error is None:
                continue
            by_error[error] = max(by_error.get(error, 0), row.rounds)
        return sorted(by_error.items())

    def degradation_slope(self) -> float:
        """Least-squares slope of rounds against η₁ over the rows with
        η₁ > 0 — the empirical rate of f(η).

        A linearly degrading algorithm shows a slope at most its
        degradation constant (1 for η₁-degrading, 2 for 2η₁-degrading).
        """
        points = [(row.error, row.rounds) for row in self.rows if row.error]
        if len(points) < 2:
            return 0.0
        mean_x = sum(x for x, _ in points) / len(points)
        mean_y = sum(y for _, y in points) / len(points)
        numerator = sum((x - mean_x) * (y - mean_y) for x, y in points)
        denominator = sum((x - mean_x) ** 2 for x, _ in points)
        if denominator == 0:
            return 0.0
        return numerator / denominator

    def telemetry(self) -> Dict[str, Any]:
        """Flat, JSON-safe aggregate of the sweep's execution.

        Per-cell rounds/messages totals, backend provenance (requested
        vs. effective), cache hit rate and round throughput — the
        payload :func:`repro.obs.bench.write_baseline` serializes into
        ``BENCH_<name>.json`` artifacts.
        """
        rows = self.rows
        lookups = sum(
            self.cache_stats.get(key, 0) for key in ("hits", "disk_hits", "misses")
        )
        built = self.cache_stats.get("misses", 0)
        node_rounds = sum(row.rounds_executed * row.n for row in rows)
        valid_known = [row for row in rows if row.valid is not None]
        return {
            "sweep": self.name,
            "cells": len(rows),
            "backend": self.backend,
            "requested_backend": self.requested_backend,
            "elapsed": self.elapsed,
            "rounds_total": sum(row.rounds for row in rows),
            "rounds_max": max((row.rounds for row in rows), default=0),
            "rounds_executed_total": sum(row.rounds_executed for row in rows),
            "messages_total": sum(row.message_count for row in rows),
            "dropped_total": sum(row.dropped_messages for row in rows),
            "delayed_total": sum(row.delayed_messages for row in rows),
            "retried_total": sum(row.retried_messages for row in rows),
            "stuck_cells": sum(1 for row in rows if row.stuck),
            "vectorized_cells": sum(1 for row in rows if row.kernel is not None),
            "epochs": sum(
                1 for row in rows if getattr(row, "epoch", None) is not None
            ),
            "recourse_total": sum(
                getattr(row, "recourse", None) or 0 for row in rows
            ),
            "scratch_rounds_total": sum(
                getattr(row, "scratch_rounds", None) or 0 for row in rows
            ),
            "sharded_cells": sum(
                1 for row in rows if getattr(row, "shards", None) is not None
            ),
            "shards_total": sum(
                getattr(row, "shards", None) or 0 for row in rows
            ),
            "ship_bytes_total": sum(
                getattr(row, "ship_bytes", None) or 0 for row in rows
            ),
            "boundary_msgs_total": sum(
                getattr(row, "boundary_msgs", None) or 0 for row in rows
            ),
            "boundary_bytes_total": sum(
                getattr(row, "boundary_bytes", None) or 0 for row in rows
            ),
            "shared_bytes": getattr(self, "shared_bytes", 0),
            "cache_corrupt": self.cache_stats.get("corrupt", 0),
            "failed_cells": sum(1 for row in rows if row.failure is not None),
            "valid_cells": sum(1 for row in valid_known if row.valid),
            "invalid_cells": sum(1 for row in valid_known if not row.valid),
            "cache_hit_rate": (lookups - built) / lookups if lookups else 0.0,
            "node_rounds_total": node_rounds,
            "node_rounds_per_sec": node_rounds / self.elapsed if self.elapsed else 0.0,
            "cell_elapsed_total": sum(row.elapsed for row in rows),
        }

    def equivalent_to(self, other: "SweepResult") -> bool:
        """Row-for-row equality (ignores backend, timing, cache stats)."""
        return [row.as_tuple() for row in self.rows] == [
            row.as_tuple() for row in other.rows
        ]

    # ------------------------------------------------------------------
    def to_csv(self, path: str) -> None:
        """Write the rows as CSV, one :data:`CELL_COLUMNS` column each
        (custom metrics flattened into extra columns)."""
        import csv

        metric_keys = sorted({key for row in self.rows for key in row.metrics})
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                [*(column.name for column in CELL_COLUMNS), *metric_keys]
            )
            for row in self.rows:
                writer.writerow(
                    [
                        *(column.value_of(row) for column in CELL_COLUMNS),
                        *(row.metrics.get(key, "") for key in metric_keys),
                    ]
                )
