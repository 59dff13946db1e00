"""Sweep execution backends: serial and process-pool.

The process backend fans chunks of cells out over a
:class:`concurrent.futures.ProcessPoolExecutor`; the serial backend runs
the identical per-cell function in-process.  Because per-cell seeds are
fixed before dispatch (explicit or derived — see
:func:`repro.exec.plan.derive_cell_seed`) and cached artifacts are
immutable, the two backends produce row-for-row identical
:class:`~repro.exec.results.SweepResult` tables for the same sweep, and
any chunking of the process backend does too.

Chunked dispatch matters for throughput twice over: it amortizes the
pickle/IPC overhead of small cells, and — because chunks keep grid order,
which groups cells sharing a graph spec — it turns most per-worker
artifact-cache lookups into hits.

Two :class:`~repro.simulator.scheduling.ExecutionPolicy` knobs change what a
dispatched work item *is*:

* ``share_graph=True`` — the process backend activates a
  :class:`~repro.shard.store.SharedCSRStore` around dispatch, so every
  CSR topology crossing the pool boundary ships once as a shared-memory
  segment and each cell pickles down to a ~100-byte handle (measured
  into the rows' ``ship_bytes``/``shared_bytes`` columns).
* ``shard="components"`` — eligible cells (see
  :func:`repro.shard.plan.shard_mode`) expand into one work item per
  component shard, spreading a single huge-graph cell across the pool;
  the partials merge back into one bit-identical row.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Tuple

from repro.core.runner import run
from repro.exec.cache import (
    ArtifactCache,
    configure_process_cache,
    process_cache,
)
from repro.exec.plan import Cell, FaultSpec, Spec, Sweep, derive_cell_seed
from repro.exec.results import CellResult, SweepResult
from repro.obs.events import MemoryEventSink, write_jsonl_events
from repro.shard.edgecut import execute_edgecut_cell
from repro.shard.plan import (
    ShardPartial,
    execute_shard,
    merge_partials,
    shard_mode,
)
from repro.shard.store import SharedCSRStore, reset_worker_state

#: A dispatched unit of work: an entire cell, or one component shard.
#: ``("cell", index, cell, seed)`` /
#: ``("shard", index, cell, seed, shard, shard_count)``.
#: ``shard="edgecut"`` cells never become pool items — their shards are
#: coupled by a per-round barrier, so they run as one unit (threads on
#: the serial backend, dedicated processes driven by the parent on the
#: process backend; see :mod:`repro.shard.edgecut`).
WorkItem = Tuple[Any, ...]


def execute(
    sweep: Sweep,
    *,
    backend: str = "process",
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    cache: Optional[ArtifactCache] = None,
    cache_dir: Optional[str] = None,
    cache_size: int = 256,
    profile: bool = False,
    events: bool = False,
    events_path: Optional[str] = None,
) -> SweepResult:
    """Run every cell of ``sweep`` on the chosen backend.

    With ``profile``, every cell runs with round profiling and its
    ``RoundProfile.summary()`` lands on the row.  With ``events`` (or an
    ``events_path``), every cell's structured events are captured; an
    ``events_path`` additionally writes them all — tagged with their
    cell label, in cell order — as one JSONL file.

    The returned :class:`SweepResult` records both the requested and the
    *effective* backend: a process-backend request runs serially for
    single-cell sweeps and on platforms that cannot spawn workers, and
    reports so instead of claiming parallelism it didn't have.
    """
    if backend not in ("serial", "process"):
        raise ValueError(f"backend must be 'serial' or 'process', got {backend!r}")
    if cache is not None and backend == "process":
        raise ValueError(
            "cache= is only honored by the serial backend (worker processes "
            "cannot share a live cache object); pass cache_dir= to share "
            "artifacts on disk, or use backend='serial'"
        )
    events = events or events_path is not None
    _warn_unshardable(sweep, profile=profile, events=events)
    tagged = [
        (index, cell, _resolved_seed(sweep, index, cell))
        for index, cell in enumerate(sweep.cells)
    ]
    shard_count = max(1, jobs or os.cpu_count() or 2)
    start = time.perf_counter()
    shared_bytes = 0
    if backend == "serial" or len(tagged) <= 1:
        effective = "serial"
        # ``is not None``, not truthiness: a fresh caller-supplied cache
        # is empty and ArtifactCache defines ``__len__``.
        local_cache = (
            cache
            if cache is not None
            else ArtifactCache(maxsize=cache_size, disk_dir=cache_dir)
        )
        rows = [
            _execute_cell_any(
                index, cell, seed, local_cache, profile, events, shard_count
            )
            for index, cell, seed in tagged
        ]
        stats = local_cache.stats()
    else:
        store = None
        if any(cell.config.policy.share_graph for _, cell, _ in tagged):
            store = SharedCSRStore(directory=cache_dir)
        try:
            if store is not None:
                store.activate()
            rows, stats, effective = _execute_process_pool(
                tagged,
                jobs=jobs,
                chunk_size=chunk_size,
                cache_dir=cache_dir,
                cache_size=cache_size,
                profile=profile,
                events=events,
                shard_count=shard_count,
                store=store,
            )
            if store is not None:
                shared_bytes = store.total_bytes
        finally:
            if store is not None:
                store.close()
    rows.sort(key=lambda row: row.index)
    result = SweepResult(
        name=sweep.name,
        rows=rows,
        backend=effective,
        requested_backend=backend,
        elapsed=time.perf_counter() - start,
        cache_stats=stats,
        shared_bytes=shared_bytes,
    )
    if events_path is not None:
        _write_sweep_events(events_path, rows)
    return result


def _warn_unshardable(sweep: Sweep, *, profile: bool, events: bool) -> None:
    """Warn (once per sweep) when ``shard=`` is requested but gated off.

    Fault plans, custom metrics, profiling and event capture all need
    the whole graph in one engine; such cells silently running unsharded
    would misreport the sweep's parallelism, so say it out loud.
    """
    for cell in sweep.cells:
        if (
            cell.config.policy.shard is not None
            and shard_mode(cell, profile=profile, events=events) is None
        ):
            warnings.warn(
                f"cell {cell.label!r} requested shard="
                f"{cell.config.policy.shard!r} but carries a feature that "
                "needs the whole graph in one engine (faults, custom "
                "metrics, profiling or event capture); running unsharded",
                RuntimeWarning,
                stacklevel=3,
            )
            return


def _write_sweep_events(path: str, rows: List[CellResult]) -> None:
    """Serialize every row's captured events as one JSONL file."""
    # Truncate first: write_jsonl_events appends per cell.
    open(path, "w", encoding="utf-8").close()
    for row in rows:
        if row.events:
            write_jsonl_events(path, row.events, cell=row.label)


def _resolved_seed(sweep: Sweep, index: int, cell: Cell) -> int:
    """The seed a cell runs with: explicit beats configured beats derived.

    ``seed=0`` is a real seed at either level — only ``None`` (unset)
    falls through to the derived per-cell seed.
    """
    if cell.seed is not None:
        return cell.seed
    if cell.config.seed is not None:
        return cell.config.seed
    return derive_cell_seed(sweep.base_seed, index, cell.label)


# ----------------------------------------------------------------------
# Per-cell execution (shared verbatim by both backends)
# ----------------------------------------------------------------------
def _execute_cell(
    index: int,
    cell: Cell,
    seed: int,
    cache: ArtifactCache,
    profile: bool = False,
    events: bool = False,
) -> CellResult:
    cell_start = time.perf_counter()
    graph = cache.get_or_build(cell.graph.key, cell.graph.build)
    predictions = None
    if cell.predictions is not None:
        spec = cell.predictions
        predictions = cache.get_or_build(
            f"{spec.key}@{cell.graph.key}", lambda: spec.build(graph)
        )
    faults = cell.faults
    if isinstance(faults, FaultSpec):
        faults = faults.build(graph)
    elif isinstance(faults, Spec):  # a generic Spec used for faults
        faults = faults.build(graph)
    algorithm = cell.algorithm.build()
    config = cell.config.with_overrides(seed=seed)
    if faults is not None:
        config = config.with_overrides(faults=faults)
    if profile:
        config = config.with_overrides(profile=True)
    sink = MemoryEventSink() if events else None
    result = run(
        algorithm,
        graph,
        predictions,
        config=config,
        sinks=[sink] if sink is not None else None,
    )

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
    from repro.problems import solution_size as _solution_size

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
        kernel=getattr(result, "kernel", None),
        stuck=result.stuck is not None,
        solution_size=_solution_size(
            result.outputs, problem.name if problem is not None else None
        ),
        metrics=metrics,
        elapsed=time.perf_counter() - cell_start,
        profile=result.profile.summary() if result.profile is not None else None,
        events=sink.entries if sink is not None else None,
    )


def _execute_cell_any(
    index: int,
    cell: Cell,
    seed: int,
    cache: ArtifactCache,
    profile: bool,
    events: bool,
    shard_count: int,
) -> CellResult:
    """One cell on the current process: sharded (run + merge in place)
    when its policy and features allow, unsharded otherwise.

    The serial spelling of the sharded path — same split, same merge —
    so ``backend="serial"`` stays row-for-row identical to the pool and
    the differential fuzz can compare all four combinations cheaply.
    """
    mode = shard_mode(cell, profile=profile, events=events)
    if mode is None:
        return _execute_cell(index, cell, seed, cache, profile, events)
    if mode == "edgecut":
        return _execute_edgecut_any(
            index, cell, seed, cache, shard_count, "thread", profile, events
        )
    partials = [
        execute_shard(index, cell, seed, shard, shard_count, cache)
        for shard in range(shard_count)
    ]
    return merge_partials(index, cell, seed, partials)


def _execute_edgecut_any(
    index: int,
    cell: Cell,
    seed: int,
    cache: ArtifactCache,
    shard_count: int,
    mode: str,
    profile: bool,
    events: bool,
) -> CellResult:
    """One ``shard="edgecut"`` cell, degrading gracefully to unsharded.

    A single shard (``jobs=1``) or a trace request needs the whole graph
    in one engine anyway, so those cells take the ordinary path; the
    process mode additionally falls back to in-process threads when the
    platform cannot spawn workers (same contract as the pool itself).
    """
    if shard_count < 2 or cell.config.trace:
        return _execute_cell(index, cell, seed, cache, profile, events)
    if mode == "process":
        try:
            return execute_edgecut_cell(
                index, cell, seed, shard_count, mode="process", cache=cache
            )
        except (OSError, PermissionError) as exc:
            warnings.warn(
                f"edge-cut shard processes unavailable ({exc}); "
                f"running cell {cell.label!r} on in-process threads",
                RuntimeWarning,
                stacklevel=2,
            )
    return execute_edgecut_cell(
        index, cell, seed, shard_count, mode="thread", cache=cache
    )


# ----------------------------------------------------------------------
# Process-pool backend
# ----------------------------------------------------------------------
def _init_worker(cache_size: int, cache_dir: Optional[str]) -> None:
    """Pool initializer: one artifact cache per worker process.

    Also clears any fork-inherited :class:`SharedCSRStore` reduce hook —
    workers attach segments, they must never publish them.
    """
    reset_worker_state()
    configure_process_cache(maxsize=cache_size, disk_dir=cache_dir)


def _execute_item(item: WorkItem, cache: ArtifactCache) -> Any:
    """One work item in a worker: a full cell row, or a shard partial."""
    kind = item[0]
    if kind == "cell":
        _, index, cell, seed, profile, events = item
        return _execute_cell(index, cell, seed, cache, profile, events)
    _, index, cell, seed, shard, shard_count = item
    return execute_shard(index, cell, seed, shard, shard_count, cache)


def _run_chunk(
    task: Tuple[List[WorkItem], ...]
) -> Tuple[List[Any], Dict[str, int]]:
    """Execute one chunk in a worker; returns outputs + cache counters.

    Outputs are heterogeneous — :class:`CellResult` rows for ``"cell"``
    items, :class:`ShardPartial` for ``"shard"`` items; the parent
    separates and merges.
    """
    (items,) = task
    cache = process_cache()
    before = cache.stats()
    outputs = [_execute_item(item, cache) for item in items]
    after = cache.stats()
    delta = {
        key: after[key] - before.get(key, 0)
        for key in ("hits", "disk_hits", "misses", "corrupt")
    }
    return outputs, delta


def _failed_cell_result(item: WorkItem, exc: BaseException) -> CellResult:
    """A placeholder row for a work item whose worker died (twice).

    Every run-derived field is zero/``None``; ``failure`` records the
    exception so the sweep table stays complete and diagnosable instead
    of silently dropping the cell.  A failed *shard* fails its whole
    cell — partial rows would not be comparable.
    """
    _kind, index, cell, seed = item[:4]
    return CellResult(
        index=index,
        label=cell.label,
        graph_name="",
        n=0,
        seed=seed,
        rounds=0,
        rounds_executed=0,
        failure=f"{type(exc).__name__}: {exc}",
    )


def _drain_pool(
    chunks: List[Tuple[List[WorkItem]]],
    workers: int,
    cache_size: int,
    cache_dir: Optional[str],
    outputs: List[Any],
    stats: Dict[str, int],
) -> List[Tuple[List[WorkItem], BaseException]]:
    """Run chunks on one fresh pool, collecting into ``outputs``/``stats``.

    Returns the chunks (with the exception) whose workers the pool lost
    — a crashed worker poisons the whole executor, so every not-yet-run
    chunk surfaces as :class:`BrokenProcessPool` while already-completed
    chunks keep their results.
    """
    lost: List[Tuple[List[WorkItem], BaseException]] = []
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(cache_size, cache_dir),
    ) as pool:
        futures = {}
        try:
            for chunk in chunks:
                futures[pool.submit(_run_chunk, chunk)] = chunk
        except BrokenProcessPool as exc:
            # The pool died while submissions were still going in; every
            # chunk that never made it to a worker is lost as well.
            lost.extend((chunk[0], exc) for chunk in chunks[len(futures):])
        for future in as_completed(futures):
            chunk = futures[future]
            try:
                chunk_outputs, chunk_stats = future.result()
            except BrokenProcessPool as exc:
                lost.append((chunk[0], exc))
                continue
            outputs.extend(chunk_outputs)
            for key, value in chunk_stats.items():
                stats[key] = stats.get(key, 0) + value
    return lost


def _expand_items(
    tagged: List[Tuple[int, Cell, int]],
    shard_count: int,
    profile: bool,
    events: bool,
) -> List[WorkItem]:
    """Work items in grid order: one per cell, or one per shard for
    component-shardable cells (sharding only pays off across ≥ 2
    workers).  Edge-cut cells are absent by construction — the caller
    routes them to the parent-driven barrier execution instead."""
    items: List[WorkItem] = []
    for index, cell, seed in tagged:
        if shard_mode(cell, profile=profile, events=events) == "components":
            items.extend(
                ("shard", index, cell, seed, shard, shard_count)
                for shard in range(shard_count)
            )
        else:
            items.append(("cell", index, cell, seed, profile, events))
    return items


def _measure_shipping(
    items: List[WorkItem], store: SharedCSRStore
) -> Dict[int, int]:
    """Per-cell dispatched-pickle bytes, measured under the active store.

    The measurement pickle is also the store's publication pass: the
    first ``dumps`` of each topology creates its segment, so by the time
    the pool pickles the same items only handles cross the boundary.
    Only taken when a store is active — the handles make it cheap; with
    flat buffers it would double the dominant serialization cost.
    """
    ship: Dict[int, int] = {}
    for item in items:
        index = item[1]
        size = len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
        ship[index] = ship.get(index, 0) + size
    return ship


def _shared_bytes_for(cell: Cell, store: SharedCSRStore) -> Optional[int]:
    """Segment bytes behind the cell's literal graph, if published."""
    csr = getattr(cell.graph.value, "csr", None)
    if csr is None:
        return None
    handle = store.handle_for(csr)
    return handle.nbytes if handle is not None else None


def _collect_rows(
    tagged: List[Tuple[int, Cell, int]],
    outputs: List[Any],
    failed: List[CellResult],
) -> List[CellResult]:
    """Fold worker outputs into final rows: pass cell rows through,
    merge shard partials per cell, let a failed shard fail its cell."""
    rows: List[CellResult] = []
    partials: Dict[int, List[ShardPartial]] = {}
    for output in outputs:
        if isinstance(output, ShardPartial):
            partials.setdefault(output.index, []).append(output)
        else:
            rows.append(output)
    failed_indexes = {row.index for row in failed}
    by_index = {index: (cell, seed) for index, cell, seed in tagged}
    for index, parts in partials.items():
        if index in failed_indexes:
            continue  # a lost shard already failed the whole cell
        cell, seed = by_index[index]
        rows.append(merge_partials(index, cell, seed, parts))
    seen = {row.index for row in rows}
    rows.extend(row for row in failed if row.index not in seen)
    return rows


def _execute_process_pool(
    tagged: List[Tuple[int, Cell, int]],
    *,
    jobs: Optional[int],
    chunk_size: Optional[int],
    cache_dir: Optional[str],
    cache_size: int,
    profile: bool = False,
    events: bool = False,
    shard_count: int = 1,
    store: Optional[SharedCSRStore] = None,
) -> Tuple[List[CellResult], Dict[str, int], str]:
    """Rows, cache counters and the backend that actually ran them."""
    workers = jobs or os.cpu_count() or 2
    workers = max(1, min(workers, len(tagged)))
    edgecut_indexes = {
        index
        for index, cell, _ in tagged
        if shard_mode(cell, profile=profile, events=events) == "edgecut"
    }
    edgecut_tagged = [e for e in tagged if e[0] in edgecut_indexes]
    pool_tagged = [e for e in tagged if e[0] not in edgecut_indexes]
    items = _expand_items(pool_tagged, shard_count, profile, events)
    ship = _measure_shipping(items, store) if store is not None else {}
    if chunk_size is None:
        # ~4 waves per worker balances scheduling slack against IPC cost.
        chunk_size = max(1, len(items) // (workers * 4) or 1)
    chunks = [
        (items[i : i + chunk_size],)
        for i in range(0, len(items), chunk_size)
    ]
    outputs: List[Any] = []
    failed: List[CellResult] = []
    stats: Dict[str, int] = {
        "hits": 0, "disk_hits": 0, "misses": 0, "corrupt": 0,
    }
    effective = "process"
    try:
        lost = _drain_pool(
            chunks, workers, cache_size, cache_dir, outputs, stats
        )
        if lost:
            # A worker died and took the pool with it.  The completed
            # chunks' outputs are already collected; retry only the lost
            # items, once, each on its own fresh single-worker pool —
            # isolation, so a permanently-poisonous cell can neither
            # sink its chunk-mates nor the other cells being retried.
            retry_items = [item for chunk, _ in lost for item in chunk]
            warnings.warn(
                f"a sweep worker died ({lost[0][1]}); retrying "
                f"{len(retry_items)} affected work item(s) on a fresh pool",
                RuntimeWarning,
                stacklevel=3,
            )
            for item in retry_items:
                still_lost = _drain_pool(
                    [([item],)], 1, cache_size, cache_dir, outputs, stats
                )
                for chunk, exc in still_lost:
                    failed.extend(
                        _failed_cell_result(lost_item, exc)
                        for lost_item in chunk
                    )
        rows = _collect_rows(pool_tagged, outputs, failed)
        if edgecut_tagged:
            # Edge-cut cells run here in the parent: their shards are one
            # barrier-coupled unit (dedicated worker processes, parent as
            # router), not independent pool items.
            parent_cache = ArtifactCache(maxsize=cache_size, disk_dir=cache_dir)
            rows.extend(
                _execute_edgecut_any(
                    index, cell, seed, parent_cache, shard_count,
                    "process", profile, events,
                )
                for index, cell, seed in edgecut_tagged
            )
            for key, value in parent_cache.stats().items():
                stats[key] = stats.get(key, 0) + value
        if store is not None:
            # Tagged is enumerate-ordered, so ``tagged[i] == (i, cell, seed)``.
            for row in rows:
                if row.failure is not None:
                    continue
                row.ship_bytes = ship.get(row.index)
                row.shared_bytes = _shared_bytes_for(tagged[row.index][1], store)
    except (OSError, PermissionError) as exc:
        # Sandboxes and restricted CI runners sometimes forbid spawning
        # worker processes; the sweep still completes, just serially —
        # and the result says so (``backend="serial"``).
        warnings.warn(
            f"process backend unavailable ({exc}); falling back to serial",
            RuntimeWarning,
            stacklevel=2,
        )
        effective = "serial"
        cache = ArtifactCache(maxsize=cache_size, disk_dir=cache_dir)
        rows = [
            _execute_cell_any(
                index, cell, seed, cache, profile, events, shard_count
            )
            for index, cell, seed in tagged
        ]
        stats = cache.stats()
    return rows, stats, effective
