"""Sweep execution backends: serial and process-pool.

A sweep's cells are planned once into work units (:func:`_plan_units`):
a whole cell, one component shard of a cell, or an edge-cut cell.  Every
unit runs through one runner (:func:`_run_unit`) and every cell's rows
through one fold (:func:`_collect_rows`), whichever backend runs them:

* **serial** — every unit in this process, edge-cut shards on threads;
* **process** — cell and shard units fan out in chunks over a
  :class:`concurrent.futures.ProcessPoolExecutor`, and each edge-cut
  unit then runs here, spawning one process per shard and routing their
  barriers.  A sweep of one unsharded cell runs serially (one cell never
  pays for a pool), and so does every unit where a pool worker or an
  edge-cut shard process cannot be spawned; the result reports the
  backend that ran.

Because per-cell seeds are fixed before dispatch (explicit or derived —
see :func:`repro.exec.plan.derive_cell_seed`) and cached artifacts are
immutable, the two backends produce row-for-row identical
:class:`~repro.exec.results.SweepResult` tables for the same sweep, and
any chunking of the process backend does too.

Chunked dispatch matters for throughput twice over: it amortizes the
pickle/IPC overhead of small cells, and — because chunks keep grid order,
which groups cells sharing a graph spec — it turns most per-worker
artifact-cache lookups into hits.

Two :class:`~repro.simulator.scheduling.ExecutionPolicy` knobs change what a
work unit *is*:

* ``share_graph=True`` — the process backend activates a
  :class:`~repro.shard.store.SharedCSRStore` around dispatch, so every
  CSR topology crossing the pool boundary ships once as a shared-memory
  segment and each unit pickles down to a ~100-byte handle (measured
  into the rows' ``ship_bytes``/``shared_bytes`` columns).
* ``shard="components"`` — a cell plans into one unit per component
  shard, spreading a single huge-graph cell across the pool; the shards'
  rows merge back into one bit-identical row.  ``shard="edgecut"`` cells
  stay one unit each: their shards meet at a barrier every round (see
  :mod:`repro.shard.edgecut`).

Before any cell runs, every sharded cell is checked against its row of
:mod:`repro.simulator.capabilities`; with fewer than two shards it runs
whole.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.runner import run
from repro.exec.cache import (
    ArtifactCache,
    configure_process_cache,
    process_cache,
)
from repro.exec.plan import Cell, Spec, Sweep, derive_cell_seed
from repro.exec.results import CellResult, SweepResult, cell_inputs, cell_row
from repro.obs.events import MemoryEventSink, write_jsonl_events
from repro.shard.edgecut import execute_edgecut_cell
from repro.shard.plan import execute_shard, merge_partials
from repro.shard.store import SharedCSRStore, reset_worker_state
from repro.simulator.capabilities import FALLBACK, require


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
    *effective* backend: a process-backend request runs serially for a
    sweep of one unsharded cell and on platforms that cannot spawn
    workers, and reports so instead of claiming parallelism it didn't
    have.
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
    for cell in sweep.cells:
        _require_shardable(cell, profile, events)
    # A sharded cell splits into ``jobs`` shards, on either backend.
    jobs = max(1, jobs or os.cpu_count() or 2)
    units = _plan_units(sweep, jobs, profile, events)
    start = time.perf_counter()
    shared_bytes = 0
    rows: Optional[List[CellResult]] = None
    # One unsharded cell never pays for a pool.
    alone = len(units) <= 1 and all(unit[0] == "cell" for unit in units)
    if backend == "process" and not alone:
        store = None
        if any(cell.config.policy.share_graph for cell in sweep.cells):
            store = SharedCSRStore(directory=cache_dir)
        try:
            if store is not None:
                store.activate()
            rows, stats = _execute_process_pool(
                units,
                jobs=jobs,
                chunk_size=chunk_size,
                cache_dir=cache_dir,
                cache_size=cache_size,
                store=store,
            )
            if store is not None:
                shared_bytes = store.total_bytes
        except OSError as exc:
            # Sandboxes and restricted CI runners sometimes forbid
            # spawning pool workers or edge-cut shard processes; the
            # sweep still completes, just serially (edge-cut shards on
            # threads) — and the result says so (``backend="serial"``).
            warnings.warn(
                f"process backend unavailable ({exc}); falling back to serial",
                RuntimeWarning,
                stacklevel=2,
            )
        finally:
            if store is not None:
                store.close()
    effective = "serial" if rows is None else "process"
    if rows is None:
        # ``is not None``, not truthiness: a fresh caller-supplied cache
        # is empty and ArtifactCache defines ``__len__``.
        local_cache = (
            cache
            if cache is not None
            else ArtifactCache(maxsize=cache_size, disk_dir=cache_dir)
        )
        rows = _collect_rows(
            [(unit, _run_unit(unit, local_cache)) for unit in units]
        )
        stats = local_cache.stats()
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


def _require_shardable(cell: Cell, profile: bool, events: bool) -> None:
    """Raise unless the cell's shard path reproduces it (unsharded cells
    pass).  A schedule the fallback rescues is downgraded where it runs."""
    config = cell.config
    policy = config.policy
    if policy.shard is not None:
        require(
            policy.shard,
            FALLBACK[policy.schedule] if policy.fallback else policy.schedule,
            faults=cell.faults is not None or config.faults is not None,
            sinks=events or config.trace, profile=profile or config.profile,
            deadline=policy.deadline_s is not None,
            metrics=cell.metrics is not None,
        )


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
# Work units: one planner, one runner, one fold (shared by both backends)
# ----------------------------------------------------------------------
def _plan_units(
    sweep: Sweep, shard_count: int, profile: bool, events: bool
) -> List[tuple]:
    """Every cell's work units, in grid order, each carrying the cell's
    index and resolved seed:

    * ``("cell", index, cell, seed, profile, events)`` — a whole cell;
    * ``("shard", index, cell, seed, shard, shard_count)`` — one component
      shard of a ``shard="components"`` cell;
    * ``("edgecut", index, cell, seed, shard_count)`` — a
      ``shard="edgecut"`` cell, whose shards meet at a barrier every
      round and so run as one unit.

    With fewer than two shards, a sharded cell is one whole-cell unit.
    """
    units: List[tuple] = []
    for index, cell in enumerate(sweep.cells):
        seed = _resolved_seed(sweep, index, cell)
        mode = cell.config.policy.shard if shard_count > 1 else None
        if mode == "components":
            units.extend(
                ("shard", index, cell, seed, shard, shard_count)
                for shard in range(shard_count)
            )
        elif mode == "edgecut":
            units.append(("edgecut", index, cell, seed, shard_count))
        else:
            units.append(("cell", index, cell, seed, profile, events))
    return units


def _run_unit(
    unit: tuple, cache: ArtifactCache, mode: str = "thread"
) -> CellResult:
    """One work unit's row, in whichever process runs it.

    An edge-cut unit's shards run on threads, or under ``mode="process"``
    on one spawned process each.
    """
    kind, index, cell, seed = unit[:4]
    if kind == "cell":
        return _execute_cell(index, cell, seed, cache, *unit[4:])
    if kind == "shard":
        return execute_shard(index, cell, seed, *unit[4:], cache)
    (shard_count,) = unit[4:]
    return execute_edgecut_cell(
        index, cell, seed, shard_count, mode=mode, cache=cache
    )


def _collect_rows(outputs: List[Tuple[tuple, CellResult]]) -> List[CellResult]:
    """Fold the units' rows into one row per cell.

    A whole cell's or an edge-cut cell's row passes through, and a cell's
    shard rows merge in shard order.  A lost unit fails its whole cell —
    partial rows would not be comparable — with one failed row, however
    many of its units were lost.
    """
    failed = {row.index: row for _, row in outputs if row.failure is not None}
    rows = list(failed.values())
    shards: Dict[int, Tuple[tuple, Dict[int, CellResult]]] = {}
    for unit, row in outputs:
        if unit[1] in failed:
            continue
        if unit[0] == "shard":
            shards.setdefault(unit[1], (unit, {}))[1][unit[4]] = row
        else:
            rows.append(row)
    for (_, index, cell, seed, _, _), parts in shards.values():
        rows.append(
            merge_partials(index, cell, seed, [parts[s] for s in sorted(parts)])
        )
    return rows


def _execute_cell(
    index: int,
    cell: Cell,
    seed: int,
    cache: ArtifactCache,
    profile: bool = False,
    events: bool = False,
) -> CellResult:
    started = time.perf_counter()
    graph, predictions = cell_inputs(cell, cache)
    faults = cell.faults
    if isinstance(faults, Spec):  # a FaultSpec, or a generic Spec for faults
        faults = faults.build(graph)
    algorithm = cell.algorithm.build()
    config = cell.config.with_overrides(
        seed=seed, policy=replace(cell.config.policy, shard=None)
    )
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
    return cell_row(
        index, cell, seed, graph, predictions, result, started,
        events=sink.entries if sink is not None else None,
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


def _run_chunk(units: List[tuple]) -> Tuple[List[CellResult], Dict[str, int]]:
    """Execute one chunk in a worker; returns one row per unit (the
    parent pairs them with its units and folds) + cache counters."""
    cache = process_cache()
    before = cache.stats()
    rows = [_run_unit(unit, cache) for unit in units]
    after = cache.stats()
    delta = {
        key: after[key] - before.get(key, 0)
        for key in ("hits", "disk_hits", "misses", "corrupt")
    }
    return rows, delta


def _failed_cell_result(unit: tuple, exc: BaseException) -> CellResult:
    """A placeholder row for a work unit whose worker died (twice).

    Every run-derived field is zero/``None``; ``failure`` records the
    exception so the sweep table stays complete and diagnosable instead
    of silently dropping the cell.
    """
    _kind, index, cell, seed = unit[:4]
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
    chunks: List[List[tuple]],
    workers: int,
    cache_size: int,
    cache_dir: Optional[str],
    outputs: List[Tuple[tuple, CellResult]],
    stats: Dict[str, int],
) -> List[Tuple[List[tuple], BaseException]]:
    """Run chunks on one fresh pool, collecting each unit's row into
    ``outputs`` and the cache counters into ``stats``.

    Returns the chunks (with the exception) whose workers the pool lost
    — a crashed worker poisons the whole executor, so every not-yet-run
    chunk surfaces as :class:`BrokenProcessPool` while already-completed
    chunks keep their results.
    """
    lost: List[Tuple[List[tuple], BaseException]] = []
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
            lost.extend((chunk, exc) for chunk in chunks[len(futures):])
        for future in as_completed(futures):
            chunk = futures[future]
            try:
                rows, chunk_stats = future.result()
            except BrokenProcessPool as exc:
                lost.append((chunk, exc))
                continue
            outputs.extend(zip(chunk, rows))
            for key, value in chunk_stats.items():
                stats[key] = stats.get(key, 0) + value
    return lost


def _measure_shipping(
    units: List[tuple], store: SharedCSRStore
) -> Dict[int, int]:
    """Per-cell dispatched-pickle bytes, measured under the active store.

    The measurement pickle is also the store's publication pass: the
    first ``dumps`` of each topology creates its segment, so by the time
    the pool pickles the same units only handles cross the boundary.
    Only taken when a store is active — the handles make it cheap; with
    flat buffers it would double the dominant serialization cost.
    """
    ship: Dict[int, int] = {}
    for unit in units:
        index = unit[1]
        size = len(pickle.dumps(unit, protocol=pickle.HIGHEST_PROTOCOL))
        ship[index] = ship.get(index, 0) + size
    return ship


def _execute_process_pool(
    units: List[tuple],
    *,
    jobs: int,
    chunk_size: Optional[int],
    cache_dir: Optional[str],
    cache_size: int,
    store: Optional[SharedCSRStore] = None,
) -> Tuple[List[CellResult], Dict[str, int]]:
    """Rows and cache counters: cell and shard units run on the pool,
    then each edge-cut unit runs here, spawning one process per shard,
    since the parent routes their barriers."""
    pooled = [unit for unit in units if unit[0] != "edgecut"]
    ship = _measure_shipping(pooled, store) if store is not None else {}
    outputs: List[Tuple[tuple, CellResult]] = []
    stats = dict.fromkeys(("hits", "disk_hits", "misses", "corrupt"), 0)
    if pooled:
        workers = min(jobs, len(pooled))
        if chunk_size is None:
            # ~4 waves per worker balances scheduling slack against IPC cost.
            chunk_size = max(1, len(pooled) // (workers * 4))
        chunks = [
            pooled[i : i + chunk_size] for i in range(0, len(pooled), chunk_size)
        ]
        lost = _drain_pool(chunks, workers, cache_size, cache_dir, outputs, stats)
        if lost:
            # A worker died and took the pool with it.  The completed
            # chunks' rows are already collected; retry only the lost
            # units, once, each on its own fresh single-worker pool —
            # isolation, so a permanently-poisonous cell can neither
            # sink its chunk-mates nor the other units being retried.
            retry = [unit for chunk, _ in lost for unit in chunk]
            warnings.warn(
                f"a sweep worker died ({lost[0][1]}); retrying "
                f"{len(retry)} affected work unit(s) on a fresh pool",
                RuntimeWarning,
                stacklevel=3,
            )
            for unit in retry:
                for _, exc in _drain_pool(
                    [[unit]], 1, cache_size, cache_dir, outputs, stats
                ):
                    outputs.append((unit, _failed_cell_result(unit, exc)))
    cache = ArtifactCache(maxsize=cache_size, disk_dir=cache_dir)
    outputs.extend(
        (unit, _run_unit(unit, cache, "process"))
        for unit in units
        if unit[0] == "edgecut"
    )
    for key, value in cache.stats().items():
        stats[key] = stats.get(key, 0) + value
    rows = _collect_rows(outputs)
    if store is not None:
        cells = {unit[1]: unit[2] for unit in units}
        for row in rows:
            if row.failure is None:
                # Segment bytes behind the cell's literal graph, if published.
                csr = getattr(cells[row.index].graph.value, "csr", None)
                handle = None if csr is None else store.handle_for(csr)
                row.ship_bytes = ship.get(row.index)
                row.shared_bytes = None if handle is None else handle.nbytes
    return rows, stats
