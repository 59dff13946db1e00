"""Component-sharded cell execution: split, run, merge bit-identically.

The embarrassingly-shardable case from ROADMAP item 4: nodes in different
connected components never exchange messages, so a cell whose graph has
many components can run as independent sub-cells — one per worker — and
merge back into a single :class:`~repro.exec.results.CellResult` that is
**bit-identical** to the unsharded run.  Identity holds because every
ambient quantity a node observes is pinned to the parent graph's value:

* per-node randomness is keyed ``Random(f"{seed}:{node_id}")`` — the
  stream never sees the shard;
* a :func:`shard_view` reports the *parent's* ``n`` and ``Δ``, so round
  budgets (``8n + 64``), CONGEST bandwidth (``O(log n)`` bits), palette
  sizes (``Δ+1`` / ``2Δ−1``) and template slice bounds all match;
* predictions are built from the full graph's spec (same factory, same
  seed) and restricted to the shard's nodes;
* the merge rules are exactly the component decompositions of the
  engine's aggregates — ``rounds``/``rounds_executed`` are maxima,
  message/solution counts are sums, validity is a conjunction, and η₁ is
  a maximum (error components are sub-component by definition).

What shards: cells without fault plans, custom metrics, profiling or
event capture, on any schedule except ``"async"`` (the delay adversary
draws from tick-global streams, so component isolation does not hold;
:class:`~repro.core.runner.ExecutionPolicy` rejects the combination).
:func:`shard_mode` is the single gate both backends consult.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.runner import run
from repro.graphs.graph import DistGraph
from repro.graphs.window import GraphWindow

if TYPE_CHECKING:  # imported lazily at runtime: repro.exec imports this
    # module (via the backends), so a module-level import would cycle.
    from repro.exec.cache import ArtifactCache
    from repro.exec.plan import Cell
    from repro.exec.results import CellResult


@dataclass
class ShardPartial:
    """One shard's contribution to a sharded cell (picklable row shard).

    ``shard``/``shard_count`` locate it; everything else mirrors the
    :class:`~repro.exec.results.CellResult` fields its merge feeds.
    """

    index: int
    shard: int
    shard_count: int
    graph_name: str
    n: int
    shard_nodes: int
    rounds: int
    rounds_executed: int
    message_count: int
    dropped_messages: int
    delayed_messages: int
    retried_messages: int
    valid: Optional[bool]
    error: Optional[int]
    solution_size: int
    stuck: bool
    kernel: Optional[str]
    elapsed: float


def shard_mode(
    cell: "Cell", *, profile: bool = False, events: bool = False
) -> Optional[str]:
    """The cell's effective shard mode, or ``None`` when it must run
    unsharded (no shard requested, or a feature that needs the whole
    graph in one engine — faults, custom metrics, profiling, events)."""
    mode = cell.config.policy.shard
    if mode is None:
        return None
    if (
        cell.faults is not None
        or cell.config.faults is not None
        or cell.metrics is not None
        or profile
        or events
    ):
        return None
    return mode


def shard_view(parent: DistGraph, nodes: Sequence[int]) -> DistGraph:
    """The induced subgraph with the parent's ambient ``n``/``Δ`` pinned.

    The view's node set and edges are the shard's own (freshly built
    topology, per the subgraph-freshness contract), but ``graph.n`` and
    ``graph.delta`` report the parent's values — the quantities a node in
    the unsharded run would know.
    """
    view = parent.subgraph(nodes)
    view.n = parent.n
    view._delta_override = parent.delta
    return view


def shard_node_ids(graph: DistGraph, shard: int, shard_count: int) -> List[int]:
    """Identifiers of the components assigned to ``shard`` (round-robin
    over the topology's min-id-ordered component list)."""
    csr = graph.csr
    ids = csr.ids
    parts = csr.components()
    return [
        ids[index]
        for part_index in range(shard, len(parts), shard_count)
        for index in parts[part_index]
    ]


def edgecut_bounds(n_nodes: int, shard_count: int) -> List[int]:
    """Block boundaries of the edge-cut partition: ``shard_count + 1``
    positions into the sorted identifier sequence.

    Shard ``s`` owns the contiguous slice ``[bounds[s], bounds[s+1])`` of
    the ascending node ids — a BFS/DFS-block partition for generators that
    number locality-contiguously (preorder trees, rings, grids), and a
    balanced ±1 split for any graph.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    return [(n_nodes * s) // shard_count for s in range(shard_count + 1)]


def edgecut_node_ids(
    graph: DistGraph, shard: int, shard_count: int
) -> List[int]:
    """Identifiers owned by ``shard`` under the edge-cut block partition."""
    nodes = graph.nodes
    bounds = edgecut_bounds(len(nodes), shard_count)
    return list(nodes[bounds[shard] : bounds[shard + 1]])


class EdgecutView(GraphWindow):
    """One edge-cut shard's window onto the *full* parent graph.

    Unlike :func:`shard_view` (components), no subgraph is built (see
    :class:`~repro.graphs.window.GraphWindow`): an owned node keeps its
    complete adjacency, including neighbors whose mailboxes live on
    other shards, and only the *delivery* of cut messages moves to the
    :class:`~repro.simulator.transport.BoundaryTransport`.  ``nodes`` is
    the owned contiguous block; every ambient quantity (``n``, ``d``,
    ``Δ``, attrs) delegates to the parent, so round budgets, CONGEST
    bandwidth and palette sizes match the unsharded run exactly.
    """

    __slots__ = ("shard", "shard_count")

    #: Marker the kernel resolver checks: compiled whole-frontier kernels
    #: index dense per-node arrays and have no halo exchange, so they
    #: reject edge-cut views loudly (``UnsupportedScheduleError``).
    is_edgecut = True

    def __init__(
        self, parent: DistGraph, shard: int, shard_count: int
    ) -> None:
        if not 0 <= shard < shard_count:
            raise ValueError(
                f"shard must be in [0, {shard_count}), got {shard}"
            )
        super().__init__(parent, edgecut_node_ids(parent, shard, shard_count))
        self.shard = shard
        self.shard_count = shard_count

    def __reduce__(self) -> tuple:
        # Rebuild from the parent (which ships zero-copy under an active
        # SharedCSRStore) instead of pickling the owned-id tuple.
        return (type(self), (self.parent, self.shard, self.shard_count))

    @property
    def name(self) -> str:
        return (
            f"{self.parent.name}[edgecut {self.shard}/{self.shard_count}]"
        )


def execute_shard(
    index: int,
    cell: "Cell",
    seed: int,
    shard: int,
    shard_count: int,
    cache: "ArtifactCache",
) -> ShardPartial:
    """Run one shard of a cell (worker-side) and return its partial.

    The parent graph is attached/built through the worker's artifact
    cache (zero-copy when a :class:`~repro.shard.store.SharedCSRStore`
    shipped it); the shard's induced view is cached per
    ``(graph, shard, shard_count)`` so grid cells sharing a graph reuse
    it.
    """
    start = time.perf_counter()
    graph = cache.get_or_build(cell.graph.key, cell.graph.build)
    view = cache.get_or_build(
        f"shard:{shard}/{shard_count}@{cell.graph.key}",
        lambda: shard_view(graph, shard_node_ids(graph, shard, shard_count)),
    )
    predictions = None
    if cell.predictions is not None:
        spec = cell.predictions
        full = cache.get_or_build(
            f"{spec.key}@{cell.graph.key}", lambda: spec.build(graph)
        )
        predictions = {
            node: full[node] for node in view.nodes if node in full
        }
    algorithm = cell.algorithm.build()
    config = cell.config.with_overrides(seed=seed)
    result = run(algorithm, view, predictions, config=config)

    problem = None
    valid = None
    error = None
    if cell.problem is not None:
        from repro.problems import get_problem

        problem = get_problem(cell.problem)
        valid = problem.is_solution(view, result.outputs)
        if predictions is not None:
            from repro.errors import eta1

            error = eta1(view, predictions, problem.name)
    from repro.problems import solution_size as _solution_size

    return ShardPartial(
        index=index,
        shard=shard,
        shard_count=shard_count,
        graph_name=graph.name,
        n=graph.n,
        shard_nodes=len(view.nodes),
        rounds=result.rounds,
        rounds_executed=result.rounds_executed,
        message_count=result.message_count,
        dropped_messages=result.dropped_messages,
        delayed_messages=result.delayed_messages,
        retried_messages=result.retried_messages,
        valid=valid,
        error=error,
        solution_size=_solution_size(
            result.outputs, problem.name if problem is not None else None
        ),
        stuck=result.stuck is not None,
        kernel=getattr(result, "kernel", None),
        elapsed=time.perf_counter() - start,
    )


def merge_partials(
    index: int, cell: "Cell", seed: int, partials: Sequence[ShardPartial]
) -> "CellResult":
    """Fold a cell's shard partials into the unsharded-identical row.

    Maxima for round counts and η₁ (component-wise maxima compose),
    sums for message/solution counters, conjunction for validity.
    """
    from repro.exec.results import CellResult

    if not partials:
        raise ValueError(f"cell {cell.label!r} produced no shard partials")
    parts = sorted(partials, key=lambda partial: partial.shard)
    valids = [partial.valid for partial in parts if partial.valid is not None]
    errors = [partial.error for partial in parts if partial.error is not None]
    kernels = [
        partial.kernel for partial in parts if partial.kernel is not None
    ]
    return CellResult(
        index=index,
        label=cell.label,
        graph_name=parts[0].graph_name,
        n=parts[0].n,
        seed=seed,
        rounds=max(partial.rounds for partial in parts),
        rounds_executed=max(partial.rounds_executed for partial in parts),
        valid=all(valids) if cell.problem is not None else None,
        error=max(errors) if errors else None,
        message_count=sum(partial.message_count for partial in parts),
        dropped_messages=sum(partial.dropped_messages for partial in parts),
        delayed_messages=sum(partial.delayed_messages for partial in parts),
        retried_messages=sum(partial.retried_messages for partial in parts),
        kernel=kernels[0] if kernels else None,
        stuck=any(partial.stuck for partial in parts),
        solution_size=sum(partial.solution_size for partial in parts),
        elapsed=sum(partial.elapsed for partial in parts),
        shards=len(parts),
    )
