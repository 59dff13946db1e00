"""Zero-copy shared-memory graph store + sharded execution.

Three pieces, all serving sweeps whose graphs dwarf their cells:

* :class:`SharedCSRStore` — while active, pickling a
  :class:`~repro.graphs.csr.CSRTopology` publishes its buffers into a
  :mod:`multiprocessing.shared_memory` segment (mmap'd-file fallback)
  exactly once and ships a ~100-byte :class:`SharedCSRHandle`; workers
  attach zero-copy.  Activated by the process-pool backend when a cell's
  :class:`~repro.core.runner.ExecutionPolicy` sets ``share_graph=True``.
* Component sharding (:func:`execute_shard` / :func:`merge_partials`) —
  cells whose policy sets ``shard="components"`` split by connected
  components across workers.  Components share no edge, so each shard
  judges its own closed world into a
  :class:`~repro.exec.results.CellResult` (validity, η₁), and the shard
  rows fold by maximum, sum and conjunction into the row of the
  unsharded run.
* Edge-cut sharding (:func:`run_edgecut` / :func:`execute_edgecut_cell`)
  — cells whose policy sets ``shard="edgecut"`` block-partition the
  identifier space of a *connected* graph; one engine per block runs in
  lockstep, exchanging cut-crossing messages through a per-round barrier
  (:class:`~repro.simulator.transport.BoundaryTransport`).  The shards
  split one run, so their results fold
  (:func:`~repro.simulator.metrics.fold_runs`) into the result of the
  unsharded run, output order included, which is judged on the whole
  graph.

Both paths build their rows with :func:`~repro.exec.results.cell_row`.

See docs/PERFORMANCE.md ("Sharded execution") and docs/ARCHITECTURE.md.
"""

from repro.shard.edgecut import (
    EdgecutPlan,
    execute_edgecut_cell,
    run_edgecut,
)
from repro.shard.plan import (
    EdgecutView,
    edgecut_bounds,
    edgecut_node_ids,
    execute_shard,
    merge_partials,
    shard_node_ids,
    shard_view,
)
from repro.shard.store import (
    SharedCSRHandle,
    SharedCSRStore,
    SharedCSRStoreError,
    attach_csr,
    detach_all,
    reset_worker_state,
)

__all__ = [
    "EdgecutPlan",
    "EdgecutView",
    "SharedCSRHandle",
    "SharedCSRStore",
    "SharedCSRStoreError",
    "attach_csr",
    "detach_all",
    "edgecut_bounds",
    "edgecut_node_ids",
    "execute_edgecut_cell",
    "execute_shard",
    "merge_partials",
    "reset_worker_state",
    "run_edgecut",
    "shard_node_ids",
    "shard_view",
]
