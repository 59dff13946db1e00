"""High-throughput sweep execution.

Every benchmark grid, ``repro sweep`` and ``repro faults`` reduce to
the same shape of work: run a grid of (graph spec × prediction spec ×
algorithm × seed) cells and tabulate per-cell rounds/validity/error.
This package makes that shape first-class:

* :class:`Sweep` declares the grid out of picklable *specs* —
  :class:`GraphSpec`, :class:`PredictionSpec`, :class:`AlgorithmSpec`,
  :class:`FaultSpec` — that name top-level factories instead of holding
  built objects.
* :func:`~repro.exec.backends.execute` (via :meth:`Sweep.run`) fans the
  cells over a process pool with chunked dispatch, or runs them serially
  for debugging; both produce identical :class:`SweepResult` tables
  because per-cell seeds are derived deterministically from
  ``(base_seed, index, label)``.
* :class:`ArtifactCache` memoizes built graphs/predictions by content
  key, with an optional on-disk layer (``.repro_cache/``) that survives
  across runs.
"""

from repro.exec.backends import execute
from repro.exec.cache import ArtifactCache, content_hash
from repro.exec.plan import (
    AlgorithmSpec,
    Cell,
    FaultSpec,
    GraphSpec,
    PredictionSpec,
    Spec,
    Sweep,
    derive_cell_seed,
)
from repro.exec.results import (
    CELL_COLUMNS,
    COMPARE_COLUMNS,
    CellColumn,
    CellResult,
    SweepResult,
)

__all__ = [
    "AlgorithmSpec",
    "ArtifactCache",
    "CELL_COLUMNS",
    "COMPARE_COLUMNS",
    "Cell",
    "CellColumn",
    "CellResult",
    "FaultSpec",
    "GraphSpec",
    "PredictionSpec",
    "Spec",
    "Sweep",
    "SweepResult",
    "content_hash",
    "derive_cell_seed",
    "execute",
]
