"""The algorithms-with-predictions framework (Sections 4, 6 and 7).

This package turns the paper's framework into code:

* :mod:`repro.core.algorithm` — the algorithm interfaces: plain
  :class:`~repro.core.algorithm.DistributedAlgorithm`,
  :class:`~repro.core.algorithm.PhasedAlgorithm` (Interleaved Template),
  and :class:`~repro.core.algorithm.TwoPartReference` (Parallel Template).
* :mod:`repro.core.templates` — the four templates of Section 7 as generic
  combinators over an initialization algorithm B, a measure-uniform
  algorithm U, a clean-up algorithm C and a reference algorithm R.
* :mod:`repro.core.runner` — the high-level ``run()`` entry point.

The empirical side of Section 1.2 (consistency, degradation, robustness)
is measured over :class:`repro.exec.Sweep` grids, whose
:class:`~repro.exec.results.SweepResult` gives the rounds-by-error curve
and the degradation slope.
"""

from repro.core.algorithm import (
    DistributedAlgorithm,
    FunctionalAlgorithm,
    PhasedAlgorithm,
    TwoPartReference,
)
from repro.core.runner import ExecutionPolicy, RunConfig, run
from repro.core.templates import (
    ConsecutiveTemplate,
    HedgedConsecutiveTemplate,
    InterleavedTemplate,
    ParallelTemplate,
    SimpleTemplate,
)

__all__ = [
    "ConsecutiveTemplate",
    "DistributedAlgorithm",
    "ExecutionPolicy",
    "FunctionalAlgorithm",
    "HedgedConsecutiveTemplate",
    "InterleavedTemplate",
    "ParallelTemplate",
    "PhasedAlgorithm",
    "RunConfig",
    "SimpleTemplate",
    "TwoPartReference",
    "run",
]
