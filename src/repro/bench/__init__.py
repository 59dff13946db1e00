"""Benchmark harness: workloads, spec factories and table rendering.

The paper is theory-only, so its "evaluation" is the set of quantitative
claims (lemmas, corollaries, figure constructions).  Each module in
``benchmarks/`` reproduces one of them as :class:`repro.exec.Sweep` grids
or single runs over the workload builders, and prints them with the
plain-text table renderer here; EXPERIMENTS.md records the outputs.
"""

from repro.bench.tables import Table
from repro.bench.workloads import standard_graph_suite

__all__ = [
    "Table",
    "standard_graph_suite",
]
