"""repro — Distributed Graph Algorithms with Predictions.

A synchronous message-passing framework reproducing Boyar, Ellen and
Larsen, *Distributed Graph Algorithms with Predictions* (brief
announcement at PODC 2025): the LOCAL/CONGEST simulator, the
consistency/robustness/degradation framework, the four templates of
Section 7, all four problems (MIS, Maximal Matching, (Δ+1)-Vertex
Coloring, (2Δ−1)-Edge Coloring), their error measures, the sweep
executor, and the experiment harness that validates every quantitative
claim.

This module is the stable public surface (see docs/API.md): single runs
go through :func:`run`/:class:`RunConfig` (with scheduling described by
an :class:`ExecutionPolicy`), grids of runs through :class:`Sweep`;
:func:`schedules` lists the available schedules and their capabilities.

Quickstart::

    from repro import MIS, mis_simple, run
    from repro.graphs import erdos_renyi
    from repro.predictions import noisy_predictions

    graph = erdos_renyi(100, 0.05, seed=1)
    predictions = noisy_predictions(MIS, graph, rate=0.1, seed=1)
    result = run(mis_simple(), graph, predictions)
    assert MIS.is_solution(graph, result.outputs)
    print(result.rounds, "rounds")

A grid of runs, fanned over a process pool::

    from repro import Sweep

    sweep = Sweep(name="noise", base_seed=1)
    sweep.add_grid(
        {"gnp": graph},
        {"simple": "mis_simple", "parallel": "mis_parallel"},
        predictions={"zeros": "all_zeros_mis"},
        seeds=(0, 1, 2),
        problem="mis",
    )
    table = sweep.run()
    print(table.rounds_by_error())
"""

from repro.bench.algorithms import (
    coloring_simple,
    edge_coloring_simple,
    matching_simple,
    mis_consecutive,
    mis_hedged,
    mis_interleaved,
    mis_parallel,
    mis_simple,
)
from repro.core import (
    ConsecutiveTemplate,
    HedgedConsecutiveTemplate,
    DistributedAlgorithm,
    ExecutionPolicy,
    FunctionalAlgorithm,
    InterleavedTemplate,
    ParallelTemplate,
    PhasedAlgorithm,
    RunConfig,
    SimpleTemplate,
    TwoPartReference,
    run,
)
from repro.exec import Sweep, SweepResult
from repro.faults import FaultPlan
from repro.graphs import DistGraph
from repro.kernels import UnsupportedScheduleError
from repro.obs import (
    EventSink,
    JsonlEventSink,
    MemoryEventSink,
    RoundProfile,
)
from repro.problems import EDGE_COLORING, MATCHING, MIS, VERTEX_COLORING, get_problem
from repro.simulator import CONGEST, LOCAL, RunResult, SyncEngine
from repro.simulator import schedule_capabilities as _schedule_capabilities

__version__ = "2.0.0"


def schedules():
    """Capability map of every ``schedule=`` name, for introspection.

    Returns ``{name: {"quiescence": bool, "async": bool, "profile": bool,
    "kernels": tuple, "paths": tuple}}`` — one entry per registered
    :class:`~repro.simulator.scheduling.Scheduler`; ``paths`` names the
    rows of :mod:`repro.simulator.capabilities` that accept it, and
    ``kernels`` the compiled kernels it can run (numpy permitting).
    The CLI's ``--schedule`` choices and
    :class:`ExecutionPolicy` validation are derived from the same
    registry, so this is the authoritative list::

        >>> sorted(repro.schedules())
        ['async', 'eager', 'quiescent', 'quiescent-debug', 'vectorized']
    """
    return _schedule_capabilities()

__all__ = [
    "CONGEST",
    "ConsecutiveTemplate",
    "DistGraph",
    "DistributedAlgorithm",
    "EDGE_COLORING",
    "EventSink",
    "ExecutionPolicy",
    "FaultPlan",
    "FunctionalAlgorithm",
    "HedgedConsecutiveTemplate",
    "InterleavedTemplate",
    "JsonlEventSink",
    "LOCAL",
    "MATCHING",
    "MIS",
    "MemoryEventSink",
    "ParallelTemplate",
    "PhasedAlgorithm",
    "RoundProfile",
    "RunConfig",
    "RunResult",
    "SimpleTemplate",
    "Sweep",
    "SweepResult",
    "SyncEngine",
    "TwoPartReference",
    "UnsupportedScheduleError",
    "VERTEX_COLORING",
    "__version__",
    "coloring_simple",
    "edge_coloring_simple",
    "get_problem",
    "matching_simple",
    "mis_consecutive",
    "mis_hedged",
    "mis_interleaved",
    "mis_parallel",
    "mis_simple",
    "run",
    "schedules",
]
