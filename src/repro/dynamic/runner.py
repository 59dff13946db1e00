"""Replay an epoch stream through ``run()``, warm-started by predictions.

Per epoch the runner executes the algorithm on the epoch's graph with the
*previous epoch's outputs* carried forward as predictions
(:func:`repro.predictions.carry_predictions` — the paper's Section 1.1
scenario made iterative), and optionally a solve-from-scratch comparison
run (default predictions, same instance and seed).  Three dynamic
quantities are recorded per epoch alongside the usual cell columns:

* **recourse** — the number of nodes present in both epoch ``t-1`` and
  epoch ``t`` whose output changed;
* **rounds-to-repair vs. solve-from-scratch** — the warm run's
  ``rounds`` next to the cold run's ``scratch_rounds``;
* **prediction error** — η₁ of the carried predictions on the new graph
  (the standard ``error`` column).

Rows are ordinary :class:`~repro.exec.results.CellResult` objects inside
a :class:`DynamicResult` (a :class:`~repro.exec.results.SweepResult`), so
CSV export, telemetry, and the ``repro.obs.bench`` baseline/gate
machinery all apply unchanged.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.runner import RunConfig, run
from repro.dynamic.stream import EpochBatch, EpochStream, apply_batch
from repro.errors import eta1
from repro.exec.plan import derive_cell_seed
from repro.exec.results import CellResult, SweepResult
from repro.graphs.graph import DistGraph
from repro.predictions import carry_predictions, default_predictions
from repro.problems import solution_size
from repro.problems.base import GraphProblem, Outputs


def recourse_between(
    old_graph: DistGraph,
    old_outputs: Outputs,
    new_graph: DistGraph,
    new_outputs: Outputs,
) -> int:
    """Nodes present in both epochs whose output changed.

    Newly arrived and departed nodes are excluded — their output did not
    *flip*, it appeared or vanished with them; recourse measures how
    much of the standing solution had to move.
    """
    flips = 0
    for node in new_graph.nodes:
        if node not in old_graph:
            continue
        if old_outputs.get(node) != new_outputs.get(node):
            flips += 1
    return flips


class DynamicResult(SweepResult):
    """A :class:`SweepResult` whose rows are consecutive epochs."""

    def recourse_curve(self) -> List[Tuple[int, int]]:
        """``(epoch, recourse)`` for every epoch that has a predecessor."""
        return [
            (row.epoch, row.recourse)
            for row in self.rows
            if row.recourse is not None
        ]

    def repair_curve(self) -> List[Tuple[int, int, Optional[int]]]:
        """``(epoch, warm rounds, scratch rounds)`` per epoch."""
        return [(row.epoch, row.rounds, row.scratch_rounds) for row in self.rows]

class DynamicRunner:
    """Replay an :class:`~repro.dynamic.stream.EpochStream`.

    Args:
        algorithm_factory: Zero-argument callable returning a *fresh*
            algorithm instance per execution (algorithm objects are
            single-use, exactly as in sweep cells).
        problem: The :class:`~repro.problems.base.GraphProblem` the
            algorithm solves (drives defaults, carry rule, validation,
            η₁).
        stream: The epoch source.
        config: Base :class:`RunConfig` for every execution (the per-
            epoch seed overrides its ``seed``); its ``policy`` says how
            every execution runs.
        scratch: When true (default) each epoch also runs solve-from-
            scratch — same graph, same seed, default predictions — and
            records its rounds in ``scratch_rounds``.
        seed: Base seed; epoch ``t`` runs with
            ``derive_cell_seed(seed, t, label)``, the sweep executor's
            scheme, so dynamic rows reproduce bit-for-bit on any
            backend.
        name: Result/sweep name (defaults to the stream's).
    """

    def __init__(
        self,
        algorithm_factory: Callable[[], Any],
        problem: GraphProblem,
        stream: EpochStream,
        *,
        config: Optional[RunConfig] = None,
        scratch: bool = True,
        seed: int = 0,
        name: str = "",
    ) -> None:
        self.algorithm_factory = algorithm_factory
        self.problem = problem
        self.stream = stream
        self.config = config
        self.scratch = scratch
        self.seed = seed
        self.name = name or getattr(stream, "name", "dynamic")

    # ------------------------------------------------------------------
    def _execute_epoch(
        self,
        epoch: int,
        graph: DistGraph,
        predictions: Outputs,
        batch: Optional[EpochBatch],
        previous: Optional[Tuple[DistGraph, Outputs]],
    ) -> Tuple[CellResult, Outputs]:
        label = f"epoch={epoch}"
        cell_seed = derive_cell_seed(self.seed, epoch, label)
        started = time.perf_counter()
        error = eta1(graph, predictions, self.problem.name)
        result = run(
            self.algorithm_factory(),
            graph,
            predictions,
            config=self.config,
            seed=cell_seed,
        )
        scratch_rounds: Optional[int] = None
        if self.scratch:
            if epoch == 0:
                # Epoch 0 *is* the cold start: its warm run already uses
                # default predictions, so re-running would be identical.
                scratch_rounds = result.rounds
            else:
                cold = run(
                    self.algorithm_factory(),
                    graph,
                    default_predictions(self.problem, graph),
                    config=self.config,
                    seed=cell_seed,
                )
                scratch_rounds = cold.rounds
        recourse: Optional[int] = None
        if previous is not None:
            old_graph, old_outputs = previous
            recourse = recourse_between(
                old_graph, old_outputs, graph, result.outputs
            )
        metrics: Dict[str, Any] = {}
        if batch is not None:
            metrics = {
                "inserted_edges": len(batch.insert_edges),
                "deleted_edges": len(batch.delete_edges),
                "added_nodes": len(batch.add_nodes),
                "removed_nodes": len(batch.remove_nodes),
            }
        row = CellResult(
            index=epoch,
            label=label,
            graph_name=graph.name,
            n=graph.n,
            seed=cell_seed,
            rounds=result.rounds,
            rounds_executed=result.rounds_executed,
            valid=self.problem.is_solution(graph, result.outputs),
            error=error,
            message_count=result.message_count,
            dropped_messages=result.dropped_messages,
            delayed_messages=result.delayed_messages,
            retried_messages=result.retried_messages,
            kernel=getattr(result, "kernel", None),
            epoch=epoch,
            recourse=recourse,
            scratch_rounds=scratch_rounds,
            stuck=result.stuck is not None,
            solution_size=solution_size(result.outputs, self.problem.name),
            metrics=metrics,
            elapsed=time.perf_counter() - started,
        )
        return row, result.outputs

    def run(self) -> DynamicResult:
        """Replay the whole stream; one row per epoch (epoch 0 included)."""
        started = time.perf_counter()
        graph = self.stream.initial_graph
        predictions = default_predictions(self.problem, graph)
        row, outputs = self._execute_epoch(0, graph, predictions, None, None)
        rows = [row]
        for epoch, batch in enumerate(self.stream.batches(), start=1):
            new_graph = apply_batch(
                graph, batch, name=f"{self.name}@{epoch}"
            )
            predictions = carry_predictions(self.problem, outputs, new_graph)
            row, new_outputs = self._execute_epoch(
                epoch, new_graph, predictions, batch, (graph, outputs)
            )
            rows.append(row)
            graph, outputs = new_graph, new_outputs
        return DynamicResult(
            name=self.name,
            rows=rows,
            backend="serial",
            elapsed=time.perf_counter() - started,
        )
