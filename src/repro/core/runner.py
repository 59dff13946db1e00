"""High-level execution entry points.

``run(algorithm, graph, predictions, config=RunConfig(...))`` is the one
call every example, benchmark and sweep uses: it builds one program per
node, executes the synchronous engine, and returns the
:class:`~repro.simulator.metrics.RunResult` whose ``rounds`` field is the
paper's performance measure.

:class:`RunConfig` is the single, frozen description of *how* to execute
— model, round budget, seed, fault plan, round-limit policy, tracing,
the engine's ``fast`` mode and the :class:`ExecutionPolicy` (scheduling
and asynchrony knobs) — so that a configuration can be hashed, compared,
stored in a sweep cell and shipped to a worker process.  The keyword
arguments of :func:`run` are conveniences that override one
:class:`RunConfig` field each.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

from repro.core.algorithm import DistributedAlgorithm
from repro.core.initpass import run_initialized
from repro.graphs.graph import DistGraph
from repro.simulator.capabilities import refusal
from repro.simulator.engine import SyncEngine
from repro.simulator.metrics import RunResult
from repro.simulator.models import LOCAL, ExecutionModel
from repro.simulator.scheduling import ExecutionPolicy
from repro.simulator.trace import TraceRecorder

#: Sentinel distinguishing "not passed" from an explicit ``None``/value.
_UNSET: Any = object()


@dataclass(frozen=True)
class RunConfig:
    """Frozen description of one engine execution.

    Attributes:
        model: Execution model override; ``None`` uses the algorithm's
            (see :meth:`model_for`).
        max_rounds: Round budget; ``None`` uses the engine default
            (:func:`~repro.simulator.engine.round_budget`: ``8 * n + 64``).
        seed: Seed for the per-node random streams.  ``None`` means
            *unset*: single runs fall back to seed 0, while sweep cells
            derive a deterministic per-cell seed.  An explicit ``0`` is
            honored everywhere (it is a real seed, not "unset").
        faults: A :class:`~repro.faults.plan.FaultPlan` describing
            crashes, message adversaries and prediction corruption;
            ``None`` runs fault-free.
        on_round_limit: ``"raise"`` or ``"partial"`` (graceful
            degradation; the result carries a ``stuck`` report).
        trace: Record every event; the :class:`TraceRecorder` is attached
            to the result as ``result.trace``.
        fast: Engine fast mode — skip per-message bit-size estimation
            (identical outputs and round counts, no bandwidth columns).
        profile: Record per-round phase timings (compose/deliver/
            process/finalize, plus ``kernel`` under
            ``schedule="vectorized"``); the
            :class:`~repro.obs.profile.RoundProfile` is attached to the
            result as ``result.profile``.
        policy: The :class:`ExecutionPolicy` — schedule choice and its
            asynchrony/deadline/fallback knobs, read as
            ``config.policy.schedule`` etc.
    """

    model: Optional[ExecutionModel] = None
    max_rounds: Optional[int] = None
    seed: Optional[int] = None
    faults: Optional[Any] = None
    on_round_limit: str = "raise"
    trace: bool = False
    fast: bool = False
    profile: bool = False
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    def __post_init__(self) -> None:
        if self.on_round_limit not in ("raise", "partial"):
            raise ValueError(
                "on_round_limit must be 'raise' or 'partial', "
                f"got {self.on_round_limit!r}"
            )

    @property
    def effective_seed(self) -> int:
        """The seed a single run uses: the configured one, else 0."""
        return 0 if self.seed is None else self.seed

    def model_for(self, algorithm: Any) -> ExecutionModel:
        """The model a run of ``algorithm`` uses: this config's, else the
        algorithm's, else LOCAL (the engine's default) — also for an
        algorithm that declares ``model = None``."""
        return self.model or algorithm.model or LOCAL

    def with_overrides(self, **overrides: Any) -> "RunConfig":
        """A copy with the given (non-``_UNSET``) fields replaced."""
        changes = {
            key: value for key, value in overrides.items() if value is not _UNSET
        }
        return replace(self, **changes) if changes else self

    def _engine_for(
        self, algorithm: Any, graph: Any, predictions: Any, *,
        sinks: Any = None, transport: Any = None,
    ) -> SyncEngine:
        """The engine this config describes for ``algorithm`` on ``graph``
        (whole, an edge-cut shard's view or an initialization window);
        its trace, if asked for, is ``engine.trace``."""
        return SyncEngine(
            graph,
            lambda node: algorithm.build_program(),
            predictions=predictions,
            model=self.model_for(algorithm),
            max_rounds=self.max_rounds,
            seed=self.effective_seed,
            trace=TraceRecorder() if self.trace else None,
            sinks=sinks,
            profile=self.profile,
            faults=self.faults,
            on_round_limit=self.on_round_limit,
            fast=self.fast,
            policy=self.policy,
            transport=transport,
        )


def run(
    algorithm: DistributedAlgorithm,
    graph: DistGraph,
    predictions: Optional[Mapping[int, Any]] = None,
    *,
    config: Optional[RunConfig] = None,
    model: Optional[ExecutionModel] = _UNSET,
    max_rounds: Optional[int] = _UNSET,
    seed: Optional[int] = _UNSET,
    faults: Optional[Any] = _UNSET,
    on_round_limit: str = _UNSET,
    trace: bool = _UNSET,
    fast: bool = _UNSET,
    profile: bool = _UNSET,
    policy: Optional[ExecutionPolicy] = None,
    sinks: Optional[Any] = None,
) -> RunResult:
    """Run ``algorithm`` on ``graph`` and return the execution record.

    The execution is described by ``config``; any keyword argument passed
    alongside it overrides the corresponding field.  Calls without a
    ``config`` build one from the keywords, so
    ``run(alg, g, p, seed=3)`` and
    ``run(alg, g, p, config=RunConfig(seed=3))`` are identical.

    Args:
        algorithm: Any :class:`DistributedAlgorithm` (including templates).
        graph: The instance.
        predictions: Per-node predictions; required when the algorithm
            declares ``uses_predictions``.
        config: A :class:`RunConfig`; defaults to ``RunConfig()``.
        model, max_rounds, seed, faults, on_round_limit, trace, fast,
            profile: Field-level overrides of ``config`` (see
            :class:`RunConfig`).
        policy: An :class:`ExecutionPolicy` override — the way to choose
            a schedule and its asynchrony/deadline/fallback knobs:
            ``run(alg, g, policy=ExecutionPolicy(schedule="vectorized"))``.
            ``None`` keeps ``config.policy``.
        sinks: Extra :class:`~repro.obs.events.EventSink` objects
            attached to the engine for this call (not part of the
            frozen config: sinks hold live resources such as open
            files).

    Where the ``"window"`` row of :mod:`repro.simulator.capabilities`
    allows, a template whose initialization has a registered by-index
    pass interprets only the nodes it leaves undecided, with the same
    result (:mod:`repro.core.initpass`; ``result.init_decided`` counts
    the others).  A policy that sets ``shard`` is refused.

    Returns:
        The :class:`RunResult`; when tracing was requested its ``trace``
        attribute holds the :class:`TraceRecorder`.
    """
    if algorithm.uses_predictions and predictions is None:
        raise ValueError(
            f"{algorithm.name or type(algorithm).__name__} requires predictions"
        )
    config = (config or RunConfig()).with_overrides(
        model=model,
        max_rounds=max_rounds,
        seed=seed,
        faults=faults,
        on_round_limit=on_round_limit,
        trace=trace,
        fast=fast,
        profile=profile,
        policy=_UNSET if policy is None else policy,
    )
    policy = config.policy
    if not refusal(
        "window", policy.schedule, shard=policy.shard, profile=config.profile,
        faults=config.faults is not None, sinks=config.trace or bool(sinks),
        deadline=policy.deadline_s is not None,
    ):
        result = run_initialized(algorithm, graph, predictions, config)
        if result is not None:
            return result
    engine = config._engine_for(algorithm, graph, predictions, sinks=sinks)
    result = engine.run()
    result.trace = engine.trace
    return result
