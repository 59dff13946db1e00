"""The four templates of Section 7.

Each template combines a reasonable initialization algorithm ``B`` (for
consistency), a measure-uniform algorithm ``U`` (for degradation), an
optional clean-up algorithm ``C``, and a reference algorithm ``R`` (for
robustness), producing a :class:`~repro.core.algorithm.
DistributedAlgorithm` with predictions:

* :class:`SimpleTemplate` — Algorithm 2: ``B`` then ``R``.
* :class:`ConsecutiveTemplate` — Algorithm 3: ``B``, then ``U`` for
  ``r(n,Δ,d) + c'(n)`` rounds, then ``C``, then ``R``.
* :class:`InterleavedTemplate` — Algorithm 4: ``B``, then phases of ``U``
  and ``R`` alternating with shared per-phase bounds.
* :class:`ParallelTemplate` — Algorithm 5: ``B``, then ``U`` in parallel
  with the fault-tolerant part 1 of ``R`` (outputs stored locally), then
  ``C``, then part 2 of ``R``.

All switching rounds are computed from the shared knowledge
``(n, Δ, d)``, so every active node is always in the same slice; the
schedule is planned once and shared by every node of a run (see
:class:`~repro.core.composition.SlicePlan`).  Slice lengths are rounded
up to the component's ``safe_pause_interval`` so that a component is
only ever paused or cut at an extendable partial solution (the paper
chooses its bounds even for the same reason, e.g. Corollaries 10 and
12).

Every template builds a :class:`~repro.core.composition.SlicedProgram`,
which participates in quiescence-aware scheduling
(``ExecutionPolicy(schedule="quiescent")``, see ``docs/PERFORMANCE.md``): the
sliced host is idle-skippable exactly while its current component is,
arms a timed wakeup for the slice boundary when its component sleeps,
and catches its slice clock up over any skipped rounds — so a template
whose components are quiescent (e.g. the greedy algorithms) gets the
same frontier speedups as the components run bare.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.core.algorithm import (
    DistributedAlgorithm,
    PhasedAlgorithm,
    TwoPartReference,
)
from repro.core.composition import Knowledge, Slice, SlicedProgram
from repro.simulator.models import LOCAL
from repro.simulator.program import NodeProgram


def _roundup(value: int, interval: int) -> int:
    """Round ``value`` up to a positive multiple of ``interval``."""
    value = max(value, 1)
    if interval <= 1:
        return value
    return -(-value // interval) * interval


def _stretch(knowledge: Knowledge) -> int:
    """Slice-duration stretch factor under the asynchronous model.

    A message sent in tick t arrives by tick ``t + phi`` under the async
    schedule's delay adversary, so a component that needs r synchronous
    rounds completes within ``(1 + phi) * r`` ticks.  Every node computes
    the same factor from the shared knowledge ``phi``, so slice boundaries
    stay aligned.  Under every synchronous schedule ``phi == 0`` and the
    factor is 1 — bounds are bit-identical to before.
    """
    return 1 + max(0, knowledge.phi)


def _required_bound(algorithm: DistributedAlgorithm, knowledge: Knowledge) -> int:
    bound = algorithm.round_bound(knowledge.n, knowledge.delta or 0, knowledge.d)
    if bound is None:
        raise ValueError(
            f"{algorithm.name or type(algorithm).__name__} declares no round "
            "bound; templates need node-computable bounds to schedule around it"
        )
    return bound * _stretch(knowledge)


class _EmitStoredProgram(NodeProgram):
    """Outputs a Parallel-Template part-1 result as the real output.

    Used when the reference algorithm is entirely fault tolerant
    (``part1_outputs_are_final``): the paper's "output any locally stored
    outputs" step, realized as a single round.
    """

    def __init__(self, stored: Any) -> None:
        self._stored = stored

    def process(self, ctx, inbox) -> None:
        if isinstance(self._stored, dict):
            for key, value in self._stored.items():
                ctx.set_output_part(key, value)
        else:
            ctx.set_output(self._stored)
        ctx.terminate()


class _TemplateBase(DistributedAlgorithm):
    """Shared metadata handling and host construction for the templates.

    Each template implements :meth:`_slice_schedule`; every node's host
    reads the one plan of it shared by the run.
    """

    uses_predictions = True

    def __init__(self, name: str, *components: Any) -> None:
        self.name = name
        models = [
            component.model
            for component in components
            if isinstance(component, DistributedAlgorithm)
        ]
        self.model = (
            LOCAL
            if any(model.bandwidth_factor is None for model in models)
            else models[0]
        )

    def consistency_bound(self, n: int, delta: int, d: int) -> int:
        """c(n): rounds within which the algorithm ends when η = 0.

        All four templates inherit their consistency from the
        initialization algorithm ``B`` (Section 4).
        """
        bound = self.initialization.round_bound(n, delta, d)
        assert bound is not None
        return bound

    def build_program(self) -> NodeProgram:
        return SlicedProgram(type(self)._slice_schedule, self)

    def _slice_schedule(self, knowledge: Knowledge) -> Iterator[Slice]:
        """The template's slices, computed from the shared knowledge."""
        raise NotImplementedError


class SimpleTemplate(_TemplateBase):
    """Algorithm 2: initialization, then the reference algorithm.

    Per Observation 7, with ``B`` of round complexity ``c(n)`` and ``R``
    uniform with respect to μ with bound ``r(μ)``, the result has
    consistency ``c(n)`` and round complexity ``c(n) + r(η)``.
    """

    def __init__(
        self,
        initialization: DistributedAlgorithm,
        reference: DistributedAlgorithm,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(
            name or f"simple({initialization.name},{reference.name})",
            initialization,
            reference,
        )
        self.initialization = initialization
        self.reference = reference

    def _slice_schedule(self, knowledge: Knowledge) -> Iterator[Slice]:
        initialization = self.initialization
        reference = self.reference
        yield Slice(
            "B",
            _required_bound(initialization, knowledge),
            lambda host: initialization.build_program(),
        )
        yield Slice("R", None, lambda host: reference.build_program())


class ConsecutiveTemplate(_TemplateBase):
    """Algorithm 3: B, then U for ``r + c'`` rounds, then C, then R.

    Per Lemma 8 the result has consistency ``c(n)``, is 2f(η)-degrading
    (f the round bound of U as a function of the measure) and is robust
    with respect to R.
    """

    def __init__(
        self,
        initialization: DistributedAlgorithm,
        measure_uniform: DistributedAlgorithm,
        cleanup: DistributedAlgorithm,
        reference: DistributedAlgorithm,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(
            name
            or (
                f"consecutive({initialization.name},{measure_uniform.name},"
                f"{cleanup.name},{reference.name})"
            ),
            initialization,
            measure_uniform,
            cleanup,
            reference,
        )
        self.initialization = initialization
        self.measure_uniform = measure_uniform
        self.cleanup = cleanup
        self.reference = reference

    def _slice_schedule(self, knowledge: Knowledge) -> Iterator[Slice]:
        initialization = self.initialization
        measure_uniform = self.measure_uniform
        cleanup = self.cleanup
        reference = self.reference
        reference_bound = _required_bound(reference, knowledge)
        cleanup_bound = _required_bound(cleanup, knowledge)
        yield Slice(
            "B",
            _required_bound(initialization, knowledge),
            lambda host: initialization.build_program(),
        )
        yield Slice(
            "U",
            _roundup(
                reference_bound + cleanup_bound,
                measure_uniform.safe_pause_interval,
            ),
            lambda host: measure_uniform.build_program(),
        )
        yield Slice("C", cleanup_bound, lambda host: cleanup.build_program())
        yield Slice("R", None, lambda host: reference.build_program())


class InterleavedTemplate(_TemplateBase):
    """Algorithm 4: B, then phases of U and R interleaved.

    Per Lemma 9 the result has consistency ``c(n)``, is 2f(η)-degrading,
    and is robust with respect to R.  The reference must be a
    :class:`~repro.core.algorithm.PhasedAlgorithm`; each phase ``i`` runs
    for ``r_i(n, Δ, d)`` rounds (rounded up so U pauses at an extendable
    partial solution), preceded by U for the same number of rounds.

    The schedule is an infinite alternation — once the reference's phases
    have exhausted the graph nothing remains to run — so termination never
    depends on a priori phase-count guarantees.
    """

    def __init__(
        self,
        initialization: DistributedAlgorithm,
        measure_uniform: DistributedAlgorithm,
        reference: PhasedAlgorithm,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(
            name
            or (
                f"interleaved({initialization.name},{measure_uniform.name},"
                f"{reference.name})"
            ),
            initialization,
            measure_uniform,
            reference,
        )
        self.initialization = initialization
        self.measure_uniform = measure_uniform
        self.reference = reference

    def _slice_schedule(self, knowledge: Knowledge) -> Iterator[Slice]:
        initialization = self.initialization
        measure_uniform = self.measure_uniform
        reference = self.reference
        n, delta, d = knowledge.n, knowledge.delta or 0, knowledge.d
        yield Slice(
            "B",
            _required_bound(initialization, knowledge),
            lambda host: initialization.build_program(),
        )
        phase = 0
        while True:
            phase += 1
            bound = _roundup(
                reference.phase_bound(phase, n, delta, d) * _stretch(knowledge),
                measure_uniform.safe_pause_interval,
            )
            yield Slice(
                "U",
                bound,
                lambda host: measure_uniform.build_program(),
                resume="U",
            )
            yield Slice(
                f"R{phase}",
                bound,
                lambda host, i=phase: reference.build_phase_program(i),
            )


class HedgedConsecutiveTemplate(_TemplateBase):
    """A consistency–robustness trade-off knob (Section 10, explored).

    The paper's open problems ask whether the trade-offs known from online
    algorithms with predictions (Kumar–Purohit–Svitkina style: a trust
    parameter λ interpolating between following the predictions and
    falling back) exist for distributed graph algorithms.  This template
    is the natural candidate: run the measure-uniform algorithm for
    ``λ · r(n, Δ, d)`` rounds before switching to the reference.

    * λ → large recovers the Consecutive Template (full degradation
      window, worst case ≈ (1 + λ) · r);
    * λ = 0 degenerates to initialization + reference (optimal worst
      case, no benefit from medium-quality predictions).

    Consistency is unaffected (the initialization handles η = 0); the
    degradation guarantee ``rounds ≤ f(η) + c`` holds only while
    ``f(η) ≤ λ·r``, and the worst case is ``c + λ·r + c' + r``.  The E20
    benchmark sweeps λ and measures both ends of the trade.
    """

    def __init__(
        self,
        initialization: DistributedAlgorithm,
        measure_uniform: DistributedAlgorithm,
        cleanup: DistributedAlgorithm,
        reference: DistributedAlgorithm,
        trust: float,
        name: Optional[str] = None,
    ) -> None:
        if trust < 0:
            raise ValueError(f"trust must be non-negative, got {trust}")
        super().__init__(
            name
            or (
                f"hedged({initialization.name},{measure_uniform.name},"
                f"{reference.name},lambda={trust})"
            ),
            initialization,
            measure_uniform,
            cleanup,
            reference,
        )
        self.initialization = initialization
        self.measure_uniform = measure_uniform
        self.cleanup = cleanup
        self.reference = reference
        self.trust = trust

    def _slice_schedule(self, knowledge: Knowledge) -> Iterator[Slice]:
        initialization = self.initialization
        measure_uniform = self.measure_uniform
        cleanup = self.cleanup
        reference = self.reference
        reference_bound = _required_bound(reference, knowledge)
        cleanup_bound = _required_bound(cleanup, knowledge)
        yield Slice(
            "B",
            _required_bound(initialization, knowledge),
            lambda host: initialization.build_program(),
        )
        budget = int(round(self.trust * reference_bound))
        if budget > 0:
            yield Slice(
                "U",
                _roundup(budget, measure_uniform.safe_pause_interval),
                lambda host: measure_uniform.build_program(),
            )
        yield Slice("C", cleanup_bound, lambda host: cleanup.build_program())
        yield Slice("R", None, lambda host: reference.build_program())


class ParallelTemplate(_TemplateBase):
    """Algorithm 5: B, then U alongside R's fault-tolerant part 1.

    Per Lemma 11 the result has consistency ``c(n)``, is robust with
    respect to R, and is f(η)-degrading when U makes steady progress (or
    when C plus part 2 is constant-round).

    Part 1's outputs are intercepted and stored locally; nodes that U
    terminates are treated by part 1 as crashed.  After part 1's bound
    elapses, the optional clean-up runs, then either the stored outputs
    are emitted (``part1_outputs_are_final``) or part 2 runs with the
    stored result.
    """

    def __init__(
        self,
        initialization: DistributedAlgorithm,
        measure_uniform: DistributedAlgorithm,
        reference: TwoPartReference,
        cleanup: Optional[DistributedAlgorithm] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(
            name
            or (
                f"parallel({initialization.name},{measure_uniform.name},"
                f"{reference.name})"
            ),
            initialization,
            measure_uniform,
            *([cleanup] if cleanup else []),
        )
        self.initialization = initialization
        self.measure_uniform = measure_uniform
        self.reference = reference
        self.cleanup = cleanup

    def _slice_schedule(self, knowledge: Knowledge) -> Iterator[Slice]:
        initialization = self.initialization
        measure_uniform = self.measure_uniform
        reference = self.reference
        cleanup = self.cleanup
        yield Slice(
            "B",
            _required_bound(initialization, knowledge),
            lambda host: initialization.build_program(),
        )
        part1_bound = _roundup(
            reference.part1_bound(knowledge.n, knowledge.delta or 0, knowledge.d)
            * _stretch(knowledge),
            measure_uniform.safe_pause_interval,
        )
        yield Slice(
            "U||R1",
            part1_bound,
            lambda host: measure_uniform.build_program(),
            parallel_builder=lambda host: reference.build_part1(),
        )
        if cleanup is not None:
            yield Slice(
                "C",
                _required_bound(cleanup, knowledge),
                lambda host: cleanup.build_program(),
            )
        if reference.part1_outputs_are_final:
            yield Slice(
                "emit",
                None,
                lambda host: _EmitStoredProgram(host.last_parallel_result),
            )
        else:
            yield Slice(
                "R2",
                None,
                lambda host: reference.build_part2(host.last_parallel_result),
            )
