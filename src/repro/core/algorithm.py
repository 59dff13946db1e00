"""Algorithm interfaces.

A :class:`DistributedAlgorithm` is a factory of per-node programs plus the
metadata the templates of Section 7 need:

* ``round_bound(n, delta, d)`` — a worst-case round bound that every node
  can compute from its common knowledge (used by the Consecutive and
  Parallel Templates to schedule switches);
* ``safe_pause_interval`` — the phase granularity after which the
  algorithm's partial solution is guaranteed extendable, so a template may
  pause or stop it (the Greedy MIS Algorithm is safe every 2 rounds);
* ``uses_predictions`` — whether programs read ``ctx.prediction``.

:class:`PhasedAlgorithm` adds per-phase bounds for the Interleaved
Template; :class:`TwoPartReference` models the Parallel Template's
reference algorithm with a fault-tolerant first part.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.simulator.models import LOCAL, ExecutionModel
from repro.simulator.program import NodeProgram


class DistributedAlgorithm:
    """A distributed algorithm: program factory plus template metadata."""

    #: Human-readable algorithm name.
    name: str = ""

    #: Execution model the algorithm is declared for (LOCAL or CONGEST).
    model: ExecutionModel = LOCAL

    #: Whether node programs read their prediction.
    uses_predictions: bool = False

    #: Pausing/stopping the algorithm is safe (the partial solution is
    #: extendable) whenever the number of executed rounds is a multiple of
    #: this interval.
    safe_pause_interval: int = 1

    def build_program(self) -> NodeProgram:
        """A fresh per-node program instance."""
        raise NotImplementedError

    def round_bound(self, n: int, delta: int, d: int) -> Optional[int]:
        """Worst-case round bound computable by every node, or ``None``.

        Templates may only schedule around algorithms that declare a
        bound; measure-uniform algorithms typically return ``None`` (their
        complexity depends on the measure, which nodes do not know).
        """
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class FunctionalAlgorithm(DistributedAlgorithm):
    """An algorithm defined by a program-factory callable.

    Convenient for tests and small experiments::

        alg = FunctionalAlgorithm("probe", lambda: MyProgram())
    """

    def __init__(
        self,
        name: str,
        factory: Callable[[], NodeProgram],
        *,
        uses_predictions: bool = False,
        safe_pause_interval: int = 1,
        round_bound: Optional[Callable[[int, int, int], Optional[int]]] = None,
        model: ExecutionModel = LOCAL,
    ) -> None:
        self.name = name
        self._factory = factory
        self.uses_predictions = uses_predictions
        self.safe_pause_interval = safe_pause_interval
        self._round_bound = round_bound
        self.model = model

    def build_program(self) -> NodeProgram:
        return self._factory()

    def round_bound(self, n: int, delta: int, d: int) -> Optional[int]:
        if self._round_bound is None:
            return None
        return self._round_bound(n, delta, d)


class PhasedAlgorithm(DistributedAlgorithm):
    """An algorithm divided into phases with node-computable bounds.

    The Interleaved Template (Section 7.3) requires a reference algorithm
    divisible into phases whose round bounds ``r_i(n, Δ, d)`` every node
    can compute, with an extendable partial solution at the end of each
    phase.  Programs of a phased algorithm must *pad* each phase to its
    declared bound (the paper: a node "should wait until the number of
    rounds that has elapsed in a phase is the known upper bound for that
    phase"), so that phase boundaries land at globally known rounds.
    """

    def phase_bound(self, phase_index: int, n: int, delta: int, d: int) -> int:
        """Round bound of phase ``phase_index`` (1-based)."""
        raise NotImplementedError

    def num_phases(self, n: int, delta: int, d: int) -> int:
        """Number of phases after which the algorithm is expected done."""
        raise NotImplementedError

    def build_phase_program(self, phase_index: int) -> NodeProgram:
        """A fresh per-node program for one phase.

        A phase program runs on the current remaining graph, leaves an
        extendable partial solution, and goes quiet when its work is done
        (it may be padded by the driver up to ``phase_bound``).
        """
        raise NotImplementedError

    def round_bound(self, n: int, delta: int, d: int) -> Optional[int]:
        return sum(
            self.phase_bound(i, n, delta, d)
            for i in range(1, self.num_phases(n, delta, d) + 1)
        )

    def build_program(self) -> NodeProgram:
        """Default standalone driver: run phases back to back.

        The schedule is an infinite sequence of phase slices (progress per
        phase guarantees termination; extra slices beyond ``num_phases``
        are a safety net that never executes when the declared phase count
        is honest).  The nodes of a run share one plan of it.
        """
        from repro.core.composition import SlicedProgram

        return SlicedProgram(PhasedAlgorithm._slice_schedule, self)

    def _slice_schedule(self, knowledge: Any) -> Iterator[Any]:
        from repro.core.composition import Slice

        n, delta, d = knowledge.n, knowledge.delta or 0, knowledge.d
        phase = 0
        while True:
            phase += 1
            yield Slice(
                f"phase{phase}",
                max(1, self.phase_bound(phase, n, delta, d)),
                lambda host, i=phase: self.build_phase_program(i),
            )


class TwoPartReference:
    """A reference algorithm with a fault-tolerant first part (Section 7.4).

    The Parallel Template runs part 1 alongside the measure-uniform
    algorithm; nodes that terminate early are treated by part 1 as
    crashed.  Part 1 must not assign real outputs — whatever it "outputs"
    is intercepted by the template, stored locally, and handed to part 2's
    program factory (or emitted as the real output when
    ``part1_outputs_are_final``).
    """

    #: Human-readable name.
    name: str = ""

    #: When true, part 1's stored output *is* the node's problem output
    #: (the case of an entirely fault-tolerant reference; part 2 empty).
    part1_outputs_are_final: bool = False

    def build_part1(self) -> NodeProgram:
        """A fresh per-node program for the fault-tolerant first part."""
        raise NotImplementedError

    def part1_bound(self, n: int, delta: int, d: int) -> int:
        """Node-computable round bound of part 1."""
        raise NotImplementedError

    def build_part2(self, part1_result: Any) -> Optional[NodeProgram]:
        """A fresh per-node program for part 2, given part 1's local result.

        Return ``None`` when there is no part 2.
        """
        return None

    def part2_bound(self, n: int, delta: int, d: int) -> Optional[int]:
        """Optional round bound of part 2 (informational)."""
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
