"""Round-level profiling: where a run's wall-clock and messages go.

The paper's performance measure is rounds (Section 1), but the harness
around the paper — engine fast mode, process-pool sweeps, artifact
caching — is wall-clock-sensitive, and a round count alone cannot say
*which phase* of the synchronous schedule dominates.  A
:class:`RoundProfile` attached to a run (``run(..., profile=True)``,
surfaced as ``result.profile``) records, per executed round, the
compose / deliver / process / finalize phase timings together with the
message and live-node counts, and aggregates them into totals and
histograms.

Each scheduler records its own samples from inside its round loop:
``compose`` sums the programs' ``compose()`` calls; ``deliver`` is the
rest of the round before ``process`` (recoveries, node selection,
replays, adjudication, accounting, inbox filling, the shard barrier,
and under ``schedule="async"`` the delayed landings and retransmissions
due that tick).  Profiled and unprofiled runs take the same path, so
they are observationally identical (same outputs, rounds, message
counts, event order), and an unprofiled round reads no clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

#: Phase names in schedule order (also the column order of tables).
#: ``kernel`` is the whole-frontier phase of ``schedule="vectorized"``
#: rounds, which have no interpreted compose/deliver/process/finalize
#: split; interpreted rounds record it as zero.
PHASES: Tuple[str, ...] = (
    "compose",
    "deliver",
    "process",
    "finalize",
    "kernel",
)


@dataclass(frozen=True)
class RoundSample:
    """Timings and counters of one executed round.

    Attributes:
        round: The round index (1-based; setup is not a sample).
        compose: Seconds spent in the programs' ``compose()`` calls.
        deliver: Seconds of the round before ``process`` outside
            ``compose()``: adjudicating faults, accounting bandwidth and
            filling inboxes (replays and async landings included).
        process: Seconds spent in the programs' ``process`` phase.
        finalize: Seconds spent applying terminations/crashes and
            publishing neighbor outputs.
        kernel: Seconds spent in the whole-frontier compiled kernel
            (``schedule="vectorized"`` rounds only; zero elsewhere).
        messages: Messages delivered this round.
        active: Nodes that were live (not terminated/crashed) this round.
        scheduled: Nodes the scheduler actually ran this round.  Equal to
            ``active`` under the eager schedule; under
            ``schedule="quiescent"`` it is the wake-set size (plus nodes
            pulled in by same-round deliveries), and the gap between the
            two columns is exactly the work quiescence saved.  Defaults
            to ``active`` for samples recorded by eager paths.
    """

    round: int
    compose: float
    deliver: float
    process: float
    finalize: float
    messages: int
    active: int
    scheduled: int = -1
    kernel: float = 0.0

    def __post_init__(self) -> None:
        if self.scheduled < 0:
            object.__setattr__(self, "scheduled", self.active)

    @property
    def elapsed(self) -> float:
        """Total wall-clock of the round (sum of all phases)."""
        return sum(getattr(self, phase) for phase in PHASES)


@dataclass
class RoundProfile:
    """Per-round phase timings of one run, with aggregation helpers.

    Filled by the schedulers' round loops; read via ``result.
    profile``.  ``setup`` is the seconds spent in the setup phase
    (round 0), which has no per-phase breakdown; on a template run whose
    initialization was computed by index (:mod:`repro.core.initpass`)
    it includes that pass.
    """

    samples: List[RoundSample] = field(default_factory=list)
    setup: float = 0.0

    # ------------------------------------------------------------------
    # Recording (engine-facing)
    # ------------------------------------------------------------------
    def add_round(
        self,
        round_index: int,
        *,
        compose: float = 0.0,
        deliver: float = 0.0,
        process: float = 0.0,
        finalize: float = 0.0,
        messages: int,
        active: int,
        scheduled: int = -1,
        kernel: float = 0.0,
    ) -> None:
        """Append one round's sample (called by the schedulers).

        ``scheduled`` defaults to ``active`` (every live node ran); the
        interpreted schedulers pass the size of the round's process
        phase, and the vectorized one passes the count of nodes that
        observably acted together with the round's ``kernel`` time (its
        interpreted phases stay zero).
        """
        self.samples.append(
            RoundSample(
                round=round_index,
                compose=compose,
                deliver=deliver,
                process=process,
                finalize=finalize,
                messages=messages,
                active=active,
                scheduled=scheduled,
                kernel=kernel,
            )
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.samples)

    @property
    def elapsed(self) -> float:
        """Total profiled wall-clock (setup + every round)."""
        return self.setup + sum(sample.elapsed for sample in self.samples)

    def phase_totals(self) -> Dict[str, float]:
        """Seconds per phase summed over all rounds."""
        return {
            phase: sum(getattr(sample, phase) for sample in self.samples)
            for phase in PHASES
        }

    def message_counts(self) -> List[int]:
        """Messages delivered per round, in round order."""
        return [sample.messages for sample in self.samples]

    def round_times(self) -> List[float]:
        """Wall-clock per round, in round order."""
        return [sample.elapsed for sample in self.samples]

    def timing_histogram(self, bins: int = 8) -> List[Tuple[float, float, int]]:
        """Histogram of per-round wall-clock: ``(lo, hi, count)`` rows."""
        return _histogram(self.round_times(), bins)

    def message_histogram(self, bins: int = 8) -> List[Tuple[float, float, int]]:
        """Histogram of per-round message counts: ``(lo, hi, count)``."""
        return _histogram([float(count) for count in self.message_counts()], bins)

    def summary(self) -> Dict[str, Any]:
        """Flat, JSON-safe aggregate: totals, per-phase seconds and
        shares, peak round cost — the form sweeps ship per cell."""
        totals = self.phase_totals()
        elapsed = self.elapsed
        round_total = sum(totals.values())
        node_rounds = sum(sample.active for sample in self.samples)
        scheduled_rounds = sum(sample.scheduled for sample in self.samples)
        return {
            "rounds": len(self.samples),
            "elapsed": elapsed,
            "setup": self.setup,
            "messages": sum(self.message_counts()),
            "node_rounds": node_rounds,
            "scheduled_rounds": scheduled_rounds,
            "scheduled_share": (
                scheduled_rounds / node_rounds if node_rounds else 0.0
            ),
            **{f"{phase}_s": totals[phase] for phase in PHASES},
            **{
                f"{phase}_share": (totals[phase] / round_total if round_total else 0.0)
                for phase in PHASES
            },
            "max_round_s": max(self.round_times(), default=0.0),
            "max_round_messages": max(self.message_counts(), default=0),
        }

    def table(self) -> str:
        """Human-readable per-round table (the ``repro profile`` output)."""
        header = (
            f"{'round':>5}  {'active':>6}  {'sched':>6}  {'msgs':>6}  "
            + "  ".join(f"{phase + ' ms':>11}" for phase in PHASES)
            + f"  {'total ms':>9}"
        )
        lines = [header]
        for sample in self.samples:
            cells = "  ".join(
                f"{getattr(sample, phase) * 1e3:>11.3f}" for phase in PHASES
            )
            lines.append(
                f"{sample.round:>5}  {sample.active:>6}  {sample.scheduled:>6}  "
                f"{sample.messages:>6}  "
                f"{cells}  {sample.elapsed * 1e3:>9.3f}"
            )
        totals = self.phase_totals()
        total_cells = "  ".join(f"{totals[phase] * 1e3:>11.3f}" for phase in PHASES)
        lines.append(
            f"{'total':>5}  {'':>6}  {'':>6}  {sum(self.message_counts()):>6}  "
            f"{total_cells}  {sum(totals.values()) * 1e3:>9.3f}"
        )
        return "\n".join(lines)


def _histogram(
    values: Sequence[float], bins: int
) -> List[Tuple[float, float, int]]:
    """Equal-width histogram over ``values`` (empty input → no rows)."""
    if not values or bins <= 0:
        return []
    lo, hi = min(values), max(values)
    if lo == hi:
        return [(lo, hi, len(values))]
    width = (hi - lo) / bins
    counts = [0] * bins
    for value in values:
        index = min(int((value - lo) / width), bins - 1)
        counts[index] += 1
    return [
        (lo + index * width, lo + (index + 1) * width, counts[index])
        for index in range(bins)
    ]
