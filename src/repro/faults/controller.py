"""The engine-facing fault controller.

A :class:`FaultController` turns a declarative
:class:`~repro.faults.plan.FaultPlan` into the narrow hook API the
:class:`~repro.simulator.engine.SyncEngine` interposes in its
compose/deliver path:

* :meth:`corrupt_predictions` — applied once, before contexts are built;
* :meth:`message_fate` — applied per message, between the sender's
  ``compose`` and delivery;
* :meth:`crashes_at` / :meth:`recoveries_at` — applied at the end /
  start of each round.

Determinism contract: every decision is computed from a fresh
``random.Random`` keyed on ``(seed, round, sender, receiver)`` (or
``(seed, node)`` for predictions), so outcomes do not depend on
iteration order, on how many messages other nodes sent, or on any global
RNG state.  This is the property the EXPERIMENTS methodology rests on:
re-running a faulty benchmark reproduces it bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping

from repro.faults.plan import (
    CrashFault,
    FaultPlan,
    default_corrupter,
)


@dataclass(frozen=True)
class MessageFate:
    """What the adversary decided for one message.

    Attributes:
        payload: The payload to deliver (corrupted when ``corrupted``).
        dropped: The message never arrives (payload is the original).
        corrupted: The payload was mangled in transit.
        duplicate: One extra copy arrives in the following round.
    """

    payload: Any
    dropped: bool = False
    corrupted: bool = False
    duplicate: bool = False


#: Fate of a message no adversary touches (shared, immutable-per-payload).
def _untouched(payload: Any) -> MessageFate:
    return MessageFate(payload=payload)


class FaultController:
    """Realizes a :class:`FaultPlan` against the engine's hook API."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._seed = plan.seed
        self._crashes_by_round: Dict[int, List[int]] = {}
        self._recoveries_by_round: Dict[int, List[int]] = {}
        for crash in plan.crashes:
            self._register(crash)

    # ------------------------------------------------------------------
    # Crash / recovery schedule
    # ------------------------------------------------------------------
    def _register(self, crash: CrashFault) -> None:
        self._crashes_by_round.setdefault(crash.round, []).append(crash.node)
        recovery = crash.recovery_round
        if recovery is not None:
            self._recoveries_by_round.setdefault(recovery, []).append(crash.node)

    def add_crash_rounds(self, crash_rounds: Mapping[int, int]) -> None:
        """Merge crash-stop faults from a ``node -> round`` mapping in."""
        for node, round_index in sorted(crash_rounds.items()):
            self._register(CrashFault(node, round_index))

    def crashes_at(self, round_index: int) -> List[int]:
        """Nodes whose crash fault fires at the end of this round."""
        return sorted(self._crashes_by_round.get(round_index, []))

    def recoveries_at(self, round_index: int) -> List[int]:
        """Nodes rejoining at the start of this round."""
        return sorted(self._recoveries_by_round.get(round_index, []))

    def last_recovery_round(self) -> int:
        """Last round with a scheduled recovery (0 when there is none).

        Lets the engine keep a run alive across a window in which every
        node is momentarily crashed but rejoins are still due.
        """
        return max(self._recoveries_by_round, default=0)

    # ------------------------------------------------------------------
    # Message adversary
    # ------------------------------------------------------------------
    def message_fate(
        self, round_index: int, sender: int, receiver: int, payload: Any
    ) -> MessageFate:
        """Drop / corrupt / duplicate decision for one message.

        Deterministic per ``(plan.seed, round, sender, receiver)``; the
        three decisions are drawn in a fixed order so adding, say, a
        corruption rate never changes which messages are dropped.
        """
        adversary = self.plan.messages
        if adversary is None or not adversary.is_active:
            return _untouched(payload)
        if not adversary.attacks(sender, receiver):
            return _untouched(payload)
        rng = random.Random(f"{self._seed}:msg:{round_index}:{sender}:{receiver}")
        if rng.random() < adversary.drop_rate:
            return MessageFate(payload=payload, dropped=True)
        corrupted = rng.random() < adversary.corrupt_rate
        if corrupted:
            corrupter = adversary.corrupter or default_corrupter
            payload = corrupter(payload, rng)
        duplicate = rng.random() < adversary.duplicate_rate
        return MessageFate(payload=payload, corrupted=corrupted, duplicate=duplicate)

    # ------------------------------------------------------------------
    # Prediction adversary
    # ------------------------------------------------------------------
    def corrupt_predictions(
        self, predictions: Mapping[int, Any], nodes: Iterable[int]
    ) -> Dict[int, Any]:
        """Flip a fraction of prediction entries, deterministically.

        ``nodes`` fixes the population (and hence the pool of substitute
        values) independently of which nodes happen to have predictions.
        """
        adversary = self.plan.predictions
        corrupted = dict(predictions)
        if adversary is None or adversary.flip_rate <= 0.0:
            return corrupted
        ordered = sorted(nodes)
        values = [predictions.get(node) for node in ordered]
        for node in ordered:
            if node not in corrupted:
                continue
            rng = random.Random(f"{self._seed}:pred:{node}")
            if rng.random() >= adversary.flip_rate:
                continue
            value = corrupted[node]
            if adversary.flipper is not None:
                corrupted[node] = adversary.flipper(value, rng, values)
            elif value in (0, 1):
                corrupted[node] = 1 - value
            elif values:
                corrupted[node] = values[rng.randrange(len(values))]
        return corrupted
