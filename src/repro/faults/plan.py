"""Declarative fault plans.

A :class:`FaultPlan` describes *what* goes wrong in a run without saying
anything about *how* the engine realizes it: which nodes crash (and
whether they come back), which message adversary acts on the channel, and
whether predictions are corrupted before the run starts.  Plans are
frozen dataclasses — hashable, comparable, and safely shareable between
runs — and every random choice they induce is derived from the plan's
``seed``, never from global state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, FrozenSet, Mapping, Optional, Tuple

#: Undirected edge key: ``(min(u, v), max(u, v))``.
EdgeKey = Tuple[int, int]


def edge_key(u: int, v: int) -> EdgeKey:
    """Canonical undirected key for the channel between ``u`` and ``v``."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class CrashFault:
    """One node fault.

    Attributes:
        node: The node to remove.
        round: The round after which the node vanishes; it executes that
            round fully and then stops (round 0 = crash during setup).
        recover_after: When set, the node rejoins ``recover_after`` rounds
            later (at the start of round ``round + recover_after``) with
            *reset* state: a fresh program instance and a fresh context
            that sees the current termination/crash status of its
            neighbors but remembers nothing it computed before the crash.
            ``None`` means crash-stop.
    """

    node: int
    round: int
    recover_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.round < 0:
            raise ValueError(f"crash round must be >= 0, got {self.round}")
        if self.recover_after is not None and self.recover_after < 1:
            raise ValueError(
                f"recover_after must be >= 1, got {self.recover_after}"
            )

    @property
    def recovery_round(self) -> Optional[int]:
        """Round at whose start the node rejoins, or ``None``."""
        if self.recover_after is None:
            return None
        return self.round + self.recover_after


@dataclass(frozen=True)
class MessageAdversary:
    """A seeded adversary acting on the message channel.

    Each message is subjected, independently and in this order, to a
    drop / corrupt / duplicate decision; a dropped message is neither
    corrupted nor duplicated.  A duplicate is a *replay*: one extra copy
    of the (possibly corrupted) payload is delivered in the following
    round, unless a fresh message from the same sender supersedes it.

    Attributes:
        drop_rate: Probability a message disappears in transit.
        corrupt_rate: Probability the payload is mangled.
        duplicate_rate: Probability an extra copy arrives next round.
        edges: When set, only channels in this set (undirected keys from
            :func:`edge_key`) are attacked; ``None`` attacks every edge.
        corrupter: Optional ``(payload, rng) -> payload`` override for the
            corruption function (default: :func:`default_corrupter`).
    """

    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    edges: Optional[FrozenSet[EdgeKey]] = None
    corrupter: Optional[Callable[[Any, Any], Any]] = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        for name in ("drop_rate", "corrupt_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")

    @property
    def is_active(self) -> bool:
        """Whether this adversary can ever touch a message."""
        return bool(self.drop_rate or self.corrupt_rate or self.duplicate_rate)

    def attacks(self, sender: int, receiver: int) -> bool:
        """Whether the channel between the two nodes is in scope."""
        return self.edges is None or edge_key(sender, receiver) in self.edges


@dataclass(frozen=True)
class PredictionAdversary:
    """Corrupts a fraction of prediction entries before the run.

    Robustness (Section 1.1) demands graceful behaviour under arbitrarily
    bad predictions; this adversary manufactures them in a seeded,
    reproducible way on top of whatever predictions the experiment built.

    Attributes:
        flip_rate: Probability each node's prediction entry is corrupted.
        flipper: Optional ``(value, rng, all_values) -> value`` override;
            the default flips 0/1 bits and otherwise substitutes another
            node's prediction value.
    """

    flip_rate: float = 0.0
    flipper: Optional[Callable[[Any, Any, Any], Any]] = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_rate <= 1.0:
            raise ValueError(f"flip_rate must be in [0, 1], got {self.flip_rate}")


def default_corrupter(payload: Any, rng: Any) -> Any:
    """Deterministically mangle a payload (the default corruption).

    The result is structurally similar but semantically wrong: booleans
    flip, integers get their low bit flipped, strings lose their first
    character to a ``?``, containers have one element corrupted.  The
    point is a *plausible* wrong value — the kind a real bit-flip or
    truncation produces — not an obviously-invalid sentinel.
    """
    if isinstance(payload, bool):
        return not payload
    if isinstance(payload, int):
        return payload ^ 1
    if isinstance(payload, float):
        return -payload if payload else 1.0
    if isinstance(payload, str):
        return "?" + payload[1:] if payload else "?"
    if isinstance(payload, tuple) and payload:
        index = rng.randrange(len(payload))
        return payload[:index] + (default_corrupter(payload[index], rng),) + payload[index + 1 :]
    if isinstance(payload, list) and payload:
        index = rng.randrange(len(payload))
        copy = list(payload)
        copy[index] = default_corrupter(copy[index], rng)
        return copy
    if isinstance(payload, dict) and payload:
        key = sorted(payload, key=repr)[rng.randrange(len(payload))]
        copy = dict(payload)
        copy[key] = default_corrupter(copy[key], rng)
        return copy
    if payload is None:
        return 0
    return payload


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one run, declaratively.

    Attributes:
        crashes: Node faults (:class:`CrashFault`), any order.
        messages: Optional :class:`MessageAdversary` on the channel.
        predictions: Optional :class:`PredictionAdversary` applied to the
            prediction mapping before contexts are built.
        seed: Base seed for every adversarial coin flip.  Two runs of the
            same plan with the same seed make identical decisions.
    """

    crashes: Tuple[CrashFault, ...] = ()
    messages: Optional[MessageAdversary] = None
    predictions: Optional[PredictionAdversary] = None
    seed: int = 0

    def __post_init__(self) -> None:
        seen = set()
        for crash in self.crashes:
            if crash.node in seen:
                raise ValueError(f"node {crash.node} has multiple crash faults")
            seen.add(crash.node)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_crash_rounds(
        cls, crash_rounds: Mapping[int, int], seed: int = 0
    ) -> "FaultPlan":
        """The engine's historical ``crash_rounds`` mapping, as a plan
        (alias of :meth:`crash_stop`)."""
        return cls.crash_stop(crash_rounds, seed=seed)

    @classmethod
    def crash_stop(
        cls, crash_rounds: Mapping[int, int], seed: int = 0
    ) -> "FaultPlan":
        """Crash-stop faults from a ``node -> round`` mapping.

        Each node executes its round fully and then vanishes without
        output, never to return.
        """
        crashes = tuple(
            CrashFault(node, round_index)
            for node, round_index in sorted(crash_rounds.items())
        )
        return cls(crashes=crashes, seed=seed)

    @classmethod
    def message_loss(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """A plan whose only fault is uniform message loss."""
        return cls(messages=MessageAdversary(drop_rate=rate), seed=seed)

    # ------------------------------------------------------------------
    def build_controller(self):
        """The engine-facing :class:`~repro.faults.controller.FaultController`."""
        from repro.faults.controller import FaultController

        return FaultController(self)
