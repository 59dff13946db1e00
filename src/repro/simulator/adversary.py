"""The delay adversary of the asynchronous execution model.

Under ``schedule="async"`` the lockstep delivery assumption of Section 2
is relaxed: each message is handed to a :class:`DelayAdversary` that
assigns it a delivery delay of up to ``phi`` ticks (a *tick* is the
engine's global step; ``phi = 0`` recovers the synchronous model, where
every message arrives in the round it was sent).  This is the standard
φ-bounded asynchronous adversary: delivery order between distinct
channels is arbitrary within the bound, but no message is delayed
forever, so any synchronous algorithm still stabilizes within a factor
``1 + phi`` of its round bound.

Every decision is drawn from a fresh ``random.Random`` seeded with
``(seed, tick, sender, receiver)`` — the same keying discipline as
:meth:`repro.faults.controller.FaultController.message_fate` — so delays
are deterministic given the seed, independent of iteration order, and
reproducible across machines and schedulers.

:class:`RetryPolicy` is the sender-side half of the robustness story:
when a send is lost (the fault interposer dropped it) and the node has a
send timeout armed, the scheduler retransmits after
``timeout * 2**(attempt - 1)`` ticks — bounded exponential backoff — up
to ``max_retries`` times.  With no timeout armed (the default) a lost
message stays lost, exactly as in the synchronous fault model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["DelayAdversary", "RetryPolicy"]


class DelayAdversary:
    """Assigns each message a deterministic delivery delay in ``[0, phi]``.

    Args:
        phi: Upper bound (inclusive) on the delay, in ticks.  ``0`` makes
            the adversary a no-op: every message is delivered in the tick
            it was sent, which is exactly the synchronous model.
        seed: Base seed; the per-message stream is keyed by
            ``(seed, tick, sender, receiver)``, never by call order.
    """

    __slots__ = ("phi", "_seed")

    def __init__(self, phi: int = 0, seed: int = 0) -> None:
        if phi < 0:
            raise ValueError(f"phi must be non-negative, got {phi}")
        self.phi = phi
        self._seed = seed

    def delay(self, tick: int, sender: int, receiver: int) -> int:
        """The delay (in ticks) for one message on one channel.

        A message sent in ``tick`` with delay ``delta`` is delivered at
        the start of tick ``tick + delta`` (``delta = 0``: this very
        tick, before the receiver's process phase — synchronous timing).
        """
        if self.phi == 0:
            return 0
        rng = random.Random(f"{self._seed}:delay:{tick}:{sender}:{receiver}")
        return rng.randint(0, self.phi)

@dataclass(frozen=True)
class RetryPolicy:
    """Sender-side retransmission policy for lost messages.

    Attributes:
        send_timeout: Ticks a sender waits before retransmitting a lost
            message; ``None`` disables retries entirely (synchronous
            fault semantics — a dropped message stays dropped).
        max_retries: Maximum number of retransmissions per original send.
    """

    send_timeout: Optional[int] = None
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.send_timeout is not None and self.send_timeout < 1:
            raise ValueError(
                f"send_timeout must be >= 1 (ticks), got {self.send_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )

    def retry_due(self, tick: int, attempt: int, timeout: int) -> Optional[int]:
        """The tick attempt number ``attempt`` (1-based) fires at, or
        ``None`` when the retry budget is exhausted.

        Backoff is exponential: the first retry waits ``timeout`` ticks,
        the second ``2 * timeout``, the third ``4 * timeout``, ...
        """
        if attempt > self.max_retries:
            return None
        return tick + timeout * (2 ** (attempt - 1))
