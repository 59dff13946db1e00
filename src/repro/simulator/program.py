"""The node-program interface.

Every algorithm in this repository — base algorithms, initialization
algorithms, measure-uniform algorithms, clean-up algorithms, reference
algorithms, and the four templates that combine them — is expressed as a
:class:`NodeProgram`: a per-node state machine driven by the synchronous
engine.  One fresh instance runs at each node; instances share nothing and
communicate only through messages, so no program can cheat by reading
global state.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.simulator.context import NodeContext

#: An outbox maps neighbor id -> payload for one round.
Outbox = Dict[int, Any]

#: An inbox maps sender id -> payload received this round.
Inbox = Dict[int, Any]


class NodeProgram:
    """Base class for per-node algorithm code.

    The engine drives each round in two steps that together realize the
    paper's synchronous round (Section 2):

    1. :meth:`compose` — using only state from previous rounds, produce the
       messages to send this round (possibly a different one per neighbor);
    2. :meth:`process` — receive this round's inbox, compute, optionally
       assign outputs via the context, and optionally terminate.

    :meth:`setup` runs once before round 1 and may already terminate the
    node (a "0-round" action, used e.g. by the edge-coloring
    measure-uniform algorithm on isolated nodes).

    Quiescence (the idle contract).  A program may set the class attribute
    ``quiescent_when_idle = True`` to opt into the engine's quiescence
    scheduler (``ExecutionPolicy(schedule="quiescent")``).  Doing so promises
    that in any round where the node is *idle* — it received no message in
    the previous round, no neighbor terminated/crashed/recovered since it
    last ran, and no timed wakeup (:meth:`NodeContext.wake_at` /
    :meth:`NodeContext.request_wakeup`) is due — the program is a no-op:

    * :meth:`compose` returns an empty outbox and mutates no state the
      node's observable behaviour depends on;
    * :meth:`process` with an empty inbox assigns no output, does not
      terminate, and mutates no such state.

    Under that contract the engine may skip the node's idle rounds
    entirely without changing outputs, round counts, message counts or
    event order.  A program whose acting rounds depend on the round
    *number* (parity, slice boundaries) must arm a timed wakeup while
    active, or it will sleep through its acting round.  Violations are
    detected loudly by ``schedule="quiescent-debug"``.
    """

    #: Empty, so a subclass that declares its own slots (the template
    #: host, one per node) carries no instance dict; subclasses without
    #: slots keep theirs.
    __slots__ = ()

    #: Opt-in flag for the quiescence scheduler (see the class docstring).
    #: ``False`` keeps the node scheduled every round, which is always
    #: correct.
    quiescent_when_idle = False

    def setup(self, ctx: NodeContext) -> None:
        """One-time initialization before the first round."""

    def compose(self, ctx: NodeContext) -> Outbox:
        """Return the messages to send this round, keyed by neighbor id."""
        return {}

    def process(self, ctx: NodeContext, inbox: Inbox) -> None:
        """Consume this round's inbox; may output and terminate."""


class IdleProgram(NodeProgram):
    """A program that terminates immediately with a fixed output.

    Useful as a stand-in in tests and as the behaviour of nodes that have
    nothing to do (e.g. an isolated node in a problem whose outputs live on
    edges).
    """

    def __init__(self, output: Any = None) -> None:
        self._output = output

    def setup(self, ctx: NodeContext) -> None:
        if self._output is not None:
            ctx.set_output(self._output)
        ctx.terminate()
