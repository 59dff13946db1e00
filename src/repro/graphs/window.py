"""Windows onto a graph: an owned node subset with the parent's adjacency.

A :class:`GraphWindow` is what an engine runs over when only some of a
graph's nodes are interpreted: ``nodes`` is the owned subset, while
every neighbor list, every node attribute and every ambient quantity
(``n``, ``d``, ``Δ``) comes from the parent.  No subgraph is built.  An
owned node keeps its complete adjacency — including the neighbors the
window does not own — because the paper's algorithms act on full local
views; only the *delivery* of messages to and from unowned nodes moves
to a boundary transport (see :mod:`repro.simulator.transport`).

Two kinds of window exist: an edge-cut shard's contiguous id block
(:class:`~repro.shard.plan.EdgecutView`), and the nodes a template's
initialization leaves undecided (:mod:`repro.core.initpass`).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional


class GraphWindow:
    """An owned node subset of ``parent``, with the parent's adjacency.

    Args:
        parent: The full graph (anything with ``n``, ``d``, ``delta``,
            ``neighbors(v)`` and ``node_attrs(v)``).
        nodes: The owned identifiers, ascending.
    """

    __slots__ = ("parent", "nodes")

    def __init__(self, parent: Any, nodes: Iterable[int]) -> None:
        self.parent = parent
        self.nodes = tuple(nodes)

    @property
    def n(self) -> int:
        return self.parent.n

    @property
    def d(self) -> int:
        return self.parent.d

    @property
    def delta(self) -> Optional[int]:
        return self.parent.delta

    def neighbors(self, node: int):
        return self.parent.neighbors(node)

    def node_attrs(self, node: int) -> Mapping[str, Any]:
        return self.parent.node_attrs(node)
