"""The distributed graph instance type.

A :class:`DistGraph` is an immutable undirected graph whose nodes are
distinct positive integer identifiers drawn from ``{1, ..., d}``, exactly
the instance shape of Section 2 of the paper.  It also carries optional
per-node attributes used by structured instances (grid coordinates, rooted
tree parent pointers).

Structurally, every ``DistGraph`` is backed by one shared, immutable
:class:`~repro.graphs.csr.CSRTopology` built once at construction: the
public accessors (``neighbors``/``degree``/``edges``/``has_edge``/
``delta``) delegate to the CSR view, and runtime layers that want
index-based iteration (the engine, fault validators, error measures) read
``graph.csr`` directly.  Derived graphs — subgraphs, attribute copies —
are new ``DistGraph`` objects with their own topology (or, when the
structure is unchanged, a shared reference to the same one); caches are
never mutated, so they can never go stale.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro.graphs.csr import CSRTopology


class DistGraph:
    """An undirected graph instance for the synchronous model.

    Args:
        adjacency: Mapping from node id to an iterable of neighbor ids.
            Symmetry is enforced: an edge listed in either direction is
            present in both.
        d: Upper bound on the largest identifier; defaults to the largest
            identifier present.
        attrs: Optional per-node attribute mappings (e.g. ``parent`` /
            ``is_root`` for rooted trees, ``pos`` for grids).
        name: Optional human-readable instance name.
    """

    def __init__(
        self,
        adjacency: Mapping[int, Iterable[int]],
        d: Optional[int] = None,
        attrs: Optional[Mapping[int, Mapping[str, Any]]] = None,
        name: str = "",
    ) -> None:
        self._init_from_csr(
            CSRTopology.from_adjacency(adjacency), d, attrs, name
        )

    def _init_from_csr(
        self,
        csr: CSRTopology,
        d: Optional[int],
        attrs: Optional[Mapping[int, Mapping[str, Any]]],
        name: str,
    ) -> None:
        """Shared tail of construction over an already-built topology."""
        self._csr = csr
        self.nodes: Tuple[int, ...] = csr.ids
        # Identifiers ascend, so the first is the smallest.
        if self.nodes and self.nodes[0] < 1:
            raise ValueError("node identifiers must be positive integers")
        self.n = csr.n
        self.d = d if d is not None else (self.nodes[-1] if self.nodes else 0)
        if self.nodes and self.d < self.nodes[-1]:
            raise ValueError(
                f"identifier bound d={self.d} below largest id {self.nodes[-1]}"
            )
        self._attrs: Dict[int, Dict[str, Any]] = {
            int(node): dict(mapping) for node, mapping in (attrs or {}).items()
        }
        self.name = name
        #: Lazy per-node frozenset views of the CSR rows — built on first
        #: request and shared with every consumer (node contexts hold the
        #: same frozensets rather than private copies).
        self._neighbor_cache: Dict[int, FrozenSet[int]] = {}
        #: Ambient maximum-degree override.  ``None`` for ordinary graphs
        #: (``delta`` reads the topology's max degree); a component-shard
        #: view (:func:`repro.shard.plan.shard_view`) pins the *parent*
        #: graph's Δ here so palette sizes and template bounds match the
        #: unsharded run exactly.
        self._delta_override: Optional[int] = None

    @classmethod
    def _from_csr(
        cls,
        csr: CSRTopology,
        d: Optional[int],
        attrs: Optional[Mapping[int, Mapping[str, Any]]],
        name: str,
    ) -> "DistGraph":
        """Build a graph over an existing topology, skipping re-validation.

        Used by derived-graph constructors whose structure is already a
        validated topology (e.g. :meth:`with_attrs`, which shares the CSR
        arrays of its source outright).
        """
        graph = cls.__new__(cls)
        graph._init_from_csr(csr, d, attrs, name)
        return graph

    # ------------------------------------------------------------------
    # Basic accessors (delegating to the CSR topology)
    # ------------------------------------------------------------------
    @property
    def csr(self) -> CSRTopology:
        """The shared read-only CSR view of this graph's structure."""
        return self._csr

    def neighbors(self, node: int) -> FrozenSet[int]:
        """The neighbor set of ``node``."""
        cached = self._neighbor_cache.get(node)
        if cached is None:
            csr = self._csr
            cached = self._neighbor_cache[node] = frozenset(
                map(csr.ids.__getitem__, csr.row(csr.index_of[node]))
            )
        return cached

    def degree(self, node: int) -> int:
        """Number of neighbors of ``node``."""
        return self._csr.degree(node)

    @property
    def delta(self) -> int:
        """Maximum degree of the graph (0 for the empty graph).

        Shard views report their *parent* graph's Δ (the ambient bound a
        node would know in the unsharded run); see ``_delta_override``.
        """
        if self._delta_override is not None:
            return self._delta_override
        return self._csr.max_degree

    def node_attrs(self, node: int) -> Mapping[str, Any]:
        """Per-node attribute mapping (may be empty)."""
        return self._attrs.get(node, {})

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        return self._csr.has_edge(u, v)

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as ``(min, max)`` pairs, sorted.

        The list is materialized once on the topology (already in sorted
        order — CSR rows ascend) and copied per call, so callers may
        mutate their copy freely without invalidating the cache.
        """
        return list(self._csr.edges())

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return self._csr.m

    def __contains__(self, node: int) -> bool:
        return node in self._csr.index_of

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<DistGraph{label} n={self.n} m={self.num_edges} d={self.d}>"

    # ------------------------------------------------------------------
    # Pickling (sweep cells carrying literal graphs cross process pools)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        # Ship structure + declared data only: the node tuple, interning
        # dict and neighbor frozensets are all rebuildable from the CSR
        # topology, and shipping them would dwarf the topology itself
        # (and defeat the shared-memory handle path entirely).
        return {
            "csr": self._csr,
            "d": self.d,
            "attrs": self._attrs,
            "name": self.name,
            "n": self.n,
            "delta_override": self._delta_override,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # Assign directly instead of re-running construction validation:
        # the pickled state came from an already-validated graph, and
        # per-chunk unpickles at n=10⁷ cannot afford O(n) re-checks.
        csr = state["csr"]
        self._csr = csr
        self.nodes = csr.ids
        self.d = state["d"]
        self._attrs = state["attrs"]
        self.name = state["name"]
        self._neighbor_cache = {}
        # Shard views pin ambient quantities from their parent graph.
        self.n = state["n"]
        self._delta_override = state["delta_override"]

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[int], name: str = "") -> "DistGraph":
        """The subgraph induced by ``nodes`` (identifier bound preserved).

        The induced graph gets its **own** freshly built topology and
        caches; nothing structural is shared with the parent, so a
        subgraph of a subgraph reports ``n``/``m``/``max_degree`` computed
        from its own (twice-filtered) adjacency, never from a stale
        parent view.
        """
        keep = set(nodes)
        csr = self._csr
        index_of = csr.index_of
        unknown = keep - index_of.keys()
        if unknown:
            raise ValueError(f"unknown nodes in subgraph request: {sorted(unknown)}")
        # Renumbering by a cumsum over the mask keeps every row ascending,
        # so the parent's rows filter straight into the subgraph's.
        inside = np.zeros(csr.n, dtype=bool)
        inside[np.fromiter(map(index_of.__getitem__, keep), np.int64, len(keep))] = True
        arrays = csr.arrays
        renumber = np.cumsum(inside) - 1
        entries = inside[arrays.sources] & inside[arrays.indices]
        indptr = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(arrays.segment_count(entries)[inside], out=indptr[1:])
        indices = renumber[arrays.indices[entries]]
        topology = CSRTopology(
            tuple(arrays.ids[inside].tolist()),
            array("q", indptr.tobytes()),
            array("q", indices.tobytes()),
        )
        attrs = {node: self._attrs[node] for node in keep if node in self._attrs}
        return DistGraph._from_csr(topology, self.d, attrs, name or self.name)

    def components(self) -> List[FrozenSet[int]]:
        """Connected components, each as a frozenset, sorted by min id.

        Delegates to :meth:`CSRTopology.components` (computed once and
        cached on the shared topology — index tuples there, identifier
        frozensets here); ascending-min-index order is ascending-min-id
        order because identifiers ascend with indices.
        """
        ids = self._csr.ids
        return [
            frozenset(ids[index] for index in part)
            for part in self._csr.components()
        ]

    def is_connected(self) -> bool:
        """Whether the graph has at most one component."""
        return len(self.components()) <= 1

    def bfs_distances(self, source: int) -> Dict[int, int]:
        """Hop distances from ``source`` to every reachable node."""
        csr = self._csr
        ids = csr.ids
        indptr = csr.indptr
        indices = csr.indices
        start = csr.index_of[source]
        hops = {start: 0}
        queue = deque([start])
        while queue:
            index = queue.popleft()
            next_hop = hops[index] + 1
            for position in range(indptr[index], indptr[index + 1]):
                other = indices[position]
                if other not in hops:
                    hops[other] = next_hop
                    queue.append(other)
        return {ids[index]: hop for index, hop in hops.items()}

    def diameter(self) -> int:
        """Diameter of a connected graph (max pairwise hop distance).

        Raises ``ValueError`` on disconnected or empty graphs, where the
        diameter is undefined.
        """
        if self.n == 0 or not self.is_connected():
            raise ValueError("diameter is defined for nonempty connected graphs")
        best = 0
        for node in self.nodes:
            distances = self.bfs_distances(node)
            best = max(best, max(distances.values()))
        return best

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a ``networkx.Graph`` (node attributes preserved)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(self.nodes)
        nx_graph.add_edges_from(self.edges())
        for node, mapping in self._attrs.items():
            nx_graph.nodes[node].update(mapping)
        return nx_graph

    @classmethod
    def from_networkx(
        cls, nx_graph, d: Optional[int] = None, name: str = ""
    ) -> "DistGraph":
        """Build from a ``networkx.Graph`` whose nodes are positive ints."""
        adjacency = {node: list(nx_graph.neighbors(node)) for node in nx_graph.nodes}
        attrs = {
            node: dict(data) for node, data in nx_graph.nodes(data=True) if data
        }
        return cls(adjacency, d=d, attrs=attrs, name=name)

    def with_attrs(self, attrs: Mapping[int, Mapping[str, Any]]) -> "DistGraph":
        """A copy with the given per-node attributes merged in.

        The structure is unchanged, so the copy *shares* this graph's CSR
        topology (it is immutable) instead of rebuilding it.
        """
        merged: Dict[int, Dict[str, Any]] = {
            node: dict(mapping) for node, mapping in self._attrs.items()
        }
        for node, mapping in attrs.items():
            merged.setdefault(int(node), {}).update(mapping)
        return DistGraph._from_csr(self._csr, self.d, merged, self.name)
