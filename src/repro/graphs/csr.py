"""The CSR topology core shared by every runtime layer.

A :class:`CSRTopology` is the int-indexed, read-only view of a graph's
structure: the classic compressed-sparse-row pair ``indptr``/``indices``
over nodes renumbered ``0 .. n-1`` in ascending identifier order, plus the
interning tables between external identifiers and internal indices.  It is
built **once** per :class:`~repro.graphs.graph.DistGraph` and shared by the
engine, the fault layer and the error measures, replacing the repeated
dict-of-frozenset walks that used to dominate topology-heavy code paths.

Design points:

* **Rows are sorted.**  ``indices[indptr[i]:indptr[i+1]]`` holds the
  neighbor *indices* of node ``i`` in ascending order; because node
  identifiers are interned in ascending order, ascending indices are also
  ascending identifiers.  Sorted rows give ``O(log deg)`` membership via
  :func:`bisect` and let :meth:`edges` stream the globally sorted edge list
  without a sort.
* **Arrays, not objects.**  ``indptr`` and ``indices`` are ``array('q')``
  buffers: compact, cache-friendly, and picklable — a topology crosses the
  process-pool boundary of :mod:`repro.exec` as two flat buffers plus the
  identifier tuple (the id→index dict is rebuilt lazily on first use rather
  than shipped).
* **Immutable.**  Every derived quantity (edge list, degrees, maximum
  degree) is computed once and cached; a "changed" graph is a *new*
  topology, never a mutated one, so cached views can never go stale.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

#: ``bytes.translate`` table turning a component mask into the walk's
#: initial ``seen`` flags: indices whose mask entry is 0 start seen.
_MASKED_OUT = bytes([1]) + bytes(255)

#: Optional hook consulted by :meth:`CSRTopology.__reduce__`.  When a
#: :class:`repro.shard.store.SharedCSRStore` is active it installs a
#: reducer here that publishes the buffers into shared memory and returns
#: a tiny attach-handle reduce tuple; ``None`` (the default) pickles the
#: flat buffers.  Kept as a module-level hook so :mod:`repro.graphs` never
#: imports :mod:`repro.shard` (the dependency points the other way).
_SHARED_REDUCER: Optional[Callable[["CSRTopology"], Optional[tuple]]] = None


def set_shared_reducer(
    reducer: Optional[Callable[["CSRTopology"], Optional[tuple]]]
) -> None:
    """Install (or clear, with ``None``) the shared-memory reduce hook."""
    global _SHARED_REDUCER
    _SHARED_REDUCER = reducer


@contextmanager
def plain_reduce() -> Iterator[None]:
    """Suspend the shared-memory reduce hook for the enclosed pickling.

    Content keys (:func:`repro.exec.plan._literal_key`) and disk-cache
    pickles must be self-contained and identical whether or not a store
    is active — a key must never encode a transient segment name, and a
    cached artifact must outlive the store that was active when it was
    written.  Both sites wrap their ``pickle.dumps`` in this context.
    """
    global _SHARED_REDUCER
    saved = _SHARED_REDUCER
    _SHARED_REDUCER = None
    try:
        yield
    finally:
        _SHARED_REDUCER = saved


class CSRTopology:
    """Immutable CSR view of an undirected graph.

    Build via :meth:`from_adjacency` (validated, symmetric input expected);
    consumers usually get one from :attr:`repro.graphs.graph.DistGraph.csr`.

    Attributes:
        ids: Node identifiers in ascending order; ``ids[i]`` is the
            identifier of internal index ``i``.
        indptr: Row-pointer array of length ``n + 1``.
        indices: Concatenated neighbor rows (internal indices, each row
            ascending); length ``2m``.
        n: Number of nodes.
        m: Number of undirected edges.
    """

    __slots__ = (
        "ids",
        "indptr",
        "indices",
        "n",
        "m",
        "_index_of",
        "_max_degree",
        "_edges",
        "_components",
    )

    def __init__(
        self, ids: Tuple[int, ...], indptr: array, indices: array
    ) -> None:
        self.ids = ids
        self.indptr = indptr
        self.indices = indices
        self.n = len(ids)
        self.m = len(indices) // 2
        self._index_of: Optional[Dict[int, int]] = None
        self._max_degree: Optional[int] = None
        self._edges: Optional[Tuple[Tuple[int, int], ...]] = None
        self._components: Optional[Tuple[Tuple[int, ...], ...]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_adjacency(cls, adjacency: Mapping[int, Any]) -> "CSRTopology":
        """Build from a symmetric ``id -> iterable of neighbor ids`` map.

        The input must already be symmetric and self-loop-free (the
        :class:`~repro.graphs.graph.DistGraph` constructor guarantees
        both); identifiers may be arbitrary positive ints.
        """
        ids = tuple(sorted(adjacency))
        index_of = {node: index for index, node in enumerate(ids)}
        indptr = array("q", bytes(8 * (len(ids) + 1)))
        indices = array("q")
        position = 0
        for index, node in enumerate(ids):
            row = sorted(index_of[other] for other in adjacency[node])
            indices.extend(row)
            position += len(row)
            indptr[index + 1] = position
        topology = cls(ids, indptr, indices)
        topology._index_of = index_of
        return topology

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    @property
    def index_of(self) -> Dict[int, int]:
        """The ``identifier -> internal index`` table (built lazily)."""
        table = self._index_of
        if table is None:
            table = self._index_of = {
                node: index for index, node in enumerate(self.ids)
            }
        return table

    def index(self, node: int) -> int:
        """Internal index of ``node`` (KeyError for unknown identifiers)."""
        return self.index_of[node]

    def __contains__(self, node: int) -> bool:
        return node in self.index_of

    # ------------------------------------------------------------------
    # Index-based accessors (the hot-loop API)
    # ------------------------------------------------------------------
    def row(self, index: int) -> array:
        """Neighbor indices of internal index ``index``, ascending."""
        return self.indices[self.indptr[index] : self.indptr[index + 1]]

    def degree_at(self, index: int) -> int:
        """Degree of internal index ``index``."""
        return self.indptr[index + 1] - self.indptr[index]

    def iter_rows(self) -> Iterator[Tuple[int, array]]:
        """Yield ``(index, neighbor-index row)`` for every node."""
        indptr = self.indptr
        indices = self.indices
        for index in range(self.n):
            yield index, indices[indptr[index] : indptr[index + 1]]

    # ------------------------------------------------------------------
    # Identifier-based accessors (the DistGraph-facing API)
    # ------------------------------------------------------------------
    def degree(self, node: int) -> int:
        """Degree of the node with identifier ``node``."""
        return self.degree_at(self.index_of[node])

    def neighbor_ids(self, node: int) -> Tuple[int, ...]:
        """Neighbor identifiers of ``node``, ascending."""
        ids = self.ids
        index = self.index_of[node]
        return tuple(
            ids[other]
            for other in self.indices[
                self.indptr[index] : self.indptr[index + 1]
            ]
        )

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge (``False`` on unknown ids)."""
        table = self.index_of
        u_index = table.get(u)
        v_index = table.get(v)
        if u_index is None or v_index is None:
            return False
        # Probe the smaller row.
        if self.degree_at(u_index) > self.degree_at(v_index):
            u_index, v_index = v_index, u_index
        return self.adjacent(u_index, v_index)

    def adjacent(self, index: int, other: int) -> bool:
        """Whether internal indices ``index`` and ``other`` are adjacent.

        Bisects ``index``'s row (rows are sorted): ``O(log deg)``.
        """
        lo = self.indptr[index]
        hi = self.indptr[index + 1]
        position = bisect_left(self.indices, other, lo, hi)
        return position < hi and self.indices[position] == other

    @property
    def max_degree(self) -> int:
        """Maximum degree (0 for the empty graph), computed once."""
        if self._max_degree is None:
            indptr = self.indptr
            self._max_degree = max(
                (indptr[i + 1] - indptr[i] for i in range(self.n)), default=0
            )
        return self._max_degree

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Every edge as an ``(min id, max id)`` pair, globally sorted.

        Sortedness is free: identifiers ascend with indices and rows are
        ascending, so streaming each row's above-diagonal half in index
        order yields the lexicographically sorted edge list directly —
        no ``m log m`` sort, computed once and cached.
        """
        if self._edges is None:
            ids = self.ids
            indptr = self.indptr
            indices = self.indices
            pairs: List[Tuple[int, int]] = []
            for index in range(self.n):
                node = ids[index]
                for position in range(indptr[index], indptr[index + 1]):
                    other = indices[position]
                    if other > index:
                        pairs.append((node, ids[other]))
            self._edges = tuple(pairs)
        return self._edges

    def degrees(self) -> List[int]:
        """Degrees of every node in index (= ascending identifier) order."""
        indptr = self.indptr
        return [indptr[i + 1] - indptr[i] for i in range(self.n)]

    def components(
        self, mask: Optional[Sequence[int]] = None
    ) -> Tuple[Tuple[int, ...], ...]:
        """Connected components as tuples of internal *indices*.

        Each component's indices ascend, and components are ordered by
        their smallest index — which, because identifiers ascend with
        indices, is also ascending-min-identifier order.

        With ``mask`` (one entry per index, e.g. a ``bytearray`` of 0/1
        flags), the components of the subgraph induced by the indices
        whose entry is nonzero: the same answer, indices for identifiers,
        as ``subgraph(...).components()`` without building the subgraph.
        Only the unmasked answer is cached (the shard planner asks per
        shard task; workers that attach the same shared topology share
        it).
        """
        if mask is None:
            if self._components is not None:
                return self._components
            seen = bytearray(self.n)
        elif len(mask) == self.n:
            seen = bytearray(mask).translate(_MASKED_OUT)
        else:
            raise ValueError(f"mask has {len(mask)} entries for {self.n} nodes")
        indptr = self.indptr
        indices = self.indices
        parts: List[Tuple[int, ...]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = 1
            stack = [start]
            members = [start]
            while stack:
                index = stack.pop()
                for position in range(indptr[index], indptr[index + 1]):
                    other = indices[position]
                    if not seen[other]:
                        seen[other] = 1
                        members.append(other)
                        stack.append(other)
            members.sort()
            parts.append(tuple(members))
        if mask is not None:
            return tuple(parts)
        self._components = tuple(parts)
        return self._components

    # ------------------------------------------------------------------
    # Pickling (process-pool sweeps ship topologies to workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Tuple[Tuple[int, ...], array, array]:
        # Ship only the flat buffers; the interning dict and cached
        # derived views are rebuilt lazily on the other side.  A topology
        # attached from a shared-memory segment holds memoryviews rather
        # than arrays — materialize them so the pickle is self-contained
        # (the flat-buffer fallback when no store is active).
        indptr = self.indptr
        indices = self.indices
        if not isinstance(indptr, array):
            indptr = array("q", indptr)
        if not isinstance(indices, array):
            indices = array("q", indices)
        return (self.ids, indptr, indices)

    def __setstate__(
        self, state: Tuple[Tuple[int, ...], array, array]
    ) -> None:
        ids, indptr, indices = state
        self.ids = ids
        self.indptr = indptr
        self.indices = indices
        self.n = len(ids)
        self.m = len(indices) // 2
        self._index_of = None
        self._max_degree = None
        self._edges = None
        self._components = None

    def __reduce__(self):
        reducer = _SHARED_REDUCER
        if reducer is not None:
            reduced = reducer(self)
            if reduced is not None:
                return reduced
        return (_rebuild_csr, self.__getstate__())

    def __repr__(self) -> str:
        return f"<CSRTopology n={self.n} m={self.m}>"


def _rebuild_csr(
    ids: Tuple[int, ...], indptr: array, indices: array
) -> CSRTopology:
    """Unpickle helper (module-level so it is importable by workers)."""
    return CSRTopology(ids, indptr, indices)


def ensure_topology(graph: Any) -> CSRTopology:
    """The CSR view of ``graph``, building one for duck-typed graphs.

    :class:`~repro.graphs.graph.DistGraph` exposes its shared view via
    ``graph.csr``; any other object with ``nodes`` and ``neighbors(v)``
    (the engine's documented minimum surface) gets a fresh topology.
    """
    csr = getattr(graph, "csr", None)
    if isinstance(csr, CSRTopology):
        return csr
    return CSRTopology.from_adjacency(
        {node: graph.neighbors(node) for node in graph.nodes}
    )
