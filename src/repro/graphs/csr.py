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
* **One array view.**  :attr:`CSRTopology.arrays` is a
  :class:`CSRArrays`: the buffers as NumPy arrays plus the segment
  reductions every array program over the rows uses (the compiled
  kernels, the validators, the base passes and the component labels).
  It is built on first use, never pickled, and dropped with
  :meth:`CSRTopology.drop_arrays` before a shared-memory segment under
  the buffers is released.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

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

    Build via :meth:`from_edges` (index pairs, as the generators and
    derived graphs produce them) or :meth:`from_adjacency` (hand-written
    input, validated); consumers usually get one from
    :attr:`repro.graphs.graph.DistGraph.csr`.

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
        "_arrays",
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
        self._arrays: Optional[CSRArrays] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, ids: Tuple[int, ...], lo: np.ndarray, hi: np.ndarray
    ) -> "CSRTopology":
        """Build from edges given as index pairs into ``ids``.

        ``ids`` ascends; edge ``k`` joins internal indices ``lo[k]`` and
        ``hi[k]`` (int64 arrays or ``array('q')`` buffers of equal length,
        no self-loops).  An edge
        may be listed once or twice, in either orientation; duplicates
        collapse.  This is the one place where rows are sorted: each
        orientation of each edge becomes the key ``row * n + neighbor``,
        one sort of the keys orders every row, repeats are dropped, and
        the row lengths are counted into ``indptr``.  The id→index table
        is built lazily.
        """
        n = len(ids)
        lo = np.asarray(lo, dtype=np.int64)
        hi = np.asarray(hi, dtype=np.int64)
        keys = np.sort(np.concatenate((lo * n + hi, hi * n + lo)))
        if keys.size:
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        sources = keys // max(n, 1)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=n), out=indptr[1:])
        indices = keys - sources * n
        return cls(ids, array("q", indptr.tobytes()), array("q", indices.tobytes()))

    @classmethod
    def from_adjacency(
        cls, adjacency: Mapping[int, Iterable[int]]
    ) -> "CSRTopology":
        """Build from hand-written ``id -> iterable of neighbor ids`` input.

        An edge may be listed at either end or at both.  Identifiers are
        interned in ascending order and every listed neighbor is checked
        to be another listed node; the first offender in iteration order
        raises ``ValueError``.  The index pairs go to :meth:`from_edges`.
        """
        ids = tuple(sorted({int(node) for node in adjacency}))
        index_of = {node: index for index, node in enumerate(ids)}
        lookup = index_of.get
        lo = array("q")
        hi = array("q")
        for node, neighbors in adjacency.items():
            node = int(node)
            source = index_of[node]
            listed = list(neighbors)
            try:
                row = [lookup(int(other), -1) for other in listed]
            except (TypeError, ValueError, OverflowError):
                row = [-1]
            if -1 in row or source in row:
                # Raise what checking one neighbor at a time meets first.
                for other in map(int, listed):
                    if other == node:
                        raise ValueError(f"self-loop at node {node}")
                    if other not in index_of:
                        raise ValueError(
                            f"edge ({node}, {other}) references unknown node {other}"
                        )
            lo.extend([source] * len(row))
            hi.extend(row)
        topology = cls.from_edges(ids, lo, hi)
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
            degrees = np.diff(np.frombuffer(self.indptr, dtype=np.int64))
            self._max_degree = int(degrees.max()) if self.n else 0
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

    # ------------------------------------------------------------------
    # The array view and the components it labels
    # ------------------------------------------------------------------
    @property
    def arrays(self) -> "CSRArrays":
        """The NumPy view of the buffers (built on first use, cached)."""
        arrays = self._arrays
        if arrays is None:
            arrays = self._arrays = CSRArrays(self)
        return arrays

    def drop_arrays(self) -> None:
        """Forget the array view, whose arrays export the buffers.

        A buffer over a shared-memory segment cannot be released while
        an export is alive, so the store calls this before it detaches.
        """
        self._arrays = None

    def _inside(self, mask: Sequence[int]) -> np.ndarray:
        if len(mask) != self.n:
            raise ValueError(f"mask has {len(mask)} entries for {self.n} nodes")
        return np.asarray(mask, dtype=bool)

    def components(
        self, mask: Optional[Sequence[int]] = None
    ) -> Tuple[Tuple[int, ...], ...]:
        """Connected components as tuples of internal *indices*.

        Each component's indices ascend, and components are ordered by
        their smallest index — which, because identifiers ascend with
        indices, is also ascending-min-identifier order.

        With ``mask`` (one entry per index, e.g. a ``bytearray`` of 0/1
        flags or a boolean array), the components of the subgraph induced
        by the indices whose entry is nonzero: the same answer, indices for
        identifiers, as ``subgraph(...).components()`` without building the
        subgraph.  Only the unmasked answer is cached (the shard planner
        asks per shard task; workers that attach the same shared topology
        share it).
        """
        if mask is None and self._components is not None:
            return self._components
        if mask is None:
            members = np.arange(self.n, dtype=np.int64)
            labels = self.arrays.component_labels()
        else:
            inside = self._inside(mask)
            members = np.flatnonzero(inside)
            labels = self.arrays.component_labels(inside)[members]
        # Labels are smallest member indices: a stable sort by label
        # groups each component, ascending inside, in min-index order.
        order = np.argsort(labels, kind="stable")
        labels = labels[order]
        flat = members[order].tolist()
        cuts = [0, *(np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()]
        cuts.append(len(flat))
        parts = tuple(tuple(flat[lo:hi]) for lo, hi in zip(cuts, cuts[1:]) if hi > lo)
        if mask is None:
            self._components = parts
        return parts

    def largest_component(self, mask: Sequence[int]) -> int:
        """Size of the largest component under ``mask`` (0 when empty),
        read off the component labels without building any tuple."""
        inside = self._inside(mask)
        if not inside.any():
            return 0
        labels = self.arrays.component_labels(inside)[inside]
        return int(np.bincount(labels).max())

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
        self._arrays = None

    def __reduce__(self):
        reducer = _SHARED_REDUCER
        if reducer is not None:
            reduced = reducer(self)
            if reduced is not None:
                return reduced
        return (_rebuild_csr, self.__getstate__())

    def __repr__(self) -> str:
        return f"<CSRTopology n={self.n} m={self.m}>"


class CSRArrays:
    """The NumPy view of one :class:`CSRTopology`.

    ``indptr`` and ``indices`` are zero-copy int64 views of the
    topology's buffers; the rest is derived once, when the view is built.

    Attributes:
        n: Number of nodes.
        indptr: Row pointers, length ``n + 1``.
        indices: Neighbor index of every entry, rows ascending.
        degrees: Degree per index.
        sources: Source row (the node) of every entry.
        higher: Per entry, whether the neighbor has the larger index.
        ids: Identifier per index (int64; object dtype for identifiers
            past int64).
    """

    __slots__ = (
        "n",
        "indptr",
        "indices",
        "degrees",
        "sources",
        "higher",
        "ids",
    )

    def __init__(self, csr: CSRTopology) -> None:
        n = csr.n
        self.n = n
        self.indptr = np.frombuffer(csr.indptr, dtype=np.int64)
        self.indices = np.frombuffer(csr.indices, dtype=np.int64)
        self.degrees = np.diff(self.indptr)
        self.sources = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
        self.higher = self.indices > self.sources
        try:
            self.ids = np.array(csr.ids, dtype=np.int64)
        except OverflowError:
            self.ids = np.array(csr.ids, dtype=object)

    # ------------------------------------------------------------------
    # Segment reductions over the rows
    # ------------------------------------------------------------------
    def segment_any(self, entry_flags: np.ndarray) -> np.ndarray:
        """Per-node OR of a boolean entry array (False for empty rows)."""
        out = np.zeros(self.n, dtype=bool)
        out[self.sources[entry_flags]] = True
        return out

    def segment_count(self, entry_flags: np.ndarray) -> np.ndarray:
        """Per-node count of set flags in a boolean entry array."""
        return np.bincount(self.sources[entry_flags], minlength=self.n)

    def segment_min(self, entry_values: np.ndarray, default: int) -> np.ndarray:
        """Per-node minimum of an integer entry array, where ``default``
        is at least every entry (``default`` for an empty row)."""
        out = np.full(self.n, default, dtype=np.int64)
        np.minimum.at(out, self.sources, entry_values)
        return out

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    def component_labels(self, inside: Optional[np.ndarray] = None) -> np.ndarray:
        """Per index, the smallest index of its component.

        With ``inside`` (a boolean array), the components of the subgraph
        induced by the indices it flags; other indices keep their own
        index as label.  Hook and shortcut: every edge whose endpoints
        carry different labels hooks the larger label's root under the
        smaller one, then pointer jumping makes every label a root again.
        Labels only ever decrease, so no cycle can form and each root is
        its component's smallest index.
        """
        labels = np.arange(self.n, dtype=np.int64)
        keep = self.higher
        if inside is not None:
            keep = keep & inside[self.sources] & inside[self.indices]
        lo = self.sources[keep]
        hi = self.indices[keep]
        while lo.size:
            left = labels[lo]
            right = labels[hi]
            live = left != right
            if not live.any():
                break
            lo = lo[live]
            hi = hi[live]
            left = left[live]
            right = right[live]
            np.minimum.at(labels, np.maximum(left, right), np.minimum(left, right))
            while True:
                jumped = labels[labels]
                if np.array_equal(jumped, labels):
                    break
                labels = jumped
        return labels


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
