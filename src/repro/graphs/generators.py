"""Deterministic graph generators.

Every structured family used by the paper's constructions and by our
experiment suite: lines (the lower-bound workhorse of Lemmas 4, 5, 13, 14),
rings, stars and cliques (the extremes of the μ₂ measure), grids
(Figure 2), the wheel ``F_k`` with subdivided spokes (Figure 1), forests of
short paths (the Section 10 Luby workload), and caterpillars.

All generators assign sequential identifiers ``1..n`` by default; use
:mod:`repro.graphs.identifiers` to reassign identifiers afterwards.  Each
one lists its edges as index arrays and builds its rows with
:meth:`~repro.graphs.csr.CSRTopology.from_edges`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.graphs.csr import CSRTopology
from repro.graphs.graph import DistGraph

_NO_EDGES = np.zeros(0, dtype=np.int64)


def _numbered(
    n: int,
    lo: np.ndarray,
    hi: np.ndarray,
    name: str,
    attrs: Optional[Mapping[int, Mapping[str, Any]]] = None,
) -> DistGraph:
    """The graph on ids ``1..n`` whose edges join indices ``lo[k]`` and
    ``hi[k]`` (index ``i`` is id ``i + 1``)."""
    ids = tuple(range(1, n + 1))
    return DistGraph._from_csr(CSRTopology.from_edges(ids, lo, hi), None, attrs, name)


def empty_graph(n: int, name: str = "") -> DistGraph:
    """``n`` isolated nodes with ids ``1..n``."""
    return _numbered(n, _NO_EDGES, _NO_EDGES, name or f"empty-{n}")


def line(n: int) -> DistGraph:
    """A path (the paper's "line") on ``n`` nodes: 1 - 2 - ... - n."""
    index = np.arange(max(n - 1, 0))
    return _numbered(n, index, index + 1, f"line-{n}")


def ring(n: int) -> DistGraph:
    """A cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    index = np.arange(n)
    return _numbered(n, index, (index + 1) % n, f"ring-{n}")


def star(n: int) -> DistGraph:
    """A star: node 1 is the center, nodes ``2..n`` are leaves.

    Stars witness τ(G) = 1, making μ₂ far smaller than μ₁ (Section 5).
    """
    if n < 1:
        raise ValueError("a star needs at least 1 node")
    return _numbered(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n), f"star-{n}")


def clique(n: int) -> DistGraph:
    """The complete graph on ``n`` nodes.

    Cliques witness α(G) = 1, making μ₂ far smaller than μ₁ (Section 5).
    """
    lo, hi = np.triu_indices(max(n, 0), 1)
    return _numbered(n, lo, hi, f"clique-{n}")


def complete_bipartite(a: int, b: int) -> DistGraph:
    """``K_{a,b}``: left part ``1..a``, right part ``a+1..a+b``."""
    lo = np.repeat(np.arange(a), max(b, 0))
    hi = np.tile(np.arange(a, a + b), max(a, 0))
    return _numbered(a + b, lo, hi, f"K{a},{b}")


def _grid_index(rows: int, cols: int) -> np.ndarray:
    """Indices laid out row-major in a ``rows x cols`` array (empty when
    a dimension is not positive)."""
    shape = (max(rows, 0), max(cols, 0))
    return np.arange(shape[0] * shape[1]).reshape(shape)


def _positions(rows: int, cols: int) -> Dict[int, Dict[str, Tuple[int, int]]]:
    """The ``pos=(i, j)`` attrs of a grid's ids, in id order."""
    return {
        i * cols + j + 1: {"pos": (i, j)} for i in range(rows) for j in range(cols)
    }


def grid2d(rows: int, cols: int) -> DistGraph:
    """A ``rows x cols`` grid; node attrs carry ``pos=(i, j)``.

    Node with coordinates ``(i, j)`` (0-based) has id ``i * cols + j + 1``.
    This is the instance family of Figure 2.
    """
    index = _grid_index(rows, cols)
    lo = np.concatenate((index[:-1, :].ravel(), index[:, :-1].ravel()))
    hi = np.concatenate((index[1:, :].ravel(), index[:, 1:].ravel()))
    return _numbered(
        index.size, lo, hi, f"grid-{rows}x{cols}", _positions(rows, cols)
    )


def wheel_fk(k: int) -> DistGraph:
    """The graph ``F_k`` of Figure 1.

    A wheel with ``k`` nodes on the rim, a center node, and one additional
    node subdividing each spoke: rim node ``i`` connects to rim node
    ``i+1 (mod k)`` and to spoke node ``i``, which connects to the center.
    Total ``2k + 1`` nodes.  ``F_k`` has diameter 4 while the subgraph
    induced by the rim has diameter ``floor(k / 2)`` — the paper's witness
    that component diameter is not a monotone measure.

    Ids: rim nodes ``1..k``, spoke nodes ``k+1..2k``, center ``2k+1``.
    Node attrs carry ``role`` in ``{"rim", "spoke", "center"}``.
    """
    if k < 3:
        raise ValueError("F_k needs at least 3 rim nodes")
    attrs: Dict[int, Dict[str, str]] = {}
    for i in range(1, k + 1):
        attrs[i] = {"role": "rim"}
        attrs[k + i] = {"role": "spoke"}
    attrs[2 * k + 1] = {"role": "center"}
    rim = np.arange(k)
    lo = np.concatenate((rim, rim, rim + k))
    hi = np.concatenate(((rim + 1) % k, rim + k, np.full(k, 2 * k)))
    return _numbered(2 * k + 1, lo, hi, f"F{k}", attrs)


def path_forest(num_paths: int, path_length: int) -> DistGraph:
    """A forest of ``num_paths`` disjoint paths of ``path_length`` nodes.

    The Section 10 workload: many small components, on which Luby's
    algorithm's *maximum* round count over components exceeds the expected
    rounds of any single component.
    """
    index = _grid_index(num_paths, path_length)
    return _numbered(
        index.size,
        index[:, :-1].ravel(),
        index[:, 1:].ravel(),
        f"paths-{num_paths}x{path_length}",
    )


def hypercube(dimension: int) -> DistGraph:
    """The ``dimension``-dimensional hypercube: 2^dim nodes, ids 1-based.

    Node with id ``i`` corresponds to the bit string of ``i - 1``;
    neighbors differ in exactly one bit.  A classic Δ = dimension,
    diameter = dimension benchmark family.
    """
    if dimension < 0:
        raise ValueError("dimension must be non-negative")
    size = 2**dimension
    index = np.arange(size)[:, None]
    flipped = index ^ (1 << np.arange(dimension))[None, :]
    upward = index < flipped
    lo = np.broadcast_to(index, flipped.shape)[upward]
    return _numbered(size, lo, flipped[upward], f"hypercube-{dimension}")


def torus(rows: int, cols: int) -> DistGraph:
    """A ``rows x cols`` torus (grid with wraparound): 4-regular.

    Requires both dimensions ≥ 3 so wrap edges are distinct.  Node attrs
    carry ``pos=(i, j)`` like :func:`grid2d`.
    """
    if rows < 3 or cols < 3:
        raise ValueError("a torus needs both dimensions >= 3")
    index = _grid_index(rows, cols)
    lo = np.concatenate((index.ravel(), index.ravel()))
    hi = np.concatenate(
        (np.roll(index, -1, axis=0).ravel(), np.roll(index, -1, axis=1).ravel())
    )
    return _numbered(
        index.size, lo, hi, f"torus-{rows}x{cols}", _positions(rows, cols)
    )


def complete_kary_tree(arity: int, height: int) -> DistGraph:
    """A complete ``arity``-ary tree of the given height (root id 1).

    An unrooted instance (no parent attributes); for the rooted version
    see :mod:`repro.graphs.rooted_trees`.  Ids follow BFS order, so the
    child at index ``c >= 1`` hangs under index ``(c - 1) // arity``.
    """
    if arity < 1:
        raise ValueError("arity must be at least 1")
    total = level = 1
    for _ in range(height):
        level *= arity
        total += level
    child = np.arange(1, total)
    return _numbered(total, (child - 1) // arity, child, f"karytree-{arity}-h{height}")


def preorder_kary_tree(arity: int, height: int) -> DistGraph:
    """A complete ``arity``-ary tree with DFS-preorder identifiers (root 1).

    Same topology as :func:`complete_kary_tree` (which numbers nodes in
    BFS order) but every node's id is smaller than all ids in its
    subtree, so each subtree occupies one contiguous identifier block.
    Two consequences make this the edge-cut benchmark family:

    * block-partitioning the id space (``shard="edgecut"``) cuts only
      ~``shards * height`` parent edges — the cut is the path from each
      block boundary back to the root, not a constant fraction of ``m``;
    * each parent's id is smaller than its children's, so every leaf is
      a local maximum and greedy symmetry-breaking finishes in
      ~``height`` adjudication waves regardless of ``n``.
    """
    if arity < 1:
        raise ValueError("arity must be at least 1")
    if height < 0:
        raise ValueError("height must be non-negative")
    # Subtree size at each depth: 1 at the leaves, else 1 + arity * below.
    sizes = [1] * (height + 1)
    for depth in range(height - 1, -1, -1):
        sizes[depth] = 1 + arity * sizes[depth + 1]
    # A node's children start right after it, one subtree size apart;
    # expand one depth at a time.
    parents = [_NO_EDGES]
    children = [_NO_EDGES]
    level = np.zeros(1, dtype=np.int64)
    for depth in range(height):
        offsets = 1 + np.arange(arity) * sizes[depth + 1]
        parents.append(np.repeat(level, arity))
        level = (level[:, None] + offsets[None, :]).ravel()
        children.append(level)
    return _numbered(
        sizes[0],
        np.concatenate(parents),
        np.concatenate(children),
        f"preorder-karytree-{arity}-h{height}",
    )


def caterpillar(spine: int, legs_per_node: int) -> DistGraph:
    """A caterpillar: a spine path with ``legs_per_node`` leaves per node.

    Ids: spine is ``1..spine``; leaves follow in spine order.
    """
    count = max(spine, 0)
    legs = max(legs_per_node, 0)
    index = np.arange(count)
    lo = np.concatenate((index[:-1], np.repeat(index, legs)))
    hi = np.concatenate((index[1:], np.arange(count, count + count * legs)))
    return _numbered(
        count + count * legs, lo, hi, f"caterpillar-{spine}x{legs_per_node}"
    )
