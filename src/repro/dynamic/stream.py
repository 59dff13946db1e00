"""Epoch streams: per-epoch insert/delete batches over a DistGraph.

The dynamic model (docs/MODEL.md, "Dynamic model") sees a graph as a
sequence of *epochs*: an initial instance followed by batches of edge
insertions/deletions and node arrivals/departures.  Within an epoch the
graph is static and an algorithm-with-predictions runs to completion on
it; between epochs the previous outputs are carried forward as the next
epoch's predictions (:func:`repro.predictions.carry_predictions`).

Two stream sources implement the protocol: :class:`SyntheticChurnStream`
here (seeded churn schedules built on the same samplers as
``graphs/churn.py``) and the temporal-dataset loader in
:mod:`repro.dynamic.datasets`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Set, Tuple

import numpy as np

from repro.graphs.churn import sample_non_edges
from repro.graphs.csr import CSRTopology
from repro.graphs.graph import DistGraph

Edge = Tuple[int, int]


def _canonical(edges) -> Tuple[Edge, ...]:
    return tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


@dataclass(frozen=True)
class EpochBatch:
    """One epoch's worth of graph updates.

    Edges are canonical ``(min, max)`` pairs.  New nodes arrive in
    ``add_nodes`` with their attachment edges included in
    ``insert_edges``; departing nodes in ``remove_nodes`` take all their
    incident edges with them implicitly (listing those edges in
    ``delete_edges`` is allowed but not required).
    """

    insert_edges: Tuple[Edge, ...] = ()
    delete_edges: Tuple[Edge, ...] = ()
    add_nodes: Tuple[int, ...] = ()
    remove_nodes: Tuple[int, ...] = ()

    @property
    def size(self) -> int:
        """Total number of updates in the batch."""
        return (
            len(self.insert_edges)
            + len(self.delete_edges)
            + len(self.add_nodes)
            + len(self.remove_nodes)
        )


def apply_batch(graph: DistGraph, batch: EpochBatch, name: str = "") -> DistGraph:
    """The graph after one epoch's updates (a fresh :class:`DistGraph`).

    Order of application: node removals (dropping incident edges), edge
    deletions, node additions, edge insertions.  Inserted edges that
    reference a removed or unknown endpoint, and deletions of absent
    edges, are ignored rather than raised — a temporal event stream is
    allowed to be sloppy; the resulting instance is always well formed.
    ``d`` grows to cover added identifiers and never shrinks, so carried
    predictions stay inside the identifier bound.

    The new rows come from the parent's CSR arrays: entries of removed
    nodes and deleted edges (found by edge key) are dropped, inserted
    edges are added, and indices are renumbered when nodes arrive or
    leave; :meth:`CSRTopology.from_edges` sorts the result.  So no
    neighbor set of ``graph`` is built.  Identifiers are still checked
    to be positive.
    """
    csr = graph.csr
    n = csr.n
    index_of = csr.index_of
    removed = {index_of[node] for node in batch.remove_nodes if node in index_of}
    arrivals = sorted(
        node
        for node in {int(node) for node in batch.add_nodes}
        if node not in index_of or index_of[node] in removed
    )
    arrays = csr.arrays
    upward = arrays.higher
    lo = arrays.sources[upward]
    hi = arrays.indices[upward]
    keep = np.ones(lo.size, dtype=bool)
    if removed:
        gone = np.zeros(n, dtype=bool)
        gone[list(removed)] = True
        keep &= ~(gone[lo] | gone[hi])
    deleted = [
        min(index_of[u], index_of[v]) * n + max(index_of[u], index_of[v])
        for u, v in batch.delete_edges
        if u in index_of and v in index_of
    ]
    if deleted:
        keep &= ~np.isin(lo * n + hi, deleted)
    lo = lo[keep]
    hi = hi[keep]
    ids = csr.ids
    new_index = index_of
    if removed or arrivals:
        survivors = [node for index, node in enumerate(ids) if index not in removed]
        ids = tuple(sorted(survivors + arrivals))
        new_index = {node: index for index, node in enumerate(ids)}
        position = np.array(
            [new_index.get(node, -1) for node in csr.ids], dtype=np.int64
        )
        lo = position[lo]
        hi = position[hi]
    lookup = new_index.get
    inserted = [(lookup(u), lookup(v)) for u, v in batch.insert_edges if u != v]
    inserted = [pair for pair in inserted if None not in pair]
    if inserted:
        extra = np.array(inserted, dtype=np.int64)
        lo = np.concatenate((lo, extra[:, 0]))
        hi = np.concatenate((hi, extra[:, 1]))
    attrs = {
        node: mapping
        for node, mapping in graph._attrs.items()
        if mapping and node in index_of and node in new_index
    }
    return DistGraph._from_csr(
        CSRTopology.from_edges(ids, lo, hi),
        d=max(graph.d, ids[-1] if ids else 0),
        attrs=attrs,
        name=name or graph.name,
    )


class EpochStream:
    """Protocol for epoch sources: an initial graph plus update batches.

    Subclasses set :attr:`initial_graph` and :attr:`epochs` and
    implement :meth:`batches`, yielding exactly ``epochs``
    :class:`EpochBatch` objects.  Streams are replayable: every call to
    :meth:`batches` yields the same sequence (all randomness is drawn
    from string-keyed seeds fixed at construction).
    """

    initial_graph: DistGraph
    epochs: int
    name: str = "stream"

    def batches(self) -> Iterator[EpochBatch]:
        raise NotImplementedError


class SyntheticChurnStream(EpochStream):
    """A seeded churn schedule: every epoch applies the same expected
    churn (``add``/``remove`` edges, ``add_nodes``/``remove_nodes``
    nodes) to the evolving graph.

    Each epoch ``t`` draws from ``random.Random(f"{seed}:epoch:{t}")`` —
    the same string-keyed scheme as ``perturb_edges``/``perturb_nodes``,
    so streams reproduce cross-process and cross-version.  Edge
    additions use :func:`repro.graphs.churn.sample_non_edges` and
    therefore deliver exactly the requested count whenever the evolving
    graph has that many non-edges.  Node removal keeps at least one
    survivor (the ``perturb_nodes`` clamp); new nodes attach to
    ``attach_degree`` random survivors.
    """

    def __init__(
        self,
        base_graph: DistGraph,
        epochs: int,
        *,
        add: int = 0,
        remove: int = 0,
        add_nodes: int = 0,
        remove_nodes: int = 0,
        attach_degree: int = 2,
        seed: int = 0,
    ) -> None:
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        self.initial_graph = base_graph
        self.epochs = epochs
        self.add = add
        self.remove = remove
        self.add_nodes = add_nodes
        self.remove_nodes = remove_nodes
        self.attach_degree = attach_degree
        self.seed = seed
        self.name = f"churn[{base_graph.name}+{add}-{remove}e/{add_nodes}-{remove_nodes}n]"

    def batches(self) -> Iterator[EpochBatch]:
        nodes: List[int] = list(self.initial_graph.nodes)
        edges: Set[Edge] = set(self.initial_graph.edges())
        next_id = (max(nodes) if nodes else 0) + 1
        for t in range(1, self.epochs + 1):
            rng = random.Random(f"{self.seed}:epoch:{t}")

            clamp = max(0, len(nodes) - 1)
            departing = sorted(rng.sample(nodes, min(self.remove_nodes, clamp)))
            gone = set(departing)
            survivors = [node for node in nodes if node not in gone]
            surviving_edges = {
                (u, v) for u, v in edges if u not in gone and v not in gone
            }

            deletions = sorted(
                rng.sample(sorted(surviving_edges), min(self.remove, len(surviving_edges)))
            )
            remaining = surviving_edges - set(deletions)

            arrivals = list(range(next_id, next_id + self.add_nodes))
            next_id += self.add_nodes
            attach: List[Edge] = []
            pool = list(survivors)
            for node in arrivals:
                targets = (
                    rng.sample(pool, min(self.attach_degree, len(pool)))
                    if pool
                    else []
                )
                attach.extend((min(node, v), max(node, v)) for v in targets)
                pool.append(node)

            # Additions sample non-edges of the *surviving* node set so
            # the batch never references a departing endpoint; removed
            # edges (this epoch's deletions) are eligible for re-insertion
            # in later epochs but not this one.
            additions = sample_non_edges(
                survivors, remaining | set(deletions), self.add, rng
            )

            yield EpochBatch(
                insert_edges=_canonical(additions + attach),
                delete_edges=_canonical(deletions),
                add_nodes=tuple(arrivals),
                remove_nodes=tuple(departing),
            )

            nodes = survivors + arrivals
            edges = remaining | set(additions) | set(attach)
