"""Shared machinery for whole-frontier kernels.

A :class:`FrontierKernel` executes one algorithm family's rounds as
array programs over the run's :class:`~repro.graphs.csr.CSRTopology`
buffers.  The engine's loop, round numbering, stop conditions and result
surface are untouched — the kernel only replaces the per-node
compose/deliver/process/finalize interpretation with whole-frontier
NumPy operations, and keeps the Python-side ``_active`` set in step so
the engine's ``while self._active`` condition still drives the run.

Counter parity is a hard contract, fuzz-checked against the interpreted
engine: ``message_count``, ``total_bits``, ``max_message_bits``,
``bandwidth_violations`` (and strict-CONGEST raising) must come out
bit-identical, so the accounting helpers here mirror
:meth:`repro.simulator.transport.Transport.account` in batch form.

Per-node results are buffered in flat arrays during the run and written
back into the result's termination column and ``result.outputs`` in one
bulk update each, in :meth:`flush` (called from the scheduler's
``finish`` hook): each kernel turns its output array into the Python
values of the terminated nodes at once (:meth:`output_values`), so at
n≈10⁶ neither the round loop nor the write-back calls Python code per
node, and no :class:`~repro.simulator.metrics.NodeRecord` is ever built.
An initialization compiles to an :class:`InitPass` instead.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.graphs.csr import CSRTopology, ensure_topology
from repro.graphs.window import GraphWindow
from repro.simulator.metrics import NodeSnapshot, StuckReport
from repro.simulator.transport import BandwidthExceeded, bandwidth_error


class FrontierKernel:
    """Base class: the topology's array view, batched accounting and
    the bulk result write-back.

    Subclasses set :attr:`name` (what ``result.kernel`` and
    ``repro.schedules()`` call the kernel) and :attr:`program_class` (the
    exact per-node program class the kernel replaces, its key in the
    table of compiled forms, :mod:`repro.kernels`), and implement
    :meth:`run_round`, :meth:`output_values` and :meth:`state_snapshot`.
    """

    name: str = ""
    program_class: Optional[type] = None
    #: Whether the kernel may follow an initialization's pass over the
    #: window it leaves undecided (:mod:`repro.core.initpass`): its
    #: program does nothing at setup and reads only its active
    #: neighbors, so the nodes that terminated before its round 1 are
    #: invisible to it, whatever they output.
    chains: bool = False

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, rt: Any) -> None:
        """Attach the engine (a weak proxy) and the topology's array view.

        Over a :class:`~repro.graphs.window.GraphWindow` the kernel runs
        on the parent's arrays and starts with only the window's nodes
        active: every other node counts as terminated before round 1.
        """
        self.rt = rt
        self.result = rt.result
        self.model = rt.model
        self.fast = rt.fast
        graph = rt.graph
        window = isinstance(graph, GraphWindow)
        csr = ensure_topology(graph.parent if window else graph)
        self.csr = csr
        self.n = csr.n
        arrays = csr.arrays
        #: The topology's :class:`~repro.graphs.csr.CSRArrays`: shared
        #: buffers and the segment reductions over its rows.
        self.arrays = arrays
        #: External node ids by internal index (ascending, so id order
        #: and index order agree — ``is_local_maximum`` comparisons can
        #: use indices directly).
        self.ids = arrays.ids
        #: Neighbor *internal indices*, row-sorted ascending.
        self.nbr = arrays.indices
        self.deg = arrays.degrees
        #: CONGEST budget in bits, or ``None`` under LOCAL: for the ``n``
        #: the nodes know, as the interpreter's transport reads it (a
        #: component shard's view pins its parent's).
        self.bits_budget = self.model.bandwidth_bits(graph.n)
        if window:
            self.active = np.zeros(self.n, dtype=bool)
            self.active[np.searchsorted(self.ids, graph.nodes)] = True
        else:
            self.active = np.ones(self.n, dtype=bool)
        #: Termination round per node, -1 while still running.
        self.term_round = np.full(self.n, -1, dtype=np.int64)
        self._flushed = False

    def active_neighbor_flags(self) -> np.ndarray:
        """Edge mask: the neighbor endpoint is still active."""
        return self.active[self.nbr]

    def local_maxima(self, nb_act: np.ndarray) -> np.ndarray:
        """Active nodes with no active higher-id neighbor.

        Vacuously true for isolated/orphaned active nodes — matching
        :meth:`NodeContext.is_local_maximum`.
        """
        arrays = self.arrays
        return self.active & ~arrays.segment_any(nb_act & arrays.higher)

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------
    def retire(self, idx: np.ndarray, round_index: int) -> None:
        """Mark ``idx`` (internal indices) terminated this round.

        Updates both the kernel's active mask and the engine's
        ``_active`` set — the latter is what the engine's run loop and
        round-limit diagnostics read.
        """
        if idx.size == 0:
            return
        self.term_round[idx] = round_index
        self.active[idx] = False
        self.rt._active.difference_update(self.ids[idx].tolist())

    # ------------------------------------------------------------------
    # Batched message accounting (Transport.account, vectorized)
    # ------------------------------------------------------------------
    def account_uniform(
        self, count: int, bits: int, round_index: int,
        first: Callable[[], Tuple[int, int]],
    ) -> None:
        """Charge ``count`` messages of identical ``bits`` width.

        ``first()`` names the first of them in compose order as ``(sender,
        receiver)`` internal indices, for a strict-CONGEST violation.
        """
        count = int(count)
        if count == 0:
            return
        result = self.result
        result.message_count += count
        if self.fast:
            return
        result.total_bits += count * bits
        if bits > result.max_message_bits:
            result.max_message_bits = bits
        if self.bits_budget is not None and bits > self.bits_budget:
            result.bandwidth_violations += count
            if self.model.strict:
                raise self._over_budget(bits, round_index, first())

    def account_varying(
        self, counts: np.ndarray, bits: np.ndarray, round_index: int,
        first: Callable[[np.ndarray], Tuple[int, int]],
    ) -> None:
        """Charge ``counts[i]`` messages of ``bits[i]`` width each.

        Batches are in compose order; ``first(over)`` names the first
        message of the first batch that ``over`` marks, as for
        :meth:`account_uniform`.
        """
        total = int(counts.sum())
        if total == 0:
            return
        result = self.result
        result.message_count += total
        if self.fast:
            return
        result.total_bits += int((counts * bits).sum())
        sent = counts > 0
        if sent.any():
            widest = int(bits[sent].max())
            if widest > result.max_message_bits:
                result.max_message_bits = widest
            if self.bits_budget is not None and widest > self.bits_budget:
                over = sent & (bits > self.bits_budget)
                result.bandwidth_violations += int(counts[over].sum())
                if self.model.strict:
                    width = int(bits[np.argmax(over)])
                    raise self._over_budget(width, round_index, first(over))

    def _over_budget(
        self, bits: int, round_index: int, message: Tuple[int, int]
    ) -> BandwidthExceeded:
        """The interpreter's strict-CONGEST error for one message."""
        sender, receiver = self.ids[list(message)].tolist()
        return bandwidth_error(
            bits, self.bits_budget, sender, receiver, round_index
        )

    def first_broadcast(
        self, senders: np.ndarray, sending: np.ndarray,
        skip: Optional[np.ndarray] = None,
    ) -> Tuple[int, int]:
        """The first message, as ``(sender, receiver)`` internal indices,
        of a round in which ``senders`` (ascending) each message their
        active neighbors but ``skip[sender]``.

        The sender is the first one ``sending`` marks (a positive count,
        or ``True``); the receiver is the first of its active neighbors
        in the interpreter's outbox order.  ``NodeContext.active_neighbors``
        copies the neighbor frozenset into a set and discards departed
        nodes, so that order is the copy's, not the frozenset's.
        """
        sender = int(senders[np.argmax(sending > 0)])
        avoid = -1 if skip is None else skip[sender]
        index_of, active = self.csr.index_of, self.active
        neighbors = set(self.rt.graph.neighbors(int(self.ids[sender])))
        receivers = map(index_of.__getitem__, neighbors)
        return sender, next(
            receiver for receiver in receivers
            if active[receiver] and receiver != avoid
        )

    # ------------------------------------------------------------------
    # Family hooks
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Round 0: the programs' ``setup`` phase (default: no-op)."""

    def run_round(self, round_index: int) -> int:
        """Execute one whole-frontier round; return nodes that acted."""
        raise NotImplementedError

    def output_values(self, done: np.ndarray) -> List[Any]:
        """Final outputs of the terminated nodes ``done`` (internal
        indices, ascending), as the Python values the interpreted
        programs output."""
        raise NotImplementedError

    def state_snapshot(self, index: int) -> Dict[str, str]:
        """Repr-ized program state of a live node, for stuck reports."""
        return {}

    # ------------------------------------------------------------------
    # Result write-back
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write buffered terminations into the engine's result record.

        Idempotent; called from the scheduler's ``finish`` hook after
        the round loop, and again defensively from stuck-report paths.
        """
        if self._flushed:
            return
        self._flushed = True
        result = self.result
        result.kernel = self.name
        done = np.flatnonzero(self.term_round >= 0)
        node_ids = self.ids[done].tolist()
        result.records.termination_rounds.update(
            zip(node_ids, self.term_round[done].tolist())
        )
        result.outputs.update(zip(node_ids, self.output_values(done)))

    def stuck_report(self, round_index: int, reason: str) -> StuckReport:
        """Diagnose a cut-short run from the kernel's arrays."""
        self.flush()
        live: List[int] = sorted(self.rt._active)
        index_of = self.csr.index_of
        snapshots = {
            node: NodeSnapshot(
                node_id=node,
                round=round_index,
                last_inbox={},
                state=self.state_snapshot(index_of[node]),
                has_output=False,
            )
            for node in live
        }
        return StuckReport(
            round=round_index,
            live_nodes=live,
            total_nodes=self.n,
            snapshots=snapshots,
            reason=reason,
        )


class EmptyGraphKernel(FrontierKernel):
    """Degenerate kernel for zero-node graphs (nothing to schedule)."""

    name = "empty"
    program_class = None

    def run_round(self, round_index: int) -> int:  # pragma: no cover
        return 0

    def output_values(self, done: np.ndarray) -> List[Any]:
        return []


class Decided(NamedTuple):
    """What an initialization decides, by CSR index.

    Attributes:
        rounds: Per index, the round the node terminates in, or 0 for a
            node the initialization leaves undecided.
        outputs: Per index, a decided node's output.
        broadcasts: Round -> ``{sender index: payload}`` (ascending
            senders): every message B sends, by decided and undecided
            nodes alike, each sent to all of its sender's neighbors, all
            of them still active that round.
    """

    rounds: bytearray
    outputs: List[Any]
    broadcasts: Dict[int, Dict[int, Any]]


class InitPass(NamedTuple):
    """An initialization's compiled form: ``decide(csr, predictions)``
    restates ``program_class`` over the whole graph by CSR index, and its
    decided nodes terminate within ``rounds`` (a template whose first
    slice is shorter keeps the full interpreted path)."""

    program_class: type
    rounds: int
    decide: Callable[[CSRTopology, Mapping[int, Any]], Decided]
