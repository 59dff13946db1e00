"""Compiled forms of the MIS programs: Greedy MIS and its initialization.

:class:`GreedyMISKernel` is the array form of
:class:`~repro.algorithms.mis.greedy.GreedyMISProgram` (Algorithm 1):
in each odd round every active local-identifier-maximum joins the
independent set, notifies its active neighbors (one JOIN per active
neighbor, 16 bits each under the interpreted estimator), outputs 1 and
terminates; in the following even round every notified node outputs 0
and terminates.  Winners are never adjacent, so the per-round update is
a pure function of the active mask — one ``segment_any`` for the local
maxima, one scatter for the dominated set.  :func:`mis_initialization_pass`
is the Section 4 initialization by index.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

import numpy as np

from repro.algorithms.mis.greedy import GreedyMISProgram
from repro.algorithms.mis.initialization import MISInitializationProgram
from repro.graphs.csr import CSRTopology
from repro.kernels.base import Decided, FrontierKernel
from repro.simulator.message import estimate_bits


class GreedyMISKernel(FrontierKernel):
    """Vectorized Algorithm 1 (template name ``greedy-mis``)."""

    name = "greedy-mis"
    program_class = GreedyMISProgram
    chains = True

    def bind(self, rt: Any) -> None:
        super().bind(rt)
        self.join_bits = estimate_bits(GreedyMISProgram.JOIN)
        self.dominated = np.zeros(self.n, dtype=bool)
        self.in_set = np.zeros(self.n, dtype=bool)

    def run_round(self, round_index: int) -> int:
        active = self.active
        if round_index % 2 == 1:
            nb_act = self.active_neighbor_flags()
            winners = self.local_maxima(nb_act)
            widx = np.flatnonzero(winners)
            if widx.size == 0:
                return 0
            counts = self.arrays.segment_count(nb_act)[widx]
            self.account_uniform(
                int(counts.sum()), self.join_bits, round_index,
                lambda: self.first_broadcast(widx, counts),
            )
            # Every active node adjacent to a winner received a JOIN this
            # round; winners themselves cannot (winners are independent).
            hit = active & self.arrays.segment_any(winners[self.nbr])
            np.logical_or(self.dominated, hit, out=self.dominated)
            self.in_set[widx] = True
            self.retire(widx, round_index)
            return int(widx.size + hit.sum())
        out = np.flatnonzero(active & self.dominated)
        self.retire(out, round_index)
        return int(out.size)

    def output_values(self, done: np.ndarray) -> List[int]:
        return self.in_set[done].astype(np.int64).tolist()

    def state_snapshot(self, index: int) -> Dict[str, str]:
        return {"_dominated": repr(bool(self.dominated[index]))}


def mis_initialization_pass(
    csr: CSRTopology, predictions: Mapping[int, Any]
) -> Decided:
    """:class:`MISInitializationProgram` over every node at once, by CSR
    index.

    In round 1 every node sends its prediction to every neighbor; a node
    predicted 1 whose neighbors predicted 1 all have smaller identifiers
    joins ``I`` (indices ascend with identifiers).  In round 2 the nodes
    of ``I`` send ``"in"`` to every neighbor, output 1 and terminate; in
    round 3 their neighbors output 0 and terminate.  With no node
    predicted 1, no node is decided.
    """
    indptr = csr.indptr
    indices = csr.indices
    values = list(map(predictions.get, csr.ids))
    ones = [index for index, value in enumerate(values) if value == 1]
    predicted = bytearray(csr.n)
    for index in ones:
        predicted[index] = 1
    joined = []
    for index in ones:
        # Rows ascend: scan down from the top to the first neighbor below
        # ``index``; only a neighbor above it predicted 1 blocks it.
        for position in range(indptr[index + 1] - 1, indptr[index] - 1, -1):
            other = indices[position]
            if other < index:
                joined.append(index)
                break
            if predicted[other]:
                break
        else:
            joined.append(index)
    rounds = bytearray(csr.n)
    outputs: List[Any] = [None] * csr.n
    join = MISInitializationProgram.JOIN
    for index in joined:
        rounds[index] = 2
        outputs[index] = 1
    for index in joined:
        for position in range(indptr[index], indptr[index + 1]):
            other = indices[position]
            if not rounds[other]:
                rounds[other] = 3
                outputs[other] = 0
    broadcasts = {1: dict(enumerate(values)), 2: dict.fromkeys(joined, join)}
    return Decided(rounds, outputs, broadcasts)
