"""Whole-frontier kernel for the Greedy MIS Algorithm (Algorithm 1).

Array form of :class:`~repro.algorithms.mis.greedy.GreedyMISProgram`:
in each odd round every active local-identifier-maximum joins the
independent set, notifies its active neighbors (one JOIN per active
neighbor, 16 bits each under the interpreted estimator), outputs 1 and
terminates; in the following even round every notified node outputs 0
and terminates.  Winners are never adjacent, so the per-round update is
a pure function of the active mask — one ``segment_any`` for the local
maxima, one scatter for the dominated set.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.algorithms.mis.greedy import GreedyMISProgram
from repro.kernels.base import FrontierKernel
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
            act_deg = self.arrays.segment_count(nb_act)
            self.account_uniform(int(act_deg[widx].sum()), self.join_bits)
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
