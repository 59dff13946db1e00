"""Whole-frontier kernel for the proposal-based Maximal Matching.

Array form of
:class:`~repro.algorithms.matching.greedy.GreedyMatchingProgram`.
Rounds come in groups of three:

* **step 0** — every active local maximum with an active neighbor
  proposes to its smallest active neighbor (``minimum.reduceat``); each
  proposee keeps its largest proposer (``np.maximum.at``).
* **step 1** — proposees ACCEPT their kept proposer; a proposer binds
  exactly when its own proposee kept it (an ACCEPT can only come from
  the node it proposed to, so ``partner[proposed_to[a]] == a`` is the
  whole acceptance condition), guarded by the proposal's round stamp
  like the interpreted program.
* **step 2** — matched nodes inform their active neighbors except the
  partner, output the match and terminate; an unmatched node whose
  active neighbors all matched this group (vacuously: none) outputs
  ``UNMATCHED`` and terminates.

Message widths reproduce the interpreted estimator exactly: PROPOSE and
MATCHED are 56-bit string payloads, ACCEPT is 48 bits.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.algorithms.matching.greedy import GreedyMatchingProgram
from repro.kernels.base import FrontierKernel
from repro.problems.matching import UNMATCHED
from repro.simulator.message import estimate_bits


class GreedyMatchingKernel(FrontierKernel):
    """Vectorized 3-round matching groups (``greedy-matching``)."""

    name = "greedy-matching"
    program_class = GreedyMatchingProgram

    def bind(self, rt: Any) -> None:
        super().bind(rt)
        self.propose_bits = estimate_bits(GreedyMatchingProgram.PROPOSE)
        self.accept_bits = estimate_bits(GreedyMatchingProgram.ACCEPT)
        self.matched_bits = estimate_bits(GreedyMatchingProgram.MATCHED)
        #: Matched partner (internal index), -1 while unmatched.
        self.partner = np.full(self.n, -1, dtype=np.int64)
        self.proposed_to = np.full(self.n, -1, dtype=np.int64)
        self.proposed_round = np.full(self.n, -1, dtype=np.int64)

    def setup(self) -> None:
        # Nodes with no neighbors at all output UNMATCHED in round 0.
        self.retire(np.flatnonzero(self.deg == 0), 0)

    def run_round(self, round_index: int) -> int:
        step = (round_index - 1) % 3
        if step == 0:
            return self._propose(round_index)
        if step == 1:
            return self._accept(round_index)
        return self._inform(round_index)

    def _propose(self, round_index: int) -> int:
        nb_act = self.active_neighbor_flags()
        act_deg = self.arrays.segment_count(nb_act)
        proposers = self.local_maxima(nb_act) & (act_deg > 0)
        pidx = np.flatnonzero(proposers)
        if pidx.size == 0:
            return 0
        nb_or_sentinel = np.where(nb_act, self.nbr, self.n)
        min_active_nb = self.arrays.segment_min(nb_or_sentinel, self.n)
        targets = min_active_nb[pidx]
        self.proposed_to[pidx] = targets
        self.proposed_round[pidx] = round_index
        self.account_uniform(
            int(pidx.size), self.propose_bits, round_index,
            lambda: (int(pidx[0]), int(targets[0])),
        )
        # Each proposee keeps its largest proposer.  Proposees are never
        # proposers (they have a larger active neighbor), and every
        # active node enters step 0 with partner == -1, so the scatter
        # cannot clobber a live pairing.
        np.maximum.at(self.partner, targets, pidx)
        return int(pidx.size + np.unique(targets).size)

    def _accept(self, round_index: int) -> int:
        # Exactly the proposees hold a partner at the top of step 1.
        senders = np.flatnonzero(self.active & (self.partner >= 0))
        if senders.size == 0:
            return 0
        self.account_uniform(
            int(senders.size), self.accept_bits, round_index,
            lambda: (int(senders[0]), int(self.partner[senders[0]])),
        )
        stamped = np.flatnonzero(
            self.active & (self.proposed_round == round_index - 1)
        )
        kept = self.partner[self.proposed_to[stamped]] == stamped
        winners = stamped[kept]
        self.partner[winners] = self.proposed_to[winners]
        return int(senders.size + winners.size)

    def _inform(self, round_index: int) -> int:
        active = self.active
        matched = active & (self.partner >= 0)
        midx = np.flatnonzero(matched)
        nb_act = self.active_neighbor_flags()
        if midx.size:
            # MATCHED goes to every active neighbor except the partner,
            # who is itself matched and active this round.
            counts = self.arrays.segment_count(nb_act)[midx] - 1
            self.account_uniform(
                int(counts.sum()), self.matched_bits, round_index,
                lambda: self.first_broadcast(midx, counts, skip=self.partner),
            )
        # An unmatched node terminates when every active neighbor matched
        # this group (vacuously true once its neighborhood emptied).
        has_unmatched_nb = self.arrays.segment_any(nb_act & ~matched[self.nbr])
        finishers = np.flatnonzero(
            active & (self.partner < 0) & ~has_unmatched_nb
        )
        self.retire(midx, round_index)
        self.retire(finishers, round_index)
        return int(midx.size + finishers.size)

    def output_values(self, done: np.ndarray) -> List[Any]:
        partners = self.partner[done]
        values = self.ids[partners].tolist()
        for position in np.flatnonzero(partners < 0).tolist():
            values[position] = UNMATCHED
        return values

    def state_snapshot(self, index: int) -> Dict[str, str]:
        def id_or_none(value: int) -> str:
            return repr(int(self.ids[value])) if value >= 0 else repr(None)

        stamp = self.proposed_round[index]
        return {
            "_proposed_to": id_or_none(self.proposed_to[index]),
            "_proposed_round": repr(int(stamp)) if stamp >= 0 else repr(None),
            "_partner": id_or_none(self.partner[index]),
        }
