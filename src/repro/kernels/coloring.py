"""Whole-frontier kernel for the palette greedy (Δ+1)-coloring.

Array form of :class:`~repro.algorithms.coloring.greedy.
PaletteGreedyColoringProgram`: each round every active local maximum
picks the smallest positive color not output by any neighbor, informs
its active neighbors, outputs the color and terminates.  Same-round
winners are independent, so each winner's palette depends only on
colors fixed in *earlier* rounds — the mex is a dense boolean matrix
(winners × palette width) built in one scatter, chunked to bound peak
memory on high-degree frontiers.

Message widths match the interpreted estimator: an integer color ``c``
costs ``c.bit_length()`` bits (computed for the whole frontier via the
``frexp`` exponent, exact for every color the palette can produce).
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from repro.algorithms.coloring.greedy import PaletteGreedyColoringProgram
from repro.kernels.base import FrontierKernel

#: Upper bound on the scatter matrix (winners × palette width) cells per
#: chunk — 2**24 bool cells is 16 MiB, far below the CSR buffers at the
#: sizes where chunking matters.
_CHUNK_CELLS = 1 << 24


class GreedyColoringKernel(FrontierKernel):
    """Vectorized palette greedy coloring (``greedy-coloring``)."""

    name = "greedy-coloring"
    program_class = PaletteGreedyColoringProgram

    def bind(self, rt: Any) -> None:
        super().bind(rt)
        #: Assigned color per node; 0 while uncolored.  Doubles as the
        #: "terminated neighbor's published output" the palette reads —
        #: winners of a round are independent, so a round only ever sees
        #: colors fixed in strictly earlier rounds, exactly the
        #: ``ctx.neighbor_outputs`` timing of the interpreted engine.
        self.color = np.zeros(self.n, dtype=np.int64)

    def run_round(self, round_index: int) -> int:
        nb_act = self.active_neighbor_flags()
        winners = self.local_maxima(nb_act)
        widx = np.flatnonzero(winners)
        if widx.size == 0:
            return 0
        choice = self._mex(winners, widx)
        palette_size = (self.rt.graph.delta or 0) + 1
        over = choice > palette_size
        if over.any():
            # The interpreted engine processes nodes in ascending id
            # order, so the first offender it reports is the smallest.
            first = int(np.argmax(over))
            raise RuntimeError(
                f"node {int(self.ids[widx[first]])}: palette exhausted "
                f"(choice {int(choice[first])} > {palette_size})"
            )
        act_deg = self.arrays.segment_count(nb_act)
        bits = np.frexp(choice.astype(np.float64))[1].astype(np.int64)
        self.account_varying(
            act_deg[widx], bits, round_index,
            lambda over: self.first_broadcast(widx, over),
        )
        self.color[widx] = choice
        self.retire(widx, round_index)
        return int(widx.size)

    def _mex(self, winners: np.ndarray, widx: np.ndarray) -> np.ndarray:
        """Smallest positive color unused by each winner's neighbors."""
        wdeg = self.deg[widx]
        # mex ≤ deg+1, so colors ≥ width can never block it and the
        # argmax below always finds an unused column within the matrix.
        width = int(wdeg.max()) + 2 if widx.size else 2
        winner_edges = winners[self.arrays.sources]
        seen_colors = self.color[self.nbr[winner_edges]]
        # Compressed row index per winner edge; non-decreasing because
        # CSR edges are grouped by source row.
        rank = np.cumsum(winners) - 1
        rows = rank[self.arrays.sources[winner_edges]]
        choice = np.empty(widx.size, dtype=np.int64)
        rows_per_chunk = max(1, _CHUNK_CELLS // width)
        for lo in range(0, widx.size, rows_per_chunk):
            hi = min(lo + rows_per_chunk, widx.size)
            start, stop = np.searchsorted(rows, (lo, hi))
            used = np.zeros((hi - lo, width), dtype=bool)
            colors = seen_colors[start:stop]
            in_range = (colors > 0) & (colors < width)
            used[rows[start:stop][in_range] - lo, colors[in_range]] = True
            choice[lo:hi] = np.argmax(~used[:, 1:], axis=1) + 1
        return choice

    def output_values(self, done: np.ndarray) -> List[int]:
        return self.color[done].tolist()
