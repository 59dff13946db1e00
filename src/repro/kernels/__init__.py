"""Compiled forms of per-node programs: whole-frontier kernels and
initialization passes.

The interpreted engine runs one Python ``compose``/``process`` call per
node per round.  For the paper's greedy families that is pure overhead:
each round is a data-parallel function of the active mask and the CSR
adjacency, so it can run as a handful of NumPy array operations over the
whole frontier at once — active-mask bitsets, ``reduceat`` neighbor
aggregation over the ``indptr``/``indices`` buffers, and batched
message/bit accounting that reproduces the interpreted engine's CONGEST
counters bit-for-bit.

One module per algorithm family holds its forms:

* :mod:`repro.kernels.mis` — Greedy MIS (Algorithm 1) and the MIS
  Initialization Algorithm's pass.
* :mod:`repro.kernels.matching` — proposal-based Maximal Matching.
* :mod:`repro.kernels.coloring` — palette greedy (Δ+1)-coloring.

One table maps the *exact* program class a run would execute to its
compiled form — a :class:`~repro.kernels.base.FrontierKernel` subclass,
or an :class:`~repro.kernels.base.InitPass` that decides a template's
initialization by index (:mod:`repro.core.initpass`) — so a form only
ever replaces the per-node program it was verified bit-identical
against (tests/test_vectorized.py and tests/test_initpass.py fuzz that
equivalence); the features a kernel run may use are the ``"kernel"``
row of :mod:`repro.simulator.capabilities`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.kernels.base import EmptyGraphKernel, FrontierKernel, InitPass
from repro.simulator.capabilities import UnsupportedScheduleError

__all__ = [
    "UnsupportedScheduleError",
    "available_kernels",
    "compiled_form",
    "resolve_kernel",
]

_TABLE: Optional[Dict[type, Any]] = None


def _table() -> Dict[type, Any]:
    """Exact program class -> compiled form, built on first use, so that
    importing the runner loads no kernel module."""
    global _TABLE
    if _TABLE is None:
        from repro.algorithms.mis.initialization import MISInitializationProgram
        from repro.kernels.coloring import GreedyColoringKernel
        from repro.kernels.matching import GreedyMatchingKernel
        from repro.kernels.mis import GreedyMISKernel, mis_initialization_pass

        _TABLE = {
            form.program_class: form
            for form in (
                GreedyMISKernel,
                GreedyMatchingKernel,
                GreedyColoringKernel,
                InitPass(MISInitializationProgram, 3, mis_initialization_pass),
            )
        }
    return _TABLE


def compiled_form(program: Any, kind: type) -> Any:
    """The form of ``kind`` (``FrontierKernel`` or ``InitPass``) compiled
    for ``type(program)``, or ``None``, also where its form is the other
    kind.  Matches the exact class (not subclasses): a subclass may
    override ``compose``/``process`` and silently diverge from the
    verified array semantics.
    """
    form = _table().get(type(program))
    return form if isinstance(form, InitPass) == (kind is InitPass) else None


def available_kernels() -> Tuple[str, ...]:
    """Names of the table's kernels, sorted."""
    kernels = [form for form in _table().values() if not isinstance(form, InitPass)]
    return tuple(sorted(kernel.name for kernel in kernels))


def resolve_kernel(programs: Any, nodes: Any) -> Any:
    """The kernel compiled for the run's program family, or raise.

    ``programs`` is the run's program source and ``nodes`` its graph's
    nodes.  Raises :class:`UnsupportedScheduleError` with an actionable
    reason when no kernel in the table runs the program.
    """
    if not callable(programs):
        raise UnsupportedScheduleError(
            "per-node program mappings may mix program types; "
            "schedule='vectorized' needs a program factory (an algorithm)"
        )
    if not nodes:
        return EmptyGraphKernel()
    probe = programs(min(nodes))
    kernel_class = compiled_form(probe, FrontierKernel)
    if kernel_class is None:
        names = ", ".join(available_kernels())
        raise UnsupportedScheduleError(
            f"no vectorized kernel is registered for program "
            f"{type(probe).__name__}; compiled kernels exist for: {names}"
        )
    return kernel_class()
