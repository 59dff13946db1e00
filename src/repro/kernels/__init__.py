"""Whole-frontier vectorized kernels for ``schedule="vectorized"``.

The interpreted engine runs one Python ``compose``/``process`` call per
node per round.  For the paper's greedy families that is pure overhead:
each round is a data-parallel function of the active mask and the CSR
adjacency, so it can run as a handful of NumPy array operations over the
whole frontier at once — active-mask bitsets, ``reduceat`` neighbor
aggregation over the ``indptr``/``indices`` buffers, and batched
message/bit accounting that reproduces the interpreted engine's CONGEST
counters bit-for-bit.

One kernel per algorithm family lives in its own module:

* :mod:`repro.kernels.mis` — Greedy MIS (Algorithm 1).
* :mod:`repro.kernels.matching` — proposal-based Maximal Matching.
* :mod:`repro.kernels.coloring` — palette greedy (Δ+1)-coloring.

The registry is keyed by the template (algorithm) name; resolution
matches the *program class* a run would execute, so a kernel only ever
replaces the exact per-node program it was verified bit-identical
against (tests/test_vectorized.py fuzzes that equivalence).  Anything
else — unregistered programs, fault plans, event sinks, per-node program
mappings — fails the capability handshake with
:class:`UnsupportedScheduleError`, or falls back to the interpreted
quiescent schedule when the run asks for ``fallback="interpret"``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

__all__ = [
    "KERNELS",
    "UnsupportedScheduleError",
    "available_kernels",
    "kernel_for_program",
    "numpy_available",
    "resolve_kernel",
]


class UnsupportedScheduleError(RuntimeError):
    """``schedule="vectorized"`` cannot execute this run.

    Raised by the kernel-capability handshake when no compiled kernel
    matches the run's program family, when numpy is unavailable, or when
    the run uses features only the interpreted engine implements (fault
    injection, event sinks, traces, per-node program mappings).  Pass
    ``fallback="interpret"`` to downgrade the error to a warning and run
    the interpreted quiescent schedule instead.
    """


def numpy_available() -> bool:
    """Whether the numpy runtime the kernels compile against is present."""
    try:
        import numpy  # noqa: F401
    except ImportError:  # pragma: no cover - numpy is a declared dep
        return False
    return True


_REGISTRY: Optional[Dict[str, type]] = None


def _registry() -> Dict[str, type]:
    """Template name -> kernel class, loaded lazily (numpy-gated)."""
    global _REGISTRY
    if _REGISTRY is None:
        from repro.kernels.coloring import GreedyColoringKernel
        from repro.kernels.matching import GreedyMatchingKernel
        from repro.kernels.mis import GreedyMISKernel

        _REGISTRY = {
            kernel.name: kernel
            for kernel in (
                GreedyMISKernel,
                GreedyMatchingKernel,
                GreedyColoringKernel,
            )
        }
    return _REGISTRY


def KERNELS() -> Dict[str, type]:
    """The kernel registry (template name -> kernel class)."""
    return dict(_registry())


def available_kernels() -> Tuple[str, ...]:
    """Names of the registered kernels, ``()`` when numpy is missing."""
    if not numpy_available():  # pragma: no cover - numpy is a declared dep
        return ()
    return tuple(sorted(_registry()))


def kernel_for_program(program: Any) -> Optional[type]:
    """The kernel class compiled for ``type(program)``, or ``None``.

    Matches the exact class (not subclasses): a subclass may override
    ``compose``/``process`` and silently diverge from the verified
    array semantics.
    """
    for kernel in _registry().values():
        if kernel.program_class is type(program):
            return kernel
    return None


def resolve_kernel(rt: Any, programs: Any) -> Any:
    """Capability handshake: return a bound-ready kernel or raise.

    ``rt`` is the engine mid-construction (graph/model/faults/obs wired,
    per-node state not yet built); ``programs`` is the run's program
    source.  Raises :class:`UnsupportedScheduleError` with an actionable
    reason when the run cannot be vectorized.
    """
    if not numpy_available():  # pragma: no cover - numpy is a declared dep
        raise UnsupportedScheduleError(
            "schedule='vectorized' requires numpy, which is not importable"
        )
    if rt.interposer is not None:
        raise UnsupportedScheduleError(
            "fault injection (faults=) is interpreted-only; "
            "vectorized kernels have no per-message fault surface"
        )
    if getattr(rt.graph, "is_edgecut", False):
        raise UnsupportedScheduleError(
            "edge-cut shards are interpreted-only: compiled kernels index "
            "dense whole-graph arrays and have no boundary exchange; use "
            "schedule='eager'/'quiescent' or fallback='interpret'"
        )
    if rt.obs:
        raise UnsupportedScheduleError(
            "event sinks and traces observe per-node phases the vectorized "
            "kernels do not execute; drop sinks=/trace= or use an "
            "interpreted schedule"
        )
    if not callable(programs):
        raise UnsupportedScheduleError(
            "per-node program mappings may mix program types; "
            "schedule='vectorized' needs a program factory (an algorithm)"
        )
    nodes = rt.graph.nodes
    if not nodes:
        from repro.kernels.base import EmptyGraphKernel

        return EmptyGraphKernel()
    probe = programs(min(nodes))
    kernel_class = kernel_for_program(probe)
    if kernel_class is None:
        names = ", ".join(sorted(_registry()))
        raise UnsupportedScheduleError(
            f"no vectorized kernel is registered for program "
            f"{type(probe).__name__}; compiled kernels exist for: {names}"
        )
    return kernel_class()
