"""Which execution path reproduces which runs: one table, one check.

The rows are an engine's ``"interpreter"`` and compiled ``"kernel"``,
the init ``"window"`` that ``run()`` takes by itself where it can, and a
sweep cell's ``"edgecut"`` and ``"components"`` shards.  Every layer
asks :func:`require`; program families stay with the kernel and pass
registries.  ``fallback="interpret"`` is the only downgrade, and
``share_graph`` (what a process pool ships) is accepted everywhere.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from typing import Any, Dict, NamedTuple, Optional, Tuple


class UnsupportedScheduleError(RuntimeError, ValueError):
    """An execution path cannot reproduce the requested run; raised
    before round 1, when a policy, an engine or a sweep starts."""


#: The features a row may accept, as a refusal names them.
FEATURES = {
    "faults": "fault plans (faults=)",
    "sinks": "event sinks or traces (sinks=/trace=)",
    "profile": "round profiles (profile=)",
    "deadline": "deadlines (deadline_s=)",
    "metrics": "sweep metrics (metrics=)",
}

_SYNC = ("eager", "quiescent", "quiescent-debug")


class Row(NamedTuple):
    """One row: what a path reproduces, and why it refuses the rest."""

    schedules: Tuple[str, ...]
    features: Tuple[str, ...]
    why: str = ""
    automatic: bool = False  # run() takes it by itself where it can
    shard: bool = False  # an ExecutionPolicy shard= mode


PATHS: Dict[str, Row] = {
    "interpreter": Row(_SYNC + ("async",), tuple(FEATURES)),
    "kernel": Row(
        ("vectorized",),
        ("profile", "deadline", "metrics"),
        "compiled kernels have no per-message fault surface and no per-node "
        "events",
    ),
    "window": Row(
        ("eager", "quiescent"),
        ("profile", "metrics"),
        "it decides its region by index before round 1, and runs the rest "
        "as a compiled kernel where the template's final slice has one that "
        "chains and the run is not profiled, beyond the reach of faults, "
        "sinks and deadlines (result.init_decided and result.compiled_slices "
        "record it)",
        automatic=True,
    ),
    "edgecut": Row(
        _SYNC,
        ("deadline",),
        "edge-cut shards share only messages and terminations at the round "
        "barrier; no fault plan, event stream, profile, metrics hook, "
        "compiled kernel or async delay adversary crosses the cut",
        shard=True,
    ),
    "components": Row(
        _SYNC + ("vectorized",),
        ("deadline",),
        "component shards are separate runs merged by their counters, "
        "while fault plans, event streams, profiles, metrics hooks and the "
        "async delay adversary span the whole graph",
        shard=True,
    ),
}

#: The ``shard=`` names a policy and the CLI accept.
SHARDS = tuple(name for name, row in PATHS.items() if row.shard)

#: ``fallback="interpret"``: the schedule that runs in place of a refused one.
FALLBACK = {"vectorized": "quiescent"}


def refusal(
    path: str, schedule: Optional[str] = None, *, shard: Any = None, **features: bool
) -> Optional[str]:
    """Why ``path`` cannot reproduce a run of ``schedule`` (``None``: not
    asked) under ``shard`` with the features set true, else ``None``."""
    row = PATHS[path]
    if shard not in (None, path):
        return f"path {path!r} cannot run shard={shard!r}: sweep cells shard"
    if schedule is not None and schedule not in row.schedules:
        return f"path {path!r} cannot run schedule={schedule!r}: {row.why}"
    for feature, used in features.items():
        if used and feature not in row.features:
            return f"path {path!r} cannot run {FEATURES[feature]}: {row.why}"
    return None


def require(path: str, schedule: Optional[str] = None, **settings: Any) -> None:
    """Raise :class:`UnsupportedScheduleError` where :func:`refusal` refuses."""
    reason = refusal(path, schedule, **settings)
    if reason is not None:
        raise UnsupportedScheduleError(reason)


def fall_back(
    policy: Any, exc: UnsupportedScheduleError, warn: bool = True
) -> Any:
    """``policy`` on its :data:`FALLBACK` schedule under
    ``fallback="interpret"``, with a warning unless a sibling of the same
    run gives it (``warn=False``); otherwise raise ``exc``."""
    if policy.fallback != "interpret":
        raise exc
    schedule = FALLBACK[policy.schedule]
    if warn:
        warnings.warn(
            f"schedule={policy.schedule!r} cannot run this instance ({exc}); "
            f"falling back to the interpreted {schedule!r} schedule",
            RuntimeWarning,
            stacklevel=3,
        )
    return replace(policy, schedule=schedule, fallback=None)


def schedule_capabilities() -> Dict[str, Dict[str, Any]]:
    """Name -> capabilities of every registered schedule, read from the
    table: its engine row's profiling, its kernels and every row naming it."""
    from repro.kernels import available_kernels
    from repro.simulator.scheduling import SCHEDULERS

    return {
        name: {
            "quiescence": cls.tracks_wakes,
            "async": cls.is_async,
            "profile": "profile"
            in PATHS["kernel" if cls.uses_kernels else "interpreter"].features,
            "kernels": available_kernels() if cls.uses_kernels else (),
            "paths": tuple(p for p, row in PATHS.items() if name in row.schedules),
        }
        for name, cls in SCHEDULERS.items()
    }
