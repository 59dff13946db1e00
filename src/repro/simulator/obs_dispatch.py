"""The observability dispatch stage.

:class:`ObsDispatch` is the one place the runtime talks to observers: it
fans events out to every attached :class:`~repro.obs.events.EventSink`
(the :class:`~repro.simulator.trace.TraceRecorder` included — it is just
one sink) and owns the optional :class:`~repro.obs.profile.RoundProfile`.
The engine and the schedulers never iterate sinks themselves; they ask the
dispatch for a bound ``emit`` (or ``None`` when no sink is attached, so
the hot loops skip observability entirely — the zero-overhead-when-
detached contract of docs/OBSERVABILITY.md).

The ``run_begin`` meta names the run's transport stage (``"transport"``:
``"LocalTransport"`` for in-process mailboxes, ``"BoundaryTransport"``
for an edge-cut shard exchanging cut-crossing messages), so sinks can
tell shard-local streams apart from whole-graph ones.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.profile import RoundProfile


class ObsDispatch:
    """Fans run/round/event notifications out to the attached sinks.

    Args:
        sinks: Extra event sinks (may be empty).
        trace: The run's trace recorder, appended to the sink list when
            present (kept separate because it is also attached to the
            result).
        profile: ``None``/``False`` for no profiling, ``True`` for a fresh
            :class:`RoundProfile`, or a caller-provided profile to fill.
    """

    __slots__ = ("sinks", "profile")

    def __init__(
        self,
        sinks: Optional[Sequence[Any]] = None,
        trace: Optional[Any] = None,
        profile: Union[bool, RoundProfile, None] = None,
    ) -> None:
        sink_list: List[Any] = list(sinks) if sinks else []
        if trace is not None:
            sink_list.append(trace)
        #: Every attached sink (the trace recorder included), immutable.
        self.sinks: Tuple[Any, ...] = tuple(sink_list)
        if profile is None or profile is False:
            self.profile: Optional[RoundProfile] = None
        elif profile is True:
            self.profile = RoundProfile()
        else:
            self.profile = profile

    def __bool__(self) -> bool:
        """Whether any sink is attached (profiling alone does not count)."""
        return bool(self.sinks)

    # ------------------------------------------------------------------
    # Event fan-out
    # ------------------------------------------------------------------
    def emit(self, round_index: int, kind: str, node: int, data: Any = None) -> None:
        """Fan one event out to every attached sink."""
        for sink in self.sinks:
            sink.record(round_index, kind, node, data)

    # ------------------------------------------------------------------
    # Run / round lifecycle
    # ------------------------------------------------------------------
    def run_begin(self, meta: Mapping[str, Any]) -> None:
        for sink in self.sinks:
            sink.on_run_begin(meta)

    def round_begin(self, round_index: int, active: int) -> None:
        for sink in self.sinks:
            sink.on_round_begin(round_index, active)

    def round_end(self, round_index: int, info: Mapping[str, Any]) -> None:
        for sink in self.sinks:
            sink.on_round_end(round_index, info)

    def run_end(self, summary: Mapping[str, Any]) -> None:
        for sink in self.sinks:
            sink.on_run_end(summary)
