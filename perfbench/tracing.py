"""Benchmark-side tracing: spans around the calls into each layer.

A :class:`Tracer` replaces the attributes listed in :meth:`Tracer.targets`
with wrappers that record a span (name, parent, thread, start, end) per
call, keeps every span in memory, and puts each original back in
:meth:`Tracer.restore`.  Names bound with ``from ... import`` are wrapped
in the importing module (``repro.exec.backends.run`` and friends), since
patching the defining module would not reach them.  Python's cyclic
collector is timed through ``gc.callbacks`` for the same window.

:func:`layer_metrics` turns the spans of the timed reps into the
per-layer metrics; a layer's *self* time is its span minus the spans of
its direct children, so the self times of the main thread's spans plus
the unattributed remainder add up to the traced run time.
"""

from __future__ import annotations

import functools
import gc
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import repro.dynamic.runner as dynamic_runner
import repro.errors as errors
import repro.exec.backends as backends
import repro.shard.edgecut as edgecut
import repro.shard.plan as shard_plan
from repro.dynamic import DynamicRunner
from repro.exec import ArtifactCache, GraphSpec, PredictionSpec, Sweep
from repro.obs.profile import PHASES
from repro.problems.base import GraphProblem
from repro.simulator.engine import SyncEngine

from workloads import OutcomeDigest

_MISSING = object()


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    phase: str
    rep: int
    #: On a helper thread (an edge-cut shard), the main thread's innermost
    #: open span when this one opened: the run the thread works for.
    group: Optional[int]
    start: float
    end: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps layer calls, records spans and GC pauses until restored."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(phase, generation, seconds)`` per collection.
        self.gc_pauses: List[Tuple[str, int, float]] = []
        #: Wrapper invocations, installed or not: the self-test's tripwire.
        self.calls = 0
        self.phase = "idle"
        self.rep = -1
        self.main_thread = threading.get_ident()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._root: Optional[Span] = None
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._epoch_runs = 0
        self._gc_start = 0.0

    # -- what is wrapped ------------------------------------------------
    def targets(self) -> List[Tuple[Any, str, Union[str, Callable[[], str]], Any]]:
        """``(owner, attribute, span name, after-hook)`` for every wrap."""
        return [
            (GraphSpec, "build", "graphs.build", None),
            (PredictionSpec, "build", "predictions.build", None),
            (Sweep, "run", "exec.sweep", None),
            (ArtifactCache, "get_or_build", "exec.cache", None),
            (backends, "run", "core.run", None),
            (shard_plan, "run", "core.run", None),
            (SyncEngine, "__init__", "simulator.construct", None),
            (SyncEngine, "run", "simulator.rounds", _record_run),
            (GraphProblem, "is_solution", "problems.validate", None),
            (errors, "eta1", "errors.eta1", None),
            (dynamic_runner, "eta1", "errors.eta1", None),
            (backends, "execute_shard", "shard.execute", _record_shard_cell),
            (backends, "merge_partials", "shard.merge", None),
            (backends, "execute_edgecut_cell", "shard.cell", None),
            (edgecut, "run_edgecut", "shard.edgecut", None),
            (edgecut.EdgecutPlan, "__init__", "shard.plan", None),
            (shard_plan, "shard_view", "shard.plan", None),
            (shard_plan, "shard_node_ids", "shard.plan", None),
            (edgecut, "_drive", "shard.drive", _record_drive),
            (edgecut._ThreadCoordinator, "exchange_messages", "shard.exchange", None),
            (edgecut._ThreadCoordinator, "exchange_events", "shard.exchange", None),
            (edgecut.EdgecutPlan, "route_messages", "shard.route", None),
            (edgecut.EdgecutPlan, "decide", "shard.route", None),
            (DynamicRunner, "run", "dynamic.runner", None),
            (dynamic_runner, "apply_batch", "dynamic.apply", None),
            (dynamic_runner, "carry_predictions", "dynamic.carry", None),
            (dynamic_runner, "run", self._epoch_run_name, None),
            (OutcomeDigest, "__call__", "bench.check", None),
        ]

    def install(self) -> None:
        for owner, attr, name, after in self.targets():
            # ``_MISSING`` marks an inherited attribute: restore deletes
            # the wrapper instead of pinning the base class's function.
            original = vars(owner).get(attr, _MISSING)
            wrapper = self._wrap(getattr(owner, attr), name, after)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original, wrapper))
        gc.callbacks.append(self._on_gc)

    def restore(self) -> List[str]:
        """Put every original back; returns the attributes that failed to."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original, _wrapper in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        problems = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original, wrapper in self._patches
            if vars(owner).get(attr, _MISSING) is not original
            or getattr(owner, attr, None) is wrapper
        ]
        problems += ["gc.callbacks"] if self._on_gc in gc.callbacks else []
        self._patches = []
        return problems

    # -- run structure (called by the benchmark) ---------------------------
    def begin_setup(self) -> None:
        self.phase = "setup"

    def end_setup(self) -> None:
        self.phase = "idle"

    def begin_rep(self) -> None:
        self.rep += 1
        self.phase = "timed"
        self._epoch_runs = 0
        self._root = self._open("bench.rep")

    def end_rep(self) -> None:
        self._close(self._root)
        self.phase = "idle"

    def new_epoch(self) -> None:
        """A dynamic epoch ended: the next ``run()`` is the warm one."""
        self._epoch_runs = 0

    # -- spans ---------------------------------------------------------
    def _epoch_run_name(self) -> str:
        self._epoch_runs += 1
        return "dynamic.warm" if self._epoch_runs == 1 else "dynamic.scratch"

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        thread = threading.get_ident()
        group = None
        if thread != self.main_thread and self._main_stack:
            group = self._main_stack[-1].id
        span = Span(
            id=next(self._ids),
            name=name,
            parent=stack[-1].id if stack else None,
            thread=thread,
            phase=self.phase,
            rep=self.rep,
            group=group,
            start=time.perf_counter(),
        )
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def _wrap(self, original: Callable, name: Any, after: Any) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.calls += 1
            span = tracer._open(name if isinstance(name, str) else name())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append(
                (self.phase, info["generation"], time.perf_counter() - self._gc_start)
            )


def _record_run(span: Span, args: Tuple[Any, ...], result: Any) -> None:
    """After ``SyncEngine.run``: transport work and, when the run was
    profiled, its round profile's phase totals and node-rounds."""
    span.extra["messages"] = result.message_count
    span.extra["bits"] = result.total_bits
    profile = result.profile
    if profile is not None:
        span.extra["phases"] = profile.phase_totals()
        span.extra["live"] = sum(sample.active for sample in profile.samples)
        span.extra["scheduled"] = sum(sample.scheduled for sample in profile.samples)


def _record_drive(span: Span, args: Tuple[Any, ...], result: Any) -> None:
    engine = args[0]
    span.extra["messages"] = engine.result.message_count
    span.extra["bits"] = engine.result.total_bits


def _record_shard_cell(span: Span, args: Tuple[Any, ...], result: Any) -> None:
    span.extra["cell"] = args[0]


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
#: Main-thread span name -> self-time bucket.  ``simulator.rounds`` is
#: split further by its round-profile phases (see :func:`self_times`).
SELF_BUCKETS = {
    "bench.rep": "unattributed",
    "bench.check": "bench",
    "exec.sweep": "exec",
    "exec.cache": "exec",
    "core.run": "core",
    "dynamic.warm": "core",
    "dynamic.scratch": "core",
    "simulator.construct": "simulator.construct",
    "simulator.rounds": "simulator.loop",
    "problems.validate": "problems.validate",
    "errors.eta1": "errors.eta1",
    "shard.execute": "shard.cell",
    "shard.cell": "shard.cell",
    "shard.merge": "shard.merge",
    "shard.plan": "shard.plan",
    "shard.edgecut": "shard.wait",
    "dynamic.runner": "dynamic.runner",
    "dynamic.apply": "dynamic.apply",
    "dynamic.carry": "dynamic.carry",
    "graphs.build": "graphs.build",
    "predictions.build": "predictions.build",
}

#: Every bucket, in report order (``unattributed`` is reported alone).
BUCKETS = tuple(dict.fromkeys(
    [bucket for bucket in SELF_BUCKETS.values() if bucket != "unattributed"]
    + ["simulator." + phase for phase in PHASES if phase != "kernel"]
    + ["kernels.kernel"]
))


def _phase_bucket(phase: str) -> str:
    return "kernels.kernel" if phase == "kernel" else f"simulator.{phase}"


def child_time(spans: List[Span]) -> Dict[int, float]:
    """Span id -> seconds covered by its direct children."""
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    return children


def self_times(
    spans: List[Span], main_thread: int, children: Dict[int, float]
) -> Dict[str, float]:
    """Seconds of self time per bucket over the main thread's spans."""
    buckets: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span.thread != main_thread:
            continue
        own = span.duration - children[span.id]
        for phase, seconds in span.extra.get("phases", {}).items():
            buckets[_phase_bucket(phase)] += seconds
            own -= seconds
        buckets[SELF_BUCKETS[span.name]] += own
    return buckets


def layer_metrics(
    tracer: Tracer, reps: List[Any], untraced_rep_s: float
) -> Dict[str, float]:
    """The per-layer metrics of a traced run, each per rep (per setup for
    the setup-time builds)."""
    setup = [span for span in tracer.spans if span.phase == "setup"]
    timed = [span for span in tracer.spans if span.phase == "timed"]
    main = [span for span in timed if span.thread == tracer.main_thread]
    children = child_time(timed)
    buckets = self_times(timed, tracer.main_thread, children)
    rows = [row for rep in reps for row in rep.rows]

    def total(name: str, spans: List[Span] = main) -> float:
        return sum(span.duration for span in spans if span.name == name)

    def extra(key: str, *names: str) -> float:
        return sum(span.extra.get(key, 0) for span in timed if span.name in names)

    phases: Dict[str, float] = defaultdict(float)
    for span in main:
        for phase, seconds in span.extra.get("phases", {}).items():
            phases[phase] += seconds

    # Per-shard busy time, grouped per sharded cell: each component
    # shard's execute_shard call, and each edge-cut thread's drive span
    # minus its time inside the coordinator's exchanges.
    busy: Dict[Tuple[str, int, Optional[int]], List[float]] = defaultdict(list)
    for span in timed:
        if span.name == "shard.execute":
            key = ("components", span.rep, span.extra["cell"])
            busy[key].append(span.duration)
        elif span.name == "shard.drive":
            key = ("edgecut", span.rep, span.group)
            busy[key].append(span.duration - children[span.id])

    in_cells = sum(
        total(name)
        for name in (
            "simulator.construct",
            "simulator.rounds",
            "problems.validate",
            "errors.eta1",
            "shard.plan",
            "bench.check",
        )
    )
    pauses = [
        (generation, seconds)
        for phase, generation, seconds in tracer.gc_pauses
        if phase == "timed"
    ]
    exchange = total("shard.exchange", timed)
    route = total("shard.route", timed)
    totals = {
        "exec.cache_hits": sum(rep.cache_hits for rep in reps),
        "exec.cache_misses": sum(rep.cache_misses for rep in reps),
        "exec.cell_overhead_s": sum(row.elapsed for row in rows)
        - in_cells
        - buckets.get("shard.wait", 0.0),
        "simulator.construct_s": total("simulator.construct"),
        "simulator.rounds_s": total("simulator.rounds"),
        **{
            f"simulator.{phase}_s": phases.get(phase, 0.0)
            for phase in PHASES
            if phase != "kernel"
        },
        "simulator.node_rounds": extra("scheduled", "simulator.rounds"),
        "simulator.messages": extra("messages", "simulator.rounds", "shard.drive"),
        "simulator.bits": extra("bits", "simulator.rounds", "shard.drive"),
        "kernels.kernel_s": phases.get("kernel", 0.0),
        "problems.validate_s": total("problems.validate"),
        "errors.eta1_s": total("errors.eta1"),
        "shard.plan_s": total("shard.plan"),
        "shard.compute_max_s": sum(max(group) for group in busy.values()),
        "shard.compute_mean_s": sum(
            sum(group) / len(group) for group in busy.values()
        ),
        "shard.exchange_s": exchange,
        "shard.route_s": route,
        "shard.barrier_wait_s": exchange - route,
        "shard.merge_s": total("shard.merge"),
        "shard.barriers": sum(1 for span in timed if span.name == "shard.route"),
        "shard.boundary_msgs": sum(row.boundary_msgs or 0 for row in rows),
        "shard.boundary_bytes": sum(row.boundary_bytes or 0 for row in rows),
        "dynamic.apply_s": total("dynamic.apply"),
        "dynamic.carry_s": total("dynamic.carry"),
        "dynamic.warm_s": total("dynamic.warm"),
        "dynamic.scratch_s": total("dynamic.scratch"),
        "gc.pause_s": sum(seconds for _, seconds in pauses),
        "gc.gen2_collections": sum(1 for generation, _ in pauses if generation == 2),
        "trace.run_s": total("bench.rep"),
        "unattributed_s": buckets.get("unattributed", 0.0),
        **{f"self.{bucket}_s": buckets.get(bucket, 0.0) for bucket in BUCKETS},
    }
    metrics = {name: value / len(reps) for name, value in totals.items()}
    live = extra("live", "simulator.rounds")
    metrics.update(
        {
            "graphs.build_s": total("graphs.build", setup),
            "predictions.build_s": total("predictions.build", setup),
            "simulator.scheduled_share": (
                totals["simulator.node_rounds"] / live if live else 0.0
            ),
            "trace.overhead_s": metrics["trace.run_s"] - untraced_rep_s,
        }
    )
    return metrics


def span_records(tracer: Tracer) -> List[Dict[str, Any]]:
    """The spans as JSON-ready dicts (times relative to the first span)."""
    origin = tracer.spans[0].start if tracer.spans else 0.0
    names = {tracer.main_thread: "main"}
    return [
        {
            "id": span.id,
            "name": span.name,
            "parent": span.parent,
            "thread": names.setdefault(span.thread, f"t{len(names)}"),
            "phase": span.phase,
            "rep": span.rep,
            "start_s": span.start - origin,
            "end_s": span.end - origin,
            **({"extra": span.extra} if span.extra else {}),
        }
        for span in tracer.spans
    ]
