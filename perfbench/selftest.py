#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery, on toy-sized workloads.

    python3 perfbench/selftest.py

For every workload it checks that

* a traced rep records spans, and restoring puts every wrapped ``repro``
  attribute back, so a later untraced rep reaches no wrapper (and, as a
  control, that the same tripwire does fire while wrappers are in place);
* the traced metrics are exactly run.py's per-layer metrics, and the
  self times plus ``unattributed_s`` add up to the traced run time;
* the rows pass the same correctness checks as a real run;

that the host-speed sampler probes while active and leaves ``SIGALRM``
as it found it; and that BENCHMARK.json names run.py's workloads and
metrics.  Prints each failed check and exits 1 if there is one.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time
import warnings
from typing import List

import hostspeed
import run

TINY = {
    "kernel-tree": dict(n=2000),
    "template-degradation": dict(n=64, draws=2),
    "dynamic-churn": dict(n=100, epochs=8, churn=3),
    "sharded": dict(forest=(20, 10), tree=(3, 4)),
}


def check_benchmark_json() -> List[str]:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != list(names):
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    return problems


def check_sampler() -> List[str]:
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            hostspeed.probe()
        end = time.perf_counter()
    problems = []
    if signal.getsignal(signal.SIGALRM) is not before:
        problems.append("sampler: SIGALRM handler not restored")
    if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        problems.append("sampler: interval timer still armed")
    if len(sampler.durations) < hostspeed.MIN_PROBES:
        return problems + [f"sampler: {len(sampler.durations)} probes in 0.3 s"]
    # A whole interval, and one too short to hold a probe of its own; the
    # speed ratio of a shared host stays well within a factor of two.
    for lo, hi in ((start, end), (start, start + 0.001)):
        value = sampler.seconds(lo, hi)
        if not 0 < value < 2 * (hi - lo):
            problems.append(f"sampler: {hi - lo:.3f} wall s read as {value} s")
    return problems


def check_workload(workloads, tracing, name: str) -> List[str]:
    workload = workloads.WORKLOADS[name](**TINY[name])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_setup()
        state = workload.setup(1)
        tracer.end_setup()
        state.profile = workload.profiles
        traced = workload.rep(state, tracer)
        # Control: with the wrappers still installed, an untraced rep
        # must trip the counter, or the check below proves nothing.
        state.profile = False
        calls = tracer.calls
        workload.rep(state)
        tripped = tracer.calls > calls
    finally:
        problems = [f"{name}: not restored: {attr}" for attr in tracer.restore()]
    if not tripped:
        problems.append(f"{name}: installed wrappers were not reached")
    calls = tracer.calls
    untraced = workload.rep(state)
    if tracer.calls != calls:
        problems.append(
            f"{name}: untraced rep reached {tracer.calls - calls} wrapped calls"
        )
    for rep in (traced, untraced):
        problems += [
            f"{name}: {reason}"
            for reason in workloads.check_rep(workload, state, rep.rows, None)
        ]
    metrics = tracing.layer_metrics(tracer, [traced], untraced.seconds)
    if sorted(metrics) != sorted(metric for metric, _ in run.PER_LAYER):
        problems.append(f"{name}: traced metrics differ from PER_LAYER")
    parts = metrics["unattributed_s"] + sum(
        value for key, value in metrics.items() if key.startswith("self.")
    )
    if not math.isclose(parts, metrics["trace.run_s"], rel_tol=1e-9):
        problems.append(
            f"{name}: self times sum to {parts}, "
            f"traced run_s is {metrics['trace.run_s']}"
        )
    if metrics["simulator.construct_s"] <= 0 or metrics["problems.validate_s"] <= 0:
        problems.append(f"{name}: traced rep recorded no engine or validation spans")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.SOURCE))
    import tracing
    import workloads

    warnings.simplefilter("error", RuntimeWarning)
    warnings.simplefilter("error", DeprecationWarning)
    problems = check_benchmark_json()
    found = check_sampler()
    print(f"host-speed sampler: {'ok' if not found else 'FAILED'}")
    problems += found
    for name in run.WORKLOAD_NAMES:
        found = check_workload(workloads, tracing, name)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
