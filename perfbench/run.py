#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics (README.md has more).

    python3 perfbench/run.py --workload kernel-tree --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` reports the end-to-end metrics, with every time scaled to
the host's reference speed (hostspeed.py); ``--trace 1`` reports the
per-layer metrics of traced reps, their tracing overhead over untraced
reps of the same workload and seed, and writes the spans to
``perfbench/out/``.  ``--workload all`` runs every workload in a fresh
process of its own.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
counts the cells (or epochs) run and ``failed`` those that failed.

Run from a checkout of the repository: the program under test is the
checkout's ``src/repro``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

WORKLOAD_NAMES = ("kernel-tree", "template-degradation", "dynamic-churn", "sharded")

#: ``setup_s`` is the median of at least MIN_SETUPS setups, repeated
#: while they take under SETUP_BUDGET_S in all (at most MAX_SETUPS), so
#: millisecond setups still get a steady median.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 25, 1.0

#: At least this many timed reps, so ``run_s`` is always a true median.
MIN_REPS = 3

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("node_rounds_per_s", "1/s"),
    ("epoch_p50_s", "s"),
    ("epoch_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("graphs.build_s", "s"),
    ("predictions.build_s", "s"),
    ("exec.cache_hits", "count"),
    ("exec.cache_misses", "count"),
    ("exec.cell_overhead_s", "s"),
    ("simulator.construct_s", "s"),
    ("simulator.rounds_s", "s"),
    ("simulator.compose_s", "s"),
    ("simulator.deliver_s", "s"),
    ("simulator.process_s", "s"),
    ("simulator.finalize_s", "s"),
    ("simulator.node_rounds", "count"),
    ("simulator.scheduled_share", "ratio"),
    ("simulator.messages", "count"),
    ("simulator.bits", "bit"),
    ("kernels.kernel_s", "s"),
    ("problems.validate_s", "s"),
    ("errors.eta1_s", "s"),
    ("shard.plan_s", "s"),
    ("shard.compute_max_s", "s"),
    ("shard.compute_mean_s", "s"),
    ("shard.exchange_s", "s"),
    ("shard.route_s", "s"),
    ("shard.barrier_wait_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.barriers", "count"),
    ("shard.boundary_msgs", "count"),
    ("shard.boundary_bytes", "B"),
    ("dynamic.apply_s", "s"),
    ("dynamic.carry_s", "s"),
    ("dynamic.warm_s", "s"),
    ("dynamic.scratch_s", "s"),
    ("gc.pause_s", "s"),
    ("gc.gen2_collections", "count"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("unattributed_s", "s"),
    ("self.bench_s", "s"),
    ("self.exec_s", "s"),
    ("self.core_s", "s"),
    ("self.simulator.construct_s", "s"),
    ("self.simulator.loop_s", "s"),
    ("self.problems.validate_s", "s"),
    ("self.errors.eta1_s", "s"),
    ("self.shard.cell_s", "s"),
    ("self.shard.merge_s", "s"),
    ("self.shard.plan_s", "s"),
    ("self.shard.wait_s", "s"),
    ("self.dynamic.runner_s", "s"),
    ("self.dynamic.apply_s", "s"),
    ("self.dynamic.carry_s", "s"),
    ("self.graphs.build_s", "s"),
    ("self.predictions.build_s", "s"),
    ("self.simulator.compose_s", "s"),
    ("self.simulator.deliver_s", "s"),
    ("self.simulator.process_s", "s"),
    ("self.simulator.finalize_s", "s"),
    ("self.kernels.kernel_s", "s"),
)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="record the default seed's per-cell statistics in reference.json",
    )
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(
            f"error: {SOURCE / 'repro'} is missing; run the benchmark from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # The checkout's own source, ahead of any installed copy.
    sys.path.insert(0, str(SOURCE))
    import workloads

    # No silent downgrades: a cell that would warn and fall back fails.
    warnings.simplefilter("error", RuntimeWarning)
    warnings.simplefilter("error", DeprecationWarning)
    workload = workloads.WORKLOADS[args.workload]()
    if args.write_reference:
        return write_reference(workloads, workload)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        reference = stored.get(workload.name, {})
    if args.trace:
        return traced_run(workloads, workload, args, reference)
    return untraced_run(workloads, workload, args, reference)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def setup_once(workload: Any, seed: int) -> Tuple[Any, Tuple[float, float]]:
    """The workload's inputs and the wall-clock window that built them."""
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(seed)
    return state, (start, time.perf_counter())


def measure(
    workloads: Any,
    workload: Any,
    state: Any,
    seconds: float,
    reference: Optional[Dict[str, Any]],
) -> Tuple[List[Any], List[str], int]:
    """A warm-up rep, then timed reps while the next one fits in what is
    left of ``seconds`` (at least MIN_REPS): the timed reps, the failed-cell
    reasons and the cells attempted.  The warm-up rep (lazy imports, the
    interpreter's specialisation of hot code) is checked but not timed."""
    done: List[Any] = []
    failures: List[str] = []
    attempted = 0
    cells = len(workload.labels(state))
    while len(done) < MIN_REPS + 1 or (
        sum(rep.seconds for rep in done)
        + statistics.median(rep.seconds for rep in done[1:])
        <= seconds
    ):
        attempted += cells
        try:
            rep = workload.rep(state)
        except Exception as exc:  # noqa: BLE001 - every cell of the rep failed
            failures.extend(
                f"{label}: rep raised {type(exc).__name__}: {exc}"
                for label in workload.labels(state)
            )
            break
        done.append(rep)
        failures.extend(workloads.check_rep(workload, state, rep.rows, reference))
    return done[1:], failures, attempted


def percentile(values: List[float], percent: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced_run(
    workloads: Any, workload: Any, args: argparse.Namespace, reference: Any
) -> int:
    """Setups and timed reps under a host-speed sampler: every time is
    reported in reference-speed seconds (see hostspeed.py)."""
    import hostspeed

    setups: List[Tuple[float, float]] = []
    state = None
    with hostspeed.SpeedSampler() as sampler:
        while len(setups) < MIN_SETUPS or (
            sum(end - start for start, end in setups) < SETUP_BUDGET_S
            and len(setups) < MAX_SETUPS
        ):
            state = None  # drop the previous inputs: peak RSS holds one copy
            state, window = setup_once(workload, args.seed)
            setups.append(window)
        reps, failures, attempted = measure(
            workloads, workload, state, args.seconds, reference
        )
    metrics: Dict[str, float] = {}
    if reps:
        seconds = sampler.seconds
        rep_s = [seconds(rep.start, rep.start + rep.seconds) for rep in reps]
        # Each epoch (or cell) by its median over the reps: every rep runs
        # the same epochs, so the percentiles below rank distinct epochs.
        units = [
            statistics.median(seconds(*window) for window in windows)
            for windows in zip(*(rep.windows for rep in reps))
        ]
        metrics = {
            "setup_s": statistics.median(seconds(*window) for window in setups),
            "run_s": statistics.median(rep_s),
            "node_rounds_per_s": statistics.median(
                rep.node_rounds / rep_seconds for rep, rep_seconds in zip(reps, rep_s)
            ),
            "epoch_p50_s": percentile(units, 50),
            "epoch_p90_s": percentile(units, 90),
            "peak_rss_mb": peak_rss_mb(),
        }
        print(
            f"{workload.name} seed={args.seed}: {len(setups)} setups, "
            f"{len(reps)} reps of {len(units)} epochs/cells; host speed "
            f"{sampler.speed():.3f} of the reference ({len(sampler.durations)} probes)"
        )
        print("  rep wall s:      " + ", ".join(f"{rep.seconds:.3f}" for rep in reps))
        print("  rep reference s: " + ", ".join(f"{value:.3f}" for value in rep_s))
    return report(END_TO_END, metrics, failures, attempted)


def traced_run(
    workloads: Any, workload: Any, args: argparse.Namespace, reference: Any
) -> int:
    """Untraced and traced reps of one setup, alternating (ABBA order, so
    warm-up favours neither side) until ``--seconds`` are spent.

    Every traced rep installs the wrappers and restores them after; an
    untraced rep that still reaches a wrapper is a failure.
    """
    import tracing

    tracer = tracing.Tracer()
    failures: List[str] = []

    def with_wrappers(action: Any) -> Any:
        tracer.install()
        try:
            return action()
        finally:
            failures.extend(
                f"wrapper not restored: {name}" for name in tracer.restore()
            )

    def setup() -> Any:
        tracer.begin_setup()
        try:
            return workload.setup(args.seed)
        finally:
            tracer.end_setup()

    state = with_wrappers(setup)
    reps: Dict[bool, List[Any]] = {False: [], True: []}
    attempted = 0
    while not reps[True] or (
        sum(rep.seconds for side in reps.values() for rep in side)
        + statistics.median(rep.seconds for rep in reps[False])
        + statistics.median(rep.seconds for rep in reps[True])
        <= args.seconds
    ):
        order = (False, True) if len(reps[True]) % 2 == 0 else (True, False)
        for tracing_on in order:
            # Profiling only where the path accepts it: a profiled
            # sharded cell would quietly run unsharded.
            state.profile = tracing_on and workload.profiles
            attempted += len(workload.labels(state))
            calls = tracer.calls
            try:
                if tracing_on:
                    rep = with_wrappers(lambda: workload.rep(state, tracer))
                else:
                    rep = workload.rep(state)
            except Exception as exc:  # noqa: BLE001 - every cell of the rep failed
                failures.extend(
                    f"{label}: rep raised {type(exc).__name__}: {exc}"
                    for label in workload.labels(state)
                )
                return report(PER_LAYER, {}, failures, attempted)
            if not tracing_on and tracer.calls != calls:
                failures.append(
                    f"untraced rep reached {tracer.calls - calls} wrapped calls"
                )
            reps[tracing_on].append(rep)
            failures.extend(workloads.check_rep(workload, state, rep.rows, reference))
    untraced_s = statistics.mean(rep.seconds for rep in reps[False])
    metrics = tracing.layer_metrics(tracer, reps[True], untraced_s)
    print_split(workload.name, metrics)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    path.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "reps": len(reps[True]),
                "metrics": metrics,
                "spans": tracing.span_records(tracer),
            }
        )
    )
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(HERE.parent)}")
    return report(PER_LAYER, metrics, failures, attempted)


def print_split(name: str, metrics: Dict[str, float]) -> None:
    """The traced rep's self-time split, largest first."""
    run_s = metrics["trace.run_s"]
    parts = {
        key[len("self."):-len("_s")]: value
        for key, value in metrics.items()
        if key.startswith("self.")
    }
    parts["unattributed"] = metrics["unattributed_s"]
    print(f"{name}: self time per traced rep ({run_s:.4f} s)")
    for layer, seconds in sorted(parts.items(), key=lambda item: -item[1]):
        if seconds:
            print(f"  {layer:<22} {seconds:10.4f} s  {seconds / run_s:6.1%}")
    print(
        f"  {'sum':<22} {sum(parts.values()):10.4f} s  "
        f"(tracing overhead {metrics['trace.overhead_s']:+.4f} s per rep)"
    )


def report(
    names: Tuple[Tuple[str, str], ...],
    metrics: Dict[str, float],
    failures: List[str],
    attempted: int,
) -> int:
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    if len(failures) > 20:
        print(f"... {len(failures) - 20} more failures")
    for name, unit in names:
        if name in metrics:
            print(f"  {name:<28} {metrics[name]:>16.6f} {unit}")
    print(
        f"  {'failed_cells':<28} {len(failures):>16d} count "
        f"(of {attempted} attempted)"
    )
    result = {
        "correct": not failures and len(metrics) == len(names),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in names
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


def write_reference(workloads: Any, workload: Any) -> int:
    """Record the default seed's per-cell statistics for ``workload``."""
    state = workload.setup(workloads.DEFAULT_SEED)
    rep = workload.rep(state)
    failures = workloads.check_rep(workload, state, rep.rows, None)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    stored[workload.name] = {row.label: workloads.row_stats(row) for row in rep.rows}
    # One line per cell keeps reference diffs readable.
    blocks = [
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(
            f"  {json.dumps(label)}: {json.dumps(stats, sort_keys=True)}"
            for label, stats in stored[name].items()
        )
        + "\n }"
        for name in sorted(stored)
    ]
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"recorded {len(rep.rows)} cells of {workload.name} in {REFERENCE.name}")
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process (so peak RSS is its own)."""
    combined: Dict[str, Any] = {
        "correct": True, "attempted": 0, "failed": 0, "metrics": {}
    }
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--write-reference"] if args.write_reference else [])
        print(f"== {name}", flush=True)
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if args.write_reference or child.returncode != 0 or not lines:
            print(child.stdout, end="")
            if child.returncode != 0:
                return child.returncode
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    if not args.write_reference:
        print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
