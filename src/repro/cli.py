"""Command-line interface: run algorithms-with-predictions from a shell.

Examples::

    python -m repro list
    python -m repro run --problem mis --template simple \
        --graph gnp:100:0.05 --noise 0.2
    python -m repro sweep --problem mis --template parallel \
        --graph grid:10:10 --rates 0,0.1,0.3,1.0 --csv sweep.csv
    python -m repro faults --template hardened --graph grid:6:8 \
        --rates 0,0.05,0.2 --crash-frac 0.1 --recover-after 3
    python -m repro profile --problem mis --template parallel \
        --graph gnp:100:0.05 --noise 0.2
    python -m repro events --graph grid:5:5 --out events.jsonl
    python -m repro dynamic --problem mis --template simple \
        --graph gnp:80:0.06 --epochs 6 --churn-add 5 --churn-remove 5
    python -m repro dynamic --dataset collegemsg --window 3 --epochs 8
    python -m repro example robustness

Graph specs: ``line:N``, ``ring:N``, ``star:N``, ``clique:N``,
``grid:R:C``, ``gnp:N:P[:SEED]``, ``regular:N:DEG[:SEED]``, ``tree:N``,
``rtree:N[:SEED]``, ``dline:N``, ``wheel:K``, ``paths:COUNT:LEN``,
``ptree:ARITY:HEIGHT``, ``sortedline:N``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro.bench.algorithms import (
    coloring_consecutive,
    coloring_parallel,
    coloring_simple,
    edge_coloring_consecutive,
    edge_coloring_simple,
    matching_consecutive,
    matching_simple,
    mis_blackwhite_simple,
    mis_consecutive,
    mis_hardened_simple,
    mis_interleaved,
    mis_parallel,
    mis_rooted_parallel,
    mis_rooted_simple,
    mis_simple,
)
from repro.algorithms.coloring import PaletteGreedyColoringAlgorithm
from repro.algorithms.matching import GreedyMatchingAlgorithm
from repro.algorithms.mis import GreedyMISAlgorithm
from repro.core import ExecutionPolicy, run
from repro.errors import eta1
from repro.kernels import UnsupportedScheduleError
from repro.simulator import schedule_capabilities
from repro.graphs import (
    DistGraph,
    clique,
    directed_line,
    erdos_renyi,
    grid2d,
    line,
    path_forest,
    preorder_kary_tree,
    random_regular,
    random_rooted_tree,
    random_tree,
    ring,
    sorted_path_ids,
    star,
    wheel_fk,
)
from repro.predictions import noisy_predictions, perfect_predictions
from repro.problems import EDGE_COLORING, MATCHING, MIS, VERTEX_COLORING

PROBLEMS = {
    "mis": MIS,
    "matching": MATCHING,
    "vertex-coloring": VERTEX_COLORING,
    "edge-coloring": EDGE_COLORING,
}

TEMPLATES: Dict[str, Dict[str, Callable]] = {
    "mis": {
        "greedy": GreedyMISAlgorithm,
        "simple": mis_simple,
        "consecutive": mis_consecutive,
        "interleaved": mis_interleaved,
        "parallel": mis_parallel,
        "blackwhite": mis_blackwhite_simple,
        "hardened": mis_hardened_simple,
        "rooted-simple": mis_rooted_simple,
        "rooted-parallel": mis_rooted_parallel,
    },
    "matching": {
        "greedy": GreedyMatchingAlgorithm,
        "simple": matching_simple,
        "consecutive": matching_consecutive,
    },
    "vertex-coloring": {
        "greedy": PaletteGreedyColoringAlgorithm,
        "simple": coloring_simple,
        "consecutive": coloring_consecutive,
        "parallel": coloring_parallel,
    },
    "edge-coloring": {
        "simple": edge_coloring_simple,
        "consecutive": edge_coloring_consecutive,
    },
}

EXAMPLES = {
    "quickstart": "examples.quickstart",
    "migration": "examples.network_migration",
    "grid": "examples.grid_blackwhite",
    "rooted": "examples.rooted_tree_forest",
    "robustness": "examples.robustness_study",
    "tradeoff": "examples.tradeoff_tuning",
    "learned": "examples.learned_predictor",
}


def parse_graph(spec: str) -> DistGraph:
    """Parse a ``family:args`` graph spec (see module docstring)."""
    parts = spec.split(":")
    family, args = parts[0], [p for p in parts[1:]]

    def arg(index: int, default=None, cast=int):
        if index < len(args):
            return cast(args[index])
        if default is None:
            raise SystemExit(f"graph spec {spec!r}: missing argument {index + 1}")
        return default

    if family == "line":
        return line(arg(0))
    if family == "sortedline":
        return sorted_path_ids(line(arg(0)))
    if family == "ring":
        return ring(arg(0))
    if family == "star":
        return star(arg(0))
    if family == "clique":
        return clique(arg(0))
    if family == "grid":
        return grid2d(arg(0), arg(1))
    if family == "gnp":
        return erdos_renyi(arg(0), arg(1, cast=float), seed=arg(2, default=0))
    if family == "regular":
        return random_regular(arg(0), arg(1), seed=arg(2, default=0))
    if family == "tree":
        return random_tree(arg(0), seed=arg(1, default=0))
    if family == "rtree":
        return random_rooted_tree(arg(0), seed=arg(1, default=0))
    if family == "dline":
        return directed_line(arg(0))
    if family == "wheel":
        return wheel_fk(arg(0))
    if family == "paths":
        return path_forest(arg(0), arg(1))
    if family == "ptree":
        return preorder_kary_tree(arg(0), arg(1))
    raise SystemExit(f"unknown graph family {family!r}")


def cmd_list(args: argparse.Namespace) -> int:
    print("problems and templates:")
    for problem, templates in TEMPLATES.items():
        print(f"  {problem}: {', '.join(sorted(templates))}")
    print()
    print("graph families: line ring star clique grid gnp regular tree")
    print("                rtree dline wheel paths sortedline ptree")
    print()
    print("schedules:")
    for name, caps in sorted(schedule_capabilities().items()):
        kernels = ", ".join(caps["kernels"]) if caps.get("kernels") else "-"
        print(f"  {name}: kernels={kernels}")
    print()
    print(f"examples: {', '.join(sorted(EXAMPLES))}")
    return 0


def _build(args: argparse.Namespace):
    problem = PROBLEMS.get(args.problem)
    if problem is None:
        raise SystemExit(f"unknown problem {args.problem!r}")
    factory = TEMPLATES[args.problem].get(args.template)
    if factory is None:
        raise SystemExit(
            f"unknown template {args.template!r} for {args.problem} "
            f"(choose from {sorted(TEMPLATES[args.problem])})"
        )
    return problem, factory(), parse_graph(args.graph)


def _policy_from_args(args: argparse.Namespace) -> ExecutionPolicy:
    """The :class:`ExecutionPolicy` described by the shared CLI flags."""
    try:
        return ExecutionPolicy(
            schedule=args.schedule,
            phi=args.phi,
            send_timeout=args.send_timeout,
            deadline_s=args.deadline_s,
            fallback=getattr(args, "fallback", None),
            share_graph=getattr(args, "share_graph", False),
            shard=getattr(args, "shard", None),
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_run(args: argparse.Namespace) -> int:
    problem, algorithm, graph = _build(args)
    predictions = _predictions_for_args(problem, graph, args)
    try:
        result = run(
            algorithm,
            graph,
            predictions,
            seed=args.seed,
            max_rounds=args.max_rounds,
            policy=_policy_from_args(args),
            on_round_limit="partial" if args.schedule == "async" else "raise",
        )
    except UnsupportedScheduleError as exc:
        raise SystemExit(f"{exc} (pass --fallback interpret to run anyway)")
    violations = problem.verify_solution(graph, result.outputs)
    error = eta1(graph, predictions, problem.name)
    print(f"instance   : {graph.name} (n={graph.n}, m={graph.num_edges})")
    print(f"algorithm  : {algorithm.name}")
    print(f"noise rate : {args.noise}")
    print(f"eta1       : {error}")
    print(f"rounds     : {result.rounds}")
    print(f"messages   : {result.message_count} ({result.total_bits} bits)")
    if args.schedule == "async":
        print(f"async      : phi={args.phi} delayed={result.delayed_messages} "
              f"retried={result.retried_messages} "
              f"pulses={result.recovery_pulses}")
    _print_path(result, graph)
    if result.stuck is not None:
        print(f"stuck      : {result.stuck.summary()}")
    print(f"max msg    : {result.max_message_bits} bits "
          f"(CONGEST-ok: {result.congest_compatible(graph.n)})")
    print(f"valid      : {not violations}")
    if violations:
        for violation in violations[:5]:
            print(f"  ! {violation}")
        return 1
    return 0


def _print_path(result, graph) -> None:
    """Which fast path ran: the compiled kernel, or the by-index
    initialization pass (and how many nodes it decided)."""
    if result.kernel:
        print(f"kernel     : {result.kernel}")
    if result.init_decided:
        print(
            f"init pass  : {result.init_decided} of {graph.n} node(s) "
            "decided by index"
        )


def _predictions_for_args(problem, graph, args: argparse.Namespace):
    """Perfect predictions, optionally perturbed by ``--noise``."""
    base = perfect_predictions(problem, graph, seed=args.seed)
    if args.noise > 0:
        return noisy_predictions(
            problem, graph, args.noise, seed=args.seed, base=base
        )
    return base


def cmd_profile(args: argparse.Namespace) -> int:
    """Run one instance with round profiling and print the phase table."""
    problem, algorithm, graph = _build(args)
    predictions = _predictions_for_args(problem, graph, args)
    try:
        result = run(
            algorithm,
            graph,
            predictions,
            seed=args.seed,
            max_rounds=args.max_rounds,
            profile=True,
            policy=_policy_from_args(args),
        )
    except UnsupportedScheduleError as exc:
        raise SystemExit(f"{exc} (pass --fallback interpret to run anyway)")
    violations = problem.verify_solution(graph, result.outputs)
    print(f"instance   : {graph.name} (n={graph.n}, m={graph.num_edges})")
    print(f"algorithm  : {algorithm.name}")
    print(f"rounds     : {result.rounds}")
    print(f"messages   : {result.message_count}")
    _print_path(result, graph)
    print(f"valid      : {not violations}")
    print()
    print(result.profile.table())
    summary = result.profile.summary()
    print()
    from repro.obs.profile import PHASES

    for phase in PHASES:
        print(
            f"{phase:>9}: {summary[f'{phase}_s']:.6f}s "
            f"({summary[f'{phase}_share']:.1%})"
        )
    return 1 if violations else 0


def cmd_events(args: argparse.Namespace) -> int:
    """Run one instance and export its structured events as JSONL."""
    import json

    from repro.obs import MemoryEventSink
    from repro.obs.events import write_jsonl_events

    problem, algorithm, graph = _build(args)
    predictions = _predictions_for_args(problem, graph, args)
    sink = MemoryEventSink()
    try:
        result = run(
            algorithm,
            graph,
            predictions,
            seed=args.seed,
            max_rounds=args.max_rounds,
            sinks=[sink],
            policy=_policy_from_args(args),
            on_round_limit="partial" if args.schedule == "async" else "raise",
        )
    except UnsupportedScheduleError as exc:
        raise SystemExit(f"{exc} (pass --fallback interpret to run anyway)")
    entries = sink.entries
    if args.kinds:
        wanted = set(args.kinds.split(","))
        entries = [entry for entry in entries if entry["kind"] in wanted]
    if args.out:
        open(args.out, "w", encoding="utf-8").close()
        write_jsonl_events(args.out, entries)
        print(
            f"wrote {len(entries)} events ({result.rounds} rounds, "
            f"{result.message_count} messages) to {args.out}"
        )
    else:
        try:
            for entry in entries:
                print(json.dumps(entry, sort_keys=True))
        except BrokenPipeError:  # piped into head & co.
            import os

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench.workloads import noisy_for
    from repro.core import RunConfig
    from repro.exec import FaultSpec, GraphSpec, PredictionSpec, Sweep

    problem = PROBLEMS.get(args.problem)
    if problem is None:
        raise SystemExit(f"unknown problem {args.problem!r}")
    factory = TEMPLATES[args.problem].get(args.template)
    if factory is None:
        raise SystemExit(
            f"unknown template {args.template!r} for {args.problem} "
            f"(choose from {sorted(TEMPLATES[args.problem])})"
        )
    rates = [float(r) for r in args.rates.split(",")]

    # The graph comes from a parsed string spec, so it enters the sweep
    # as a literal (content-hashed) artifact rather than a named factory.
    graph_spec = GraphSpec.literal(parse_graph(args.graph))
    faulted = bool(args.drop_rate or args.crash_frac)
    config = RunConfig(
        max_rounds=args.max_rounds,
        seed=args.seed,
        policy=_policy_from_args(args),
    )
    if faulted or args.schedule == "async":
        # A starved faulty (or stabilized async) cell is a data point,
        # not an error.
        config = config.with_overrides(on_round_limit="partial")
    sweep = Sweep(name=f"{args.problem}/{args.template}")
    for rate in rates:
        for seed in range(args.repeats):
            faults = None
            if faulted:
                faults = FaultSpec.of(
                    "random_crash_plan",
                    args.crash_frac,
                    drop_rate=args.drop_rate,
                    seed=seed,
                )
            sweep.add(
                f"p={rate}/s={seed}",
                graph_spec,
                factory,
                predictions=PredictionSpec.of(
                    noisy_for, args.problem, rate, seed=seed
                ),
                faults=faults,
                problem=problem.name,
                seed=args.seed,
                config=config,
            )
    result = sweep.run(
        args.backend,
        jobs=args.jobs,
        chunk_size=args.chunk_size,
        cache_dir=args.cache_dir,
        profile=args.profile,
        events_path=args.events_out,
    )
    print(f"{'error':>6}  {'max rounds':>10}")
    for error, rounds in result.rounds_by_error():
        print(f"{error:>6}  {rounds:>10}")
    print(
        f"\nall valid: {result.all_valid}  "
        f"({len(result)} cells, {result.backend} backend, "
        f"{result.elapsed:.2f}s)"
    )
    if result.backend != result.requested_backend:
        print(
            f"note: requested {result.requested_backend} backend, "
            f"ran {result.backend}"
        )
    telemetry = result.telemetry()
    if telemetry["sharded_cells"]:
        print(
            f"sharded: {telemetry['sharded_cells']} cell(s) across "
            f"{telemetry['shards_total']} shard(s)"
        )
    if telemetry["boundary_msgs_total"]:
        print(
            f"edge-cut boundary: {telemetry['boundary_msgs_total']} "
            f"message(s), {telemetry['boundary_bytes_total']} bytes "
            "exchanged between shards"
        )
    if result.shared_bytes:
        print(
            f"shared-memory store: {result.shared_bytes} bytes resident, "
            f"{telemetry['ship_bytes_total']} bytes shipped across "
            f"{len(result)} cells"
        )
    if args.profile:
        from repro.obs.profile import PHASES

        totals: Dict[str, float] = {}
        for row in result.rows:
            for phase in PHASES:
                key = f"{phase}_s"
                if row.profile:
                    totals[key] = totals.get(key, 0.0) + row.profile[key]
        grand = sum(totals.values()) or 1.0
        print("\nphase totals across cells:")
        for key, value in totals.items():
            print(f"  {key:>11}: {value:.6f}s ({value / grand:.1%})")
    if args.events_out:
        print(f"wrote events to {args.events_out}")
    if args.csv:
        result.to_csv(args.csv)
        print(f"wrote {args.csv}")
    status = 0 if result.all_valid else 1
    if args.bench_out:
        from repro.obs.bench import record_run

        payload, diff = record_run(
            args.bench_out, result, gate=args.bench_gate
        )
        telemetry = payload["telemetry"]
        print(
            f"\nbench baseline {args.bench_out}: "
            f"{telemetry['node_rounds_per_sec']:.0f} node-rounds/s"
        )
        if diff is None:
            print("no previous baseline; recorded this run as the baseline")
        else:
            print(diff.summary())
            if not diff.ok:
                status = 1
    return status


def cmd_dynamic(args: argparse.Namespace) -> int:
    """Replay a dynamic epoch stream with warm-started predictions."""
    from repro.core import RunConfig
    from repro.dynamic import DynamicRunner, SyntheticChurnStream, temporal_stream

    problem = PROBLEMS.get(args.problem)
    if problem is None:
        raise SystemExit(f"unknown problem {args.problem!r}")
    factory = TEMPLATES[args.problem].get(args.template)
    if factory is None:
        raise SystemExit(
            f"unknown template {args.template!r} for {args.problem} "
            f"(choose from {sorted(TEMPLATES[args.problem])})"
        )
    if args.dataset:
        stream = temporal_stream(
            args.dataset,
            epochs=args.epochs,
            data_dir=args.data_dir,
            window=args.window,
            limit=args.limit,
            seed=args.seed,
        )
    else:
        stream = SyntheticChurnStream(
            parse_graph(args.graph),
            args.epochs,
            add=args.churn_add,
            remove=args.churn_remove,
            add_nodes=args.node_add,
            remove_nodes=args.node_remove,
            seed=args.seed,
        )
    config = RunConfig(
        max_rounds=args.max_rounds,
        policy=_policy_from_args(args),
    )
    runner = DynamicRunner(
        factory,
        problem,
        stream,
        config=config,
        scratch=not args.no_scratch,
        seed=args.seed,
    )
    try:
        result = runner.run()
    except UnsupportedScheduleError as exc:
        raise SystemExit(f"{exc} (pass --fallback interpret to run anyway)")
    print(f"stream     : {stream.name} (epochs={stream.epochs})")
    print(f"algorithm  : {args.problem}/{args.template}")
    print()
    print(
        f"{'epoch':>5}  {'n':>6}  {'+e':>5}  {'-e':>5}  {'eta1':>5}  "
        f"{'rounds':>6}  {'scratch':>7}  {'recourse':>8}  {'valid':>5}"
    )
    for row in result.rows:
        scratch = row.scratch_rounds if row.scratch_rounds is not None else "-"
        recourse = row.recourse if row.recourse is not None else "-"
        print(
            f"{row.epoch:>5}  {row.n:>6}  "
            f"{row.metrics.get('inserted_edges', 0):>5}  "
            f"{row.metrics.get('deleted_edges', 0):>5}  "
            f"{row.error if row.error is not None else '-':>5}  "
            f"{row.rounds:>6}  {scratch:>7}  {recourse:>8}  "
            f"{str(bool(row.valid)):>5}"
        )
    status = 0 if result.all_valid else 1
    if args.csv:
        result.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.bench_out:
        from repro.obs.bench import record_run

        payload, diff = record_run(args.bench_out, result, gate=args.bench_gate)
        telemetry = payload["telemetry"]
        print(
            f"\nbench baseline {args.bench_out}: "
            f"{telemetry['node_rounds_per_sec']:.0f} node-rounds/s, "
            f"recourse_total={telemetry['recourse_total']}"
        )
        if diff is None:
            print("no previous baseline; recorded this run as the baseline")
        else:
            print(diff.summary())
            if not diff.ok:
                status = 1
    return status


def cmd_faults(args: argparse.Namespace) -> int:
    """Degradation sweep under fault injection (message loss + crashes)."""
    from repro.faults import degradation_sweep, summarize_points

    problem, algorithm, graph = _build(args)
    rates = [float(rate) for rate in args.rates.split(",")]
    seeds = list(range(args.seeds))
    recover_after = args.recover_after if args.recover_after > 0 else None

    def predictions_for(seed: int):
        base = perfect_predictions(problem, graph, seed=seed)
        if args.noise > 0:
            return noisy_predictions(
                problem, graph, args.noise, seed=seed, base=base
            )
        return base

    points = degradation_sweep(
        algorithm,
        problem,
        graph,
        predictions_for,
        drop_rates=rates,
        seeds=seeds,
        crash_fraction=args.crash_frac,
        recover_after=recover_after,
        max_rounds=args.max_rounds,
    )
    rows = summarize_points(points)
    print(f"instance   : {graph.name} (n={graph.n}, m={graph.num_edges})")
    print(f"algorithm  : {algorithm.name}")
    print(
        f"faults     : crash_frac={args.crash_frac} "
        f"recover_after={recover_after} seeds={args.seeds}"
    )
    print()
    print(
        f"{'drop':>6}  {'rounds':>7}  {'coverage':>8}  {'|S|':>6}  "
        f"{'stuck':>5}  {'dropped':>7}  {'violations':>10}"
    )
    for row in rows:
        print(
            f"{row['drop_rate']:>6}  {row['mean_rounds_executed']:>7.1f}  "
            f"{row['mean_coverage']:>8.3f}  {row['mean_solution_size']:>6.1f}  "
            f"{row['stuck_runs']:>5}  {row['dropped_messages']:>7}  "
            f"{row['violations']:>10}"
        )
    total_violations = sum(row["violations"] for row in rows)
    if total_violations:
        print(f"\n! {total_violations} safety violation(s) among survivors")
        for point in points:
            for violation in point.violations[:3]:
                print(f"  ! drop={point.drop_rate} seed={point.seed}: {violation}")
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                [
                    "graph", "drop_rate", "crash_fraction", "recovery", "seed",
                    "rounds", "rounds_executed", "survivors", "coverage",
                    "solution_size", "violations", "stuck", "dropped",
                ]
            )
            for p in points:
                writer.writerow(
                    [
                        p.graph, p.drop_rate, p.crash_fraction, p.recovery,
                        p.seed, p.rounds, p.rounds_executed, p.survivors,
                        f"{p.coverage:.6f}", p.solution_size,
                        len(p.violations), p.stuck, p.dropped,
                    ]
                )
        print(f"wrote {args.csv}")
    return 1 if total_violations else 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Run the E1..E29 benchmark suite (requires a source checkout)."""
    import os

    if not os.path.isdir(args.benchmarks):
        raise SystemExit(
            f"benchmark directory {args.benchmarks!r} not found — run from a "
            "source checkout or pass --benchmarks"
        )
    import pytest

    argv = [args.benchmarks, "--benchmark-only", "-p", "no:cacheprovider"]
    if args.tables:
        argv.append("-s")
    return pytest.main(argv)


def cmd_datasets(args: argparse.Namespace) -> int:
    """List or download the temporal dataset files (E29 workloads)."""
    import os

    from repro.dynamic.datasets import (
        DATASET_SHA256,
        DATASET_URLS,
        DatasetFetchError,
        TEMPORAL_DATASETS,
        fetch_dataset,
    )

    if args.action == "list":
        for key in sorted(TEMPORAL_DATASETS):
            path = os.path.join(args.data_dir, TEMPORAL_DATASETS[key])
            status = "present" if os.path.exists(path) else "missing"
            pinned = DATASET_SHA256[key] or "unpinned"
            print(f"{key:>14}: {status:>7}  {path}")
            print(f"{'':>14}  url    {DATASET_URLS[key]}")
            print(f"{'':>14}  sha256 {pinned}")
        return 0

    names = args.names or sorted(TEMPORAL_DATASETS)
    if args.sha256 and len(names) != 1:
        raise SystemExit("--sha256 pins one digest; name exactly one dataset")
    failed = 0
    for name in names:
        try:
            outcome = fetch_dataset(
                name,
                data_dir=args.data_dir,
                sha256=args.sha256,
                force=args.force,
            )
        except DatasetFetchError as exc:
            print(f"{name}: FAILED — {exc}")
            failed += 1
            continue
        verb = "downloaded" if outcome.downloaded else "already present"
        print(f"{outcome.name}: {verb} -> {outcome.path}")
        print(f"{'':>{len(outcome.name)}}  sha256 {outcome.sha256}")
    return 1 if failed else 0


def cmd_example(args: argparse.Namespace) -> int:
    module_name = EXAMPLES.get(args.name)
    if module_name is None:
        raise SystemExit(
            f"unknown example {args.name!r} (choose from {sorted(EXAMPLES)})"
        )
    import importlib
    import os

    sys.path.insert(0, os.getcwd())
    module = importlib.import_module(module_name)
    module.main()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed graph algorithms with predictions",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list problems, templates, graphs")

    run_parser = subparsers.add_parser("run", help="run one instance")
    sweep_parser = subparsers.add_parser("sweep", help="noise-rate sweep")
    profile_parser = subparsers.add_parser(
        "profile", help="run one instance with per-round phase timings"
    )
    events_parser = subparsers.add_parser(
        "events", help="run one instance and export structured events"
    )
    dynamic_parser = subparsers.add_parser(
        "dynamic",
        help="replay an epoch stream with warm-started predictions",
    )
    for sub in (
        run_parser, sweep_parser, profile_parser, events_parser, dynamic_parser
    ):
        sub.add_argument("--problem", default="mis", help="problem name")
        sub.add_argument("--template", default="simple", help="template name")
        sub.add_argument("--graph", default="gnp:60:0.08", help="graph spec")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--max-rounds", type=int, default=None)
        sub.add_argument(
            "--schedule",
            choices=tuple(sorted(schedule_capabilities())),
            default="eager",
            help="round scheduling policy (quiescent skips idle nodes; "
            "observationally identical to eager; async adds adversarial "
            "delivery delays — see --phi; vectorized runs whole-frontier "
            "compiled kernels, bit-identical on registered templates)",
        )
        sub.add_argument(
            "--fallback",
            choices=("interpret",),
            default=None,
            help="what to do when --schedule vectorized cannot run this "
            "instance: 'interpret' warns and falls back to the "
            "interpreted quiescent schedule (default: fail loudly)",
        )
        sub.add_argument(
            "--phi", type=int, default=0,
            help="async delay bound: each message arrives within phi ticks "
            "(requires --schedule async; 0 = synchronous delivery)",
        )
        sub.add_argument(
            "--send-timeout", type=int, default=None,
            help="async send timeout in ticks: lost sends are retransmitted "
            "with exponential backoff (requires --schedule async)",
        )
        sub.add_argument(
            "--deadline-s", type=float, default=None,
            help="wall-clock budget per run in seconds; exceeding it "
            "returns a partial result instead of hanging",
        )
    for sub in (run_parser, profile_parser, events_parser):
        sub.add_argument(
            "--noise", type=float, default=0.0, help="prediction noise rate"
        )
    events_parser.add_argument(
        "--out", default=None, help="write JSONL here (default: stdout)"
    )
    events_parser.add_argument(
        "--kinds", default=None,
        help="comma-separated event kinds to keep (e.g. send,drop)",
    )
    sweep_parser.add_argument(
        "--rates", default="0,0.1,0.3,0.6,1.0", help="comma-separated rates"
    )
    sweep_parser.add_argument("--repeats", type=int, default=2)
    sweep_parser.add_argument("--csv", default=None, help="write CSV here")
    sweep_parser.add_argument(
        "--backend", choices=("process", "serial"), default="process",
        help="execution backend (process pool or in-process serial)",
    )
    sweep_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the process backend (default: CPUs)",
    )
    sweep_parser.add_argument(
        "--chunk-size", type=int, default=None,
        help="cells per dispatched chunk (default: auto)",
    )
    sweep_parser.add_argument(
        "--cache-dir", default=None,
        help="on-disk artifact cache directory (e.g. .repro_cache)",
    )
    sweep_parser.add_argument(
        "--share-graph", action="store_true",
        help="publish CSR buffers into a shared-memory store so the "
        "process backend ships each graph once as a ~100-byte handle "
        "instead of flat buffers per chunk",
    )
    sweep_parser.add_argument(
        "--shard", choices=("components", "edgecut"), default=None,
        help="split each cell's graph across workers and merge the shard "
        "results into one bit-identical row: 'components' farms out "
        "connected components independently; 'edgecut' block-partitions "
        "the id space of a connected graph and exchanges cut-crossing "
        "messages through a per-round barrier",
    )
    sweep_parser.add_argument(
        "--drop-rate", type=float, default=0.0,
        help="inject a message adversary dropping this fraction of sends",
    )
    sweep_parser.add_argument(
        "--crash-frac", type=float, default=0.0,
        help="fraction of nodes given crash faults in every cell",
    )
    sweep_parser.add_argument(
        "--profile", action="store_true",
        help="profile every cell and print aggregate phase timings",
    )
    sweep_parser.add_argument(
        "--events-out", default=None,
        help="write every cell's structured events to this JSONL file",
    )
    sweep_parser.add_argument(
        "--bench-out", default=None,
        help="record a BENCH baseline JSON here and diff against the "
        "previous one (exits nonzero on regression)",
    )
    sweep_parser.add_argument(
        "--bench-gate", type=float, default=2.0,
        help="throughput regression gate for --bench-out (default 2.0x)",
    )

    dynamic_parser.add_argument(
        "--epochs", type=int, default=6, help="number of update epochs"
    )
    dynamic_parser.add_argument(
        "--churn-add", type=int, default=4,
        help="edges inserted per synthetic epoch",
    )
    dynamic_parser.add_argument(
        "--churn-remove", type=int, default=4,
        help="edges deleted per synthetic epoch",
    )
    dynamic_parser.add_argument(
        "--node-add", type=int, default=0,
        help="nodes arriving per synthetic epoch",
    )
    dynamic_parser.add_argument(
        "--node-remove", type=int, default=0,
        help="nodes departing per synthetic epoch",
    )
    dynamic_parser.add_argument(
        "--dataset", default=None,
        help="temporal dataset name (collegemsg, email-eu-core, "
        "mathoverflow, or a file name); replaces --graph with a "
        "timestamp-bucketed stream, synthetic fallback when the file "
        "is missing",
    )
    dynamic_parser.add_argument(
        "--data-dir", default="data",
        help="directory holding temporal dataset files (default: data)",
    )
    dynamic_parser.add_argument(
        "--window", type=int, default=None,
        help="age edges out of a temporal stream after this many epochs",
    )
    dynamic_parser.add_argument(
        "--limit", type=int, default=None,
        help="truncate the temporal event list to this many events",
    )
    dynamic_parser.add_argument(
        "--no-scratch", action="store_true",
        help="skip the per-epoch solve-from-scratch comparison runs",
    )
    dynamic_parser.add_argument("--csv", default=None, help="write CSV here")
    dynamic_parser.add_argument(
        "--bench-out", default=None,
        help="record a BENCH baseline JSON here and diff against the "
        "previous one (exits nonzero on regression)",
    )
    dynamic_parser.add_argument(
        "--bench-gate", type=float, default=2.0,
        help="throughput regression gate for --bench-out (default 2.0x)",
    )

    faults_parser = subparsers.add_parser(
        "faults", help="degradation sweep under fault injection"
    )
    faults_parser.add_argument("--problem", default="mis", help="problem name")
    faults_parser.add_argument(
        "--template", default="hardened", help="template name"
    )
    faults_parser.add_argument(
        "--graph", default="gnp:48:0.1", help="graph spec"
    )
    faults_parser.add_argument(
        "--noise", type=float, default=0.0, help="prediction noise rate"
    )
    faults_parser.add_argument(
        "--rates", default="0,0.01,0.05,0.2",
        help="comma-separated message drop rates",
    )
    faults_parser.add_argument(
        "--crash-frac", type=float, default=0.0,
        help="fraction of nodes that crash in early rounds",
    )
    faults_parser.add_argument(
        "--recover-after", type=int, default=0,
        help="rounds until crashed nodes rejoin (0 = crash-stop)",
    )
    faults_parser.add_argument(
        "--seeds", type=int, default=3, help="seeds per rate"
    )
    faults_parser.add_argument("--max-rounds", type=int, default=None)
    faults_parser.add_argument("--csv", default=None, help="write CSV here")

    datasets_parser = subparsers.add_parser(
        "datasets",
        help="list or download the temporal dataset files (SNAP dumps)",
    )
    datasets_parser.add_argument(
        "action", choices=("list", "fetch"),
        help="'list' shows status and pinned digests; 'fetch' downloads, "
        "decompresses and checksum-verifies into --data-dir (the only "
        "command that touches the network — loading never does)",
    )
    datasets_parser.add_argument(
        "names", nargs="*",
        help="dataset names to fetch (default: all known datasets)",
    )
    datasets_parser.add_argument(
        "--data-dir", default="data",
        help="directory to place dataset files in (default: data)",
    )
    datasets_parser.add_argument(
        "--force", action="store_true",
        help="re-download even when a verified local copy exists",
    )
    datasets_parser.add_argument(
        "--sha256", default=None,
        help="expected digest of the decompressed file (overrides the "
        "pinned registry entry; requires naming exactly one dataset)",
    )

    example_parser = subparsers.add_parser("example", help="run a bundled example")
    example_parser.add_argument("name", help=f"one of {sorted(EXAMPLES)}")

    reproduce_parser = subparsers.add_parser(
        "reproduce", help="run the full E1..E29 experiment suite"
    )
    reproduce_parser.add_argument("--benchmarks", default="benchmarks")
    reproduce_parser.add_argument(
        "--tables", action="store_true", help="print the measured tables"
    )

    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "profile": cmd_profile,
        "events": cmd_events,
        "dynamic": cmd_dynamic,
        "datasets": cmd_datasets,
        "faults": cmd_faults,
        "example": cmd_example,
        "reproduce": cmd_reproduce,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
