"""Tests for the trade-off template (Section 10 exploration) and the CLI."""

import re

import pytest

from repro import HedgedConsecutiveTemplate, run
from repro.algorithms.mis import (
    GreedyMISAlgorithm,
    MISCleanupAlgorithm,
    MISInitializationAlgorithm,
)
from repro.algorithms.mis.greedy import GreedyMISProgram
from repro.core import FunctionalAlgorithm
from repro.errors import eta1
from repro.graphs import line, sorted_path_ids
from repro.predictions import all_zeros_mis, perfect_predictions
from repro.problems import MIS


def hedged(trust):
    reference = FunctionalAlgorithm(
        "greedy-ref",
        GreedyMISProgram,
        round_bound=lambda n, delta, d: n + 1,
        safe_pause_interval=2,
    )
    return HedgedConsecutiveTemplate(
        MISInitializationAlgorithm(),
        GreedyMISAlgorithm(),
        MISCleanupAlgorithm(),
        reference,
        trust=trust,
    )


class TestHedgedTemplate:
    def test_negative_trust_rejected(self):
        with pytest.raises(ValueError):
            hedged(-0.5)

    def test_consistency_independent_of_trust(self):
        graph = sorted_path_ids(line(30))
        predictions = perfect_predictions(MIS, graph, seed=1)
        for trust in (0.0, 0.25, 1.0, 2.0):
            result = run(hedged(trust), graph, predictions)
            assert result.rounds <= 3
            assert MIS.is_solution(graph, result.outputs)

    def test_zero_trust_worst_case_is_reference_cost(self):
        """λ = 0: straight to the reference — worst case ≈ c + c' + n."""
        graph = sorted_path_ids(line(40))
        result = run(hedged(0.0), graph, all_zeros_mis(graph))
        assert MIS.is_solution(graph, result.outputs)
        assert result.rounds <= 3 + 1 + graph.n + 1

    def test_trust_extends_degradation_window(self):
        """With η₁ ≈ n/2 (half the line corrupted), high trust lets U
        finish within its slice (rounds ≈ η), while zero trust pays the
        clean-up plus the full reference start-up."""
        graph = sorted_path_ids(line(60))
        predictions = perfect_predictions(MIS, graph, seed=1)
        corrupted = dict(predictions)
        for node in range(1, 31):
            corrupted[node] = 0
        error = eta1(graph, corrupted)
        assert error >= 20

        trusting = run(hedged(1.0), graph, corrupted)
        distrusting = run(hedged(0.0), graph, corrupted)
        assert MIS.is_solution(graph, trusting.outputs)
        assert MIS.is_solution(graph, distrusting.outputs)
        # Trusting: degradation bound f(eta) + c + O(1).
        assert trusting.rounds <= error + 3 + 2

    def test_hedging_is_free_when_reference_equals_u(self):
        """An empirical finding on the Section 10 question: when R = U
        (greedy both ways), hedging costs nothing — U's steady progress
        means the λ·r 'wasted' rounds were never wasted.  Worst cases are
        flat in λ (within O(1))."""
        graph = sorted_path_ids(line(48))
        predictions = all_zeros_mis(graph)
        costs = {
            trust: run(hedged(trust), graph, predictions).rounds
            for trust in (0.0, 0.5, 1.0)
        }
        assert max(costs.values()) - min(costs.values()) <= 3
        for trust, rounds in costs.items():
            assert rounds <= 3 + (1 + trust) * (graph.n + 1) + 1 + 3

    def test_worst_case_grows_with_trust_against_fast_reference(self):
        """With a reference far faster than U in the worst case (the
        O(Δ² + log* d) Linial MIS), the trade-off is real: all-wrong
        predictions cost ≈ c + λ·r + c' + r, growing with λ."""
        from repro.algorithms.mis import LinialMISAlgorithm

        graph = sorted_path_ids(line(64))
        reference = LinialMISAlgorithm()
        cap = reference.round_bound(graph.n, graph.delta, graph.d)

        def hedged_fast(trust):
            return HedgedConsecutiveTemplate(
                MISInitializationAlgorithm(),
                GreedyMISAlgorithm(),
                MISCleanupAlgorithm(),
                reference,
                trust=trust,
            )

        predictions = all_zeros_mis(graph)
        costs = {
            trust: run(hedged_fast(trust), graph, predictions).rounds
            for trust in (0.0, 1.0, 2.0)
        }
        for trust, rounds in costs.items():
            assert MIS.is_solution(
                graph, run(hedged_fast(trust), graph, predictions).outputs
            )
            assert rounds <= 3 + trust * cap + 2 + 1 + cap + 2
        # The worst case strictly grows once trust is large enough that
        # the U budget dominates the reference cap.
        assert costs[2.0] > costs[0.0]


def _repro(*args, cwd):
    """``python -m repro`` in a fresh interpreter, run from ``cwd``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    source = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": source},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mis" in out and "parallel" in out

    def test_list_prints_each_schedules_row(self, capsys):
        from repro import schedules
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name, caps in schedules().items():
            assert f"  {name}: paths={', '.join(caps['paths'])};" in out

    def test_sweep_refusal_exits_with_the_reason(self, tmp_path):
        from repro.simulator.capabilities import PATHS

        done = _repro(
            "sweep", "--shard", "components", "--drop-rate", "0.1",
            "--graph", "paths:4:5", "--rates", "0", "--repeats", "1",
            "--backend", "serial", "--jobs", "2",
            cwd=tmp_path,
        )
        assert done.returncode != 0
        assert PATHS["components"].why in done.stderr
        assert "Traceback" not in done.stderr
        done = _repro(
            "sweep", "--shard", "edgecut", "--schedule", "vectorized",
            "--graph", "ptree:3:3", "--rates", "0", "--repeats", "1",
            "--backend", "serial", "--jobs", "2",
            cwd=tmp_path,
        )
        assert done.returncode != 0
        assert PATHS["edgecut"].why in done.stderr
        assert "--fallback interpret" in done.stderr
        assert "Traceback" not in done.stderr

    def test_example_runs_outside_the_checkout(self, tmp_path):
        done = _repro("example", "quickstart", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert "consistency" in done.stdout

    def test_example_without_a_checkout_names_the_path(self, tmp_path, monkeypatch):
        from repro import cli

        monkeypatch.setattr(cli, "__file__", str(tmp_path / "src" / "repro" / "cli.py"))
        with pytest.raises(SystemExit, match=re.escape(str(tmp_path / "examples"))):
            cli.main(["example", "quickstart"])

    def test_run_valid_instance(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run",
                "--problem",
                "mis",
                "--template",
                "simple",
                "--graph",
                "gnp:30:0.1:2",
                "--noise",
                "0.2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "valid      : True" in out

    @pytest.mark.parametrize("command", ("run", "profile"))
    def test_reports_the_initialization_pass(self, command, capsys):
        """A noisy MIS template decides most nodes by index; the greedy
        algorithm (no template) interprets every node and says nothing.
        ``repro run`` then runs the rest as a kernel and names the
        compiled slices next; ``repro profile`` profiles, which keeps the
        interpreted window, and names none."""
        from repro.cli import main

        graph = ["--problem", "mis", "--graph", "gnp:30:0.1:2", "--noise", "0.2"]
        assert main([command, "--template", "simple", *graph]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("init pass  : "))
        line = lines[at]
        decided = int(line.split(":")[1].split()[0])
        assert 0 < decided <= 30 and line.endswith("of 30 node(s) decided by index")
        compiled = [line for line in lines if line.startswith("compiled   : ")]
        if command == "run":
            assert compiled == [lines[at + 1]]
            assert compiled[0] == "compiled   : slices B, R (no node interpreted)"
        else:
            assert compiled == []
        assert main([command, "--template", "greedy", *graph]) == 0
        out = capsys.readouterr().out
        assert "init pass" not in out and "compiled" not in out

    def test_sweep_csv(self, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--problem",
                "vertex-coloring",
                "--graph",
                "ring:12",
                "--rates",
                "0,1.0",
                "--repeats",
                "1",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        content = csv_path.read_text().splitlines()
        assert content[0] == (
            "label,graph,n,seed,rounds,rounds_executed,valid,error,"
            "messages,dropped,delayed,retried,kernel,epoch,recourse,"
            "scratch_rounds,stuck,solution_size,shards,shared_bytes,"
            "ship_bytes,boundary_msgs,boundary_bytes,failure"
        )
        assert len(content) == 3

    def test_faults(self, capsys):
        from repro.cli import main

        code = main(
            [
                "faults", "--graph", "sortedline:64",
                "--crash-frac", "0.1", "--recover-after", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        header = lines.index(
            "  drop   rounds  coverage     |S|  stuck  dropped  violations"
        )
        table = [line.split() for line in lines[header + 1:]]
        assert [
            (drop, rounds, coverage, dropped, violations)
            for drop, rounds, coverage, _, _, dropped, violations in table
        ] == [
            ("0.0", "7.3", "1.000", "0", "0"),
            ("0.01", "7.3", "1.000", "7", "0"),
            ("0.05", "10.0", "1.000", "31", "0"),
            ("0.2", "12.0", "1.000", "111", "0"),
        ]

        code = main(
            [
                "faults", "--template", "simple", "--graph", "sortedline:64",
                "--rates", "0.2", "--noise", "0.1",
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        start = lines.index("! 12 safety violation(s) among survivors")
        examples = lines[start + 1:]
        assert len(examples) == 8
        assert examples[0] == (
            "  ! drop=0.2 seed=0: adjacent nodes 9 and 10 both output 1"
        )

    def test_lossy_edge_coloring_reports_instead_of_aborting(self, capsys):
        """A dropped color message leaves an edge colored at one end only;
        the other end colors it again and must not then crash on the late
        message, so the sweep prints its row and the survivors' clashes."""
        from repro.cli import main

        code = main(
            [
                "faults", "--problem", "edge-coloring", "--template", "simple",
                "--graph", "gnp:30:0.15", "--rates", "0.2",
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        header = lines.index(
            "  drop   rounds  coverage     |S|  stuck  dropped  violations"
        )
        assert lines[header + 1].split() == [
            "0.2", "8.7", "1.000", "30.0", "0", "155", "35"
        ]
        start = lines.index("! 35 safety violation(s) among survivors")
        assert "  ! drop=0.2 seed=0: edge (5,30) colored 8 by 5 but 6 by 30" in (
            lines[start + 1:]
        )

    def test_crashed_matching_partners_are_still_neighbors(self, capsys):
        """A survivor matched to a neighbor that crashed is judged on the
        whole graph, where the two are adjacent."""
        from repro.cli import main, parse_graph

        main(
            [
                "faults", "--problem", "matching", "--template", "simple",
                "--graph", "gnp:40:0.1", "--crash-frac", "0.2",
            ]
        )
        out = capsys.readouterr().out
        graph = parse_graph("gnp:40:0.1")
        pairs = re.findall(r"node (\d+) matched to non-neighbor (\d+)", out)
        assert [
            (node, other)
            for node, other in pairs
            if int(other) in graph.neighbors(int(node))
        ] == []

    def test_faults_csv_has_one_sweep_row_per_run(self, tmp_path, capsys):
        import csv

        from repro.cli import main
        from repro.exec import CELL_COLUMNS

        csv_path = tmp_path / "faults.csv"
        code = main(
            [
                "faults", "--graph", "sortedline:64",
                "--crash-frac", "0.1", "--recover-after", "3",
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        with open(csv_path, newline="") as handle:
            reader = csv.DictReader(handle)
            header = reader.fieldnames
            rows = list(reader)
        assert header[: len(CELL_COLUMNS)] == [c.name for c in CELL_COLUMNS]
        assert {"drop_rate", "coverage", "survivors", "violations"} <= set(header)
        assert len(rows) == 12
        assert [float(row["drop_rate"]) for row in rows] == [
            rate for rate in (0.0, 0.01, 0.05, 0.2) for _ in range(3)
        ]
        assert [row["seed"] for row in rows] == ["0", "1", "2"] * 4
        assert all(row["violations"] == "0" for row in rows)

    @pytest.mark.parametrize(
        "argv",
        (
            ["run", "--noise", "1.5"],
            ["sweep", "--rates", "0,1.5"],
            ["sweep", "--drop-rate", "1.5"],
            ["faults", "--crash-frac", "1.5"],
            ["faults", "--rates", "-0.1"],
        ),
    )
    def test_out_of_range_rates_are_usage_errors(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "must be in [0, 1]" in err

    def test_dynamic_synthetic(self, tmp_path, capsys):
        from repro.cli import main

        csv_path = tmp_path / "dyn.csv"
        code = main(
            [
                "dynamic",
                "--problem", "mis",
                "--template", "simple",
                "--graph", "gnp:30:0.12:2",
                "--epochs", "3",
                "--churn-add", "3",
                "--churn-remove", "3",
                "--csv", str(csv_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recourse" in out
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 5  # header + epochs 0..3
        assert "epoch,recourse,scratch_rounds" in lines[0]

    def test_dynamic_temporal_fallback(self, capsys):
        import warnings

        from repro.cli import main

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(
                [
                    "dynamic",
                    "--dataset", "collegemsg",
                    "--epochs", "2",
                    "--window", "1",
                    "--limit", "200",
                    "--no-scratch",
                ]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert "collegemsg-synthetic" in out

    def test_graph_spec_errors(self):
        from repro.cli import parse_graph

        with pytest.raises(SystemExit):
            parse_graph("nope:3")
        with pytest.raises(SystemExit):
            parse_graph("grid:3")

    def test_graph_spec_families(self):
        from repro.cli import parse_graph

        assert parse_graph("line:5").n == 5
        assert parse_graph("grid:2:3").n == 6
        assert parse_graph("wheel:6").n == 13
        assert parse_graph("gnp:10:0.5:3").n == 10
        assert parse_graph("paths:3:4").n == 12
        assert parse_graph("ptree:3:2").n == 13

    def test_unknown_template_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "--problem", "mis", "--template", "nope"])
