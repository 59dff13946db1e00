"""Tests for the trade-off template (Section 10 exploration) and the CLI."""

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


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mis" in out and "parallel" in out

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
        algorithm (no template) interprets every node and says nothing."""
        from repro.cli import main

        graph = ["--problem", "mis", "--graph", "gnp:30:0.1:2", "--noise", "0.2"]
        assert main([command, "--template", "simple", *graph]) == 0
        lines = capsys.readouterr().out.splitlines()
        line = next(line for line in lines if line.startswith("init pass  : "))
        decided = int(line.split(":")[1].split()[0])
        assert 0 < decided <= 30 and line.endswith("of 30 node(s) decided by index")
        assert main([command, "--template", "greedy", *graph]) == 0
        assert "init pass" not in capsys.readouterr().out

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
