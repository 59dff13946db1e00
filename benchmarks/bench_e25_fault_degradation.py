"""E25 — Graceful degradation under message loss and crash-recovery.

The paper's model assumes reliable synchronous channels; this experiment
measures what survives when that assumption breaks.  The hardened MIS
template (prediction-based initialization + greedy reference, both
leaning only on the engine's reliable termination notifications) runs
under a seeded message adversary at 0%, 1%, 5% and 20% drop rates, with
and without crashes, on three graph families.  Runs use
``on_round_limit="partial"`` so an adversary that starves the round
budget yields a measurable partial result instead of an exception.

The whole 108-run grid executes as one :class:`repro.exec.Sweep` on the
process-pool backend: every run carries an explicit seed and a
:class:`~repro.exec.plan.FaultSpec` naming
:func:`~repro.faults.harness.random_crash_plan` with that seed, so a
serial re-execution of any cell gives the same row.  Per-cell survivor
metrics and the cell's drop rate come from
:func:`repro.faults.harness.degradation_metrics`, and
:func:`repro.faults.harness.degradation_curve` folds each (family,
configuration) slice into one row per drop rate, the same curve
``repro faults`` prints.

Claims checked:

* safety is unconditional: the survivor-restricted MIS validators report
  zero violations at every drop rate, with and without crash-recovery;
* degradation is graceful: mean survivor coverage is weakly monotone in
  the drop rate (up to a small seed-noise slack) and perfect at rate 0
  without crashes;
* loss costs only time: mean executed rounds never decrease as the drop
  rate grows, and at 20% loss the round budget makes some runs measurably
  incomplete (coverage < 1) — curves, not cliffs.
"""

from functools import partial

from repro.bench import Table
from repro.bench.workloads import perfect_mis, sorted_line
from repro.core import RunConfig
from repro.exec import FaultSpec, GraphSpec, PredictionSpec, Sweep
from repro.faults import degradation_curve, degradation_metrics

DROP_RATES = (0.0, 0.01, 0.05, 0.2)
SEEDS = (0, 1, 2)
# Round budgets sized just above each family's clean-run round count so
# that heavy loss visibly eats into coverage instead of just adding
# rounds (clean hardened runs finish in 3; 20% loss pushes past 7).
FAMILIES = (
    ("gnp48", GraphSpec.of("erdos_renyi", 48, 0.1, seed=3), 7),
    ("grid-6x8", GraphSpec.of("grid2d", 6, 8), 7),
    ("sortedline-64", GraphSpec.of(sorted_line, 64), 7),
)
CONFIGS = (
    ("no crashes", 0.0, None),
    ("crash-stop 10%", 0.1, None),
    ("crash-recovery 10%", 0.1, 3),
)


def test_e25_fault_degradation(once):
    def experiment():
        sweep = Sweep(name="e25-degradation")
        coordinates = []  # (family, config) per cell, in add order
        for family_name, graph_spec, budget in FAMILIES:
            config = RunConfig(max_rounds=budget, on_round_limit="partial")
            for config_name, crash_fraction, recover_after in CONFIGS:
                for rate in DROP_RATES:
                    for seed in SEEDS:
                        sweep.add(
                            f"{family_name}/{config_name}/d={rate}/s={seed}",
                            graph_spec,
                            "mis_hardened_simple",
                            predictions=PredictionSpec.of(perfect_mis, seed=seed),
                            faults=FaultSpec.of(
                                "random_crash_plan",
                                crash_fraction,
                                recover_after=recover_after,
                                drop_rate=rate,
                                seed=seed,
                            ),
                            problem="mis",
                            seed=seed,
                            config=config,
                            metrics=partial(degradation_metrics, drop_rate=rate),
                        )
                        coordinates.append((family_name, config_name))
        result = sweep.run("process")

        # Rows come back in cell order, so they zip with the coordinates
        # recorded at add time (labels encode the same facts, but parsing
        # floats back out of labels is fragile).
        by_cell = {}
        for row, coordinate in zip(result.rows, coordinates):
            by_cell.setdefault(coordinate, []).append(row)

        table = Table(
            "E25: survivor coverage under message loss (hardened MIS)",
            ["graph", "faults", "drop", "rounds", "coverage", "|S|",
             "stuck", "violations"],
        )
        curves = []
        for family_name, _, _ in FAMILIES:
            for config_name, _, _ in CONFIGS:
                rows = degradation_curve(by_cell[(family_name, config_name)])
                for row in rows:
                    table.add_row(
                        family_name,
                        config_name,
                        row["drop_rate"],
                        round(row["mean_rounds_executed"], 1),
                        round(row["mean_coverage"], 3),
                        round(row["mean_solution_size"], 1),
                        row["stuck_runs"],
                        row["violations"],
                    )
                curves.append((family_name, config_name, rows))
        return table, curves

    table, curves = once(experiment)
    table.print()

    degraded_somewhere = False
    for family_name, config_name, rows in curves:
        label = f"{family_name}/{config_name}"
        # Safety is unconditional: no survivor-restricted violation at
        # any fault rate, in any configuration.
        for row in rows:
            assert row["violations"] == 0, (
                f"{label}: violations at drop={row['drop_rate']}"
            )
        # Perfect consistency baseline: nothing lost, nothing crashed.
        if config_name == "no crashes":
            assert rows[0]["mean_coverage"] == 1.0, label
        # Graceful degradation: coverage weakly monotone in the drop
        # rate, with a small slack for seed noise.
        for lighter, heavier in zip(rows, rows[1:]):
            assert (
                heavier["mean_coverage"] <= lighter["mean_coverage"] + 0.05
            ), (
                f"{label}: coverage rose from drop={lighter['drop_rate']} "
                f"to {heavier['drop_rate']}"
            )
            # Loss costs time: executed rounds never shrink as drops grow.
            assert (
                heavier["mean_rounds_executed"]
                >= lighter["mean_rounds_executed"] - 0.5
            ), label
        if rows[-1]["mean_coverage"] < 1.0:
            degraded_somewhere = True
    # The 20% adversary must actually bite somewhere — otherwise the
    # budgets are too loose and the experiment measures nothing.
    assert degraded_somewhere
