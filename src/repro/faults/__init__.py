"""Fault injection and graceful degradation.

The paper's central promise is *robustness*: an algorithm with
predictions must stay correct and bounded even when the prediction is
adversarially bad (Section 1.1, Lemmas 1-2).  This subpackage extends the
same discipline to the execution substrate, so that claim-validation
benchmarks remain trustworthy when something goes wrong mid-run:

* :class:`FaultPlan` — a declarative description of node faults
  (crash-stop, crash-with-recovery), seeded message adversaries
  (drop / duplicate / corrupt, per-edge or global), and
  prediction-corruption adversaries;
* :class:`FaultController` — the object the engine interposes in its
  compose/deliver path; every decision is a pure function of
  ``(seed, round, sender, receiver)``, so faulty runs are exactly as
  reproducible as fault-free ones;
* :mod:`~repro.faults.validators` — safety checks on the partial outputs
  of the *surviving* subgraph after a faulty run;
* :mod:`~repro.faults.harness` — seeded crash plans, per-cell
  degradation metrics and the per-drop-rate curve that
  ``repro faults`` and ``benchmarks/bench_e25_fault_degradation.py``
  compute over :class:`repro.exec.Sweep` rows.
"""

from repro.faults.controller import FaultController, MessageFate
from repro.faults.harness import (
    degradation_curve,
    degradation_metrics,
    random_crash_plan,
)
from repro.faults.plan import (
    CrashFault,
    FaultPlan,
    MessageAdversary,
    PredictionAdversary,
)
from repro.faults.validators import (
    survivor_coverage,
    survivor_nodes,
    survivor_violations,
)

__all__ = [
    "CrashFault",
    "FaultController",
    "FaultPlan",
    "MessageAdversary",
    "MessageFate",
    "PredictionAdversary",
    "degradation_curve",
    "degradation_metrics",
    "random_crash_plan",
    "survivor_coverage",
    "survivor_nodes",
    "survivor_violations",
]
