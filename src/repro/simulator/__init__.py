"""Synchronous message-passing simulator (LOCAL / CONGEST models).

This subpackage is the substrate of the whole repository: every algorithm
from the paper is written as a :class:`~repro.simulator.program.NodeProgram`
and executed by the :class:`~repro.simulator.engine.SyncEngine`, which
implements the synchronous round structure of Section 2 of the paper:

    In each round, each active node can send a possibly different message
    to each of its neighbors, receive all messages sent to it that round
    from all of its neighbors, do some computation and update its state,
    optionally assign a value to its local output, and terminate if this
    is the node's last output.

The engine also implements the paper's convention (Section 7) that, prior
to terminating, nodes inform their active neighbors about their output
values: a terminated neighbor's output becomes visible in the *following*
round, exactly when an explicit notification message would have arrived.

The engine is a thin orchestrator over composable runtime stages — see
docs/ARCHITECTURE.md: :class:`~repro.simulator.transport.Transport`
(mailboxes + bit accounting), :class:`~repro.simulator.scheduling.Scheduler`
(eager / quiescent / quiescent-debug / async / vectorized round drives),
:class:`~repro.simulator.interpose.FaultInterposer` (the fault surface),
:class:`~repro.simulator.lifecycle.NodeLifecycle` (terminations, crashes,
recoveries) and :class:`~repro.simulator.obs_dispatch.ObsDispatch` (event
fan-out + profiling), all over the shared
:class:`~repro.graphs.csr.CSRTopology` graph core.
"""

from repro.simulator.adversary import DelayAdversary, RetryPolicy
from repro.simulator.capabilities import schedule_capabilities
from repro.simulator.context import NodeContext
from repro.simulator.engine import (
    BandwidthExceeded,
    QuiescenceViolation,
    RoundLimitExceeded,
    SyncEngine,
)
from repro.simulator.interpose import FaultInterposer
from repro.simulator.lifecycle import NodeLifecycle
from repro.simulator.message import estimate_bits
from repro.simulator.metrics import (
    NodeRecord,
    NodeRecords,
    NodeSnapshot,
    RunResult,
    StuckReport,
)
from repro.simulator.models import CONGEST, LOCAL, ExecutionModel
from repro.simulator.obs_dispatch import ObsDispatch
from repro.simulator.program import NodeProgram
from repro.simulator.scheduling import (
    AsyncScheduler,
    EagerScheduler,
    ExecutionPolicy,
    QuiescentDebugScheduler,
    QuiescentScheduler,
    Scheduler,
    VectorizedScheduler,
)
from repro.simulator.trace import TraceEvent, TraceRecorder
from repro.simulator.transport import Transport

__all__ = [
    "AsyncScheduler",
    "BandwidthExceeded",
    "CONGEST",
    "DelayAdversary",
    "EagerScheduler",
    "ExecutionModel",
    "ExecutionPolicy",
    "FaultInterposer",
    "LOCAL",
    "NodeContext",
    "NodeLifecycle",
    "NodeProgram",
    "NodeRecord",
    "NodeRecords",
    "NodeSnapshot",
    "ObsDispatch",
    "QuiescenceViolation",
    "QuiescentDebugScheduler",
    "QuiescentScheduler",
    "RetryPolicy",
    "RoundLimitExceeded",
    "RunResult",
    "Scheduler",
    "StuckReport",
    "SyncEngine",
    "TraceEvent",
    "TraceRecorder",
    "Transport",
    "VectorizedScheduler",
    "estimate_bits",
    "schedule_capabilities",
]
