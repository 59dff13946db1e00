"""Failure paths of the shard layer.

Each edge-cut case injects one failure into a run and checks what the
caller sees: a shard process that dies, a shard program that raises, a
strict-CONGEST overflow on a cut edge, a shared-memory store that cannot
publish, and a deadline that expires mid-run.  A component-sharded cell
whose shards all kill their pool workers must still fold into one row.
After every case the run must have left nothing behind: no child
process, no ``edgecut-*`` thread, and no segment or mmap file of its
:class:`~repro.shard.SharedCSRStore` (the ``released`` fixture checks
all three).
"""

from __future__ import annotations

import errno
import multiprocessing
import os
import threading
import time
import warnings
from multiprocessing import shared_memory

import pytest

from repro import ExecutionPolicy, RunConfig, run
from repro.bench.algorithms import greedy_mis_reference
from repro.core.algorithm import DistributedAlgorithm
from repro.exec import AlgorithmSpec, ArtifactCache, GraphSpec, Sweep
from repro.exec.plan import Cell
from repro.graphs import DistGraph, path_forest
from repro.shard import SharedCSRStore, edgecut, execute_edgecut_cell, run_edgecut
from repro.simulator.models import strict_congest
from repro.simulator.program import NodeProgram
from repro.simulator.transport import BandwidthExceeded

SHARDS = 2

#: The ring 1-12-2-11-...-6-7-1.  Two id-block shards own {1..6} and
#: {7..12}, so every edge is a cut edge.
_ORDER = (1, 12, 2, 11, 3, 10, 4, 9, 5, 8, 6, 7)
RING = DistGraph(
    {
        node: (_ORDER[i - 1], _ORDER[(i + 1) % len(_ORDER)])
        for i, node in enumerate(_ORDER)
    }
)

#: The node whose program fails, owned by shard 1.
VICTIM = 12
#: The round a chatter run ends in when nothing fails.
LAST = 4
#: A stalled round outlasts the deadline.
DEADLINE_S = 0.2
STALL_S = 0.6


class InjectedFailure(RuntimeError):
    """What a ``failure="raise"`` program raises."""


class _ChatterProgram(NodeProgram):
    def __init__(self, failure):
        self.failure = failure

    def compose(self, ctx):
        return {other: ctx.node_id for other in ctx.neighbors}

    def process(self, ctx, inbox):
        if self.failure == "exit-all":
            os._exit(3)
        if ctx.round == 2 and ctx.node_id == VICTIM:
            if self.failure == "exit":
                os._exit(3)
            if self.failure == "raise":
                raise InjectedFailure(f"node {VICTIM} failed in round 2")
            if self.failure == "stall":
                time.sleep(STALL_S)
        if ctx.round == LAST:
            ctx.set_output(1)
            ctx.terminate()


class Chatter(DistributedAlgorithm):
    """Every node sends its id to its neighbors until round ``LAST``,
    then outputs 1; in round 2, node ``VICTIM`` exits its process,
    raises or stalls as ``failure`` says (``"exit-all"``: every node
    exits its process in round 1)."""

    name = "chatter"

    def __init__(self, failure=None):
        self.failure = failure

    def build_program(self):
        return _ChatterProgram(self.failure)


def _cell(algorithm, *, policy=None, model=None, problem=None):
    return Cell(
        label="failure",
        graph=GraphSpec.literal(RING),
        algorithm=algorithm,
        problem=problem,
        config=RunConfig(
            model=model, policy=policy or ExecutionPolicy(shard="edgecut")
        ),
    )


def _process_cell(cell, seed=1):
    return execute_edgecut_cell(
        0, cell, seed, SHARDS, mode="process", cache=ArtifactCache()
    )


def _exists(handle):
    if handle.kind == "file":
        return os.path.exists(handle.name)
    try:
        segment = shared_memory.SharedMemory(name=handle.name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


@pytest.fixture
def released(monkeypatch):
    """Records the stores the test's runs open and the segments they
    publish; on teardown, asserts the runs left nothing alive."""
    stores, handles = [], []
    init, publish = SharedCSRStore.__init__, SharedCSRStore.publish

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stores.append(self)

    def recording_publish(self, topology):
        handle = publish(self, topology)
        handles.append(handle)
        return handle

    monkeypatch.setattr(SharedCSRStore, "__init__", recording_init)
    monkeypatch.setattr(SharedCSRStore, "publish", recording_publish)
    yield stores
    assert multiprocessing.active_children() == []
    assert [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("edgecut-")
    ] == []
    assert all(store.closed for store in stores)
    assert [handle.name for handle in handles if _exists(handle)] == []


def test_dying_shard_process_is_named(released):
    cell = _cell(AlgorithmSpec.of(Chatter, "exit"))
    with pytest.raises(RuntimeError, match="edge-cut shard 1 process died"):
        _process_cell(cell)
    assert released, "the process mode opened no store"


def test_raising_shard_thread_raises_its_exception(released):
    with pytest.raises(InjectedFailure, match="round 2"):
        run_edgecut(Chatter("raise"), RING, shard_count=SHARDS)


def test_cut_edge_overflow_raises_the_unsharded_text(released):
    model = strict_congest(factor=1)
    with pytest.raises(BandwidthExceeded) as unsharded:
        run(greedy_mis_reference(), RING, config=RunConfig(seed=1, model=model))
    cell = _cell(AlgorithmSpec.of("greedy_mis_reference"), model=model)
    with pytest.raises(BandwidthExceeded) as sharded:
        _process_cell(cell)
    assert str(sharded.value) == str(unsharded.value)


def test_unpublishable_store_ships_flat_buffers(released, monkeypatch):
    def refuse(self, topology):
        raise OSError(errno.ENOSPC, "no room for the segment")

    monkeypatch.setattr(SharedCSRStore, "publish", refuse)
    cell = _cell(AlgorithmSpec.of("greedy_mis_reference"), problem="mis")
    process = _process_cell(cell, seed=5)
    thread = execute_edgecut_cell(
        0, cell, 5, SHARDS, mode="thread", cache=ArtifactCache()
    )
    assert process.as_tuple() == thread.as_tuple()
    assert process.valid
    assert (process.boundary_msgs, process.boundary_bytes) == (
        thread.boundary_msgs,
        thread.boundary_bytes,
    )


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_deadline_mid_run_reports_the_deadline(released, mode):
    policy = ExecutionPolicy(shard="edgecut", deadline_s=DEADLINE_S)
    config = RunConfig(seed=1, policy=policy)
    if mode == "thread":
        result = run_edgecut(
            Chatter("stall"), RING, config=config, shard_count=SHARDS
        )
    else:
        # The process driver itself: the cell's row keeps only stuck=True.
        config, plan = edgecut._admit(config, RING, Chatter(), False, SHARDS)
        cell = _cell(AlgorithmSpec.of(Chatter, "stall"), policy=policy)
        result = edgecut._run_edgecut_process(cell, config, SHARDS, RING, plan)
    assert result.stuck is not None
    assert result.stuck.reason == "deadline"
    assert result.rounds_executed < LAST
    assert result.stuck.live_nodes == sorted(RING.nodes)
    assert result.outputs == {}


def test_lost_component_shards_fail_their_cell_once(released):
    # Every node's program exits its pool worker: both shards of each
    # cell are lost, and lost again on their retry.
    sweep = Sweep(name="lost")
    for label in ("first", "second"):
        sweep.add(
            label,
            GraphSpec.literal(path_forest(4, 3)),
            AlgorithmSpec.of(Chatter, "exit-all"),
            policy=ExecutionPolicy(shard="components"),
        )
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "a sweep worker died")
        result = sweep.run("process", jobs=2)
    assert [(row.index, row.label) for row in result.rows] == [
        (0, "first"),
        (1, "second"),
    ]
    assert all("BrokenProcessPool" in row.failure for row in result.rows)

