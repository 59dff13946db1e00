"""E22 — Simulator throughput (engineering, not a paper claim).

Wall-clock benchmarks of the engine itself, timed properly (multiple
pytest-benchmark rounds): how fast the simulator pushes node-rounds for
the workhorse algorithms.  These are the only benchmarks in the suite
where the *time* column is the result; everything else measures round
counts.

Each workload is benchmarked in the default mode and in ``fast=True``
mode (which skips per-message bit-size accounting); the fast variants
also assert that fast mode changes *nothing observable* — same rounds,
same outputs, same message count — so the speedup column is free of
semantic drift.  The measured before/after table lives in
EXPERIMENTS.md.

The profiled variants time the same workloads under
``run(..., profile=True)`` (the same round loop with its phase timers
on, see docs/OBSERVABILITY.md) and assert the same observational-identity
contract, so the profiling overhead column is honest too.

The topology micro-benchmarks at the bottom compare the two adjacency
representations directly — dict-of-sets vs the shared
:class:`~repro.graphs.csr.CSRTopology` — on construction and on a full
neighbor sweep, so the CSR core's cost model is measured and not
asserted from folklore.
"""

from repro.algorithms.mis import GreedyMISAlgorithm, LubyMISAlgorithm
from repro.bench.algorithms import mis_parallel
from repro.core import run
from repro.graphs import CSRTopology, grid2d, random_regular
from repro.predictions import noisy_predictions
from repro.problems import MIS


def test_e22_greedy_on_large_grid(benchmark):
    graph = grid2d(40, 40)  # 1600 nodes

    def execute():
        return run(GreedyMISAlgorithm(), graph)

    result = benchmark(execute)
    assert MIS.is_solution(graph, result.outputs)


def test_e22_greedy_on_large_grid_fast(benchmark):
    graph = grid2d(40, 40)
    reference = run(GreedyMISAlgorithm(), graph)

    def execute():
        return run(GreedyMISAlgorithm(), graph, fast=True)

    result = benchmark(execute)
    assert MIS.is_solution(graph, result.outputs)
    # fast mode is observationally identical up to bit accounting
    assert result.rounds == reference.rounds
    assert result.outputs == reference.outputs
    assert result.message_count == reference.message_count


def test_e22_luby_on_regular_graph(benchmark):
    graph = random_regular(1000, 4, seed=1)

    def execute():
        return run(LubyMISAlgorithm(), graph, seed=1)

    result = benchmark(execute)
    assert MIS.is_solution(graph, result.outputs)


def test_e22_luby_on_regular_graph_fast(benchmark):
    graph = random_regular(1000, 4, seed=1)
    reference = run(LubyMISAlgorithm(), graph, seed=1)

    def execute():
        return run(LubyMISAlgorithm(), graph, seed=1, fast=True)

    result = benchmark(execute)
    assert MIS.is_solution(graph, result.outputs)
    assert result.rounds == reference.rounds
    assert result.outputs == reference.outputs
    assert result.message_count == reference.message_count


def test_e22_parallel_template_medium(benchmark):
    graph = random_regular(200, 4, seed=2)
    predictions = noisy_predictions(MIS, graph, 0.3, seed=2)
    algorithm = mis_parallel()

    def execute():
        return run(algorithm, graph, predictions)

    result = benchmark(execute)
    assert MIS.is_solution(graph, result.outputs)


def test_e22_parallel_template_medium_fast(benchmark):
    graph = random_regular(200, 4, seed=2)
    predictions = noisy_predictions(MIS, graph, 0.3, seed=2)
    reference = run(mis_parallel(), graph, predictions)

    def execute():
        return run(mis_parallel(), graph, predictions, fast=True)

    result = benchmark(execute)
    assert MIS.is_solution(graph, result.outputs)
    assert result.rounds == reference.rounds
    assert result.outputs == reference.outputs
    assert result.message_count == reference.message_count


def test_e22_greedy_on_large_grid_profiled(benchmark):
    """Profiling cost on the grid workload — and proof the round loop's
    phase timers change nothing observable."""
    graph = grid2d(40, 40)
    reference = run(GreedyMISAlgorithm(), graph)

    def execute():
        return run(GreedyMISAlgorithm(), graph, profile=True)

    result = benchmark(execute)
    assert MIS.is_solution(graph, result.outputs)
    assert result.rounds == reference.rounds
    assert result.outputs == reference.outputs
    assert result.message_count == reference.message_count
    assert len(result.profile) == result.rounds_executed
    assert sum(result.profile.message_counts()) == result.message_count


def test_e22_luby_on_regular_graph_profiled(benchmark):
    graph = random_regular(1000, 4, seed=1)
    reference = run(LubyMISAlgorithm(), graph, seed=1)

    def execute():
        return run(LubyMISAlgorithm(), graph, seed=1, profile=True)

    result = benchmark(execute)
    assert MIS.is_solution(graph, result.outputs)
    assert result.rounds == reference.rounds
    assert result.outputs == reference.outputs
    assert result.message_count == reference.message_count
    assert len(result.profile) == result.rounds_executed


def test_e22_sweep_throughput(benchmark):
    """Executor overhead: a 12-cell grid through the serial backend
    should cost barely more than the 12 underlying runs (the artifact
    cache builds each graph and prediction mapping once)."""
    from repro.exec import GraphSpec, Sweep

    def execute():
        sweep = Sweep(name="e22-throughput", base_seed=5)
        sweep.add_grid(
            {
                "grid": GraphSpec.of("grid2d", 12, 12),
                "regular": GraphSpec.of("random_regular", 144, 4, seed=3),
            },
            {"luby": "mis_parallel", "simple": "mis_simple"},
            predictions={"zeros": "all_zeros_mis"},
            seeds=(0, 1, 2),
            problem="mis",
        )
        return sweep.run("serial")

    result = benchmark(execute)
    assert len(result) == 12
    assert result.all_valid
    telemetry = result.telemetry()
    assert telemetry["node_rounds_per_sec"] > 0
    assert telemetry["backend"] == "serial"


# ----------------------------------------------------------------------
# Topology micro-benchmarks: dict-of-sets vs the shared CSR core
# ----------------------------------------------------------------------

def _raw_adjacency(rows, cols):
    """A plain dict-of-sets grid adjacency, built without DistGraph so
    both representations start from the same raw material."""
    def node(r, c):
        return r * cols + c + 1

    adjacency = {node(r, c): set() for r in range(rows) for c in range(cols)}
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                adjacency[node(r, c)].add(node(r, c + 1))
                adjacency[node(r, c + 1)].add(node(r, c))
            if r + 1 < rows:
                adjacency[node(r, c)].add(node(r + 1, c))
                adjacency[node(r + 1, c)].add(node(r, c))
    return adjacency


def test_e22_topology_dict_construction(benchmark):
    """Baseline: building the dict-of-sets adjacency itself."""
    result = benchmark(_raw_adjacency, 40, 40)
    assert len(result) == 1600


def test_e22_topology_csr_construction(benchmark):
    """CSR interning + row packing on top of an existing adjacency —
    the one-time cost every DistGraph pays at construction."""
    adjacency = _raw_adjacency(40, 40)

    result = benchmark(CSRTopology.from_adjacency, adjacency)
    assert result.n == 1600
    assert result.m == sum(len(v) for v in adjacency.values()) // 2


def test_e22_topology_dict_neighbor_sweep(benchmark):
    """Full neighbor iteration through the dict-of-sets adjacency."""
    adjacency = _raw_adjacency(40, 40)

    def sweep():
        total = 0
        for node in adjacency:
            for other in adjacency[node]:
                total += other
        return total

    expected = sweep()
    assert benchmark(sweep) == expected


def test_e22_topology_csr_neighbor_sweep(benchmark):
    """The same sweep through CSR rows (index-based hot-loop API)."""
    topology = CSRTopology.from_adjacency(_raw_adjacency(40, 40))
    ids = topology.ids

    def sweep():
        total = 0
        for _, row in topology.iter_rows():
            for other in row:
                total += ids[other]
        return total

    def dict_sweep():
        adjacency = _raw_adjacency(40, 40)
        return sum(other for node in adjacency for other in adjacency[node])

    expected = dict_sweep()
    assert benchmark(sweep) == expected


# ----------------------------------------------------------------------
# Pool-boundary serialization (what the process backend ships per cell)
# ----------------------------------------------------------------------
def test_e22_pickle_bytes_per_cell_flat(benchmark):
    """Flat serialization of a literal-graph work item — the bytes every
    chunk dispatch shipped per cell before the shared-memory store."""
    import pickle

    from repro.core import RunConfig
    from repro.exec import GraphSpec, Sweep

    sweep = Sweep(name="e22")
    sweep.add(
        "cell", GraphSpec.literal(random_regular(1600, 4, seed=1)), mis_parallel
    )
    item = ("cell", 0, sweep.cells[0], 1, False, False)

    size = benchmark(lambda: len(pickle.dumps(item, pickle.HIGHEST_PROTOCOL)))
    assert size > 8 * 1600  # the CSR buffers dominate a flat item


def test_e22_pickle_bytes_per_cell_shared(benchmark):
    """The same item while a SharedCSRStore is active: the topology
    reduces to a ~100-byte segment handle, so per-cell pool traffic is
    spec overhead, independent of n."""
    import pickle

    from repro.exec import GraphSpec, Sweep
    from repro.shard import SharedCSRStore

    sweep = Sweep(name="e22")
    graph = random_regular(1600, 4, seed=1)
    sweep.add("cell", GraphSpec.literal(graph), mis_parallel)
    item = ("cell", 0, sweep.cells[0], 1, False, False)
    flat = len(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))

    with SharedCSRStore() as store:
        store.publish(graph.csr)  # first publish paid outside the loop
        size = benchmark(
            lambda: len(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
        )
    assert size * 5 <= flat  # the handle path ships >= 5x fewer bytes
