import random
import tracemalloc

import pytest
from conftest import (
    drop_dag_edges,
    random_connected_graph,
    random_gates,
    reference_closure,
    reference_exact_closure,
    reference_lower_bound,
    reference_optimal_oracle,
    reference_pick_bindable,
    reference_state_key,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mlqls import Circuit, CouplingGraph, Gate, gen_qaoa, make_device
from mlqls import exact
from mlqls.exact import (
    _NODES_PER_SECOND,
    ExactConfig,
    InstanceTooLarge,
    OracleLimitError,
    _BlockSearch,
    _Deadline,
    _symmetry_positions,
    optimal_oracle,
    solve_exact,
)
from mlqls.srefine import _extend_partial, astar_insert
from mlqls.verify import solution_to_json, swap_count, verify


def random_instance(rng, num_qubits, num_gates, commutable=False):
    pairs = [tuple(rng.sample(range(num_qubits), 2)) for _ in range(num_gates)]
    return Circuit.from_pairs(num_qubits, pairs, commutable)


class TestOracle:
    def test_executable_in_place(self, path4):
        c = Circuit.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        assert optimal_oracle(c, path4, 5) == 0

    def test_one_transposition_on_path3(self):
        p3 = make_device("path", 3)
        # whatever the placement, (0,1),(0,2),(1,2) cannot all sit adjacent:
        # a path has no triangle, so exactly one swap is needed.
        c = Circuit.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
        assert optimal_oracle(c, p3, 5) == 1

    def test_scenario_instance(self, tshape5, triangle_circuit):
        assert optimal_oracle(triangle_circuit, tshape5, 5) == 1

    def test_cap_returns_none(self, path4):
        c = Circuit.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        need = optimal_oracle(c, path4, 10)
        assert need is not None and need >= 1
        assert optimal_oracle(c, path4, need - 1) is None

    def test_limits_enforced(self, path4):
        big_graph = make_device("path", 7)
        c = Circuit.from_pairs(2, [(0, 1)])
        with pytest.raises(OracleLimitError):
            optimal_oracle(c, big_graph, 2)
        c11 = Circuit.from_pairs(4, [(0, 1)] * 11)
        with pytest.raises(OracleLimitError):
            optimal_oracle(c11, path4, 2)


class TestSolveExact:
    def test_embeddable_zero_swaps_one_block(self, path4):
        c = Circuit.from_pairs(4, [(2, 3), (0, 1), (1, 2)])
        res = solve_exact(c, path4)
        assert res.swaps == 0
        assert res.solution.num_blocks == 1
        assert res.proven_optimal

    def test_scenario_needs_one_swap(self, tshape5, triangle_circuit):
        res = solve_exact(triangle_circuit, tshape5)
        assert res.swaps == 1
        assert verify(triangle_circuit, tshape5, res.solution).ok

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_oracle_on_random_instances(self, path4, seed):
        rng = random.Random(seed)
        c = random_instance(rng, 4, rng.randint(2, 6))
        assert solve_exact(c, path4).swaps == optimal_oracle(c, path4, 10)

    def test_misnamed_device_matches_oracle(self):
        # A tree named like a library path must not get the path's anchor
        # orbits: searching half the anchor positions misses optima.
        tree = CouplingGraph.build(6, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)], name="path:6")
        rng = random.Random(0)
        for _ in range(50):
            c = random_instance(rng, rng.randint(4, 6), rng.randint(6, 8))
            res = solve_exact(c, tree)
            assert res.swaps == optimal_oracle(c, tree, res.swaps)

    def test_symmetry_orbits_need_library_edges(self, path4, tshape5):
        assert _symmetry_positions(path4) == [0, 1]
        assert _symmetry_positions(make_device("grid", 3)) == [0, 1, 4]
        misnamed = CouplingGraph.build(5, tshape5.edges, name="path:5")
        assert _symmetry_positions(misnamed) is None
        assert _symmetry_positions(CouplingGraph.build(2, [(0, 1)], name="grid:x")) is None

    def test_matches_oracle_commutable(self, path4):
        rng = random.Random(99)
        for _ in range(5):
            c = random_instance(rng, 4, rng.randint(2, 6), commutable=True)
            assert solve_exact(c, path4).swaps == optimal_oracle(c, path4, 10)

    def test_solution_always_verifies(self, tshape5):
        rng = random.Random(3)
        for _ in range(10):
            c = random_instance(rng, rng.randint(2, 5), rng.randint(1, 7))
            res = solve_exact(c, tshape5)
            assert verify(c, tshape5, res.solution).ok

    def test_monotone_in_gate_prefix(self, path4):
        rng = random.Random(17)
        pairs = [tuple(rng.sample(range(4), 2)) for _ in range(7)]
        prev = 0
        for k in range(1, 8):
            swaps = solve_exact(Circuit.from_pairs(4, pairs[:k]), path4).swaps
            assert swaps >= prev
            prev = swaps

    def test_deterministic(self, tshape5):
        rng = random.Random(4)
        c = random_instance(rng, 5, 6)
        a = solve_exact(c, tshape5)
        b = solve_exact(c, tshape5)
        assert a.solution == b.solution

    def test_instance_too_large(self, path4):
        c = Circuit.from_pairs(4, [(0, 1)] * 51)
        with pytest.raises(InstanceTooLarge):
            solve_exact(c, path4)
        with pytest.raises(InstanceTooLarge):
            solve_exact(Circuit.from_pairs(17, [(0, 1)]), make_device("grid", 5))

    def test_more_program_than_physical(self):
        p2 = make_device("path", 2)
        with pytest.raises(ValueError):
            solve_exact(Circuit.from_pairs(3, [(0, 1)]), p2)

    def test_one_qubit_gates_only(self, path4):
        from mlqls import Gate

        c = Circuit(3, (Gate(0, (0,), "h"), Gate(1, (2,), "t")))
        res = solve_exact(c, path4)
        assert res.swaps == 0
        assert verify(c, path4, res.solution).ok

    def test_depth_populated(self, tshape5, triangle_circuit):
        res = solve_exact(triangle_circuit, tshape5)
        assert res.solution.depth is not None and res.solution.depth >= 3

    def test_budget_config_validated(self):
        with pytest.raises(ValueError):
            ExactConfig(post_first_solution_budget=0)
        with pytest.raises(ValueError):
            ExactConfig(overall_budget=float("nan"))

    def test_timeout_still_returns_verified_solution(self):
        # a dense instance with a near-zero budget forces best-so-far, which
        # is no worse than one A* routing pass from a breadth-first placement
        g = make_device("grid", 4)
        rng = random.Random(0)
        pairs = [tuple(rng.sample(range(14), 2)) for _ in range(40)]
        cfg = ExactConfig(post_first_solution_budget=0.05, overall_budget=0.05)
        for commutable in (True, False):
            c = Circuit.from_pairs(14, pairs, commutable)
            res = solve_exact(c, g, cfg)
            assert res.timed_out
            assert not res.proven_optimal
            assert verify(c, g, res.solution).ok
            routed = astar_insert(c, g, _extend_partial({}, c.num_qubits, g))
            assert res.swaps <= swap_count(routed)

    def test_nodes_reported_against_the_limit(self, tshape5, triangle_circuit):
        # a budget-bound solve stops at the first node past its limit; a
        # proven solve finishes below it
        cfg = ExactConfig(post_first_solution_budget=0.05, overall_budget=0.05)
        limit = 0.05 * _NODES_PER_SECOND
        rng = random.Random(0)
        pairs = [tuple(rng.sample(range(14), 2)) for _ in range(40)]
        bound = solve_exact(Circuit.from_pairs(14, pairs), make_device("grid", 4), cfg)
        assert bound.timed_out and bound.nodes > limit
        proven = solve_exact(triangle_circuit, tshape5, cfg)
        assert proven.proven_optimal and 0 < proven.nodes < limit

    def test_budget_bound_solve_stays_small(self):
        # every visited state is one int key: this solve peaked at 16 MB when
        # the keys were tuples holding the occupants and a frozenset
        cfg = ExactConfig(post_first_solution_budget=0.3, overall_budget=0.3)
        tracemalloc.start()
        try:
            res = solve_exact(gen_qaoa(12, 0), make_device("grid", 4), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.timed_out
        assert peak < 6_000_000

    def test_warm_start_tightens_incumbent(self, tshape5, triangle_circuit):
        from mlqls.srefine import srefine_run
        from mlqls.srefine import SrefineConfig

        warm = srefine_run(
            triangle_circuit, tshape5, None,
            SrefineConfig(candidates=1, mapper_first_budget=0.2),
            random.Random(0),
        )
        res = solve_exact(triangle_circuit, tshape5, warm_start=warm)
        assert res.swaps == 1 and res.proven_optimal


@st.composite
def small_instances(draw, one_qubit_gates=False):
    """A random connected device of at most 6 nodes (sometimes misnamed as a
    library path) and a random circuit of at most 8 gates on it, some of them
    single-qubit gates if ``one_qubit_gates``."""
    n = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    edges = random_connected_graph(rng, n, draw(st.integers(0, n)))
    name = draw(st.sampled_from(["custom", f"path:{n}"]))
    graph = CouplingGraph.build(n, sorted(edges), name=name)
    nq = draw(st.integers(2, n))
    pair = st.lists(st.integers(0, nq - 1), min_size=2, max_size=2, unique=True)
    gate = pair
    if one_qubit_gates:
        gate = st.one_of(pair, st.lists(st.integers(0, nq - 1), min_size=1, max_size=1))
    operands = draw(st.lists(gate, max_size=8))
    gates = tuple(Gate(i, tuple(qs), "cx" if len(qs) == 2 else "h") for i, qs in enumerate(operands))
    return graph, Circuit(nq, gates, draw(st.booleans()))


# 500 derandomized examples are enough to catch anchor orbits taken from the
# device name alone (a tree named path:n), a bug this solver once had.
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(small_instances())
def test_exact_agrees_with_oracle(instance):
    graph, c = instance
    res = solve_exact(c, graph, ExactConfig(post_first_solution_budget=1, overall_budget=2))
    assert verify(c, graph, res.solution).ok
    optimum = optimal_oracle(c, graph, res.swaps)
    assert optimum is not None  # never fewer SWAPs than the optimum
    if res.proven_optimal:
        assert res.swaps == optimum


class _KeyRecorder(_BlockSearch):
    """A search that checks, at every node, that its int state key and the
    reference tuple key determine each other, and that ``occ_code`` matches
    the occupants."""

    def __init__(self, circuit, graph):
        super().__init__(circuit, graph)
        self.to_reference: dict = {}
        self.from_reference: dict = {}

    def _state_key(self, tag, block):
        key = super()._state_key(tag, block)
        ref = reference_state_key(self, tag, block)
        assert self.to_reference.setdefault(key, ref) == ref
        assert self.from_reference.setdefault(ref, key) == key
        width = self.circuit.num_qubits.bit_length()
        assert self.occ_code == sum((q + 1) << (p * width) for p, q in enumerate(self.occ))
        return key


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_instances())
def test_state_key_matches_reference(instance):
    graph, c = instance
    search = _KeyRecorder(c, graph)
    try:
        for blocks in range(1, 4):
            search.search(max_blocks=blocks, swap_cap=len(c.gates), node_limit=3000)
    except _Deadline:
        pass


class _ClosureRecorder(_BlockSearch):
    """A search that checks every closure against the in-degree reference:
    from the executed gates before it, at the current bindings, whatever
    gates it was told were touched. It also checks that the bound carried
    down from block node to block node equals the full-scan bound."""

    def _closure(self, block, touched, bound):
        before = self.exec_mask
        bound = super()._closure(block, touched, bound)
        assert self.exec_mask == reference_closure(self.circuit, self.graph, self.pos, before)
        assert bound == reference_lower_bound(self)
        return bound


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_instances(one_qubit_gates=True))
def test_closure_matches_reference(instance):
    graph, c = instance
    search = _ClosureRecorder(c, graph)
    try:
        for blocks in range(1, 4):
            search.search(max_blocks=blocks, swap_cap=len(c.gates), node_limit=3000)
    except _Deadline:
        pass


class _FullScanSearch(_BlockSearch):
    """The search with the full-scan closure, bound and pick it was first
    written with: every block node scans every gate."""

    def _closure(self, block, touched, bound):
        reference_exact_closure(self, block)
        return reference_lower_bound(self)

    def _lower_bound(self):
        return reference_lower_bound(self)

    def _pick_bindable(self):
        return reference_pick_bindable(self)


@st.composite
def dense_instances(draw):
    """path:6, grid:3 or grid:4, and 8 to 20 random gates, one in five
    single-qubit, on all of its qubits or up to two fewer."""
    devices = [make_device("path", 6), make_device("grid", 3), make_device("grid", 4)]
    graph = draw(st.sampled_from(devices))
    rng = random.Random(draw(st.integers(0, 2**32)))
    nq = draw(st.integers(graph.num_physical - 2, graph.num_physical))
    return graph, Circuit(nq, random_gates(rng, nq, draw(st.integers(8, 20))), draw(st.booleans()))


def _assert_matches_full_scan_search(instance, nodes):
    graph, c = instance
    budget = nodes / _NODES_PER_SECOND
    cfg = ExactConfig(post_first_solution_budget=budget, overall_budget=budget)
    res = solve_exact(c, graph, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_BlockSearch", _FullScanSearch)
        ref = solve_exact(c, graph, cfg)
    assert solution_to_json(res.solution) == solution_to_json(ref.solution)
    assert (res.proven_optimal, res.timed_out, res.nodes) == (
        ref.proven_optimal,
        ref.timed_out,
        ref.nodes,
    )


# Nearly every one of these needs no SWAP; they cover single-qubit gates,
# tiny devices and misnamed paths.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_instances(one_qubit_gates=True), st.sampled_from([10, 100, 1000]))
def test_solve_exact_matches_full_scan_search(instance, nodes):
    _assert_matches_full_scan_search(instance, nodes)


# 123 of these 150 solves run out of nodes.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dense_instances(), st.sampled_from([100, 1000, 4000]))
def test_solve_exact_matches_full_scan_search_when_budget_runs_out(instance, nodes):
    _assert_matches_full_scan_search(instance, nodes)


def test_oracle_ignores_dag_faults(path5, monkeypatch):
    # the oracle reads gate order off the circuit, so a DAG without edges
    # changes none of its answers
    rng = random.Random(0)
    circuits = [random_instance(rng, 5, 8) for _ in range(30)]
    expected = [optimal_oracle(c, path5, 10) for c in circuits]
    drop_dag_edges(monkeypatch, lambda g: True)
    assert [optimal_oracle(c, path5, 10) for c in circuits] == expected


@st.composite
def oracle_instances(draw):
    """A random tree of 3 to 5 nodes with at most one chord, and 6 to 10
    gates on all of its nodes or all but one, about a fifth of them
    single-qubit gates. 65 of the 150 examples below need SWAPs."""
    n = draw(st.integers(3, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    graph = CouplingGraph.build(n, sorted(random_connected_graph(rng, n, draw(st.integers(0, 1)))))
    nq = draw(st.integers(n - 1, n))
    return graph, Circuit(nq, random_gates(rng, nq, draw(st.integers(6, 10))), draw(st.booleans()))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(oracle_instances())
def test_oracle_matches_dag_reference(instance):
    graph, c = instance
    assert optimal_oracle(c, graph, 3) == reference_optimal_oracle(c, graph, 3)
