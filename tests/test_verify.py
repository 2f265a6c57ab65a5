import json
import random

import pytest
from conftest import longest_chain, reference_check_dependency
from hypothesis import given, settings
from hypothesis import strategies as st

from mlqls import Circuit, Gate, Mapping, build_dag, gen_queko, make_device
from mlqls.verify import (
    QlsSolution,
    SwapOp,
    asap_depth,
    solution_from_json,
    solution_to_json,
    swap_count,
    verify,
)


@pytest.fixture
def two_block_solution(triangle_circuit, tshape5, scenario_mapping):
    """Two blocks, one SWAP on edge (1,3) carrying q0: p3->p1 and q1: p1->p3."""
    m0 = scenario_mapping
    m1 = Mapping((1, 3, 2))
    sol = QlsSolution((m0, m1), (0, 0, 1), (SwapOp((1, 3), 0),))
    return triangle_circuit, tshape5, sol


class TestVerify:
    def test_two_block_scenario_passes(self, two_block_solution):
        c, g, sol = two_block_solution
        report = verify(c, g, sol)
        assert report.ok, report.first_failure()
        assert swap_count(sol) == 1

    def test_identity_solution(self, path4):
        c = Circuit.from_pairs(3, [(0, 1), (1, 2)])
        sol = QlsSolution((Mapping((0, 1, 2)),), (0, 0), ())
        assert verify(c, path4, sol).ok
        assert swap_count(sol) == 0

    def test_missing_swap_fails_consistency(self, two_block_solution):
        c, g, sol = two_block_solution
        broken = QlsSolution(sol.block_mappings, sol.gate_block, ())
        report = verify(c, g, broken)
        assert not report.ok
        assert not report.swap_consistency.ok
        assert "block 1" in report.swap_consistency.witness

    def test_non_adjacent_gate_fails(self, tshape5):
        c = Circuit.from_pairs(2, [(0, 1)])
        sol = QlsSolution((Mapping((0, 2)),), (0,), ())  # p0,p2 not adjacent
        report = verify(c, tshape5, sol)
        assert not report.adjacency.ok

    def test_dependency_violation(self, path4):
        c = Circuit.from_pairs(3, [(0, 1), (0, 2)])
        m0 = Mapping((0, 1, 2))
        m1 = Mapping((1, 0, 2))
        sol = QlsSolution((m0, m1), (1, 0), (SwapOp((0, 1), 0),))
        report = verify(c, path4, sol)
        assert not report.dependency.ok

    def test_injectivity_checked_at_construction(self):
        with pytest.raises(ValueError, match="injective"):
            Mapping((1, 1))

    def test_structural_bad_edge(self, path4):
        c = Circuit.from_pairs(2, [(0, 1)])
        sol = QlsSolution(
            (Mapping((0, 1)), Mapping((0, 1))), (0,), (SwapOp((0, 3), 0),)
        )
        report = verify(c, path4, sol)
        assert not report.structure.ok
        assert "non-edge" in report.structure.witness

    def test_verify_is_pure(self, two_block_solution):
        c, g, sol = two_block_solution
        assert verify(c, g, sol) == verify(c, g, sol)

    def test_overlapping_gap_flagged_but_valid(self, path4):
        # two swaps on the same edge cancel out: wasteful but consistent
        c = Circuit.from_pairs(2, [(0, 1), (0, 1)])
        m0 = Mapping((0, 1))
        sol = QlsSolution((m0, m0), (0, 1), (SwapOp((0, 1), 0), SwapOp((0, 1), 0)))
        report = verify(c, path4, sol)
        assert report.ok
        assert report.overlapping_gaps == (0,)


def checked_depth(circuit, graph, sol):
    """ASAP depth of a solution that must verify first."""
    report = verify(circuit, graph, sol)
    assert report.ok, report.first_failure()
    return asap_depth(circuit, sol)


@st.composite
def schedules(draw):
    """A random commutable or non-commutable circuit with some single-qubit
    gates, and a four-block solution on a path with a random gate schedule:
    ascending (so in order) or not, with one gate sometimes moved."""
    nq = draw(st.integers(2, 6))
    qubit = st.integers(0, nq - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
    operands = draw(st.lists(st.one_of(pair, st.lists(qubit, min_size=1, max_size=1)), max_size=12))
    gates = tuple(Gate(i, tuple(qs), "cx" if len(qs) == 2 else "h") for i, qs in enumerate(operands))
    circuit = Circuit(nq, gates, draw(st.booleans()))
    blocks = draw(st.lists(st.integers(0, 3), min_size=len(gates), max_size=len(gates)))
    if draw(st.booleans()):
        blocks.sort()
    if gates and draw(st.booleans()):
        blocks[draw(st.integers(0, len(gates) - 1))] = draw(st.integers(0, 3))
    identity = Mapping(tuple(range(nq)))
    return circuit, QlsSolution((identity,) * 4, tuple(blocks), ())


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(schedules())
def test_dependency_check_matches_dag_reference(instance):
    circuit, sol = instance
    report = verify(circuit, make_device("path", circuit.num_qubits), sol)
    assert report.structure.ok
    assert report.dependency.ok == reference_check_dependency(circuit, sol).ok


class TestAsapDepth:
    def test_serial_chain(self, path4):
        k = 6
        gates = [(0, 1)] * k
        c = Circuit.from_pairs(2, gates)
        sol = QlsSolution((Mapping((0, 1)),), tuple(0 for _ in range(k)), ())
        assert checked_depth(c, path4, sol) == k

    def test_two_disjoint_gates_parallel(self, path4):
        c = Circuit.from_pairs(4, [(0, 1), (2, 3)])
        sol = QlsSolution((Mapping((0, 1, 2, 3)),), (0, 0), ())
        assert checked_depth(c, path4, sol) == 1

    def test_queko_witness_hits_target_depth(self, grid4):
        c, wit = gen_queko(grid4, 7, 0.5, seed=2)
        sol = QlsSolution((wit,), tuple(0 for _ in c.gates), ())
        assert checked_depth(c, grid4, sol) == 7

    def test_invalid_solution_rejected(self, tshape5):
        # asap_depth does not check; scheduling callers verify first
        c = Circuit.from_pairs(2, [(0, 1)])
        sol = QlsSolution((Mapping((0, 2)),), (0,), ())
        assert not verify(c, tshape5, sol).ok

    def test_depth_at_least_longest_chain(self, grid4):
        rng = random.Random(3)
        for _ in range(10):
            pairs = [tuple(rng.sample(range(6), 2)) for _ in range(8)]
            c = Circuit.from_pairs(6, pairs)
            sol = _route_identity(c, grid4)
            assert checked_depth(c, grid4, sol) >= longest_chain(build_dag(c))

    def test_swaps_occupy_cycles(self, two_block_solution):
        c, g, sol = two_block_solution
        # g0, g1 serialize on q1; then the swap; then g2
        assert checked_depth(c, g, sol) == 4


def _route_identity(circuit, graph):
    from mlqls.srefine import astar_insert

    m0 = Mapping(tuple(range(circuit.num_qubits)))
    return astar_insert(circuit, graph, m0)


def test_solution_json_roundtrip(two_block_solution):
    _, _, sol = two_block_solution
    data = json.loads(json.dumps(solution_to_json(sol)))
    sol2 = solution_from_json(data)
    assert sol2.block_mappings == sol.block_mappings
    assert sol2.gate_block == sol.gate_block
    assert sol2.swaps == sol.swaps
    assert data["swap_count"] == 1
