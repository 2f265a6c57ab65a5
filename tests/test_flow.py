import math
import random

import pytest
from conftest import random_connected_graph
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import flow_qaoa20_grid5

from mlqls import (
    Circuit,
    CouplingGraph,
    Gate,
    gen_qaoa,
    gen_queko,
    make_device,
)
from mlqls.exact import MAX_QUBITS, ExactConfig, fits_exact, optimal_oracle, solve_exact
from mlqls.flow import FlowConfig, compression_guard, run_mlqls
from mlqls.srefine import SrefineConfig
from mlqls.verify import asap_depth, solution_to_json, swap_count, verify


def fast_cfg(seed=0):
    return FlowConfig(
        seed=seed,
        srefine=SrefineConfig(
            candidates=2, mapper_first_budget=0.5, mapper_next_budget=0.2
        ),
        exact=ExactConfig(post_first_solution_budget=0.5, overall_budget=2.0),
    )


class TestCompressionGuard:
    def test_stall_stops(self):
        assert compression_guard(16, 15) is False

    def test_halving_continues(self):
        assert compression_guard(16, 8) is True

    def test_ten_percent_continues(self):
        # 3 / 30 rounds to 0.1 exactly, while 0.1 * 30 rounds above 3
        assert compression_guard(30, 27) is True


class TestRunMlqls:
    def test_degenerate_vcycle_small_instance(self, tshape5, triangle_circuit):
        r = run_mlqls(triangle_circuit, tshape5, fast_cfg())
        assert len(r.levels) == 2
        coarsest = r.levels.levels[-1].circuit
        assert fits_exact(coarsest)
        assert coarsest.num_qubits < triangle_circuit.num_qubits
        assert swap_count(r.final) <= swap_count(r.initial)
        assert verify(triangle_circuit, tshape5, r.final).ok
        # one swap is provably optimal here (no triangle in the device)
        assert swap_count(r.final) == 1

    def test_exact_sized_circuit_coarsens_once(self, grid3, monkeypatch):
        # QAOA-8 fits the exact solver and still needs SWAPs after stage
        # one; the V cycle coarsens it once and solves the coarse level
        solves = []

        def spy(circuit, graph, *args, **kwargs):
            solves.append(circuit.num_qubits)
            return solve_exact(circuit, graph, *args, **kwargs)

        monkeypatch.setattr("mlqls.flow.solve_exact", spy)
        c = gen_qaoa(8, seed=0)
        assert fits_exact(c)
        r = run_mlqls(c, grid3, fast_cfg())
        assert swap_count(r.initial) > 0
        assert len(r.levels) == 2
        assert len(solves) == 1 and solves[0] < c.num_qubits
        assert verify(c, grid3, r.final).ok

    def test_queko_grid4_reaches_zero(self, grid4):
        c, _ = gen_queko(grid4, 5, 0.5, seed=0)
        r = run_mlqls(c, grid4, fast_cfg())
        assert swap_count(r.final) == 0

    def test_final_never_worse_than_initial(self):
        g5 = make_device("grid", 5)
        for seed in range(3):
            c = gen_qaoa(16, seed=seed)
            r = run_mlqls(c, g5, fast_cfg(seed))
            assert swap_count(r.final) <= swap_count(r.initial)
            assert verify(c, g5, r.final).ok

    def test_vcycle_beats_stage_one(self):
        # refinement routes freely from the region matching and improves on
        # stage one's 10 SWAPs
        r = flow_qaoa20_grid5(1)
        assert swap_count(r.final) < swap_count(r.initial)

    def test_hierarchy_depth_bound(self):
        g6 = make_device("grid", 6)
        c = gen_qaoa(36, seed=1)
        r = run_mlqls(c, g6, fast_cfg(1))
        bound = math.ceil(math.log2(36 / MAX_QUBITS)) + 2
        assert len(r.levels) <= bound

    def test_deterministic_per_seed(self, grid4):
        c = gen_qaoa(10, seed=4)
        a = run_mlqls(c, grid4, fast_cfg(7))
        b = run_mlqls(c, grid4, fast_cfg(7))
        assert solution_to_json(a.final) == solution_to_json(b.final)
        assert solution_to_json(a.initial) == solution_to_json(b.initial)
        sizes = [[lv.circuit.num_qubits for lv in r.levels.levels] for r in (a, b)]
        assert sizes[0] == sizes[1]
        assert [(s.stage, s.swaps) for s in a.stats] == [(s.stage, s.swaps) for s in b.stats]

    def test_rejects_oversized_circuit(self, path4):
        with pytest.raises(ValueError):
            run_mlqls(Circuit.from_pairs(5, [(0, 1)]), path4, fast_cfg())


@st.composite
def oracle_sized_flows(draw):
    """A random connected device of at most 6 nodes, a random circuit of at
    most 10 gates on it (some single-qubit), and a flow seed. These fit the
    exact solver, so a V cycle coarsens them once, solves the coarse level
    exactly, and refines around that solution, seeded from its regions."""
    n = draw(st.integers(3, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    graph = CouplingGraph.build(n, sorted(random_connected_graph(rng, n, draw(st.integers(0, 2)))))
    nq = draw(st.integers(3, n))
    gates = []
    for i in range(draw(st.integers(4, 10))):
        if rng.random() < 0.2:
            gates.append(Gate(i, (rng.randrange(nq),), "h"))
        else:
            gates.append(Gate(i, tuple(rng.sample(range(nq), 2))))
    return graph, Circuit(nq, tuple(gates), draw(st.booleans())), draw(st.integers(0, 2**32))


# 116 of these 300 examples keep SWAPs after stage one, so the flow runs its
# V cycle on them; each of the 116 coarsens once, to fewer qubits.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(oracle_sized_flows())
def test_flow_is_valid_bounded_and_reproducible(instance):
    graph, c, seed = instance
    r = run_mlqls(c, graph, fast_cfg(seed))
    assert verify(c, graph, r.final).ok
    assert optimal_oracle(c, graph, swap_count(r.final)) is not None
    assert swap_count(r.final) <= swap_count(r.initial)
    assert r.initial.depth == asap_depth(c, r.initial)
    assert r.final.depth == asap_depth(c, r.final)
    again = run_mlqls(c, graph, fast_cfg(seed))
    assert solution_to_json(again.final) == solution_to_json(r.final)
