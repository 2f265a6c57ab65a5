import math

import pytest

from mlqls import (
    Circuit,
    Level,
    LevelHierarchy,
    gen_qaoa,
    gen_queko,
    make_device,
)
from mlqls.exact import MAX_QUBITS, ExactConfig
from mlqls.flow import FlowConfig, compression_guard, run_mlqls
from mlqls.srefine import SrefineConfig
from mlqls.verify import solution_to_json, swap_count, verify


def fast_cfg(seed=0):
    return FlowConfig(
        seed=seed,
        srefine=SrefineConfig(
            candidates=2, mapper_first_budget=0.5, mapper_next_budget=0.2
        ),
        exact=ExactConfig(post_first_solution_budget=0.5, overall_budget=2.0),
    )


class TestCompressionGuard:
    def _hier(self, counts):
        p4 = make_device("path", 4)
        levels = [
            Level(Circuit(n, ()), p4, None, None) for n in counts
        ]
        return LevelHierarchy(levels)

    def test_stall_stops(self):
        assert compression_guard(self._hier([16, 15])) is False

    def test_halving_continues(self):
        assert compression_guard(self._hier([16, 8])) is True

    def test_single_level_stops(self):
        assert compression_guard(self._hier([16])) is False


class TestRunMlqls:
    def test_degenerate_vcycle_small_instance(self, tshape5, triangle_circuit):
        r = run_mlqls(triangle_circuit, tshape5, fast_cfg())
        assert len(r.levels) == 1
        assert swap_count(r.final) <= swap_count(r.initial)
        assert verify(triangle_circuit, tshape5, r.final).ok
        # one swap is provably optimal here (no triangle in the device)
        assert swap_count(r.final) == 1

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
        assert a.levels.qubit_counts() == b.levels.qubit_counts()
        assert [(s.stage, s.swaps) for s in a.stats] == [(s.stage, s.swaps) for s in b.stats]

    def test_rejects_oversized_circuit(self, path4):
        with pytest.raises(ValueError):
            run_mlqls(Circuit.from_pairs(5, [(0, 1)]), path4, fast_cfg())

    def test_stats_and_json(self, grid4):
        c, _ = gen_queko(grid4, 4, 0.5, seed=2)
        r = run_mlqls(c, grid4, fast_cfg())
        data = r.to_json()
        assert data["stats"][0]["stage"] == "srefine"
        assert "levels" in data
