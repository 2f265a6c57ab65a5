import math
import random

import pytest
from conftest import identity_cluster_map, is_acyclic

from mlqls import (
    Circuit,
    ClusterMap,
    ClusteringError,
    Mapping,
    build_dag,
    cluster_physical,
    cluster_program,
    coarsen,
    gen_qaoa,
    gen_queko,
    interpolate,
    make_device,
)
from mlqls.cluster import affinity
from mlqls.srefine import SrefineConfig, srefine_run
from mlqls.verify import QlsSolution


class TestAffinity:
    def test_counts_repeated_gates(self):
        c = Circuit.from_pairs(2, [(0, 1), (0, 1)])
        assert affinity(c)[0][1] == 2

    def test_no_two_qubit_gates(self):
        from mlqls import Gate

        c = Circuit(2, (Gate(0, (0,), "h"),))
        assert affinity(c) == [[0, 0], [0, 0]]

    def test_distinct_pairs(self):
        c = Circuit.from_pairs(3, [(0, 1), (1, 2)])
        a = affinity(c)
        assert a[0][1] == a[1][2] == 1
        assert a[0][2] == 0


class TestClusterProgram:
    def test_affinity_and_adjacency_align(self, path4):
        c = Circuit.from_pairs(4, [(0, 1)] * 3 + [(2, 3)] * 3)
        cm = cluster_program(c, Mapping((0, 1, 2, 3)), path4)
        assert set(cm.coarse_to_fine) == {(0, 1), (2, 3)}

    def test_single_qubit_circuit(self, path4):
        from mlqls import Gate

        c = Circuit(1, (Gate(0, (0,), "h"),))
        cm = cluster_program(c, Mapping((0,)), path4)
        assert cm.coarse_to_fine == ((0,),)

    def test_pairing_respects_mapping_distance(self, path4):
        # highest affinity pair mapped far apart must not cluster
        c = Circuit.from_pairs(4, [(0, 3)] * 5 + [(0, 1), (2, 3)])
        cm = cluster_program(c, Mapping((0, 1, 2, 3)), path4)
        assert cm.fine_to_coarse[0] != cm.fine_to_coarse[3]
        assert cm.fine_to_coarse[0] == cm.fine_to_coarse[1]
        assert cm.fine_to_coarse[2] == cm.fine_to_coarse[3]

    def test_cells_bounded_by_three(self, grid4):
        for seed in range(5):
            c, wit = gen_queko(grid4, 5, 0.5, seed=seed)
            cm = cluster_program(c, wit, grid4)
            assert max(len(cell) for cell in cm.coarse_to_fine) <= 3

    def test_compression_bounds(self, grid4):
        for seed in range(8):
            c, wit = gen_queko(grid4, 6, 0.5, seed=seed)
            cm = cluster_program(c, wit, grid4)
            n = c.num_qubits
            assert math.ceil(n / 3) <= cm.num_coarse <= math.ceil(n / 2) + 1


class TestClusterPhysical:
    def test_induced_from_program(self, path4):
        c = Circuit.from_pairs(4, [(0, 1)] * 3 + [(2, 3)] * 3)
        sol = Mapping((0, 1, 2, 3))
        prog = cluster_program(c, sol, path4)
        phys = cluster_physical(path4, prog, sol)
        assert set(phys.coarse_to_fine) == {(0, 1), (2, 3)}

    def test_spares_absorbed(self, grid3):
        c = Circuit.from_pairs(2, [(0, 1)] * 2)
        sol = Mapping((0, 1))
        prog = cluster_program(c, sol, grid3)
        phys = cluster_physical(grid3, prog, sol)
        assert sorted(p for cell in phys.coarse_to_fine for p in cell) == list(range(9))

    def test_inconsistent_program_cells_rejected(self, path4):
        bad = ClusterMap((0, 1, 0, 1), ((0, 2), (1, 3)))
        with pytest.raises(ClusteringError, match="disconnected"):
            cluster_physical(path4, bad, Mapping((0, 1, 2, 3)))

    def test_cell_numbers_follow_program_cells(self, grid4):
        # physical cell i holds every image of program cell i, so the coarse
        # guide mapping is the identity
        guided = []  # (circuit, device, guide mapping)
        for device, seeds in ((grid4, range(3)), (make_device("sycamore54"), range(2))):
            for seed in seeds:
                c, witness = gen_queko(device, 5, 0.5, seed=seed)
                guided.append((c, device, witness))
        cfg = SrefineConfig(candidates=1, mapper_first_budget=0.05, mapper_next_budget=0.02)
        for n, side in ((12, 4), (20, 5)):
            c, device = gen_qaoa(n, seed=n), make_device("grid", side)
            sol = srefine_run(c, device, None, cfg, random.Random(n))
            guided.append((c, device, sol.block_mappings[0]))
        for c, device, guide in guided:
            prog = cluster_program(c, guide, device)
            phys = cluster_physical(device, prog, guide)
            for i, cell in enumerate(prog.coarse_to_fine):
                assert {phys.fine_to_coarse[guide[q]] for q in cell} == {i}

    def test_consistency_factorization(self, grid4):
        # co-clustered program qubits land in one physical cell
        for seed in range(5):
            c, wit = gen_queko(grid4, 5, 0.5, seed=seed)
            prog = cluster_program(c, wit, grid4)
            phys = cluster_physical(grid4, prog, wit)
            for cell in prog.coarse_to_fine:
                images = {phys.fine_to_coarse[wit[q]] for q in cell}
                assert len(images) == 1


class TestCoarsen:
    def _setup(self, path4):
        c = Circuit.from_pairs(4, [(0, 1), (0, 2), (2, 3)])
        sol = Mapping((0, 1, 2, 3))
        prog = ClusterMap((0, 0, 1, 1), ((0, 1), (2, 3)))
        phys = ClusterMap((0, 0, 1, 1), ((0, 1), (2, 3)))
        return c, sol, prog, phys

    def test_intra_cell_gate_omitted(self, path4):
        c, _, prog, phys = self._setup(path4)
        coarse_c, _ = coarsen(c, path4, prog, phys)
        assert [g.qubits for g in coarse_c.gates] == [(0, 1)]

    def test_cross_cluster_gate_mapped(self, path4):
        c = Circuit.from_pairs(4, [(0, 2)])
        prog = ClusterMap((0, 0, 1, 1), ((0, 1), (2, 3)))
        phys = ClusterMap((0, 0, 1, 1), ((0, 1), (2, 3)))
        coarse_c, _ = coarsen(c, path4, prog, phys)
        assert [g.qubits for g in coarse_c.gates] == [(0, 1)]

    def test_square_contracts_to_edge(self):
        g = make_device("grid", 2)
        phys = ClusterMap((0, 0, 1, 1), ((0, 1), (2, 3)))
        prog = identity_cluster_map(0)
        c = Circuit(0, ())
        _, coarse_g = coarsen(c, g, prog, phys)
        assert coarse_g.num_physical == 2
        assert coarse_g.edges == frozenset({(0, 1)})

    def test_coarse_dag_acyclic_and_connected(self, grid4):
        for seed in range(5):
            c, wit = gen_queko(grid4, 6, 0.5, seed=seed)
            prog = cluster_program(c, wit, grid4)
            phys = cluster_physical(grid4, prog, wit)
            coarse_c, coarse_g = coarsen(c, grid4, prog, phys)
            assert is_acyclic(build_dag(coarse_c))
            # CouplingGraph.build raises on disconnected graphs, so reaching
            # here means the coarse graph stayed connected.
            assert coarse_g.num_physical == phys.num_coarse

    def test_induced_mapping_valid(self, grid4):
        c, wit = gen_queko(grid4, 5, 0.5, seed=1)
        prog = cluster_program(c, wit, grid4)
        phys = cluster_physical(grid4, prog, wit)
        coarse_c, coarse_g = coarsen(c, grid4, prog, phys)
        cm = Mapping(tuple(range(prog.num_coarse)))
        assert len(cm) == coarse_c.num_qubits
        assert len(set(cm.assignment)) == len(cm)
        # the identity executes every coarse gate in place
        sol = QlsSolution((cm,), tuple(0 for _ in coarse_c.gates), ())
        from mlqls.verify import verify

        assert verify(coarse_c, coarse_g, sol).ok


class TestInterpolate:
    def test_single_coarse_vertex_gives_whole_device(self, path4):
        prog = ClusterMap((0, 0), ((0, 1),))
        phys = ClusterMap((0, 0, 0, 0), ((0, 1, 2, 3),))
        coarse_sol = QlsSolution((Mapping((0,)),), (), ())
        regions = interpolate(coarse_sol, prog, phys, path4)
        assert regions[0] == regions[1] == frozenset(range(4))

    def test_isolated_cell_is_itself(self):
        g1 = make_device("custom", n=1, edges=[])
        prog = ClusterMap((0,), ((0,),))
        phys = ClusterMap((0,), ((0,),))
        coarse_sol = QlsSolution((Mapping((0,)),), (), ())
        regions = interpolate(coarse_sol, prog, phys, g1)
        assert regions[0] == frozenset({0})

    def test_region_is_cell_plus_one_hop(self, grid3):
        prog = ClusterMap((0, 1), ((0,), (1,)))
        phys_cells = tuple((p,) for p in range(9))
        phys = ClusterMap(tuple(range(9)), phys_cells)
        coarse_sol = QlsSolution((Mapping((4, 0)),), (), ())
        regions = interpolate(coarse_sol, prog, phys, grid3)
        assert regions[0] == frozenset({4, 1, 3, 5, 7})
        assert regions[1] == frozenset({0, 1, 3})

    def test_monotone_regions(self, grid4):
        for seed in range(5):
            c, wit = gen_queko(grid4, 5, 0.5, seed=seed)
            prog = cluster_program(c, wit, grid4)
            phys = cluster_physical(grid4, prog, wit)
            coarse_c, coarse_g = coarsen(c, grid4, prog, phys)
            cm = Mapping(tuple(range(prog.num_coarse)))
            coarse_sol = QlsSolution((cm,), tuple(0 for _ in coarse_c.gates), ())
            regions = interpolate(coarse_sol, prog, phys, grid4)
            for q in range(c.num_qubits):
                cell = phys.coarse_to_fine[cm[prog.fine_to_coarse[q]]]
                assert set(cell) <= regions[q]


def test_cluster_map_partition_validated():
    with pytest.raises(ClusteringError):
        ClusterMap((0, 0), ((0,),))
    with pytest.raises(ClusteringError):
        ClusterMap((0, 1), ((0, 1), (1,)))


def test_hierarchy_json(grid4):
    from mlqls import LevelHierarchy, Level

    c, wit = gen_queko(grid4, 5, 0.5, seed=0)
    h = LevelHierarchy([Level(c, grid4, None, None)])
    data = h.to_json()
    assert isinstance(data, list)
    assert data[0]["qubits"] == 16
