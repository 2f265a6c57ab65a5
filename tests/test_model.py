import random

import pytest

from mlqls import (
    Circuit,
    CouplingGraph,
    DeviceError,
    Gate,
    QasmError,
    build_dag,
    circuit_from_json,
    circuit_to_json,
    device_from_json,
    device_to_json,
    gen_chain,
    gen_qaoa,
    gen_queko,
    make_device,
    parse_qasm,
)
from mlqls.model import MAX_DEVICE_QUBITS
from mlqls.verify import QlsSolution, asap_depth, verify

from conftest import is_acyclic, random_connected_graph


class TestParseQasm:
    def test_basic(self):
        c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
        assert c.num_qubits == 2
        assert [(g.name, g.qubits) for g in c.gates] == [("h", (0,)), ("cx", (0, 1))]

    def test_empty_body(self):
        c = parse_qasm('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n')
        assert c.num_qubits == 3
        assert c.gates == ()

    def test_duplicate_operands(self):
        with pytest.raises(QasmError, match="duplicate operands"):
            parse_qasm("qreg q[2];\ncx q[0],q[0];")

    def test_error_carries_line_number(self):
        with pytest.raises(QasmError, match="line 3"):
            parse_qasm("qreg q[2];\nh q[0];\nmeasure q[0] -> c[0];")

    @pytest.mark.parametrize(
        "stmt",
        ["creg c[2];", "measure q[0] -> c[0];", "reset q[0];", "gate foo a { }", "if (c==1) x q[0];"],
    )
    def test_rejected_constructs(self, stmt):
        with pytest.raises(QasmError):
            parse_qasm(f"qreg q[2];\n{stmt}")

    def test_second_qreg_rejected(self):
        with pytest.raises(QasmError, match="one qreg"):
            parse_qasm("qreg q[2];\nqreg r[2];")

    def test_three_qubit_gate_rejected(self):
        with pytest.raises(QasmError, match="3-qubit"):
            parse_qasm("qreg q[3];\nccx q[0],q[1],q[2];")

    def test_index_out_of_range(self):
        with pytest.raises(QasmError, match="out of range"):
            parse_qasm("qreg q[2];\nh q[5];")

    def test_barrier_ignored_and_params_allowed(self):
        c = parse_qasm("qreg q[2];\nrz(0.5) q[0];\nbarrier q[0];\ncz q[0],q[1];")
        assert [g.name for g in c.gates] == ["rz", "cz"]

    @pytest.mark.parametrize(
        "stmt, name", [("rz(-(pi/4)) q[0];", "rz"), ("u3(pi/2,0,(3*pi)/4) q[1];", "u3")]
    )
    def test_nested_parameter_parentheses(self, stmt, name):
        c = parse_qasm(f"qreg q[2];\n{stmt}")
        assert [g.name for g in c.gates] == [name]

    @pytest.mark.parametrize("stmt", ["rz((0.5) q[0];", "rz(0.5)) q[0];", "rz)0.5( q[0];"])
    def test_unbalanced_parameter_parentheses(self, stmt):
        with pytest.raises(QasmError, match="cannot parse"):
            parse_qasm(f"qreg q[2];\n{stmt}")

    @pytest.mark.parametrize(
        "stmt, name", [("CX q[0],q[1];", "CX"), ("rzz(0.5) q[0],q[1];", "rzz"), ("ch q[0],q[1];", "ch")]
    )
    def test_any_two_operand_gate_is_two_qubit(self, stmt, name):
        c = parse_qasm(f"qreg q[2];\n{stmt}")
        assert [(g.name, g.qubits) for g in c.gates] == [(name, (0, 1))]

    @pytest.mark.parametrize("name", ["CX", "cx", "cz", "swap"])
    def test_two_qubit_name_with_one_operand(self, name):
        with pytest.raises(QasmError, match="expects two operands"):
            parse_qasm(f"qreg q[2];\n{name} q[0];")

    def test_parse_literal_gates(self):
        c = parse_qasm("qreg q[4];\nh q[2];\ncx q[0],q[1];\nswap q[1],q[3];\nt q[0];\ncz q[2],q[3];")
        assert c.num_qubits == 4
        assert [(g.name, g.qubits) for g in c.gates] == [
            ("h", (2,)), ("cx", (0, 1)), ("swap", (1, 3)), ("t", (0,)), ("cz", (2, 3)),
        ]

    def test_parse_literal_with_header(self):
        text = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[5];\n'
            "h q[0];\ncx q[0],q[4];\ncx q[3],q[1];\ncz q[4],q[2];\n"
        )
        c = parse_qasm(text)
        assert c.num_qubits == 5
        assert [(g.name, g.qubits) for g in c.gates] == [
            ("h", (0,)), ("cx", (0, 4)), ("cx", (3, 1)), ("cz", (4, 2)),
        ]


class TestCircuitTypes:
    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate(0, (1, 1))
        with pytest.raises(ValueError):
            Gate(0, (0, 1, 2))

    def test_qubit_range_checked(self):
        with pytest.raises(ValueError):
            Circuit(2, (Gate(0, (0, 5)),))

    def test_gate_ids_follow_list_order(self):
        with pytest.raises(ValueError, match="id 5"):
            Circuit(2, (Gate(5, (0, 1)),))
        with pytest.raises(ValueError):
            Circuit(2, (Gate(1, (0, 1)), Gate(0, (1,), "h")))

    def test_json_roundtrip(self):
        c = Circuit.from_pairs(5, [(0, 1), (2, 3), (1, 4)], commutable=True)
        c2 = circuit_from_json(circuit_to_json(c))
        assert c2.num_qubits == 5 and c2.commutable
        assert [g.qubits for g in c2.gates] == [g.qubits for g in c.gates]


class TestBuildDag:
    def test_shared_qubit_chain(self):
        dag = build_dag(Circuit.from_pairs(3, [(0, 1), (0, 2)]))
        assert dag.succs[0] == (1,)
        assert dag.pred_masks[1] == 0b1

    def test_commutable_has_no_edges(self):
        dag = build_dag(Circuit.from_pairs(3, [(0, 1), (0, 2)], commutable=True))
        assert not any(dag.pred_masks)
        assert all(not s for s in dag.succs)

    def test_disjoint_supports(self):
        dag = build_dag(Circuit.from_pairs(4, [(0, 1), (2, 3)]))
        assert not any(dag.pred_masks)

    def test_acyclic_and_parents(self):
        c = Circuit(4, (Gate(0, (0, 1)), Gate(1, (1,), "h"), Gate(2, (1, 2)), Gate(3, (0, 2))))
        dag = build_dag(c)
        assert is_acyclic(dag)
        # nearest earlier two-qubit gate per target qubit
        assert dag.parents2[2] == (0,)
        assert set(dag.parents2[3]) == {0, 2}
        # the single-qubit gate still chains the dependency order
        assert dag.pred_masks[2] == 0b10

    def test_pred_masks(self):
        c = Circuit(4, (Gate(0, (0, 1)), Gate(1, (1,), "h"), Gate(2, (1, 2)), Gate(3, (0, 2))))
        assert build_dag(c).pred_masks == (0, 0b1, 0b10, 0b101)


class TestDistances:
    def test_grid_opposite_corner(self):
        g = make_device("grid", 2)
        assert g.dist[0][3] == 2

    def test_self_distance_zero(self, grid4):
        assert all(grid4.dist[p][p] == 0 for p in range(grid4.num_physical))

    def test_path_distance(self):
        g = make_device("path", 3)
        assert g.dist[0][2] == 2

    def test_random_graphs_symmetric_and_edge_consistent(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(2, 12)
            edges = random_connected_graph(rng, n, rng.randint(0, n))
            g = make_device("custom", n=n, edges=edges)
            dist = g.dist
            for a in range(n):
                for b in range(n):
                    assert dist[a][b] == dist[b][a]
                    assert (dist[a][b] == 1) == ((min(a, b), max(a, b)) in g.edges)

    def test_disconnected_rejected(self):
        with pytest.raises(DeviceError, match="disconnected"):
            make_device("custom", n=4, edges=[(0, 1), (2, 3)])

    def test_too_few_edges_rejected_before_allocating(self):
        # n qubits need n - 1 distinct edges to connect; a per-qubit table for
        # 10**12 qubits would not fit in memory, so this returns only if the
        # edge count is checked first
        with pytest.raises(DeviceError, match="disconnected"):
            CouplingGraph.build(10**12, [(0, 1), (1, 0)])

    def test_over_the_size_limit_rejected(self):
        # a path one position over the limit connects, so only the limit
        # refuses it, before the distance table is built
        n = MAX_DEVICE_QUBITS + 1
        with pytest.raises(DeviceError, match=f"over the limit of {MAX_DEVICE_QUBITS}"):
            CouplingGraph.build(n, [(i, i + 1) for i in range(n - 1)])


class TestMakeDevice:
    def test_grid6(self):
        g = make_device("grid", 6)
        assert g.num_physical == 36
        assert len(g.edges) == 60

    def test_eagle127(self):
        assert make_device("eagle127").num_physical == 127

    def test_sycamore54(self):
        assert make_device("sycamore54").num_physical == 54

    def test_unknown_kind(self):
        with pytest.raises(DeviceError, match="unknown"):
            make_device("torus", 4)

    def test_too_small(self):
        with pytest.raises(DeviceError):
            make_device("grid", 1)

    @pytest.mark.parametrize(
        "kind, n, size", [("grid", 65, 65 * 65), ("grid", 473, 473 * 473), ("path", 4097, 4097)]
    )
    def test_over_the_size_limit(self, kind, n, size):
        # grid:473 would need an all-pairs table of about 5·10^10 entries;
        # the limit refuses it before its edge list is built
        limit = f"device has {size} qubits, over the limit of {MAX_DEVICE_QUBITS}"
        with pytest.raises(DeviceError, match=limit):
            make_device(kind, n)

    def test_device_json_roundtrip(self, tshape5):
        g2 = device_from_json(device_to_json(tshape5))
        assert g2.edges == tshape5.edges
        assert g2.num_physical == tshape5.num_physical


class TestGenQueko:
    @pytest.mark.parametrize("depth", [1, 5, 10])
    def test_witness_verifies_zero_swaps(self, grid4, depth):
        c, wit = gen_queko(grid4, depth, 0.5, seed=depth)
        sol = QlsSolution((wit,), tuple(0 for _ in c.gates), ())
        assert verify(c, grid4, sol).ok

    def test_witness_depth_is_exact(self, grid4):
        for depth in (1, 5, 12):
            c, wit = gen_queko(grid4, depth, 0.5, seed=depth + 7)
            sol = QlsSolution((wit,), tuple(0 for _ in c.gates), ())
            assert verify(c, grid4, sol).ok and asap_depth(c, sol) == depth

    def test_depth_one_is_disjoint_layer(self, grid4):
        c, _ = gen_queko(grid4, 1, 0.5, seed=0)
        used = [q for g in c.gates for q in g.qubits]
        assert len(used) == len(set(used))

    def test_seed_sensitivity(self, grid4):
        c1, _ = gen_queko(grid4, 10, 0.5, seed=0)
        c2, _ = gen_queko(grid4, 10, 0.5, seed=1)
        assert [g.qubits for g in c1.gates] != [g.qubits for g in c2.gates]

    def test_determinism(self, grid4):
        c1, m1 = gen_queko(grid4, 6, 0.5, seed=9)
        c2, m2 = gen_queko(grid4, 6, 0.5, seed=9)
        assert [g.qubits for g in c1.gates] == [g.qubits for g in c2.gates]
        assert m1.assignment == m2.assignment


class TestGenQaoa:
    def test_four_qubits_is_k4(self):
        c = gen_qaoa(4, seed=0)
        assert len(c.gates) == 6
        assert c.commutable

    def test_twentyfour_qubits(self):
        # handshake: 3-regular on n vertices has 3n/2 edges
        assert len(gen_qaoa(24, seed=0).gates) == 36

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            gen_qaoa(5, seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_three_regular(self, seed):
        c = gen_qaoa(12, seed=seed)
        deg = [0] * 12
        for g in c.gates:
            for q in g.qubits:
                deg[q] += 1
        assert all(d == 3 for d in deg)


def test_gen_chain():
    c = gen_chain(5)
    assert [g.qubits for g in c.gates] == [(0, 1), (1, 2), (2, 3), (3, 4)]
