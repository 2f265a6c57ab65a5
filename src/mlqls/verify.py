"""Layout-synthesis solutions: independent validity checking, cost metrics
(SWAP count, ASAP depth) and JSON serialization.

A solution is a sequence of blocks (constant-mapping circuit segments), a
gate-to-block schedule, and the SWAPs inserted between consecutive blocks.
The checker tests the four validity constraints: per-block injectivity, gate
dependency order, two-qubit adjacency, and SWAP/mapping consistency. The
solvers build their own solutions; this module only checks, schedules and
serializes them.

The checker reads gate order off the circuit itself: each gate must run in
no earlier block than the previous gate on each of its qubits. It builds no
``DependencyDag``, so a fault in the DAG that the solvers route with cannot
hide from it. Each solver checks the answer it hands out, once: the
forward/backward router its kept pass, and the exact solver its warm start
and its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .model import Circuit, CouplingGraph, Mapping, _json_field, _json_ints


class SwapOp(NamedTuple):
    """One SWAP on a device edge, inserted in the gap after block ``gap``."""

    edge: tuple[int, int]
    gap: int


@dataclass(frozen=True)
class QlsSolution:
    """A block-structured layout synthesis result. ``depth`` is its ASAP
    depth, or None while it is unscheduled, as a single routing pass is."""

    block_mappings: tuple[Mapping, ...]
    gate_block: tuple[int, ...]
    swaps: tuple[SwapOp, ...]
    depth: int | None = None

    @property
    def num_blocks(self) -> int:
        return len(self.block_mappings)


def swap_count(sol: QlsSolution) -> int:
    """Number of inserted SWAP gates, the primary cost metric."""
    return len(sol.swaps)


@dataclass(frozen=True)
class ConstraintCheck:
    ok: bool
    witness: str | None = None


@dataclass(frozen=True)
class VerifyReport:
    structure: ConstraintCheck
    injectivity: ConstraintCheck
    dependency: ConstraintCheck
    adjacency: ConstraintCheck
    swap_consistency: ConstraintCheck
    overlapping_gaps: tuple[int, ...] = ()  # informational only

    @property
    def ok(self) -> bool:
        return all(
            c.ok
            for c in (
                self.structure,
                self.injectivity,
                self.dependency,
                self.adjacency,
                self.swap_consistency,
            )
        )

    def first_failure(self) -> str | None:
        for name in ("structure", "injectivity", "dependency", "adjacency", "swap_consistency"):
            check: ConstraintCheck = getattr(self, name)
            if not check.ok:
                return f"{name}: {check.witness}"
        return None


_PASS = ConstraintCheck(True)


def verify(circuit: Circuit, graph: CouplingGraph, sol: QlsSolution) -> VerifyReport:
    """Check a solution against all validity constraints.

    Failures are reported with the first violating witness; nothing raises.
    """
    structure = _check_structure(circuit, graph, sol)
    if not structure.ok:
        fail = ConstraintCheck(False, "skipped: structural failure")
        return VerifyReport(structure, fail, fail, fail, fail)
    injectivity = _check_injectivity(circuit, sol)
    dependency = _check_dependency(circuit, sol)
    adjacency = _check_adjacency(circuit, graph, sol)
    consistency = _check_swap_consistency(sol)
    overlapping = _overlapping_gaps(sol)
    return VerifyReport(structure, injectivity, dependency, adjacency, consistency, overlapping)


def _check_structure(circuit: Circuit, graph: CouplingGraph, sol: QlsSolution) -> ConstraintCheck:
    if not sol.block_mappings:
        return ConstraintCheck(False, "no blocks")
    num_blocks = sol.num_blocks
    if len(sol.gate_block) != len(circuit.gates):
        return ConstraintCheck(
            False,
            f"gate_block has {len(sol.gate_block)} entries for {len(circuit.gates)} gates",
        )
    for gid, b in enumerate(sol.gate_block):
        if not 0 <= b < num_blocks:
            return ConstraintCheck(False, f"gate {gid} assigned to invalid block {b}")
    for m in sol.block_mappings:
        if len(m) != circuit.num_qubits:
            return ConstraintCheck(False, "block mapping is not total over program qubits")
        if any(p >= graph.num_physical for p in m.assignment):
            return ConstraintCheck(False, "block mapping leaves the device")
    for i, sw in enumerate(sol.swaps):
        if not graph.has_edge(*sw.edge):
            return ConstraintCheck(False, f"swap {i} uses non-edge {sw.edge}")
        if not 0 <= sw.gap < num_blocks - 1:
            return ConstraintCheck(False, f"swap {i} in invalid gap {sw.gap}")
    return _PASS


def _check_injectivity(circuit: Circuit, sol: QlsSolution) -> ConstraintCheck:
    for b, m in enumerate(sol.block_mappings):
        if len(set(m.assignment)) != len(m.assignment):
            return ConstraintCheck(False, f"block {b} maps two program qubits together")
    return _PASS


def _previous_gates(circuit: Circuit) -> list[tuple[int, ...]]:
    """For each gate, the previous gate on each of its qubits, once each: the
    gates it must not run before. Read off the circuit, not off a
    ``DependencyDag``; a commutable circuit's gates may run in any order, so
    theirs are empty."""
    prev: list[tuple[int, ...]] = [()] * len(circuit.gates)
    if not circuit.commutable:
        last: dict[int, int] = {}  # qubit -> the last gate on it so far
        for g in circuit.gates:
            prev[g.id] = tuple(dict.fromkeys(last[q] for q in g.qubits if q in last))
            for q in g.qubits:
                last[q] = g.id
    return prev


def _check_dependency(circuit: Circuit, sol: QlsSolution) -> ConstraintCheck:
    gate_block = sol.gate_block
    for gid, prevs in enumerate(_previous_gates(circuit)):
        for p in prevs:
            if gate_block[p] > gate_block[gid]:
                return ConstraintCheck(
                    False,
                    f"gate {p} (block {gate_block[p]}) must precede "
                    f"gate {gid} (block {gate_block[gid]})",
                )
    return _PASS


def _check_adjacency(circuit: Circuit, graph: CouplingGraph, sol: QlsSolution) -> ConstraintCheck:
    for g in circuit.gates:
        if not g.is_two_qubit:
            continue
        m = sol.block_mappings[sol.gate_block[g.id]]
        pa, pb = m[g.qubits[0]], m[g.qubits[1]]
        if not graph.has_edge(pa, pb):
            return ConstraintCheck(
                False,
                f"gate {g.id} on qubits {g.qubits} sits on non-adjacent ({pa},{pb}) "
                f"in block {sol.gate_block[g.id]}",
            )
    return _PASS


def _check_swap_consistency(sol: QlsSolution) -> ConstraintCheck:
    by_gap: dict[int, list[tuple[int, int]]] = {}
    for sw in sol.swaps:
        by_gap.setdefault(sw.gap, []).append(sw.edge)
    for b in range(sol.num_blocks - 1):
        expected = sol.block_mappings[b].apply_swaps(by_gap.get(b, []))
        if expected.assignment != sol.block_mappings[b + 1].assignment:
            return ConstraintCheck(
                False,
                f"composing gap-{b} swaps onto block {b} does not give block {b + 1}",
            )
    return _PASS


def _overlapping_gaps(sol: QlsSolution) -> tuple[int, ...]:
    by_gap: dict[int, list[tuple[int, int]]] = {}
    for sw in sol.swaps:
        by_gap.setdefault(sw.gap, []).append(sw.edge)
    flagged = []
    for gap, edges in sorted(by_gap.items()):
        touched: set[int] = set()
        for a, b in edges:
            if a in touched or b in touched:
                flagged.append(gap)
                break
            touched.update((a, b))
    return tuple(flagged)


def asap_depth(circuit: Circuit, sol: QlsSolution) -> int:
    """Cycle count under as-soon-as-possible scheduling, every gate one cycle.

    SWAPs occupy their physical qubits for a cycle between blocks. The
    solution must be valid: check it with ``verify`` first.
    """
    highest = max(
        (max(m.assignment, default=-1) for m in sol.block_mappings), default=-1
    )
    for sw in sol.swaps:
        highest = max(highest, sw.edge[0], sw.edge[1])
    num_physical = highest + 1
    busy = [0] * num_physical
    by_gap: dict[int, list[tuple[int, int]]] = {}
    for sw in sol.swaps:
        by_gap.setdefault(sw.gap, []).append(sw.edge)
    gates_by_block: dict[int, list[int]] = {}
    for gid, b in enumerate(sol.gate_block):
        gates_by_block.setdefault(b, []).append(gid)
    depth = 0
    for b in range(sol.num_blocks):
        m = sol.block_mappings[b]
        for gid in sorted(gates_by_block.get(b, [])):
            phys = [m[q] for q in circuit.gates[gid].qubits]
            t = max(busy[p] for p in phys) + 1
            for p in phys:
                busy[p] = t
            depth = max(depth, t)
        for a, bb in by_gap.get(b, []):
            t = max(busy[a], busy[bb]) + 1
            busy[a] = busy[bb] = t
            depth = max(depth, t)
    return depth


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def solution_to_json(sol: QlsSolution) -> dict:
    return {
        "blocks": [{"mapping": list(m.assignment)} for m in sol.block_mappings],
        "gate_block": list(sol.gate_block),
        "swaps": [{"edge": list(sw.edge), "gap": sw.gap} for sw in sol.swaps],
        "swap_count": swap_count(sol),
        "depth": sol.depth,
    }


def solution_from_json(data: dict) -> QlsSolution:
    """Inverse of solution_to_json; ValueError on malformed input."""
    blocks = tuple(
        Mapping(_json_ints(_json_field(b, "mapping", list, f"block {i}"), f"block {i} mapping"))
        for i, b in enumerate(_json_field(data, "blocks", list, "solution"))
    )
    swaps = tuple(
        SwapOp(
            _json_ints(_json_field(sw, "edge", list, f"swap {i}"), f"swap {i} edge", length=2),
            _json_field(sw, "gap", int, f"swap {i}"),
        )
        for i, sw in enumerate(_json_field(data, "swaps", list, "solution"))
    )
    return QlsSolution(
        blocks,
        _json_ints(_json_field(data, "gate_block", list, "solution"), "solution gate_block"),
        swaps,
        _json_field(data, "depth", (int, type(None)), "solution", default=None),
    )
