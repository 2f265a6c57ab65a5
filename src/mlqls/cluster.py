"""Circuit-guided coarsening of (circuit, device) pairs and region interpolation.

Program qubits are paired by interaction affinity, but only when the guiding
solution maps them onto adjacent physical qubits; device clusters are then
induced from the program clusters so both sides stay consistent. Interpolation
turns a coarse solution into per-qubit mapping regions (cluster cells plus a
one-hop ring). At the finer level the regions seed the start matching and bias
annealing; routing is unconstrained by them and draws no random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Circuit, CouplingGraph, Gate, Mapping
from .verify import QlsSolution


class ClusteringError(ValueError):
    """Inconsistent clustering inputs (signals a clustering-pass bug)."""


@dataclass(frozen=True)
class ClusterMap:
    """A partition of fine qubit indices into coarse cells.

    Pairing makes cells of two. A stranded program qubit joins a cell only
    while it holds fewer than three. A spare physical position with no free
    neighbour joins its smallest neighbouring cell of any size, so physical
    cells can grow past three: a qubit triangle on a five-position T-shaped
    device gives one cell of all five positions.
    """

    fine_to_coarse: tuple[int, ...]
    coarse_to_fine: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for cell in self.coarse_to_fine:
            for f in cell:
                if f in seen:
                    raise ClusteringError(f"fine index {f} in two cells")
                seen.add(f)
        if seen != set(range(len(self.fine_to_coarse))):
            raise ClusteringError("cluster cells do not form a partition")
        for f, c in enumerate(self.fine_to_coarse):
            if f not in self.coarse_to_fine[c]:
                raise ClusteringError(f"fine index {f} not in its declared cell {c}")

    @property
    def num_coarse(self) -> int:
        return len(self.coarse_to_fine)


@dataclass(frozen=True)
class MappingRegion:
    """Per-program-qubit sets of encouraged physical qubits.

    Refinement seeds its start mapping from a matching into the regions and
    biases annealing toward them; routing is unconstrained by them and draws
    no random numbers.
    """

    regions: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if any(not r for r in self.regions):
            raise ValueError("every region must be non-empty")

    def __getitem__(self, q: int) -> frozenset[int]:
        return self.regions[q]

    def __len__(self) -> int:
        return len(self.regions)


@dataclass(frozen=True)
class Level:
    """One hierarchy level; the cluster maps derive the next-coarser level
    (None at the coarsest)."""

    circuit: Circuit
    graph: CouplingGraph
    prog_map: ClusterMap | None
    phys_map: ClusterMap | None


@dataclass
class LevelHierarchy:
    """Coarsening stack, finest level first."""

    levels: list[Level]

    def __len__(self) -> int:
        return len(self.levels)

    def to_json(self) -> list[dict]:
        return [
            {
                "qubits": lv.circuit.num_qubits,
                "gates": len(lv.circuit.gates),
                "physical": lv.graph.num_physical,
                "edges": len(lv.graph.edges),
                "program_cells": None
                if lv.prog_map is None
                else [list(c) for c in lv.prog_map.coarse_to_fine],
                "physical_cells": None
                if lv.phys_map is None
                else [list(c) for c in lv.phys_map.coarse_to_fine],
            }
            for lv in self.levels
        ]


def affinity(circuit: Circuit) -> list[list[int]]:
    """Symmetric matrix counting two-qubit gates per program-qubit pair."""
    n = circuit.num_qubits
    mat = [[0] * n for _ in range(n)]
    for g in circuit.gates:
        if g.is_two_qubit:
            a, b = g.qubits
            mat[a][b] += 1
            mat[b][a] += 1
    return mat


def cluster_program(circuit: Circuit, sol: Mapping, graph: CouplingGraph) -> ClusterMap:
    """Pair program qubits in descending affinity order, accepting a pair only
    when the guiding mapping places them on adjacent physical qubits.

    Leftovers join the smallest adjacent cell (capped at three fine qubits),
    pair up with an adjacent leftover, or stay singletons. Ties break on the
    lower qubit-index pair, so the result is deterministic.
    """
    n = circuit.num_qubits
    dist = graph.dist
    mat = affinity(circuit)
    scored = [
        (mat[q][r], q, r)
        for q in range(n)
        for r in range(q + 1, n)
        if mat[q][r] > 0
    ]
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    cell_of = [-1] * n
    cells: list[list[int]] = []
    for _, q, r in scored:
        if cell_of[q] == -1 and cell_of[r] == -1 and dist[sol[q]][sol[r]] == 1:
            cell_of[q] = cell_of[r] = len(cells)
            cells.append([q, r])
    for q in range(n):
        if cell_of[q] != -1:
            continue
        adjacent_cells = [
            (len(cells[c]), c)
            for c in set(
                cell_of[r]
                for r in range(n)
                if cell_of[r] != -1 and dist[sol[q]][sol[r]] == 1
            )
            if len(cells[c]) < 3
        ]
        if adjacent_cells:
            _, c = min(adjacent_cells)
            cell_of[q] = c
            cells[c].append(q)
            continue
        partner = next(
            (
                r
                for r in range(n)
                if r != q and cell_of[r] == -1 and dist[sol[q]][sol[r]] == 1
            ),
            None,
        )
        if partner is not None:
            cell_of[q] = cell_of[partner] = len(cells)
            cells.append([q, partner])
        else:
            cell_of[q] = len(cells)
            cells.append([q])
    return ClusterMap(tuple(cell_of), tuple(tuple(sorted(c)) for c in cells))


def cluster_physical(
    graph: CouplingGraph, prog_cm: ClusterMap, sol: Mapping
) -> ClusterMap:
    """Induce physical clusters from program clusters via the guiding mapping,
    then absorb spare physical qubits so the partition covers the device.

    Raises ClusteringError when a program cell's image is not connected on the
    device (the program pass must only co-cluster adjacency-respecting qubits).
    """
    num_p = graph.num_physical
    cell_of = [-1] * num_p
    cells: list[list[int]] = []
    for cell in prog_cm.coarse_to_fine:
        image = sorted(sol[q] for q in cell)
        if not _is_connected_subset(graph, image):
            raise ClusteringError(
                f"program cell {cell} maps to disconnected physical set {image}"
            )
        idx = len(cells)
        for p in image:
            if cell_of[p] != -1:
                raise ClusteringError(f"physical qubit {p} claimed by two program cells")
            cell_of[p] = idx
        cells.append(list(image))
    for p in range(num_p):
        if cell_of[p] != -1:
            continue
        free_nb = next((nb for nb in graph.neighbors[p] if cell_of[nb] == -1), None)
        if free_nb is not None:
            idx = len(cells)
            cell_of[p] = cell_of[free_nb] = idx
            cells.append([p, free_nb])
            continue
        nb_cells = {cell_of[nb] for nb in graph.neighbors[p]}
        if not nb_cells:
            # Only a one-position device has a position without neighbours.
            idx = len(cells)
            cell_of[p] = idx
            cells.append([p])
            continue
        c = min(nb_cells, key=lambda c: (len(cells[c]), c))
        cell_of[p] = c
        cells[c].append(p)
    return ClusterMap(tuple(cell_of), tuple(tuple(sorted(c)) for c in cells))


def _is_connected_subset(graph: CouplingGraph, nodes: list[int]) -> bool:
    if len(nodes) <= 1:
        return True
    node_set = set(nodes)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        u = stack.pop()
        for v in graph.neighbors[u]:
            if v in node_set and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == node_set


def coarsen(
    circuit: Circuit,
    graph: CouplingGraph,
    prog_cm: ClusterMap,
    phys_cm: ClusterMap,
) -> tuple[Circuit, CouplingGraph]:
    """Contract circuit and device through the cluster maps.

    Gates falling inside one program cell are omitted (intra-cell execution is
    assumed free); surviving gates keep their order, which also inherits the
    dependency structure. The coarse graph has an edge wherever any fine edge
    crosses two cells.
    """
    f2c = prog_cm.fine_to_coarse
    coarse_gates: list[Gate] = []
    for g in circuit.gates:
        if not g.is_two_qubit:
            continue
        ca, cb = f2c[g.qubits[0]], f2c[g.qubits[1]]
        if ca == cb:
            continue
        coarse_gates.append(Gate(len(coarse_gates), (ca, cb), g.name))
    coarse_circuit = Circuit(prog_cm.num_coarse, tuple(coarse_gates), circuit.commutable)
    p2c = phys_cm.fine_to_coarse
    coarse_edges = {
        (min(p2c[a], p2c[b]), max(p2c[a], p2c[b]))
        for a, b in graph.edges
        if p2c[a] != p2c[b]
    }
    coarse_graph = CouplingGraph.build(
        phys_cm.num_coarse, coarse_edges, name=f"coarse({graph.name})"
    )
    return coarse_circuit, coarse_graph


def interpolate(
    coarse_sol: QlsSolution,
    prog_cm: ClusterMap,
    phys_cm: ClusterMap,
    g_fine: CouplingGraph,
) -> MappingRegion:
    """Project a coarse solution down to per-qubit mapping regions.

    Each fine program qubit gets the fine qubits of the physical cell its
    coarse image occupies in the first block, expanded by one hop. The regions
    seed refinement's start matching and bias its annealing; routing is
    unconstrained by them and draws no random numbers.
    """
    first = coarse_sol.block_mappings[0]
    regions = []
    for cq in prog_cm.fine_to_coarse:
        fine = phys_cm.coarse_to_fine[first[cq]]
        ring = set(fine)
        for p in fine:
            ring.update(g_fine.neighbors[p])
        regions.append(frozenset(ring))
    return MappingRegion(tuple(regions))
