"""Exact block-based layout synthesis for small instances.

``solve_exact`` sweeps block count and SWAP budget in Pareto order, running a
depth-first branch-and-bound per block count: program qubits are bound to
physical positions lazily when a gate first needs them, SWAPs are branched
inside inter-block gaps, and the incumbent SWAP count prunes the rest. The
sweep stops once the incumbent is provably optimal (S <= B - 1).

The budgets are counted in search nodes, not read off the clock: the
``ExactConfig`` seconds become node limits at ``_NODES_PER_SECOND``, so an
answer depends on the instance and the budget only, never on machine load.

Gate progress is the executed-gate bitmask ``exec_mask`` alone: a gate is
ready once it covers the gate's ``pred_masks`` entry, and a block node saves
and restores that one int.

Visited states are keyed by one int that packs the block, the occupant of
every position, the executed and deferred gate masks and the node kind; the
occupant part (``occ_code``) is kept up to date by every bind, unbind and
SWAP. It is an exact encoding, not a hash, so two states share a key exactly
when they are equal. A visited entry costs about 95 bytes on a 12-qubit
instance on grid:4 (a 40-byte key plus the dict slot), against about 720
bytes for a tuple of the same fields.

The starting incumbent, which is also the answer when the budget runs out
first, is the caller's verified ``warm_start`` (the V cycle passes an sRefine
solution), or else one ``srefine.astar_insert`` routing pass from a
breadth-first placement.

``optimal_oracle`` is a deliberately independent check: exhaustive BFS over
(total mapping, executed set) states with no pruning beyond visited-state
deduplication. It reads gate order off the circuit with
``verify._previous_gates``, as the verifier does: a gate waits for the
previous gate on each of its qubits. It builds no ``DependencyDag``, so a
fault in the DAG the solvers search with cannot move its answer. Keep it
that way; it is the reference the solver is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .model import Circuit, CouplingGraph, Mapping, build_dag, make_device
from .srefine import _extend_partial, astar_insert
from .verify import QlsSolution, SwapOp, _previous_gates, asap_depth, swap_count, verify


# Largest instance the solver accepts; the V cycle coarsens until its
# coarsest level fits.
MAX_QUBITS = 16
MAX_GATES = 50

# Search nodes per budget second, roughly the solver's own rate, so that the
# budgets keep their meaning; srefine's _MAPPER_NODES_PER_SECOND does the same.
_NODES_PER_SECOND = 80_000


class InstanceTooLarge(ValueError):
    """Instance exceeds the exact-solver limits."""


def fits_exact(circuit: Circuit) -> bool:
    """True when the circuit is within the exact solver's size limits
    (``MAX_QUBITS`` program qubits, ``MAX_GATES`` gates)."""
    return circuit.num_qubits <= MAX_QUBITS and len(circuit.gates) <= MAX_GATES


@dataclass
class ExactConfig:
    """Search budgets for the exact solver, in seconds at
    ``_NODES_PER_SECOND`` search nodes each."""

    post_first_solution_budget: float = 100.0
    overall_budget: float = 300.0

    def __post_init__(self) -> None:
        for budget in (self.post_first_solution_budget, self.overall_budget):
            if not budget > 0:  # also rejects nan
                raise ValueError(f"budgets must be positive, got {budget}")


@dataclass
class ExactResult:
    solution: QlsSolution
    proven_optimal: bool
    timed_out: bool
    nodes: int  # search nodes used, the unit of the budgets

    @property
    def swaps(self) -> int:
        return swap_count(self.solution)


class _Deadline(Exception):
    """The search ran out of nodes."""


def solve_exact(
    circuit: Circuit,
    graph: CouplingGraph,
    cfg: ExactConfig | None = None,
    warm_start: QlsSolution | None = None,
) -> ExactResult:
    """Minimize inserted SWAPs by branch and bound under a node budget.

    Always returns a verified solution; ``timed_out`` marks best-so-far results
    whose optimality was not proven before the budget ran out. A verified
    ``warm_start`` is the starting incumbent; without one, a single A*
    routing pass from a breadth-first placement is.
    """
    cfg = cfg or ExactConfig()
    if not fits_exact(circuit):
        raise InstanceTooLarge(
            f"{circuit.num_qubits} qubits / {len(circuit.gates)} gates exceed "
            f"limits ({MAX_QUBITS}, {MAX_GATES})"
        )
    if circuit.num_qubits > graph.num_physical:
        raise ValueError("more program qubits than physical qubits")

    if warm_start is not None and verify(circuit, graph, warm_start).ok:
        incumbent = warm_start
    else:
        incumbent = astar_insert(circuit, graph, _extend_partial({}, circuit.num_qubits, graph))
    best_s = swap_count(incumbent)
    overall_limit = cfg.overall_budget * _NODES_PER_SECOND
    post_first_nodes = cfg.post_first_solution_budget * _NODES_PER_SECOND
    first_solution_at: int | None = None  # node count when found
    timed_out = False
    proven = False
    searcher = _BlockSearch(circuit, graph)
    b = 1
    while best_s > b - 1:
        limit = overall_limit
        if first_solution_at is not None:
            limit = min(limit, first_solution_at + post_first_nodes)
        try:
            found = searcher.search(max_blocks=b, swap_cap=best_s - 1, node_limit=limit)
        except _Deadline:
            timed_out = True
            break
        if found is not None:
            incumbent = found
            best_s = swap_count(found)
            if first_solution_at is None:
                first_solution_at = searcher.nodes
        b += 1
    else:
        proven = True
    report = verify(circuit, graph, incumbent)
    if not report.ok:  # internal bug guard; solutions must always verify
        raise AssertionError(f"exact solver produced invalid solution: {report.first_failure()}")
    incumbent = replace(incumbent, depth=asap_depth(circuit, incumbent))
    return ExactResult(incumbent, proven, timed_out, searcher.nodes)


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------


class _BlockSearch:
    """DFS over lazy qubit bindings and per-gap SWAP sequences. ``nodes``
    counts the nodes visited over every ``search`` call."""

    def __init__(self, circuit: Circuit, graph: CouplingGraph):
        self.circuit = circuit
        self.graph = graph
        self.dist = graph.dist
        self.neighbors = graph.neighbors
        self.edge_list = graph.sorted_edges()
        self.pred_masks = build_dag(circuit).pred_masks
        self.num_gates = len(circuit.gates)
        self.all_mask = (1 << self.num_gates) - 1
        self.gate_qubits = [g.qubits for g in circuit.gates]
        self.is2 = [g.is_two_qubit for g in circuit.gates]
        deg = [0] * circuit.num_qubits
        for g in circuit.gates:
            if g.is_two_qubit:
                for q in g.qubits:
                    deg[q] += 1
        self.anchor = max(range(circuit.num_qubits), key=lambda q: (deg[q], -q)) if deg else 0
        self.anchor_positions = _symmetry_positions(graph) or list(range(graph.num_physical))
        self.nodes = 0
        # Visited-state keys are one int. From the low bits up: a tag (0 at a
        # block node, edge index + 1 at a gap node), the deferred mask, the
        # executed mask, occ_code, and the block number on top. occ_code holds
        # occupant + 1 per position, num_qubits.bit_length() bits each.
        occ_bits = circuit.num_qubits.bit_length()
        self.occ_shift = [p * occ_bits for p in range(graph.num_physical)]
        self.deferred_shift = len(self.edge_list).bit_length()
        self.exec_shift = self.deferred_shift + self.num_gates
        self.occ_code_shift = self.exec_shift + self.num_gates
        self.block_shift = self.occ_code_shift + graph.num_physical * occ_bits

    def search(
        self, max_blocks: int, swap_cap: int, node_limit: float
    ) -> QlsSolution | None:
        """Best solution using at most ``max_blocks`` blocks and ``swap_cap``
        SWAPs, or None. Raises _Deadline once ``nodes`` passes ``node_limit``."""
        if swap_cap < 0:
            return None
        self.max_blocks = max_blocks
        self.swap_cap = swap_cap
        self.node_limit = node_limit
        self.best: QlsSolution | None = None
        self.occ = [-1] * self.graph.num_physical
        self.occ_code = 0
        self.pos = [-1] * self.circuit.num_qubits
        self.exec_mask = 0
        self.deferred = 0  # bitmask of ready gates whose binding is put off
        # Needs no undo: the path that reaches _record has set every entry.
        self.gate_block = [-1] * self.num_gates
        self.swaps: list[SwapOp] = []
        self.visited: dict = {}
        if any(self.is2):
            for p in self.anchor_positions:
                self._bind(self.anchor, p)
                self._dfs_block(0)
                self._unbind(self.anchor, p)
        else:
            self._dfs_block(0)
        return self.best

    # -- primitive state updates ------------------------------------------

    def _bind(self, q: int, p: int) -> None:
        self.pos[q] = p
        self.occ[p] = q
        self.occ_code += (q + 1) << self.occ_shift[p]

    def _unbind(self, q: int, p: int) -> None:
        self.pos[q] = -1
        self.occ[p] = -1
        self.occ_code -= (q + 1) << self.occ_shift[p]

    def _exchange(self, a: int, b: int) -> None:
        """Swap the occupants of positions a and b."""
        qa, qb = self.occ[a], self.occ[b]
        self.occ[a], self.occ[b] = qb, qa
        d = qb - qa
        self.occ_code += (d << self.occ_shift[a]) - (d << self.occ_shift[b])
        if qa != -1:
            self.pos[qa] = b
        if qb != -1:
            self.pos[qb] = a

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise _Deadline

    def _closure(self, block: int) -> None:
        """Execute every gate that is executable under the current bindings.
        Predecessors have lower ids, so one ascending pass reaches the
        fixpoint."""
        mask = self.exec_mask
        for gid in range(self.num_gates):
            if mask >> gid & 1 or self.pred_masks[gid] & ~mask:
                continue
            if self.is2[gid]:
                qa, qb = self.gate_qubits[gid]
                pa, pb = self.pos[qa], self.pos[qb]
                if pa < 0 or pb < 0 or self.dist[pa][pb] != 1:
                    continue
            mask |= 1 << gid
            self.gate_block[gid] = block
        self.exec_mask = mask

    def _lower_bound(self) -> int:
        worst = 0
        for gid in range(self.num_gates):
            if self.exec_mask >> gid & 1 or not self.is2[gid]:
                continue
            qa, qb = self.gate_qubits[gid]
            pa, pb = self.pos[qa], self.pos[qb]
            if pa >= 0 and pb >= 0:
                need = self.dist[pa][pb] - 1
                if need > worst:
                    worst = need
        return worst

    def _state_key(self, tag: int, block: int) -> int:
        """The visited-state key: equal exactly when the tag, block, occupants,
        executed gates and deferred gates are all equal."""
        return (
            block << self.block_shift
            | self.occ_code << self.occ_code_shift
            | self.exec_mask << self.exec_shift
            | self.deferred << self.deferred_shift
            | tag
        )

    # -- search ------------------------------------------------------------

    def _dfs_block(self, block: int) -> None:
        self._tick()
        saved_mask = self.exec_mask
        self._closure(block)
        try:
            if self.exec_mask == self.all_mask:
                self._record(block)
                return
            if len(self.swaps) + self._lower_bound() > self.swap_cap:
                return
            key = self._state_key(0, block)
            prev = self.visited.get(key)
            if prev is not None and prev <= len(self.swaps):
                return
            self.visited[key] = len(self.swaps)
            gid = self._pick_bindable()
            if gid is not None:
                self._branch_bindings(block, gid)
                return
            if block == self.max_blocks - 1:
                return
            self._dfs_gap(block, last_idx=-1, in_gap=0)
        finally:
            self.exec_mask = saved_mask

    def _pick_bindable(self) -> int | None:
        executed = self.exec_mask
        skip = executed | self.deferred
        for gid in range(self.num_gates):
            if not self.is2[gid] or skip >> gid & 1 or self.pred_masks[gid] & ~executed:
                continue
            qa, qb = self.gate_qubits[gid]
            if self.pos[qa] < 0 or self.pos[qb] < 0:
                return gid
        return None

    def _branch_bindings(self, block: int, gid: int) -> None:
        qa, qb = self.gate_qubits[gid]
        if self.pos[qa] >= 0 and self.pos[qb] < 0:
            qa, qb = qb, qa
        if self.pos[qb] >= 0:  # qa unbound, qb bound
            anchor_p = self.pos[qb]
            for p in self.neighbors[anchor_p]:
                if self.occ[p] == -1:
                    self._bind(qa, p)
                    self._dfs_block(block)
                    self._unbind(qa, p)
        else:  # both unbound: place on any free adjacent pair
            for a, b in self.edge_list:
                if self.occ[a] != -1 or self.occ[b] != -1:
                    continue
                for pa, pb in ((a, b), (b, a)):
                    self._bind(qa, pa)
                    self._bind(qb, pb)
                    self._dfs_block(block)
                    self._unbind(qb, pb)
                    self._unbind(qa, pa)
        self.deferred |= 1 << gid
        self._dfs_block(block)
        self.deferred &= ~(1 << gid)

    def _dfs_gap(self, block: int, last_idx: int, in_gap: int) -> None:
        self._tick()
        if in_gap > 0:
            saved_deferred = self.deferred
            self.deferred = 0
            self._dfs_block(block + 1)
            self.deferred = saved_deferred
        if len(self.swaps) >= self.swap_cap:
            return
        for idx, (a, b) in enumerate(self.edge_list):
            if self.occ[a] == -1 and self.occ[b] == -1:
                continue
            if idx < last_idx:
                la, lb = self.edge_list[last_idx]
                if a != la and a != lb and b != la and b != lb:
                    continue  # canonical order for commuting swaps
            self._exchange(a, b)
            self.swaps.append(SwapOp((a, b), block))
            if len(self.swaps) + self._lower_bound() <= self.swap_cap:
                key = self._state_key(idx + 1, block)
                prev = self.visited.get(key)
                if prev is None or prev > len(self.swaps):
                    self.visited[key] = len(self.swaps)
                    self._dfs_gap(block, idx, in_gap + 1)
            self.swaps.pop()
            self._exchange(a, b)

    def _record(self, last_block: int) -> None:
        final_pos = list(self.pos)
        free = [p for p in range(self.graph.num_physical) if self.occ[p] == -1]
        it = iter(free)
        for q in range(len(final_pos)):
            if final_pos[q] == -1:
                final_pos[q] = next(it)
        num_blocks = last_block + 1
        swaps = tuple(self.swaps)  # every gap is below last_block
        # Undo every SWAP from the final placement, then replay gap by gap.
        mapping = Mapping(tuple(final_pos)).apply_swaps(sw.edge for sw in reversed(swaps))
        mappings = [mapping]
        for gap in range(num_blocks - 1):
            mapping = mapping.apply_swaps(sw.edge for sw in swaps if sw.gap == gap)
            mappings.append(mapping)
        sol = QlsSolution(tuple(mappings), tuple(self.gate_block), swaps, None)
        n = swap_count(sol)
        if self.best is None or n < swap_count(self.best):
            self.best = sol
            self.swap_cap = n - 1


def _symmetry_positions(graph: CouplingGraph) -> list[int] | None:
    """One anchor position per symmetry orbit of a library path or grid.

    The name only says which library device to compare against; the orbits
    are used only when the edges match that device exactly.
    """
    kind, _, size = graph.name.partition(":")
    if kind not in ("path", "grid") or not size.isdecimal() or int(size) < 2:
        return None
    n = int(size)
    library = make_device(kind, n)
    if (library.num_physical, library.edges) != (graph.num_physical, graph.edges):
        return None
    if kind == "path":
        return list(range((n + 1) // 2))
    return [r * n + c for r in range(n) for c in range(n) if r <= c <= (n - 1) // 2]


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

_ORACLE_MAX_PHYSICAL = 6
_ORACLE_MAX_GATES = 10


class OracleLimitError(ValueError):
    pass


def optimal_oracle(circuit: Circuit, graph: CouplingGraph, max_swaps: int) -> int | None:
    """Minimum SWAP count by exhaustive breadth-first search, or None if it
    exceeds ``max_swaps``. No pruning beyond visited-state deduplication."""
    if graph.num_physical > _ORACLE_MAX_PHYSICAL:
        raise OracleLimitError("oracle limited to 6 physical qubits")
    if len(circuit.gates) > _ORACLE_MAX_GATES:
        raise OracleLimitError("oracle limited to 10 gates")
    if circuit.num_qubits > graph.num_physical:
        raise ValueError("more program qubits than physical qubits")
    dist = graph.dist
    gates = circuit.gates
    preds = [sum(1 << p for p in prev) for prev in _previous_gates(circuit)]
    all_mask = (1 << len(gates)) - 1

    def closed(assignment: tuple[int, ...], mask: int) -> int:
        progress = True
        while progress:
            progress = False
            for g in gates:
                if mask >> g.id & 1 or preds[g.id] & ~mask:
                    continue
                if g.is_two_qubit:
                    pa, pb = assignment[g.qubits[0]], assignment[g.qubits[1]]
                    if dist[pa][pb] != 1:
                        continue
                mask |= 1 << g.id
                progress = True
        return mask

    frontier: set[tuple[tuple[int, ...], int]] = set()
    for perm in itertools.permutations(range(graph.num_physical), circuit.num_qubits):
        mask = closed(perm, 0)
        if mask == all_mask:
            return 0
        frontier.add((perm, mask))
    visited = set(frontier)
    edges = graph.sorted_edges()
    for level in range(1, max_swaps + 1):
        nxt: set[tuple[tuple[int, ...], int]] = set()
        for assignment, mask in frontier:
            for a, b in edges:
                new = list(assignment)
                for q, p in enumerate(new):
                    if p == a:
                        new[q] = b
                    elif p == b:
                        new[q] = a
                new_t = tuple(new)
                new_mask = closed(new_t, mask)
                if new_mask == all_mask:
                    return level
                state = (new_t, new_mask)
                if state not in visited:
                    visited.add(state)
                    nxt.add(state)
        if not nxt:
            return None
        frontier = nxt
    return None
