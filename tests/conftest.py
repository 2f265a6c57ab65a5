import heapq
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

import pytest

from mlqls import Circuit, ClusterMap, CouplingGraph, Gate, Mapping, make_device
from mlqls.exact import _ORACLE_MAX_GATES, _ORACLE_MAX_PHYSICAL, OracleLimitError
from mlqls.model import DependencyDag, build_dag, uncommon_qubits
from mlqls.srefine import (
    _ALPHA,
    _BETA,
    _GAMMA,
    _MAPPER_NODES_PER_SECOND,
    _MAX_CANDIDATE_GATES,
    _REGION_BIAS,
    _SA_FINAL_TEMP_RATIO,
    _SA_MOVES_PER_QUBIT_PAIR,
    _SA_PROBE_MOVES,
    _STATE_THRESHOLD,
    _TRIM_KEEP,
    _cost_terms,
    _Node,
    _extend_partial,
    _terms_cost,
)
from mlqls.verify import ConstraintCheck, QlsSolution, SwapOp


@pytest.fixture(scope="session")
def path4():
    return make_device("path", 4)


@pytest.fixture(scope="session")
def path5():
    return make_device("path", 5)


@pytest.fixture(scope="session")
def tshape5():
    """5-qubit T-shaped device: a hub at 1, a second hub at 3."""
    return make_device("custom", edges=[(0, 1), (1, 2), (1, 3), (3, 4)])


@pytest.fixture(scope="session")
def grid3():
    return make_device("grid", 3)


@pytest.fixture(scope="session")
def grid4():
    return make_device("grid", 4)


@pytest.fixture
def triangle_circuit():
    """Three mutually-interacting qubits; needs one SWAP on any triangle-free
    device."""
    return Circuit.from_pairs(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def scenario_mapping():
    """Initial placement used with triangle_circuit on tshape5:
    q0 -> p3, q1 -> p1, q2 -> p2."""
    return Mapping((3, 1, 2))


def identity_cluster_map(n: int) -> ClusterMap:
    """Every fine qubit in its own cell, so ``interpolate`` through it gives
    each qubit its own position plus a one-hop ring."""
    return ClusterMap(tuple(range(n)), tuple((i,) for i in range(n)))


def random_connected_graph(rng: random.Random, n: int, extra: int):
    """Spanning tree plus `extra` random chords."""
    edges = set()
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):
        a = nodes[rng.randrange(i)]
        edges.add((min(a, nodes[i]), max(a, nodes[i])))
    while extra > 0:
        a, b = rng.sample(range(n), 2)
        e = (min(a, b), max(a, b))
        if e not in edges:
            edges.add(e)
            extra -= 1
        elif len(edges) >= n * (n - 1) // 2:
            break
    return edges


def random_gates(rng: random.Random, nq: int, count: int) -> tuple[Gate, ...]:
    """``count`` random gates on ``nq`` qubits, one in five single-qubit."""
    return tuple(
        Gate(i, (rng.randrange(nq),), "h")
        if rng.random() < 0.2
        else Gate(i, tuple(rng.sample(range(nq), 2)))
        for i in range(count)
    )


def indegrees(dag) -> list[int]:
    """Each gate's count of predecessors, from ``dag.succs`` alone."""
    indeg = [0] * len(dag.succs)
    for succs in dag.succs:
        for s in succs:
            indeg[s] += 1
    return indeg


def is_acyclic(dag) -> bool:
    """Kahn check over ``dag.succs``; list-order construction should always
    satisfy it."""
    indeg = indegrees(dag)
    queue = deque(i for i, d in enumerate(indeg) if d == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for v in dag.succs[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == len(dag.succs)


def longest_chain(dag) -> int:
    """Length (in gates) of the longest dependency chain. Every dependency
    runs from a lower gate id to a higher one, so one ascending pass over
    ``dag.succs`` settles each gate before its successors."""
    depth = [1] * len(dag.succs)
    for gid, succs in enumerate(dag.succs):
        for s in succs:
            depth[s] = max(depth[s], depth[gid] + 1)
    return max(depth, default=0)


def drop_dag_edges(monkeypatch, into) -> list:
    """Plant a fault in every ``DependencyDag`` built from now on: the edges
    into each gate ``g`` with ``into(g)`` are dropped. Returns the circuits
    the DAGs are built for, one per build."""
    builds = []
    real = DependencyDag.__init__

    def faulty(self, circuit):
        builds.append(circuit)
        real(self, circuit)
        self.succs = tuple(tuple(s for s in succs if not into(s)) for succs in self.succs)
        self.pred_masks = tuple(0 if into(g) else m for g, m in enumerate(self.pred_masks))

    monkeypatch.setattr(DependencyDag, "__init__", faulty)
    return builds


def reference_check_dependency(circuit: Circuit, sol: QlsSolution) -> ConstraintCheck:
    """The verifier's dependency check as first written: every edge of
    ``build_dag(circuit)`` must run from a block to the same or a later one.
    The reference for reading gate order off the circuit."""
    dag = build_dag(circuit)
    for gid in range(len(circuit.gates)):
        for succ in dag.succs[gid]:
            if sol.gate_block[gid] > sol.gate_block[succ]:
                return ConstraintCheck(
                    False,
                    f"gate {gid} (block {sol.gate_block[gid]}) must precede "
                    f"gate {succ} (block {sol.gate_block[succ]})",
                )
    return ConstraintCheck(True)


def reference_optimal_oracle(circuit: Circuit, graph: CouplingGraph, max_swaps: int) -> int | None:
    """``exact.optimal_oracle`` as first written, with gate order taken from
    ``build_dag(circuit).succs`` and in-degree counters: the reference for
    the oracle that reads gate order off the circuit."""
    if graph.num_physical > _ORACLE_MAX_PHYSICAL:
        raise OracleLimitError("oracle limited to 6 physical qubits")
    if len(circuit.gates) > _ORACLE_MAX_GATES:
        raise OracleLimitError("oracle limited to 10 gates")
    if circuit.num_qubits > graph.num_physical:
        raise ValueError("more program qubits than physical qubits")
    dag = build_dag(circuit)
    dist = graph.dist
    gates = circuit.gates
    base_indeg = [0] * len(gates)  # counted from succs, not from pred_masks
    for succs in dag.succs:
        for succ in succs:
            base_indeg[succ] += 1
    all_mask = (1 << len(gates)) - 1

    def closed(assignment: tuple[int, ...], mask: int) -> int:
        indeg = list(base_indeg)
        for gid in range(len(gates)):
            if mask & (1 << gid):
                for s in dag.succs[gid]:
                    indeg[s] -= 1
        progress = True
        while progress:
            progress = False
            for g in gates:
                if mask & (1 << g.id) or indeg[g.id] != 0:
                    continue
                if g.is_two_qubit:
                    pa, pb = assignment[g.qubits[0]], assignment[g.qubits[1]]
                    if dist[pa][pb] != 1:
                        continue
                mask |= 1 << g.id
                for s in dag.succs[g.id]:
                    indeg[s] -= 1
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


class ReferenceSolutionBuilder:
    """Accumulates executed gates and SWAPs while routing, folding runs of
    SWAPs into inter-block gaps. Trailing SWAPs after the last gate are dropped.

    The router's first answer builder, fed one SWAP and one executed gate at
    a time: the reference for reading the answer off a search path.
    """

    def __init__(self, num_gates: int, start: Mapping):
        self._current = list(start.assignment)
        self._pos = {p: q for q, p in enumerate(start.assignment)}
        self._blocks = [tuple(start.assignment)]
        self._gate_block = [-1] * num_gates
        self._swaps: list[SwapOp] = []
        self._pending: list[tuple[int, int]] = []

    def add_swap(self, edge: tuple[int, int]) -> None:
        a, b = min(edge), max(edge)
        qa, qb = self._pos.pop(a, None), self._pos.pop(b, None)
        if qa is not None:
            self._current[qa] = b
            self._pos[b] = qa
        if qb is not None:
            self._current[qb] = a
            self._pos[a] = qb
        self._pending.append((a, b))

    def execute(self, gate_id: int) -> None:
        if self._pending:
            gap = len(self._blocks) - 1
            self._swaps.extend(SwapOp(e, gap) for e in self._pending)
            self._pending = []
            self._blocks.append(tuple(self._current))
        self._gate_block[gate_id] = len(self._blocks) - 1

    def build(self) -> QlsSolution:
        if any(b < 0 for b in self._gate_block):
            missing = [i for i, b in enumerate(self._gate_block) if b < 0]
            raise ValueError(f"gates never executed: {missing[:5]}")
        return QlsSolution(
            tuple(Mapping(m) for m in self._blocks),
            tuple(self._gate_block),
            tuple(self._swaps),
            None,
        )


def reference_state_key(search, tag: int, block: int) -> tuple:
    """The exact solver's visited-state key as first written, a tuple: the
    tag (``"b"`` at a block node, ``("g", edge index)`` at a gap node), the
    block, the occupant of every position, the executed mask and the set of
    deferred gates."""
    deferred = frozenset(g for g in range(search.num_gates) if search.deferred >> g & 1)
    old_tag = "b" if tag == 0 else ("g", tag - 1)
    return (old_tag, block, tuple(search.occ), search.exec_mask, deferred)


def reference_closure(circuit: Circuit, graph: CouplingGraph, pos, executed: int) -> int:
    """The executed-gate mask once every gate that can run has run, starting
    from ``executed`` at positions ``pos`` (``pos[q] < 0``: q is unbound).
    In-degree counting over ``build_dag(circuit).succs``, as the searches
    first did it: a gate runs when its count of unrun predecessors is 0 and,
    for a two-qubit gate, its qubits sit on adjacent positions."""
    dag = build_dag(circuit)
    indeg = indegrees(dag)
    for gid in range(len(circuit.gates)):
        if executed >> gid & 1:
            for s in dag.succs[gid]:
                indeg[s] -= 1
    queue = deque(g for g in range(len(circuit.gates)) if indeg[g] == 0)
    while queue:
        gid = queue.popleft()
        if executed >> gid & 1:
            continue
        qubits = circuit.gates[gid].qubits
        if len(qubits) == 2:
            pa, pb = pos[qubits[0]], pos[qubits[1]]
            if pa < 0 or pb < 0 or graph.dist[pa][pb] != 1:
                continue
        executed |= 1 << gid
        for s in dag.succs[gid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                queue.append(s)
    return executed


def reference_exact_closure(search, block: int) -> None:
    """The exact solver's closure as first written: one ascending pass over
    every gate of ``search``, which runs each gate whose predecessors have
    run and, for a two-qubit gate, whose qubits are bound to adjacent
    positions. Predecessors have lower ids, so one pass reaches the
    fixpoint."""
    mask = search.exec_mask
    for gid in range(search.num_gates):
        if mask >> gid & 1 or search.pred_masks[gid] & ~mask:
            continue
        if search.is2[gid]:
            qa, qb = search.gate_qubits[gid]
            pa, pb = search.pos[qa], search.pos[qb]
            if pa < 0 or pb < 0 or search.dist[pa][pb] != 1:
                continue
        mask |= 1 << gid
        search.gate_block[gid] = block
    search.exec_mask = mask


def reference_lower_bound(search) -> int:
    """The exact solver's lower bound as first written, by a scan of every
    gate: the largest ``dist - 1`` over the unexecuted two-qubit gates whose
    qubits are both bound."""
    worst = 0
    for gid in range(search.num_gates):
        if search.exec_mask >> gid & 1 or not search.is2[gid]:
            continue
        qa, qb = search.gate_qubits[gid]
        pa, pb = search.pos[qa], search.pos[qb]
        if pa >= 0 and pb >= 0:
            worst = max(worst, search.dist[pa][pb] - 1)
    return worst


def reference_pick_bindable(search) -> int | None:
    """The exact solver's next gate to bind as first written, by a scan of
    every gate: the lowest ready two-qubit gate, neither executed nor
    deferred, with an unbound qubit."""
    executed = search.exec_mask
    skip = executed | search.deferred
    for gid in range(search.num_gates):
        if not search.is2[gid] or skip >> gid & 1 or search.pred_masks[gid] & ~executed:
            continue
        qa, qb = search.gate_qubits[gid]
        if search.pos[qa] < 0 or search.pos[qb] < 0:
            return gid
    return None


@dataclass(frozen=True)
class AStarState:
    """One routing search state, for the reference heuristic below."""

    swap_edge: tuple[int, int] | None
    ready: frozenset[int]
    unexecuted: frozenset[int]
    mapping: Mapping
    parent: "AStarState | None"
    g_cost: int
    h_cost: float = 0.0


def heuristic_h(state: AStarState, circuit: Circuit, graph: CouplingGraph) -> float:
    """Reference for the router's lookahead estimate, computed from scratch:
    normalized ready-gate distance, one-hop child distance, related-qubit
    distance, and the count of gates not yet executed. Empty gate sets
    contribute zero."""
    dag = build_dag(circuit)
    dist = graph.dist
    pos = state.mapping.assignment
    nq = circuit.num_qubits
    h = 0.0
    if state.ready:
        s = sum(
            dist[pos[circuit.gates[gid].qubits[0]]][pos[circuit.gates[gid].qubits[1]]]
            for gid in state.ready
        )
        h += s / (len(state.ready) * nq)
    onehop = {cid for gid in state.ready for cid in dag.children2[gid]}
    if onehop:
        s2 = sum(
            dist[pos[circuit.gates[gid].qubits[0]]][pos[circuit.gates[gid].qubits[1]]]
            for gid in onehop
        )
        s3 = 0
        for gid in onehop:
            for pid in dag.parents2[gid]:
                pair = uncommon_qubits(circuit.gates[gid], circuit.gates[pid])
                if pair is not None:
                    s3 += dist[pos[pair[0]]][pos[pair[1]]]
        h += (_ALPHA * s2 + _BETA * s3) / (len(onehop) * nq)
    h += _GAMMA * (len(state.ready) + len(state.unexecuted))
    return h


def sa_cost(circuit: Circuit, mapping: Mapping, graph: CouplingGraph) -> float:
    """The annealing cost of a mapping, summed over every term: decayed gate
    distances plus related-qubit distances for consecutive gates sharing a
    qubit. The reference the annealer's incremental move scores add up to."""
    return _terms_cost(_cost_terms(circuit), mapping.assignment, graph.dist)


def reference_sa_initial_mapping(circuit, graph, start, regions=None, rng=None):
    """Reference for the annealer: the same schedule, RNG draws and
    acceptance rule, with each move scored by two sums over the set of terms
    on the moved qubits, rebuilt at every move."""
    rng = rng or random.Random(0)
    n = circuit.num_qubits
    num_p = graph.num_physical
    dist = graph.dist
    terms = _cost_terms(circuit)
    by_qubit = [[] for _ in range(n)]
    for idx, (_, a, b) in enumerate(terms):
        by_qubit[a].append(idx)
        by_qubit[b].append(idx)
    region_lists = None
    if regions is not None:
        region_lists = [sorted(regions[q]) for q in range(n)]

    pos = list(start.assignment)
    occ = [-1] * num_p
    for q, p in enumerate(pos):
        occ[p] = q
    cur = _terms_cost(terms, pos, dist)
    best_cost = cur
    best_pos = pos[:]
    iters = _SA_MOVES_PER_QUBIT_PAIR * n * n

    def propose():
        q = rng.randrange(n)
        if region_lists is not None and rng.random() >= _REGION_BIAS:
            p = region_lists[q][rng.randrange(len(region_lists[q]))]
        else:
            p = rng.randrange(num_p)
        return q, p

    def move_delta(q, p):
        r = occ[p]
        affected = set(by_qubit[q])
        if r != -1:
            affected.update(by_qubit[r])
        old_p = pos[q]
        before = sum(terms[i][0] * dist[pos[terms[i][1]]][pos[terms[i][2]]] for i in affected)
        pos[q] = p
        if r != -1:
            pos[r] = old_p
        after = sum(terms[i][0] * dist[pos[terms[i][1]]][pos[terms[i][2]]] for i in affected)
        pos[q] = old_p
        if r != -1:
            pos[r] = p
        return after - before, r

    probe_rng = random.Random(rng.randrange(1 << 62))
    uphill = []
    for _ in range(_SA_PROBE_MOVES):
        q = probe_rng.randrange(n)
        p = probe_rng.randrange(num_p)
        if p == pos[q]:
            continue
        d, _ = move_delta(q, p)
        if d > 0:
            uphill.append(d)
    temp = (sum(uphill) / len(uphill)) / math.log(2) if uphill else 1.0
    cooling = _SA_FINAL_TEMP_RATIO ** (1.0 / max(iters, 1))

    for _ in range(iters):
        q, p = propose()
        if p != pos[q]:
            delta, r = move_delta(q, p)
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                old_p = pos[q]
                pos[q] = p
                occ[p] = q
                occ[old_p] = r
                if r != -1:
                    pos[r] = old_p
                cur += delta
                if cur < best_cost:
                    best_cost = cur
                    best_pos = pos[:]
        temp *= cooling
    return Mapping(tuple(best_pos))


class _BudgetExhausted(Exception):
    pass


def reference_embed(constraints, graph, hint, budget, degree_rule=True):
    """The embedding search as first written, on sets: ``pick`` recounts
    each variable's placed partners at every search node, and a variable's
    candidates are the intersection of its placed partners' neighbour sets
    minus the used positions, sorted, hint first. With ``degree_rule``, a
    candidate must also have at least as many neighbours as the variable
    has partners; without it, this is the search before that rule."""
    variables = sorted(constraints)
    if not variables:
        return {}
    assign, used = {}, set()
    nbr_sets = [set(ns) for ns in graph.neighbors]

    def pick():
        best_q, best_key = None, None
        for q in variables:
            if q in assign:
                continue
            placed = sum(1 for r in constraints[q] if r in assign)
            key = (-placed, -len(constraints[q]), q)
            if best_key is None or key < best_key:
                best_q, best_key = q, key
        return best_q

    def candidates(q):
        placed = [assign[r] for r in constraints[q] if r in assign]
        if placed:
            cands = set.intersection(*(nbr_sets[p] for p in placed)) - used
        else:
            cands = set(range(graph.num_physical)) - used
        if degree_rule:
            cands = {p for p in cands if len(nbr_sets[p]) >= len(constraints[q])}
        out = sorted(cands)
        if hint.get(q) in cands:
            out.remove(hint[q])
            out.insert(0, hint[q])
        return out

    def bt():
        q = pick()
        if q is None:
            return True
        for p in candidates(q):
            budget[0] -= 1
            if budget[0] <= 0:
                raise _BudgetExhausted
            assign[q] = p
            used.add(p)
            if bt():
                return True
            del assign[q]
            used.discard(p)
        return False

    try:
        return dict(assign) if bt() else None
    except _BudgetExhausted:
        return None


def reference_initial_mapper(circuit, graph, budget_seconds, rng, degree_rule=True):
    """The constraint-growing mapper with eager scoring, as first written:
    each trial copies the accepted constraints, ``reference_embed`` decides
    it (with or without ``degree_rule``), and every accepted placement is
    scored at once, the lowest cost kept (strict ``<``, so the earliest of
    equals). When every pair is accepted the full embedding is returned
    instead. Returns ``(mapping, accepted, total, budget left, accepted
    pairs)``; the budget left tells a test whether the node budget ran
    out."""
    order = [g for g in circuit.gates if g.is_two_qubit]
    rng.shuffle(order)
    nodes = budget_seconds * _MAPPER_NODES_PER_SECOND
    budget = [nodes if nodes == math.inf else max(1000, int(nodes))]
    required, assign, accepted_pairs = {}, {}, set()
    best_map, best_cost = None, math.inf
    total = len({(min(g.qubits), max(g.qubits)) for g in order})
    terms = _cost_terms(circuit)
    for gate in order:
        a, b = gate.qubits
        pair = (min(a, b), max(a, b))
        if pair in accepted_pairs:
            continue
        trial = {q: set(nbrs) for q, nbrs in required.items()}
        trial.setdefault(a, set()).add(b)
        trial.setdefault(b, set()).add(a)
        solution = reference_embed(trial, graph, assign, budget, degree_rule)
        if solution is not None:
            accepted_pairs.add(pair)
            required, assign = trial, solution
            full = _extend_partial(assign, circuit.num_qubits, graph)
            cost = _terms_cost(terms, full.assignment, graph.dist)
            if cost < best_cost:
                best_cost, best_map = cost, full
        if budget[0] <= 0:
            break
    if len(accepted_pairs) == total:
        best_map = _extend_partial(assign, circuit.num_qubits, graph)
    return best_map, len(accepted_pairs), total, budget[0], accepted_pairs


def reference_sets(ctx, node) -> None:
    """Build ``node``'s ``ready``, ``onehop`` and their three distance sums
    from scratch by scanning every gate, as ``make_root`` first did: the
    oracle for the router's derived sets."""
    open_mask = ~node.exec_mask
    ready = set()
    for gid in range(ctx.num_gates):
        if ctx.is2[gid] and open_mask >> gid & 1 and not ctx.pred_masks[gid] & open_mask:
            ready.add(gid)
    node.ready = ready
    node.rsum = sum(ctx.dist[node.pos[ctx.q2[g][0]]][node.pos[ctx.q2[g][1]]] for g in ready)
    onehop = {cid for gid in ready for cid in ctx.dag.children2[gid]}
    node.onehop = onehop
    node.osum = sum(ctx.dist[node.pos[ctx.q2[g][0]]][node.pos[ctx.q2[g][1]]] for g in onehop)
    node.psum = sum(
        ctx.dist[node.pos[a]][node.pos[b]] for g in onehop for a, b in ctx.related_pairs[g]
    )


def reference_h(ctx, node) -> float:
    """The router's four-term lookahead estimate from a node's sets and
    sums, as one routine first computed it for every node: normalized
    ready-gate distance, one-hop child distance, related-qubit distance,
    and the count of gates not yet executed. Empty gate sets contribute
    zero."""
    h = 0.0
    if node.ready:
        h += node.rsum / (len(node.ready) * ctx.nq)
    if node.onehop:
        h += (_ALPHA * node.osum + _BETA * node.psum) / (len(node.onehop) * ctx.nq)
    h += _GAMMA * (ctx.mask2 & ~node.exec_mask).bit_count()
    return h


def reference_partners(circuit: Circuit) -> list[list[tuple[int, int]]]:
    """Per qubit, ``(gate, other qubit)`` for each two-qubit gate on it, in
    gate order."""
    partners = [[] for _ in range(circuit.num_qubits)]
    for g in circuit.gates:
        if g.is_two_qubit:
            a, b = g.qubits
            partners[a].append((g.id, b))
            partners[b].append((g.id, a))
    return partners


def reference_candidate_edges(ctx, node) -> list[tuple[int, int]]:
    """The router's candidate SWAPs as first written: the set of
    ``(low, high)`` edges at the positions of the ready gates' qubits (of
    the ``_MAX_CANDIDATE_GATES`` closest ones, ties to the lower gate id,
    when there are more), sorted."""
    dist, pos, q2 = ctx.dist, node.pos, ctx.q2
    chosen = sorted(node.ready, key=lambda g: (dist[pos[q2[g][0]]][pos[q2[g][1]]], g))
    edges = set()
    for gid in chosen[:_MAX_CANDIDATE_GATES]:
        for q in q2[gid]:
            p = pos[q]
            edges.update((min(p, nb), max(p, nb)) for nb in ctx.graph.neighbors[p])
    return sorted(edges)


def expand(ctx, node) -> list:
    """The router's children of ``node`` over its candidate edges, in edge
    order, for the swaps that pass the SWAP filter, each built."""
    return [ctx.build(node, c) for c in ctx.children(node, ctx.candidate_edges(node))]


def reference_episode(ctx, root):
    """One best-first search run as first written: each child's frontier
    entry reads its own ``g_cost`` and executed-gate count, and a trim keeps
    ``heapq.nsmallest(_TRIM_KEEP, ...)`` of the frontier. Returns ``(goal,
    trims)``, with goal None when the frontier empties, where ``trims``
    counts the times the frontier grew past ``_STATE_THRESHOLD``."""
    seq = itertools.count()
    open_heap = [(root.h, -root.exec_mask.bit_count(), next(seq), root)]

    def key(node):
        return node.code << ctx.num_gates | node.exec_mask

    visited = {key(root): root.g_cost}
    trims = 0
    while open_heap:
        _, _, _, node = heapq.heappop(open_heap)
        if visited.get(key(node), node.g_cost) < node.g_cost:
            continue
        if node.exec_mask == ctx.all_mask:
            return node, trims
        for child in expand(ctx, node):
            ckey = key(child)
            prev = visited.get(ckey)
            if prev is not None and prev <= child.g_cost:
                continue
            visited[ckey] = child.g_cost
            heapq.heappush(
                open_heap,
                (child.g_cost + child.h, -child.exec_mask.bit_count(), next(seq), child),
            )
        if len(open_heap) > _STATE_THRESHOLD:
            open_heap = heapq.nsmallest(_TRIM_KEEP, open_heap)
            trims += 1
    return None, trims


def reference_expand(ctx, node) -> list:
    """The router's expansion as first written: the children over the
    candidate edges, as ``reference_children`` builds them."""
    return reference_children(ctx, node, reference_candidate_edges(ctx, node))


def reference_children(ctx, node, edges) -> list:
    """For each edge ``(a, b)``, ``_reference_improves`` walks the moved
    qubits' gates for the SWAP filter, then ``reference_child`` walks them
    again for the distance deltas and runs the closure and the set update
    as separate calls."""
    return [
        reference_child(ctx, node, a, b) for a, b in edges if _reference_improves(ctx, node, a, b)
    ]


def _reference_improves(ctx, node, a: int, b: int) -> bool:
    """True when the swap moves some ready-gate target strictly closer to
    its partner."""
    dist, ready, pos = ctx.dist, node.ready, node.pos
    partners = reference_partners(ctx.circuit)
    for q, old_p, new_p in ((node.occ[a], a, b), (node.occ[b], b, a)):
        if q == -1:
            continue
        for gid, other in partners[q]:
            if gid in ready and dist[new_p][pos[other]] < dist[old_p][pos[other]]:
                return True
    return False


def reference_child(ctx, node, a: int, b: int):
    """The state after swapping positions ``a`` and ``b``. Only the gates
    on the two moved qubits change distance, so the child's sets and sums
    follow from the parent's and those gates."""
    child = _Node()
    pos = node.pos
    child.pos = cpos = pos.copy()
    child.occ = node.occ.copy()
    qa, qb = node.occ[a], node.occ[b]
    child.occ[a], child.occ[b] = qb, qa
    code = node.code
    if qa != -1:
        cpos[qa] = b
        code += (b - a) << ctx.pos_shift[qa]
    if qb != -1:
        cpos[qb] = a
        code += (a - b) << ctx.pos_shift[qb]
    child.code = code
    child.parent = node
    child.edge = (min(a, b), max(a, b))
    child.g_cost = node.g_cost + 1
    child.done_here = []
    if qa == -1:
        moved = () if qb == -1 else (qb,)
    else:
        moved = (qa,) if qb == -1 else (qa, qb)
    dist = ctx.dist
    ready, onehop = node.ready, node.onehop
    executable = []
    drsum = dosum = 0
    # A gate on both moved qubits is met twice, but the swap keeps its
    # distance: it adds 0, and it is not ready, as the parent would have
    # run it. The same holds for the related pairs below.
    partners = reference_partners(ctx.circuit)
    for q in moved:
        for gid, other in partners[q]:  # ready and onehop are disjoint
            d = dist[cpos[q]][cpos[other]]
            if gid in ready:
                drsum += d - dist[pos[q]][pos[other]]
                if d == 1:
                    executable.append(gid)
            elif gid in onehop:
                dosum += d - dist[pos[q]][pos[other]]
    child.exec_mask = node.exec_mask
    if executable:
        blocked = _reference_run_closure(ctx, child, executable)
        _reference_advance_sets(ctx, child, node, executable, blocked, drsum)
    else:
        child.ready = ready
        child.onehop = onehop
        child.rsum = node.rsum + drsum
        child.osum = node.osum + dosum
        dpsum = 0
        if onehop:
            for q in moved:
                for gid, x, y in ctx.related_by_qubit[q]:
                    if gid in onehop:
                        dpsum += dist[cpos[x]][cpos[y]] - dist[pos[x]][pos[y]]
        child.psum = node.psum + dpsum
    child.h = reference_h(ctx, child)
    return child


def _reference_run_closure(ctx, node, candidates: list[int]) -> list[int]:
    """Execute every executable gate reachable from the candidate seeds; a
    successor is queued once ``exec_mask`` covers its predecessors.
    Returns the two-qubit gates it reached but could not run, because
    their qubits are not adjacent."""
    pred_masks = ctx.pred_masks
    blocked = []
    queue = deque(candidates)
    while queue:
        gid = queue.popleft()
        if node.exec_mask >> gid & 1 or pred_masks[gid] & ~node.exec_mask:
            continue
        if ctx.is2[gid]:
            qa, qb = ctx.q2[gid]
            if ctx.dist[node.pos[qa]][node.pos[qb]] != 1:
                blocked.append(gid)
                continue
        node.exec_mask |= 1 << gid
        node.done_here.append(gid)
        for succ in ctx.dag.succs[gid]:
            if not pred_masks[succ] & ~node.exec_mask:
                queue.append(succ)
    return blocked


def _reference_advance_sets(ctx, child, node, executable, blocked, drsum) -> None:
    """Sets and sums of a child whose closure ran: ``executable`` (ready
    in the parent, adjacent in the child) and the gates they unblocked
    have run, and ``blocked`` holds the unblocked gates left waiting."""
    dist, q2, pos = ctx.dist, ctx.q2, child.pos
    ready = node.ready.difference(executable)
    ready.update(blocked)
    child.ready = ready
    # The parent's ready gates cost rsum + drsum at the child's positions;
    # the executed ones cost 1 each.
    rsum = node.rsum + drsum - len(executable)
    for gid in blocked:
        x, y = q2[gid]
        rsum += dist[pos[x]][pos[y]]
    child.rsum = rsum
    # A one-hop gate leaves when none of its parents is still ready, which
    # can only happen to a child of an executed gate; a blocked gate's
    # children join.
    children2, parents2 = ctx.dag.children2, ctx.dag.parents2
    gone = [c for gid in executable for c in children2[gid]]
    onehop = node.onehop
    if gone or any(children2[gid] for gid in blocked):
        onehop = onehop.copy()
        for c in gone:
            if not any(p in ready for p in parents2[c]):
                onehop.discard(c)
        for gid in blocked:
            onehop.update(children2[gid])
    child.onehop = onehop
    osum = psum = 0
    for gid in onehop:
        x, y = q2[gid]
        osum += dist[pos[x]][pos[y]]
        for x, y in ctx.related_pairs[gid]:
            psum += dist[pos[x]][pos[y]]
    child.osum = osum
    child.psum = psum
