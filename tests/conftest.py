import math
import random
from collections import deque
from dataclasses import dataclass

import pytest

from mlqls import Circuit, CouplingGraph, Mapping, make_device
from mlqls.model import build_dag, uncommon_qubits
from mlqls.srefine import (
    _ALPHA,
    _BETA,
    _GAMMA,
    _MAPPER_NODES_PER_SECOND,
    _REGION_BIAS,
    _SA_FINAL_TEMP_RATIO,
    _SA_MOVES_PER_QUBIT_PAIR,
    _SA_PROBE_MOVES,
    _BudgetExhausted,
    _cost_terms,
    _extend_partial,
    _terms_cost,
)


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
    indeg = dag.indegrees()
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


def reference_embed(constraints, graph, hint, budget):
    """The embedding search as first written, on sets: ``pick`` recounts
    each variable's placed partners at every search node, and a variable's
    candidates are the intersection of its placed partners' neighbour sets
    minus the used positions, sorted, hint first."""
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


def reference_initial_mapper(circuit, graph, budget_seconds, rng):
    """The constraint-growing mapper with eager scoring, as first written:
    each trial copies the accepted constraints, ``reference_embed`` decides
    it, and every accepted placement is scored at once, the lowest cost
    kept (strict ``<``, so the earliest of equals). When every pair is
    accepted the full embedding is returned instead. Returns ``(mapping,
    accepted, total, budget left)``; the last tells a test whether the node
    budget ran out."""
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
        solution = reference_embed(trial, graph, assign, budget)
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
    return best_map, len(accepted_pairs), total, budget[0]
