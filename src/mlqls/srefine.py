"""Scalable heuristic layout synthesis: a constraint-growing initial mapper,
annealed initial mapping and multi-SWAP lookahead routing, usable standalone
or as the refinement step of the multilevel flow.

The mapper adds the circuit's gate pairs one at a time, in random order, and
keeps a pair when a backtracking embedding search (in the manner of VF2) can
place it and every pair kept before it on couplers within a node budget. The
search tries a qubit only at positions with at least as many neighbours as it
has partners (Ullmann's degree rule), which removes no embedding, and reads a
qubit's candidates off its placed partners' positions when it picks the
qubit. Its per-qubit state lives for the whole mapper call; a pair that the
last accepted embedding already satisfies is accepted without a search, for
the nodes the search would have spent re-placing it. A start that puts every
two-qubit gate on a coupler needs neither annealing nor a routing search.

The annealing cost charges each two-qubit gate its mapped distance, decayed by
circuit position, plus a related-qubit term pulling consecutively-interacting
qubits together. When every term weighs 1, as on every commutable circuit, a
move's cost change is an integer summed over the moved qubits' partner lists;
otherwise the annealer keeps each term's current value, and a move computes
only the new values of the terms on its two qubits, summed in a fixed order.
Routing searches over SWAP sequences with a trimmed best-first frontier,
scoring states by a four-term normalized lookahead heuristic in the manner of
SABRE (Li, Ding & Xie, ASPLOS 2019); forward and backward passes then iterate
while the SWAP count keeps improving. Candidate SWAPs are built and scored
much as LightSABRE does (Zou et al., arXiv:2409.08368). One loop
scores each candidate SWAP in one pass over the two moved qubits' ready gates,
read from tables built once per expansion, and applies the SWAP filter (some
ready gate gets strictly closer). A child runs the closure, and is built as a
node at once, only when a gate it runs has successors in the dependency DAG;
otherwise it runs exactly the ready gates the SWAP made adjacent, which is
every child of a commutable circuit, and it stays a small record until the
search pops it. Most children are trimmed or found again before that, so
they are never built. Every SWAP passes the filter: when trimming strands a
search, the closest ready gate is walked together along a shortest path, and
the search starts again from there.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, replace

from .cluster import MappingRegion
from .model import Circuit, CouplingGraph, DependencyDag, Mapping, build_dag, uncommon_qubits
from .verify import QlsSolution, SwapOp, asap_depth, swap_count, verify

_MAPPER_NODES_PER_SECOND = 50_000
_MAPPER_QUBIT_LIMIT = 100  # larger circuits start from random placements

# Annealing cost and schedule.
_GATE_WEIGHT_DECAY = 0.9  # a gate's terms weigh decay ** (its two-qubit depth)
_REGION_BIAS = 0.1  # probability of proposing an out-of-region target
_SA_MOVES_PER_QUBIT_PAIR = 50  # annealing runs this * |Q|^2 moves
_SA_PROBE_MOVES = 100  # random moves that calibrate the initial temperature T0
_SA_FINAL_TEMP_RATIO = 1e-3  # geometric cooling reaches T0/1000 by the last move

# Routing heuristic weights and search limits.
_ALPHA = 0.5  # one-hop gate distance
_BETA = 0.5  # one-hop related-qubit distance
_GAMMA = 0.1  # per gate not yet executed
_STATE_THRESHOLD = 100  # trim the frontier beyond this many open states
_TRIM_KEEP = 50  # open states kept by a trim
_MAX_CANDIDATE_GATES = 16  # cap on ready gates generating candidate SWAPs
_MAX_PASSES = 20  # forward/backward routing passes


@dataclass
class SrefineConfig:
    """Candidate count and mapper budgets for a full synthesis run."""

    candidates: int = 5
    mapper_first_budget: float = 10.0
    mapper_next_budget: float = 1.0

    def __post_init__(self) -> None:
        if self.candidates < 1:
            raise ValueError(f"candidates must be at least 1, got {self.candidates}")
        for budget in (self.mapper_first_budget, self.mapper_next_budget):
            if not budget > 0:  # also rejects nan
                raise ValueError(f"mapper budgets must be positive, got {budget}")


# ---------------------------------------------------------------------------
# Annealing cost
# ---------------------------------------------------------------------------


def _related_pairs(circuit: Circuit, dag: DependencyDag) -> list[tuple[tuple[int, int], ...]]:
    """Per gate, in ``dag.parents2`` order, the two qubits that the gate and
    each parent do not share; a parent on the same qubit pair adds none. Both
    the annealing cost and the router's lookahead charge these pairs."""
    related = []
    for g in circuit.gates:
        pairs = (uncommon_qubits(g, circuit.gates[p]) for p in dag.parents2[g.id])
        related.append(tuple(pair for pair in pairs if pair is not None))
    return related


def _cost_terms(circuit: Circuit) -> list[tuple[float, int, int]]:
    """Weighted distance terms: one per two-qubit gate, plus one per
    (gate, parent) related-qubit pair."""
    dag = build_dag(circuit)
    related = _related_pairs(circuit, dag)
    terms: list[tuple[float, int, int]] = []
    for g in circuit.gates:
        if not g.is_two_qubit:
            continue
        w = _GATE_WEIGHT_DECAY ** dag.depth2[g.id]
        terms.append((w, g.qubits[0], g.qubits[1]))
        for a, b in related[g.id]:
            terms.append((w, a, b))
    return terms


def _terms_cost(terms: list[tuple[float, int, int]], pos, dist) -> float:
    return sum(w * dist[pos[a]][pos[b]] for w, a, b in terms)


def _unit_partners(terms: list[tuple[float, int, int]], n: int) -> list[list[int]] | None:
    """Per qubit, the other qubit of each term on it, one entry per term,
    and an empty spare row for index -1; None unless every term weighs 1."""
    if any(w != 1 for w, _, _ in terms):
        return None
    partners: list[list[int]] = [[] for _ in range(n + 1)]
    for _, a, b in terms:
        partners[a].append(b)
        partners[b].append(a)
    return partners


def sa_initial_mapping(
    circuit: Circuit,
    graph: CouplingGraph,
    start: Mapping,
    regions: MappingRegion | None = None,
    rng: random.Random | None = None,
) -> Mapping:
    """Simulated annealing over mappings; a move relocates one qubit to a free
    position or exchanges it with the occupant. Returns the best mapping seen.

    With regions, in-region targets are proposed with probability
    ``1 - _REGION_BIAS``. The initial temperature accepts the probe's mean
    uphill move with probability 1/2. Each index is drawn from
    ``rng.getrandbits`` by the rule ``rng.randrange`` uses, so the draws are
    the ones ``randrange`` would make; ValueError on zero qubits or an empty
    region, where ``randrange`` would raise.
    """
    rng = rng or random.Random(0)
    n = circuit.num_qubits
    num_p = graph.num_physical
    if n == 0:
        raise ValueError("annealing needs at least one qubit")
    # Per qubit, its region's sorted cells, their count and its bit length.
    region_draws = None
    if regions is not None:
        region_lists = [sorted(regions[q]) for q in range(n)]
        if not all(region_lists):
            raise ValueError("every region must be non-empty")
        region_draws = [(cells, len(cells), len(cells).bit_length()) for cells in region_lists]
    dist = graph.dist
    terms = _cost_terms(circuit)
    # When every term weighs 1, which every term of a commutable circuit
    # does, a move's delta is an integer read off per-qubit partner lists,
    # and any order sums it exactly. Weighted terms keep each term's value
    # at the current positions, and a move sums its terms' new and old
    # values in a fixed order, since floats round by the order they add in.
    partners = _unit_partners(terms, n)
    unit = partners is not None

    # pos and the per-qubit rows of partners and affected carry a spare last
    # slot, which index -1 (no qubit at the target) reaches, so the moves
    # below need no branch for it.
    pos = [*start.assignment, -1]
    occ = [-1] * num_p
    for q, p in enumerate(start.assignment):
        occ[p] = q
    if unit:
        cur = sum(dist[pos[a]][pos[b]] for _, a, b in terms)
    else:
        # Term i charges weight[i] times the distance between qubits qa[i]
        # and qb[i]; val[i] holds that product at the current positions.
        weight = [w for w, _, _ in terms]
        qa = [a for _, a, _ in terms]
        qb = [b for _, _, b in terms]
        by_qubit: list[list[int]] = [[] for _ in range(n)]
        for i, (_, a, b) in enumerate(terms):
            by_qubit[a].append(i)
            by_qubit[b].append(i)
        val = [w * dist[pos[a]][pos[b]] for w, a, b in terms]
        val_at = val.__getitem__
        cur = sum(val)
        # affected[q][r]: the ids of the terms on q or r, for a move of q
        # onto r's position (r = -1 for a free one), filled on first use.
        # Each tuple keeps the iteration order of the set it is built from,
        # so the sums below add in the order the set-based scoring did.
        affected: list[list[tuple[int, ...] | None]] = [[None] * (n + 1) for _ in range(n)]
    best_cost = cur
    best_pos = pos[:n]
    iters = _SA_MOVES_PER_QUBIT_PAIR * n * n
    cooling = _SA_FINAL_TEMP_RATIO ** (1.0 / max(iters, 1))

    # The first _SA_PROBE_MOVES moves are probes, drawn from their own
    # generator with no region bias and never kept; the mean of their uphill
    # deltas sets the initial temperature at move 0.
    probe_rng = random.Random(rng.randrange(1 << 62))
    getrandbits, draws = probe_rng.getrandbits, None
    random_ = rng.random
    exp = math.exp
    kn, kp = n.bit_length(), num_p.bit_length()
    uphill = []
    temp = 0.0  # set at move 0
    for move in range(-_SA_PROBE_MOVES, iters):
        if move == 0:
            getrandbits, draws = rng.getrandbits, region_draws
            temp = (sum(uphill) / len(uphill)) / math.log(2) if uphill else 1.0
        q = getrandbits(kn)
        while q >= n:
            q = getrandbits(kn)
        if draws is not None and random_() >= _REGION_BIAS:
            cells, size, k = draws[q]
            j = getrandbits(k)
            while j >= size:
                j = getrandbits(k)
            p = cells[j]
        else:
            p = getrandbits(kp)
            while p >= num_p:
                p = getrandbits(kp)
        old_p = pos[q]
        if p != old_p:
            r = occ[p]
            if unit:
                # The sum over q's partners v != r of dist[p][pos[v]] -
                # dist[old_p][pos[v]], and the mirror sum over r's partners
                # v != q. With r moved first, a term between q and r adds
                # +d on q's side and -d on r's, so the loops need no test.
                pos[r] = old_p
                dn, do = dist[p], dist[old_p]
                delta = 0
                for v in partners[q]:
                    pv = pos[v]
                    delta += dn[pv] - do[pv]
                for v in partners[r]:
                    pv = pos[v]
                    delta += do[pv] - dn[pv]
                pos[q] = p
            else:
                ids = affected[q][r]
                if ids is None:
                    ids = set(by_qubit[q])
                    if r != -1:
                        ids.update(by_qubit[r])
                    affected[q][r] = ids = tuple(ids)
                pos[q], pos[r] = p, old_p
                after = [weight[i] * dist[pos[qa[i]]][pos[qb[i]]] for i in ids]
                # sum(), not +=, because sum() of floats is compensated from Python 3.12
                delta = sum(after) - sum(map(val_at, ids))
            if move < 0:
                if delta > 0:
                    uphill.append(delta)
                pos[q], pos[r] = old_p, p
            elif delta <= 0 or random_() < exp(-delta / temp):
                occ[p] = q
                occ[old_p] = r
                if not unit:
                    for i, v in zip(ids, after):
                        val[i] = v
                cur += delta
                if cur < best_cost:
                    best_cost = cur
                    best_pos = pos[:n]
            else:
                pos[q], pos[r] = old_p, p
        temp *= cooling
    return Mapping(tuple(best_pos))


# ---------------------------------------------------------------------------
# Region matching
# ---------------------------------------------------------------------------


def initial_matching(regions: MappingRegion, graph: CouplingGraph) -> Mapping:
    """Maximum-cardinality matching of qubits to positions inside their
    regions (augmenting paths); unmatched qubits take the nearest free
    position outside."""
    n = len(regions)
    if n > graph.num_physical:
        raise ValueError("more program qubits than physical qubits")
    adj = [sorted(regions[q]) for q in range(n)]
    match_p: dict[int, int] = {}
    match_q = [-1] * n

    def augment(q: int, seen: set[int]) -> bool:
        for p in adj[q]:
            if p in seen:
                continue
            seen.add(p)
            if p not in match_p or augment(match_p[p], seen):
                match_p[p] = q
                match_q[q] = p
                return True
        return False

    for q in range(n):
        augment(q, set())
    for q in range(n):
        if match_q[q] != -1:
            continue
        p = _nearest_free(graph, adj[q], set(match_p))
        match_p[p] = q
        match_q[q] = p
    return Mapping(tuple(match_q))


def _nearest_free(graph: CouplingGraph, seeds, taken: set[int]) -> int:
    queue = deque(sorted(seeds))
    seen = set(queue)
    while queue:
        p = queue.popleft()
        if p not in taken:
            return p
        for nb in graph.neighbors[p]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    raise ValueError("no free physical qubit reachable")


# ---------------------------------------------------------------------------
# SWAP-insertion search
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = (
        "pos",
        "occ",
        "ready",
        "onehop",
        "rsum",
        "osum",
        "psum",
        "exec_mask",
        "g_cost",
        "h",
        "parent",
        "edge",
        "done_here",
        "code",
    )


class _RouteContext:
    """Static data shared by all nodes of one routing run."""

    def __init__(self, circuit: Circuit, graph: CouplingGraph):
        self.circuit = circuit
        self.graph = graph
        self.dist = graph.dist
        self.neighbors = graph.neighbors
        # Edges are numbered in (low, high) order; edge_ids_at[p] holds the
        # numbers of the edges at position p.
        self.edges = graph.sorted_edges()
        edge_id = {edge: i for i, edge in enumerate(self.edges)}
        self.edge_ids_at = [
            tuple(edge_id[min(p, nb), max(p, nb)] for nb in graph.neighbors[p])
            for p in range(graph.num_physical)
        ]
        self.nq = circuit.num_qubits
        self.num_gates = len(circuit.gates)
        # A node's code holds pos[q] in a field of pos_bits bits at
        # pos_shift[q]; its visited key is code << num_gates | exec_mask.
        pos_bits = (graph.num_physical - 1).bit_length()
        self.pos_shift = [q * pos_bits for q in range(self.nq)]
        dag = build_dag(circuit)
        self.dag = dag
        self.pred_masks = dag.pred_masks
        self.all_mask = (1 << self.num_gates) - 1
        self.is2 = [g.is_two_qubit for g in circuit.gates]
        self.q2 = [g.qubits if g.is_two_qubit else None for g in circuit.gates]
        self.mask2 = sum(1 << g.id for g in circuit.gates if g.is_two_qubit)
        self.leaves = frozenset(gid for gid, succs in enumerate(dag.succs) if not succs)
        self.related_pairs = _related_pairs(circuit, dag)
        self.related_by_qubit: list[list[tuple[int, int, int]]] = [[] for _ in range(self.nq)]
        for gid, pairs in enumerate(self.related_pairs):
            for a, b in pairs:
                self.related_by_qubit[a].append((gid, a, b))
                self.related_by_qubit[b].append((gid, a, b))

    # -- node construction -------------------------------------------------

    def make_root(self, m0: Mapping) -> _Node:
        node = _Node()
        node.pos = list(m0.assignment)
        node.occ = [-1] * self.graph.num_physical
        for q, p in enumerate(node.pos):
            node.occ[p] = q
        node.code = sum(p << s for p, s in zip(node.pos, self.pos_shift))
        node.exec_mask = 0
        node.g_cost = 0
        node.parent = None
        node.edge = None
        seeds = [gid for gid in range(self.num_gates) if not self.pred_masks[gid]]
        self._close(node, set(), set(), 0, seeds)
        return node

    def _close(
        self, node: _Node, ready: set[int], onehop: set[int], rsum: int, seeds: Iterable[int]
    ) -> None:
        """Run every gate that can run, starting from ``seeds``, and derive
        ``node``'s ready and one-hop sets, their sums and its estimate
        ``h``. ``ready`` and ``onehop`` are the sets before the closure, and
        ``rsum`` is the distance sum of those ready gates at ``node``'s
        positions.

        A gate runs once ``exec_mask`` covers its predecessors and, for a
        two-qubit gate, its qubits are adjacent; its successors are queued
        then. A ready gate that runs leaves ``ready`` and costs 1 in
        ``rsum``; a two-qubit gate reached but not adjacent becomes ready.
        ``make_root`` and every child that runs a gate with successors share
        this routine."""
        pred_masks, succs, is2, q2 = self.pred_masks, self.dag.succs, self.is2, self.q2
        dist, pos = self.dist, node.pos
        children2, parents2 = self.dag.children2, self.dag.parents2
        exec_mask = node.exec_mask
        node.done_here = done = []
        ready = set(ready)
        left = []  # ready gates that ran
        blocked = []  # gates that became ready
        reshaped = False  # whether one of them has two-qubit children
        queue = list(seeds)
        for gid in queue:  # a FIFO queue: the loop also visits what it appends
            if exec_mask >> gid & 1 or pred_masks[gid] & ~exec_mask:
                continue
            if is2[gid]:
                x, y = q2[gid]
                d = dist[pos[x]][pos[y]]
                if d != 1:
                    blocked.append(gid)
                    rsum += d
                    reshaped = reshaped or bool(children2[gid])
                    continue
                if gid in ready:
                    ready.discard(gid)
                    left.append(gid)
                    rsum -= 1
                    reshaped = reshaped or bool(children2[gid])
            exec_mask |= 1 << gid
            done.append(gid)
            for succ in succs[gid]:
                if not pred_masks[succ] & ~exec_mask:
                    queue.append(succ)
        node.exec_mask = exec_mask
        ready.update(blocked)
        node.ready = ready
        node.rsum = rsum
        # A one-hop gate leaves when none of its parents is still ready, which
        # can only happen to a child of a gate that left; a blocked gate's
        # children join.
        if reshaped:
            onehop = onehop.copy()
            for gid in left:
                for c in children2[gid]:
                    if ready.isdisjoint(parents2[c]):
                        onehop.discard(c)
            for gid in blocked:
                onehop.update(children2[gid])
        node.onehop = onehop
        related_pairs = self.related_pairs
        osum = psum = 0
        for gid in onehop:
            x, y = q2[gid]
            osum += dist[pos[x]][pos[y]]
            for x, y in related_pairs[gid]:
                psum += dist[pos[x]][pos[y]]
        node.osum = osum
        node.psum = psum
        # The four-term lookahead estimate: normalized ready-gate distance,
        # one-hop child distance, related-qubit distance, and the count of
        # gates not yet executed. Empty gate sets contribute zero.
        nq = self.nq
        h = rsum / (len(ready) * nq) if ready else 0.0
        if onehop:
            h += (_ALPHA * osum + _BETA * psum) / (len(onehop) * nq)
        node.h = h + _GAMMA * (self.mask2 & ~exec_mask).bit_count()

    def children(self, node: _Node, edges: Iterable[tuple[int, int]]) -> list[_Node | tuple]:
        """The states after swapping positions ``a < b`` for each ``(a, b)``
        in ``edges``, in order, for the swaps that pass the SWAP filter: some
        ready gate gets strictly closer. A child that runs a gate with DAG
        successors is a built ``_Node``; any other child is a record
        ``(edge, code, exec_mask, executed, rsum, osum, psum, h)``, which
        holds what the search keys, dedups and orders it by, and which
        ``build`` turns into its node. ``_episode`` and the walk of
        ``_force_nearest_gate`` share this one loop.

        Only ready and one-hop gates are scored, so two tables per
        expansion list, per qubit, its ready gates in gate order and its
        one-hop gates, with their partners' positions. Each swap is scored
        against the parent's positions in one pass over the two moved
        qubits' ready rows: the change of the ready distance sum, the
        filter, and the ready gates the swap makes adjacent, in the order
        the closure runs them. Only a swap that passes reads the one-hop
        rows. A child that runs a gate with DAG successors gets its sets and
        estimate from ``_close``. The closure of any other
        child runs just the ready gates the swap made adjacent, none of
        which has a one-hop child, so the child keeps the parent's one-hop
        set and shifts its sums. One that runs no gate also shares the
        parent's ready set and the estimate's terms shared by all such
        children; one that runs gates drops them from ``ready``, adds them
        to ``exec_mask`` and costs 1 each in ``rsum``. Both compute the
        estimate with the expression ``_close`` uses.

        A gate on both moved qubits keeps its distance, so it adds nothing
        and never passes the filter. It is never ready either: its qubits sit
        on a coupler, so the parent's closure would have run it."""
        dist, pos, occ, code0 = self.dist, node.pos, node.occ, node.code
        ready, onehop, q2 = node.ready, node.onehop, self.q2
        related_by_qubit, pos_shift = self.related_by_qubit, self.pos_shift
        exec_mask = node.exec_mask
        rsum0, osum0, psum0 = node.rsum, node.osum, node.psum
        leaves, nq, mask2 = self.leaves, self.nq, self.mask2
        # the estimate's denominators and gate count for a child that runs no gate
        num_ready = len(ready)
        ready_den = num_ready * nq
        onehop_den = len(onehop) * nq
        unexecuted = _GAMMA * (mask2 & ~exec_mask).bit_count()
        # the positions after a swap, for the one-hop related pairs; its
        # spare last slot takes the writes for an empty position (-1)
        spos = [*pos, -1] if onehop else None
        # Per qubit, and in a spare last row for -1 (no qubit): its ready
        # gates in gate order, each with its partner's position and its
        # distance, and its one-hop gates' partners' positions. Ready gates
        # do not join the two moved qubits, so their partners stay put.
        ready_at: list[list[tuple[int, int, int]]] = [[] for _ in range(nq + 1)]
        for gid in sorted(ready):
            x, y = q2[gid]
            px, py = pos[x], pos[y]
            d = dist[px][py]
            ready_at[x].append((gid, py, d))
            ready_at[y].append((gid, px, d))
        if onehop:
            onehop_at: list[list[int]] = [[] for _ in range(nq + 1)]
            for gid in onehop:
                x, y = q2[gid]
                onehop_at[x].append(pos[y])
                onehop_at[y].append(pos[x])
        out: list[_Node | tuple] = []
        for edge in edges:
            a, b = edge
            da, db = dist[a], dist[b]
            qa, qb = occ[a], occ[b]
            improves = False
            drsum = 0
            executable = ()
            for gid, po, d0 in ready_at[qa]:  # qa moves a -> b
                d = db[po]
                drsum += d - d0
                if d < d0:
                    improves = True
                if d == 1:
                    executable += (gid,)
            for gid, po, d0 in ready_at[qb]:  # qb moves b -> a
                d = da[po]
                drsum += d - d0
                if d < d0:
                    improves = True
                if d == 1:
                    executable += (gid,)
            if not improves:
                continue
            code = code0
            if qa != -1:
                code += (b - a) << pos_shift[qa]
            if qb != -1:
                code += (a - b) << pos_shift[qb]
            if not executable:
                cmask = exec_mask
                rsum = rsum0 + drsum
                h = rsum / ready_den if ready else 0.0
                h_gates = unexecuted
            elif not leaves.issuperset(executable):  # a gate that runs has successors
                child = self._child_node(node, edge, code)
                child.exec_mask = exec_mask
                self._close(child, ready, onehop, rsum0 + drsum, executable)
                out.append(child)
                continue
            else:  # the closure would run the executable gates and no more
                cmask = exec_mask
                for gid in executable:
                    cmask |= 1 << gid
                rsum = rsum0 + drsum - len(executable)
                left = num_ready - len(executable)
                h = rsum / (left * nq) if left else 0.0
                h_gates = _GAMMA * (mask2 & ~cmask).bit_count()
            # no gate joined or left the one-hop set: shift its sums; a gate
            # on both moved qubits keeps its distance
            osum = osum0
            psum = psum0
            if onehop:
                for po in onehop_at[qa]:
                    if po != b:
                        osum += db[po] - da[po]
                for po in onehop_at[qb]:
                    if po != a:
                        osum += da[po] - db[po]
                spos[qa], spos[qb] = b, a
                for q in (qa, qb):
                    if q == -1:
                        continue
                    for gid, x, y in related_by_qubit[q]:
                        if gid in onehop:
                            psum += dist[spos[x]][spos[y]] - dist[pos[x]][pos[y]]
                spos[qa], spos[qb] = a, b
                h += (_ALPHA * osum + _BETA * psum) / onehop_den
            out.append((edge, code, cmask, executable, rsum, osum, psum, h + h_gates))
        return out

    def _child_node(self, node: _Node, edge: tuple[int, int], code: int) -> _Node:
        """A child of ``node`` after the swap ``edge``, with its positions,
        code, links and cost; its gates, sets and sums are the caller's."""
        a, b = edge
        child = _Node()
        child.pos = cpos = node.pos.copy()
        child.occ = cocc = node.occ.copy()
        qa, qb = cocc[a], cocc[b]
        cocc[a], cocc[b] = qb, qa
        if qa != -1:
            cpos[qa] = b
        if qb != -1:
            cpos[qb] = a
        child.code = code
        child.parent = node
        child.edge = edge
        child.g_cost = node.g_cost + 1
        return child

    def build(self, node: _Node, child: _Node | tuple) -> _Node:
        """The node of ``child``, one of the children of ``node``: a record
        is built from the parent's state, and a node is returned as is."""
        if type(child) is _Node:
            return child
        edge, code, exec_mask, executed, rsum, osum, psum, h = child
        built = self._child_node(node, edge, code)
        built.exec_mask = exec_mask
        built.done_here = list(executed)
        built.ready = node.ready.difference(executed) if executed else node.ready
        built.onehop = node.onehop
        built.rsum, built.osum, built.psum, built.h = rsum, osum, psum, h
        return built

    # -- expansion ----------------------------------------------------------

    def candidate_edges(self, node: _Node) -> list[tuple[int, int]]:
        """Edges ``(low, high)`` touching the target qubits of (the most
        urgent) ready gates, in ascending order."""
        ready, pos, q2 = node.ready, node.pos, self.q2
        if len(ready) > _MAX_CANDIDATE_GATES:
            dist = self.dist
            chosen = heapq.nsmallest(
                _MAX_CANDIDATE_GATES,
                ready,
                key=lambda gid: (dist[pos[q2[gid][0]]][pos[q2[gid][1]]], gid),
            )
        else:
            chosen = ready
        edge_ids_at = self.edge_ids_at
        ids = set()
        for gid in chosen:
            x, y = q2[gid]
            ids.update(edge_ids_at[pos[x]])
            ids.update(edge_ids_at[pos[y]])
        edges = self.edges
        return [edges[i] for i in sorted(ids)]


def astar_insert(circuit: Circuit, graph: CouplingGraph, m0: Mapping) -> QlsSolution:
    """Route a circuit from a fixed initial mapping by searching over SWAP
    sequences; gates execute as soon as they become adjacent, forming blocks.

    Returns an unverified, unscheduled solution (``depth`` None): the
    caller checks the pass it keeps. If frontier trimming strands a search
    episode, the closest ready gate is walked together from the episode's
    root, so at least one more gate runs, and the next episode starts where
    the walk ends. The answer is read off the goal's parent chain. A start
    that puts every two-qubit gate on a coupler is answered as the root
    would be, with one block, without setting up the search. Draws no
    random numbers.
    """
    if circuit.num_qubits > graph.num_physical:
        raise ValueError("more program qubits than physical qubits")
    if _on_couplers(circuit, graph, m0):  # the root runs every gate
        return QlsSolution((m0,), (0,) * len(circuit.gates), ())
    ctx = _RouteContext(circuit, graph)
    node = ctx.make_root(m0)
    while (goal := _episode(ctx, node)) is None:
        node = _force_nearest_gate(ctx, node)
    return _path_solution(ctx, goal)


def _on_couplers(circuit: Circuit, graph: CouplingGraph, mapping: Mapping) -> bool:
    """Whether ``mapping`` puts every two-qubit gate on a coupler (at
    distance 1, the router's adjacency test); such a start routes with 0
    SWAPs."""
    dist, pos = graph.dist, mapping.assignment
    return all(
        len(g.qubits) != 2 or dist[pos[g.qubits[0]]][pos[g.qubits[1]]] == 1 for g in circuit.gates
    )


def _episode(ctx: _RouteContext, root: _Node) -> _Node | None:
    """One best-first search run; returns its goal, or None when trimming
    empties the frontier first.

    Frontier entries are ``(g + h, -executed gates, seq, key, parent,
    child)``, where ``child`` is what ``ctx.children`` gave: a node, or a
    record that is built only when it is popped and not stale. Most
    children are trimmed or found again at no lower cost before they are
    popped, so most are never built. ``seq`` makes entries unique, so a
    trim that sorts the frontier and keeps its first ``_TRIM_KEEP`` entries
    keeps the smallest ones in heap order. The root has no parent and is
    visited at its own path cost, so a root that a walk reached, whose cost
    is not 0, is expanded and not skipped as a stale entry."""
    seq = itertools.count()
    num_gates, all_mask = ctx.num_gates, ctx.all_mask
    root_key = root.code << num_gates | root.exec_mask
    open_heap = [(root.h, -root.exec_mask.bit_count(), next(seq), root_key, None, root)]
    visited = {root_key: root.g_cost}
    heappush, heappop = heapq.heappush, heapq.heappop
    children, candidate_edges, build = ctx.children, ctx.candidate_edges, ctx.build
    while open_heap:
        _, neg_done, _, key, parent, node = heappop(open_heap)
        if parent is not None:
            if visited[key] <= parent.g_cost:  # found again at a lower cost
                continue
            node = build(parent, node)
        if node.exec_mask == all_mask:
            return node
        g = node.g_cost + 1
        for child in children(node, candidate_edges(node)):
            if type(child) is _Node:
                code, cmask, h, ran = child.code, child.exec_mask, child.h, len(child.done_here)
            else:
                _, code, cmask, executed, _, _, _, h = child
                ran = len(executed)
            ckey = code << num_gates | cmask
            if visited.get(ckey, g + 1) <= g:  # already reached at no higher cost
                continue
            visited[ckey] = g
            heappush(open_heap, (g + h, neg_done - ran, next(seq), ckey, node, child))
        if len(open_heap) > _STATE_THRESHOLD:
            open_heap.sort()
            del open_heap[_TRIM_KEEP:]
    return None


def _force_nearest_gate(ctx: _RouteContext, node: _Node) -> _Node:
    """Last-resort progress: walk the closest ready gate together along a
    shortest path, one child per SWAP; returns the last child, which runs
    the gate. Each step brings that ready gate one hop closer, so it passes
    the SWAP filter."""
    dist = ctx.dist
    gid = min(
        node.ready,
        key=lambda g: (dist[node.pos[ctx.q2[g][0]]][node.pos[ctx.q2[g][1]]], g),
    )
    qa, qb = ctx.q2[gid]
    while dist[node.pos[qa]][node.pos[qb]] > 1:
        pa, pb = node.pos[qa], node.pos[qb]
        step = min(ctx.neighbors[pa], key=lambda nb: (dist[nb][pb], nb))
        (child,) = ctx.children(node, ((pa, step) if pa < step else (step, pa),))
        node = ctx.build(node, child)
    return node


def _path_solution(ctx: _RouteContext, node: _Node) -> QlsSolution:
    """The unscheduled solution along the parent chain from the root to
    ``node``. The root's gates sit in block 0; each later node that ran
    gates opens a block at its own positions, and the SWAPs since the
    previous block fill the gap before it. A gate that ``node`` has not run
    keeps block -1, which ``verify`` rejects."""
    chain = []
    while node.parent is not None:
        chain.append(node)
        node = node.parent
    blocks = [Mapping(tuple(node.pos))]
    gate_block = [-1] * ctx.num_gates
    for gid in node.done_here:
        gate_block[gid] = 0
    swaps = []
    for node in reversed(chain):
        swaps.append(SwapOp(node.edge, len(blocks) - 1))
        if node.done_here:
            for gid in node.done_here:
                gate_block[gid] = len(blocks)
            blocks.append(Mapping(tuple(node.pos)))
    return QlsSolution(tuple(blocks), tuple(gate_block), tuple(swaps))


# ---------------------------------------------------------------------------
# Forward/backward passes
# ---------------------------------------------------------------------------


def reverse_solution(sol: QlsSolution) -> QlsSolution:
    """Turn a solution of the reversed circuit into one of the original:
    blocks reverse, gate blocks mirror, gap swaps replay backwards."""
    nb = sol.num_blocks
    ng = len(sol.gate_block)
    mappings = tuple(reversed(sol.block_mappings))
    gate_block = tuple((nb - 1) - sol.gate_block[ng - 1 - i] for i in range(ng))
    by_gap: dict[int, list[tuple[int, int]]] = {}
    for sw in sol.swaps:
        by_gap.setdefault(sw.gap, []).append(sw.edge)
    swaps = []
    for new_gap in range(nb - 1):
        old_gap = nb - 2 - new_gap
        for edge in reversed(by_gap.get(old_gap, [])):
            swaps.append(SwapOp(edge, new_gap))
    return QlsSolution(mappings, gate_block, tuple(swaps))


def forward_backward(circuit: Circuit, graph: CouplingGraph, m0: Mapping) -> QlsSolution:
    """Alternate forward and reversed compilation passes, each starting from
    the previous final mapping, until the SWAP count stops improving; the best
    pass (re-oriented forward) wins. Only it is verified, in the orientation
    returned, and scheduled for its ASAP depth; AssertionError if it fails
    the check."""
    rev = None  # the reversed circuit, built when a backward pass first runs
    mapping = m0
    best: QlsSolution | None = None
    best_n = None
    prev = None
    forward = True
    for _ in range(_MAX_PASSES):
        if not forward and rev is None:
            rev = circuit.reversed()
        circ = circuit if forward else rev
        sol = astar_insert(circ, graph, mapping)
        n = swap_count(sol)
        oriented = sol if forward else reverse_solution(sol)
        if best_n is None or n < best_n:
            best, best_n = oriented, n
        if n == 0 or (prev is not None and n >= prev):
            break
        prev = n
        mapping = sol.block_mappings[-1]
        forward = not forward
    assert best is not None
    report = verify(circuit, graph, best)
    if not report.ok:  # internal bug guard; solutions must always verify
        raise AssertionError(f"router produced invalid solution: {report.first_failure()}")
    return replace(best, depth=asap_depth(circuit, best))


# ---------------------------------------------------------------------------
# Constraint-growing initial mapper
# ---------------------------------------------------------------------------


def initial_mapper(
    circuit: Circuit,
    graph: CouplingGraph,
    budget_seconds: float = 10.0,
    rng: random.Random | None = None,
) -> Mapping | None:
    """Grow a set of gate-adjacency constraints in random order, keeping each
    gate only while the conjunction stays satisfiable. When every distinct
    gate pair is kept, returns the full embedding, which routes with no
    SWAPs; otherwise the accepted placement with the lowest annealing cost
    (the earliest among equals), or None if none was accepted.

    Satisfiability is decided by backtracking embedding search with a
    deterministic node budget derived from ``budget_seconds``. The search
    only tries a qubit at positions with at least as many neighbours as the
    qubit has partners, so each node the budget pays for is a candidate
    that passes this degree rule. The search restarts from nothing for each
    pair and tries every qubit at its position in the last accepted
    embedding first, so a pair that this embedding already satisfies (both
    qubits placed, on adjacent positions) would cost one node per placed
    qubit and return the same embedding: such a pair is accepted without a
    search and charged those nodes, or, with no more nodes than that left,
    rejected with the budget spent. The state the search reads (partner
    lists, scores, hints) is kept across pairs for the whole call.
    """
    mapping, _, _ = _initial_mapper_ex(circuit, graph, budget_seconds, rng)
    return mapping


def _initial_mapper_ex(
    circuit: Circuit,
    graph: CouplingGraph,
    budget_seconds: float,
    rng: random.Random | None,
) -> tuple[Mapping | None, int, int]:
    """``initial_mapper``'s mapping, with the number of distinct gate pairs
    it accepted and the number the circuit has.

    One call keeps the embedding search's state, indexed by qubit: partner
    lists, which a trial pair joins and a rejected one leaves again; each
    qubit's score before a search places anything; and the last accepted
    embedding, which is every search's hint. A pair that embedding already
    satisfies is charged the V nodes that ``_embed`` would spend putting the
    V placed qubits back on their hints, without running it: accepted if
    more than V nodes are left, otherwise rejected with the budget spent, as
    the search rejects it when its budget reaches 0.
    """
    rng = rng or random.Random(0)
    if circuit.num_qubits > graph.num_physical:
        raise ValueError("more program qubits than physical qubits")
    order = [g for g in circuit.gates if g.is_two_qubit]
    rng.shuffle(order)
    nodes = budget_seconds * _MAPPER_NODES_PER_SECOND
    budget = [nodes if nodes == math.inf else max(1000, int(nodes))]  # inf: no limit
    accepted_pairs: set[tuple[int, int]] = set()
    total = len({(min(g.qubits), max(g.qubits)) for g in order})
    nbr_masks = [sum(1 << nb for nb in ns) for ns in graph.neighbors]
    # deg_masks[k]: the positions with at least k neighbours. A qubit has
    # fewer partners than there are positions, so k never runs past the end.
    deg_masks = [0] * graph.num_physical
    for p, ns in enumerate(graph.neighbors):
        for k in range(len(ns) + 1):
            deg_masks[k] |= 1 << p
    # base[q]: q's partner count, -1 without partners; hint[q]: q's position
    # in the last accepted embedding, -1 for none.
    n = circuit.num_qubits
    partners: list[list[int]] = [[] for _ in range(n)]
    base = [-1] * n
    hint = [-1] * n
    placed = 0  # qubits that the last accepted embedding places
    placements: list[list[int]] = []  # every accepted embedding, in order

    def link(a: int, b: int, keep: bool) -> None:
        """Add the pair to both qubits' partners, or take it out again."""
        for q, r in ((a, b), (b, a)):
            if keep:
                partners[q].append(r)
            else:
                partners[q].pop()
            base[q] = len(partners[q]) or -1

    for gate in order:
        a, b = gate.qubits
        pair = (min(a, b), max(a, b))
        if pair in accepted_pairs:
            continue
        if hint[a] >= 0 and hint[b] >= 0 and nbr_masks[hint[a]] >> hint[b] & 1:
            # The embedding already satisfies the pair, so the search would
            # put each placed qubit back on its hint, one node each.
            if budget[0] <= placed:
                budget[0] = 0
                break
            budget[0] -= placed
            accepted_pairs.add(pair)
            link(a, b, True)
            continue
        link(a, b, True)
        solution = _embed(partners, base, nbr_masks, deg_masks, hint, budget)
        if solution is not None:
            accepted_pairs.add(pair)
            hint = solution
            placed = n - solution.count(-1)
            placements.append(solution)
        else:
            link(a, b, False)
        if budget[0] <= 0:
            break
    if len(accepted_pairs) == total:  # the full embedding is SWAP-free
        return _extend_partial(_placed(hint), n, graph), total, total
    # Only now is a placement picked, so only now is one scored. A satisfied
    # pair adds no placement: its embedding equals the one before, which
    # scores the same and so is never strictly better.
    terms = _cost_terms(circuit)
    best_map: Mapping | None = None
    best_cost = math.inf
    for placement in placements:
        full = _extend_partial(_placed(placement), n, graph)
        cost = _terms_cost(terms, full.assignment, graph.dist)
        if cost < best_cost:
            best_cost = cost
            best_map = full
    return best_map, len(accepted_pairs), total


def _placed(pos: list[int]) -> dict[int, int]:
    """The placed qubits of a position list (-1: not placed)."""
    return {q: p for q, p in enumerate(pos) if p >= 0}


def _embed(
    partners: list[list[int]],
    base: list[int],
    nbr_masks: list[int],
    deg_masks: list[int],
    hint: list[int],
    budget: list[float],
) -> list[int] | None:
    """Backtracking search for an injective placement making every qubit
    adjacent to each of its ``partners``; returns every qubit's position (-1
    for a qubit without partners), or None.

    The state comes in indexed by qubit: ``base[q]`` is q's partner count,
    or -1 without partners, and ``hint[q]`` a position to try first, or -1.
    Bit p' of ``nbr_masks[p]`` is set when p' neighbours position p, and bit
    p of ``deg_masks[k]`` when p has at least k neighbours.

    The search rule:
    - pick: the unplaced qubit with the most placed partners, then the most
      partners, then the lowest index;
    - degree rule: a qubit only goes to a position with at least as many
      neighbours as it has partners;
    - candidates: the free positions that pass the degree rule and are
      adjacent to every placed partner (any free position that passes if
      none is placed), the hinted position first, then in ascending order;
    - each candidate tried costs one node of ``budget[0]``, which may be
      ``math.inf``;
    - once the budget reaches 0 the search stops and the constraints count
      as unsatisfiable.

    The degree rule is Ullmann's (J. ACM 1976): a qubit's partners need
    distinct neighbouring positions, so no candidate it removes has an
    embedding below it. The search therefore makes the same first placement
    as without the rule, in the same order, and tries no more candidates.

    It runs as one loop over a stack of placements. A qubit's candidates are
    read off at its pick: its degree mask ANDed with the free positions and
    its placed partners' neighbour masks, the same set at the same point of
    the search whatever was tried before. Each placement keeps its untried
    candidates and the free positions from before it. Backtracking moves the
    last placed qubit to its next untried candidate; with none left, it takes
    that placement back, with the scores it raised, and goes on to the one
    before. The caller keeps the state between searches (see
    ``_initial_mapper_ex``); a search only allocates its scores, positions
    and stack.
    """
    n = len(base)
    # An unplaced qubit with partners scores (placed partners) * n +
    # (partners), both below n; one without scores -1, and placing one
    # subtracts n * n, so only the unplaced ones with partners score >= 0,
    # and the first maximum is the pick.
    score = base[:]
    placed_offset = n * n
    pos = [-1] * n
    free = (1 << len(nbr_masks)) - 1  # positions not yet used
    # One entry per placement: (qubit, untried candidates, free before it).
    stack: list[tuple[int, int, int]] = []
    left = budget[0]
    while True:
        best = max(score)
        if best < 0:
            budget[0] = left
            return pos
        i = score.index(best)
        cands = deg_masks[base[i]] & free
        for r in partners[i]:
            at = pos[r]
            if at >= 0:
                cands &= nbr_masks[at]
        hinted = hint[i]
        if hinted >= 0 and cands >> hinted & 1:
            cands ^= 1 << hinted
            p = hinted
        else:
            low = cands & -cands
            cands ^= low
            p = low.bit_length() - 1  # -1 when there is none
        if p >= 0:
            score[i] -= placed_offset
            for r in partners[i]:
                score[r] += n
        else:
            # Take back placements until one has an untried candidate; that
            # qubit stays counted as placed while it moves to the candidate.
            while True:
                if not stack:
                    budget[0] = left
                    return None
                i, cands, free = stack.pop()
                if cands:
                    break
                pos[i] = -1
                score[i] += placed_offset
                for r in partners[i]:
                    score[r] -= n
            low = cands & -cands
            cands ^= low
            p = low.bit_length() - 1
        left -= 1
        if left <= 0:
            budget[0] = left
            return None
        stack.append((i, cands, free))
        free ^= 1 << p
        pos[i] = p


def _extend_partial(partial: dict[int, int], num_qubits: int, graph: CouplingGraph) -> Mapping:
    """Total injective mapping extending a partial one; spare qubits take the
    free positions closest to the placed ones."""
    taken = set(partial.values())
    if partial:
        seeds = sorted(taken)
    else:
        seeds = [0]
    order = []
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        p = queue.popleft()
        order.append(p)
        for nb in graph.neighbors[p]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    free = [p for p in order if p not in taken]
    it = iter(free)
    assignment = []
    for q in range(num_qubits):
        assignment.append(partial[q] if q in partial else next(it))
    return Mapping(tuple(assignment))


# ---------------------------------------------------------------------------
# Full synthesis run
# ---------------------------------------------------------------------------


def srefine_run(
    circuit: Circuit,
    graph: CouplingGraph,
    regions: MappingRegion | None = None,
    cfgs: SrefineConfig | None = None,
    rng: random.Random | None = None,
) -> QlsSolution:
    """Synthesize with several independently-seeded candidate pipelines and
    keep the best solution; each candidate's comes from ``forward_backward``,
    which verified it.

    Standalone mode (no regions) seeds candidates from the constraint-growing
    mapper (small circuits) or random placements; refinement mode seeds from
    the region matching, and annealing favours in-region moves. Routing is
    unconstrained by regions and draws no random numbers, so each candidate's
    routing is fixed by its start mapping. Each candidate runs annealing plus
    forward/backward routing; a start that puts every two-qubit gate on a
    coupler is routed without annealing. Ties break toward the earlier
    candidate, so runs are reproducible per seed.
    """
    cfgs = cfgs or SrefineConfig()
    rng = rng or random.Random(0)
    if circuit.num_qubits > graph.num_physical:
        raise ValueError("more program qubits than physical qubits")
    best: QlsSolution | None = None
    best_n = None
    # Region matching draws no random numbers, so every candidate shares it.
    matched = initial_matching(regions, graph) if regions is not None else None
    for i in range(cfgs.candidates):
        crng = random.Random(rng.randrange(1 << 62))
        if regions is None:
            start = None
            if circuit.num_qubits < _MAPPER_QUBIT_LIMIT:
                budget = cfgs.mapper_first_budget if i == 0 else cfgs.mapper_next_budget
                start = initial_mapper(circuit, graph, budget, crng)
            if start is None:
                start = Mapping(tuple(crng.sample(range(graph.num_physical), circuit.num_qubits)))
        else:
            start = matched
        # A start with every two-qubit gate on a coupler routes with 0 SWAPs,
        # which annealing cannot beat.
        if not _on_couplers(circuit, graph, start):
            start = sa_initial_mapping(circuit, graph, start, regions, crng)
        sol = forward_backward(circuit, graph, start)
        n = swap_count(sol)
        if best_n is None or n < best_n:
            best, best_n = sol, n
        if best_n == 0:
            break
    assert best is not None
    return best
