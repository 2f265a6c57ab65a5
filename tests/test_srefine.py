import itertools
import math
import random
from dataclasses import replace

import pytest
from conftest import (
    AStarState,
    ReferenceSolutionBuilder,
    drop_dag_edges,
    heuristic_h,
    random_connected_graph,
    random_gates,
    reference_candidate_edges,
    reference_closure,
    reference_embed,
    reference_episode,
    reference_expand,
    reference_h,
    reference_initial_mapper,
    reference_sa_initial_mapping,
    reference_sets,
    sa_cost,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import mlqls.srefine as srefine
from mlqls import (
    Circuit,
    CouplingGraph,
    Gate,
    Mapping,
    MappingRegion,
    gen_qaoa,
    gen_queko,
    make_device,
)
from mlqls.exact import optimal_oracle
from mlqls.model import build_dag
from mlqls.srefine import (
    _GAMMA,
    _MAX_CANDIDATE_GATES,
    SrefineConfig,
    _embed,
    _path_solution,
    _related_pairs,
    _Node,
    _RouteContext,
    astar_insert,
    forward_backward,
    initial_mapper,
    initial_matching,
    reverse_solution,
    sa_initial_mapping,
    srefine_run,
)
from mlqls.verify import asap_depth, solution_to_json, swap_count, verify


def spy(monkeypatch, name):
    """Record each call of ``srefine.<name>``, then make it."""
    calls = []
    real = getattr(srefine, name)
    monkeypatch.setattr(srefine, name, lambda *args: calls.append(args) or real(*args))
    return calls


def star_circuit(n_partners=7):
    """q1..q7 all interact with q0, in sequence."""
    return Circuit.from_pairs(n_partners + 1, [(0, i) for i in range(1, n_partners + 1)])


# Hand-placed layouts on a 3x3 grid for the star circuit. "Spread" puts the
# first four partners on the cross around the hub and the rest on corners,
# minimizing pure gate distance; "snake" threads consecutive partners next to
# each other, paying slightly more gate distance but far less related-qubit
# distance.
SPREAD = Mapping((4, 1, 3, 5, 7, 0, 2, 6))
SNAKE = Mapping((4, 1, 0, 3, 6, 7, 8, 5))


class TestSaCost:
    def test_single_adjacent_gate_costs_one(self, path4):
        c = Circuit.from_pairs(2, [(0, 1)])
        assert sa_cost(c, Mapping((0, 1)), path4) == 1.0

    def test_related_pairs_follow_parents2_order(self):
        gates = [(0, 1), (1,), (1, 2), (0, 2), (0, 2)]
        c = Circuit(4, tuple(Gate(i, qs) for i, qs in enumerate(gates)))
        # gate 3's parents are gate 0 (via qubit 0), then gate 2 (via qubit
        # 2); gate 4's only parent, gate 3, acts on the same pair
        expected = [(), (), ((0, 2),), ((1, 2), (0, 1)), ()]
        assert _related_pairs(c, build_dag(c)) == expected

    def test_clustered_beats_spread_on_star(self, grid3):
        c = star_circuit()
        assert sa_cost(c, SNAKE, grid3) < sa_cost(c, SPREAD, grid3)

    def test_spread_optimizes_gate_distance_only(self, grid3):
        # without the related-qubit term, spread is at least as good
        c = star_circuit()
        gate_only = lambda m: sum(
            0.9**i * grid3.dist[m[0]][m[i + 1]] for i in range(7)
        )
        assert gate_only(SPREAD) < gate_only(SNAKE)

    def test_automorphism_invariance(self, grid3):
        c = star_circuit()
        # 90-degree rotation of the 3x3 grid is distance-preserving
        rot = {0: 2, 1: 5, 2: 8, 3: 1, 4: 4, 5: 7, 6: 0, 7: 3, 8: 6}
        for m in (SPREAD, SNAKE):
            rotated = Mapping(tuple(rot[p] for p in m.assignment))
            assert sa_cost(c, rotated, grid3) == pytest.approx(sa_cost(c, m, grid3))

    def test_nonnegative_and_zero_only_without_terms(self, grid3):
        c = Circuit(3, ())
        assert sa_cost(c, Mapping((0, 1, 2)), grid3) == 0.0
        c2 = Circuit.from_pairs(2, [(0, 1)])
        for perm in itertools.permutations(range(4), 2):
            assert sa_cost(c2, Mapping(perm), make_device("grid", 2)) >= 1.0


class TestSaInitialMapping:
    def test_never_worse_than_start(self, path4):
        c = Circuit.from_pairs(3, [(0, 1), (1, 2)])
        start = Mapping((0, 1, 2))
        out = sa_initial_mapping(c, path4, start, rng=random.Random(0))
        assert sa_cost(c, out, path4) <= sa_cost(c, start, path4)

    def test_beats_gate_distance_optimum_on_star(self, grid3):
        c = star_circuit()
        start = Mapping(tuple(random.Random(5).sample(range(9), 8)))
        out = sa_initial_mapping(c, grid3, start, rng=random.Random(1))
        assert sa_cost(c, out, grid3) <= sa_cost(c, SPREAD, grid3)

    def test_deterministic_per_seed(self, grid3):
        c = star_circuit()
        start = Mapping(tuple(range(8)))
        a = sa_initial_mapping(c, grid3, start, rng=random.Random(7))
        b = sa_initial_mapping(c, grid3, start, rng=random.Random(7))
        assert a.assignment == b.assignment

    def test_respects_region_bias_distribution(self, grid3):
        # with regions pinning each qubit to its start, most moves stay inside
        c = Circuit.from_pairs(2, [(0, 1)])
        regions = MappingRegion((frozenset({0, 1}), frozenset({0, 1})))
        out = sa_initial_mapping(
            c,
            grid3,
            Mapping((0, 1)),
            regions,
            random.Random(2),
        )
        assert sa_cost(c, out, grid3) == 1.0


class TestInitialMatching:
    def test_complete_regions_full_cardinality(self, grid3):
        regions = MappingRegion(tuple(frozenset(range(9)) for _ in range(4)))
        m = initial_matching(regions, grid3)
        assert len(set(m.assignment)) == 4

    def test_forced_singletons(self, path4):
        regions = MappingRegion((frozenset({2}), frozenset({0})))
        m = initial_matching(regions, path4)
        assert m.assignment == (2, 0)

    def test_augmenting_resolves_contention(self, path4):
        # oracle first: enumerate all in-region assignments; the only injective
        # total one is (0, 1, 2)
        regions = [(0, 1), (1,), (1, 2)]
        feasible = [
            combo
            for combo in itertools.product(*regions)
            if len(set(combo)) == 3
        ]
        assert feasible == [(0, 1, 2)]
        m = initial_matching(MappingRegion(tuple(frozenset(r) for r in regions)), path4)
        assert m.assignment == (0, 1, 2)

    def test_unmatched_overflow_goes_nearest(self, path4):
        regions = MappingRegion((frozenset({0}), frozenset({0}), frozenset({0})))
        m = initial_matching(regions, path4)
        assert len(set(m.assignment)) == 3
        assert 0 in m.assignment

    def test_too_many_qubits(self):
        p2 = make_device("path", 2)
        with pytest.raises(ValueError):
            initial_matching(MappingRegion(tuple(frozenset({0}) for _ in range(3))), p2)


class TestHeuristic:
    def test_goal_state_is_zero(self, path4):
        c = Circuit.from_pairs(2, [(0, 1)])
        state = AStarState(None, frozenset(), frozenset(), Mapping((0, 1)), None, 0)
        assert heuristic_h(state, c, path4) == 0.0

    def test_hand_computed_single_ready_gate(self, path4):
        # one ready gate at distance 3 on a 4-qubit circuit:
        # 3/(1*4) + 0.1*1 = 0.85
        c = Circuit.from_pairs(4, [(0, 3)])
        state = AStarState(None, frozenset({0}), frozenset(), Mapping((0, 1, 2, 3)), None, 0)
        assert heuristic_h(state, c, path4) == pytest.approx(0.85)

    def test_unexecuted_contributes_gamma_each(self, path4):
        c = Circuit.from_pairs(4, [(0, 3), (0, 3)])
        s1 = AStarState(None, frozenset({0}), frozenset(), Mapping((0, 1, 2, 3)), None, 0)
        s2 = AStarState(None, frozenset({0}), frozenset({1}), Mapping((0, 1, 2, 3)), None, 0)
        h1 = heuristic_h(s1, c, path4)
        h2 = heuristic_h(s2, c, path4)
        assert h2 - h1 == pytest.approx(_GAMMA)

    def test_internal_root_matches_public_formula(self, grid3):
        c = Circuit.from_pairs(5, [(0, 4), (4, 2), (1, 3), (0, 2)])
        m0 = Mapping((0, 8, 6, 2, 4))
        ctx = _RouteContext(c, grid3)
        root = ctx.make_root(m0)
        unexec = frozenset(
            gid
            for gid in range(len(c.gates))
            if not root.exec_mask & (1 << gid) and gid not in root.ready
        )
        state = AStarState(None, frozenset(root.ready), unexec, Mapping(tuple(root.pos)), None, 0)
        assert root.h == pytest.approx(heuristic_h(state, c, grid3))

    def test_incremental_sums_match_recompute(self, grid3):
        rng = random.Random(0)
        c = Circuit.from_pairs(6, [(0, 1), (1, 2), (3, 4), (0, 5), (2, 4), (1, 5)])
        ctx = _RouteContext(c, grid3)
        node = ctx.make_root(Mapping((0, 2, 6, 8, 4, 1)))
        for _ in range(40):
            children = ctx.expand(node)
            if not children:
                break
            node = children[rng.randrange(len(children))]
            fresh = ctx.make_root(Mapping(tuple(node.pos)))
            # same mapping re-rooted: ready sets may differ (fresh executes
            # from scratch) but sums over identical sets must agree
            if fresh.ready == node.ready:
                assert fresh.rsum == node.rsum
                assert fresh.onehop == node.onehop
                assert fresh.osum == node.osum
                assert fresh.psum == node.psum


class TestAstarInsert:
    def test_all_executable_zero_swaps(self, path4):
        c = Circuit.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        sol = astar_insert(c, path4, Mapping((0, 1, 2, 3)))
        assert swap_count(sol) == 0
        assert sol.num_blocks == 1

    def test_scenario_single_swap(self, tshape5, triangle_circuit, scenario_mapping):
        sol = astar_insert(triangle_circuit, tshape5, scenario_mapping)
        assert swap_count(sol) == 1
        assert sol.num_blocks == 2
        assert verify(triangle_circuit, tshape5, sol).ok

    def test_within_oracle_plus_two_on_path4(self, path4):
        # the oracle also optimizes the initial mapping, so route from the
        # neutral identity placement rather than an adversarial random one
        rng = random.Random(12)
        worst = 0
        for _ in range(30):
            pairs = [tuple(rng.sample(range(4), 2)) for _ in range(rng.randint(2, 8))]
            c = Circuit.from_pairs(4, pairs)
            best = optimal_oracle(c, path4, 10)
            sol = astar_insert(c, path4, Mapping((0, 1, 2, 3)))
            assert verify(c, path4, sol).ok
            worst = max(worst, swap_count(sol) - best)
        assert worst <= 2

    def test_swaps_lie_on_device_edges(self, tshape5):
        rng = random.Random(5)
        for _ in range(5):
            pairs = [tuple(rng.sample(range(5), 2)) for _ in range(6)]
            c = Circuit.from_pairs(5, pairs)
            sol = astar_insert(c, tshape5, Mapping((0, 1, 2, 3, 4)))
            for sw in sol.swaps:
                assert tshape5.has_edge(*sw.edge)

    def test_block_mappings_chain_through_swaps(self, grid3):
        rng = random.Random(8)
        pairs = [tuple(rng.sample(range(6), 2)) for _ in range(10)]
        c = Circuit.from_pairs(6, pairs)
        sol = astar_insert(c, grid3, Mapping((0, 1, 2, 3, 4, 5)))
        report = verify(c, grid3, sol)
        assert report.swap_consistency.ok

    def test_commutable_routing(self, grid3):
        from mlqls import gen_qaoa

        c = gen_qaoa(8, seed=1)
        sol = astar_insert(c, grid3, Mapping(tuple(range(8))))
        assert verify(c, grid3, sol).ok

    def test_answer_is_unscheduled(self, grid3):
        # forward_backward schedules the one pass it keeps
        c = gen_queko(grid3, 4, 0.5, seed=2)[0]
        assert astar_insert(c, grid3, Mapping(tuple(range(c.num_qubits)))).depth is None

    def test_unrun_gate_fails_structure(self, path4):
        # gate 1 is not adjacent at the root, so the root's answer leaves
        # it at block -1
        c = Circuit.from_pairs(4, [(0, 1), (0, 3)])
        ctx = _RouteContext(c, path4)
        sol = _path_solution(ctx, ctx.make_root(Mapping((0, 1, 2, 3))))
        assert sol.gate_block == (0, -1)
        report = verify(c, path4, sol)
        assert report.first_failure() == "structure: gate 1 assigned to invalid block -1"


class TestForwardBackward:
    def test_zero_swap_forward_terminates(self, path4):
        c = Circuit.from_pairs(4, [(0, 1), (1, 2)])
        sol = forward_backward(c, path4, Mapping((0, 1, 2, 3)))
        assert swap_count(sol) == 0

    def test_never_worse_than_first_pass(self, grid3):
        rng = random.Random(21)
        for _ in range(5):
            pairs = [tuple(rng.sample(range(7), 2)) for _ in range(12)]
            c = Circuit.from_pairs(7, pairs)
            m0 = Mapping(tuple(rng.sample(range(9), 7)))
            first = astar_insert(c, grid3, m0)
            fb = forward_backward(c, grid3, m0)
            assert swap_count(fb) <= swap_count(first)
            assert verify(c, grid3, fb).ok

    def test_queko_witness_start_is_swap_free(self, grid4, monkeypatch):
        # a 0-SWAP pass cannot be beaten, so no second pass runs
        routes = spy(monkeypatch, "astar_insert")
        c, wit = gen_queko(grid4, 5, 0.5, seed=4)
        sol = forward_backward(c, grid4, wit)
        assert swap_count(sol) == 0
        assert len(routes) == 1

    @staticmethod
    def seeded_instance(seed):
        """Seven qubits, twelve gates and a start on grid:3. Seed 2 runs four
        passes (forward, backward, forward, backward); seed 0 runs three, of
        6, 2 and 2 SWAPs, so the kept pass runs backward."""
        rng = random.Random(seed)
        c = Circuit.from_pairs(7, [tuple(rng.sample(range(7), 2)) for _ in range(12)])
        return c, Mapping(tuple(rng.sample(range(9), 7)))

    @staticmethod
    def count_reversals(monkeypatch):
        """Record the circuit of each ``Circuit.reversed`` call."""
        calls = []
        real = Circuit.reversed
        monkeypatch.setattr(Circuit, "reversed", lambda self: calls.append(self) or real(self))
        return calls

    def test_zero_swap_pass_builds_no_reversed_circuit(self, grid4, monkeypatch):
        reversals = self.count_reversals(monkeypatch)
        c, wit = gen_queko(grid4, 5, 0.5, seed=4)
        assert swap_count(forward_backward(c, grid4, wit)) == 0
        assert reversals == []

    def test_backward_passes_share_one_reversed_circuit(self, grid3, monkeypatch):
        reversals = self.count_reversals(monkeypatch)
        routes = spy(monkeypatch, "astar_insert")
        c, m0 = self.seeded_instance(2)
        forward_backward(c, grid3, m0)
        assert len(routes) == 4  # forward, backward, forward, backward
        assert len(reversals) == 1 and reversals[0] is c

    def test_depth_is_scheduled_once(self, grid3, monkeypatch):
        # four passes, and only the kept one is scheduled
        routes = spy(monkeypatch, "astar_insert")
        depths = spy(monkeypatch, "asap_depth")
        c, m0 = self.seeded_instance(2)
        sol = forward_backward(c, grid3, m0)
        assert len(routes) == 4
        assert len(depths) == 1 and depths[0][0] is c
        assert verify(c, grid3, sol).ok
        assert sol.depth == asap_depth(c, sol)

    def test_checks_the_kept_pass_once(self, grid3, monkeypatch):
        # only the kept pass is verified, and the check builds no DAG
        routes = spy(monkeypatch, "astar_insert")
        checks = spy(monkeypatch, "verify")
        c, m0 = self.seeded_instance(2)
        sol = forward_backward(c, grid3, m0)
        assert len(routes) == 4
        assert len(checks) == 1
        assert checks[0][0] is c and replace(checks[0][2], depth=sol.depth) == sol
        builds = drop_dag_edges(monkeypatch, lambda g: False)
        assert verify(c, grid3, sol).ok and builds == []

    def test_checks_the_pass_as_returned(self, grid3, monkeypatch):
        # a fault in re-orienting the kept backward pass is caught
        routes = spy(monkeypatch, "astar_insert")
        c, m0 = self.seeded_instance(0)
        forward_backward(c, grid3, m0)
        assert [swap_count(astar_insert(*args)) for args in routes] == [6, 2, 2]
        real = srefine.reverse_solution

        def drop_first_swap(sol):
            turned = real(sol)
            return replace(turned, swaps=turned.swaps[1:])

        monkeypatch.setattr(srefine, "reverse_solution", drop_first_swap)
        with pytest.raises(AssertionError, match="swap_consistency"):
            forward_backward(c, grid3, m0)

    def test_reverse_solution_is_valid_for_original(self, grid3):
        rng = random.Random(31)
        pairs = [tuple(rng.sample(range(6), 2)) for _ in range(9)]
        c = Circuit.from_pairs(6, pairs)
        rev = c.reversed()
        sol_rev = astar_insert(rev, grid3, Mapping((0, 1, 2, 3, 4, 5)))
        sol = reverse_solution(sol_rev)
        assert verify(c, grid3, sol).ok
        assert swap_count(sol) == swap_count(sol_rev)
        assert sol.depth is None


class TestInitialMapper:
    def test_spanning_tree_fully_embedded(self, tshape5):
        # interaction graph == device spanning tree (the device itself)
        c = Circuit.from_pairs(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        m = initial_mapper(c, tshape5, 2.0, random.Random(0))
        assert m is not None
        for a, b in [(0, 1), (1, 2), (1, 3), (3, 4)]:
            assert tshape5.has_edge(m[a], m[b])

    def test_k5_on_path_drops_gates(self, path5):
        pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        c = Circuit.from_pairs(5, pairs)
        m = initial_mapper(c, path5, 2.0, random.Random(0))
        assert m is not None
        executable = sum(1 for a, b in pairs if path5.has_edge(m[a], m[b]))
        assert executable < len(pairs)  # K5 cannot embed in a path

    def test_deterministic(self, grid3):
        c = star_circuit()
        a = initial_mapper(c, grid3, 1.0, random.Random(3))
        b = initial_mapper(c, grid3, 1.0, random.Random(3))
        assert a.assignment == b.assignment

    def test_queko_embedding_rate(self, grid4):
        # the witness proves a full embedding exists; the mapper should find
        # one for most random gate orders
        hits = 0
        for seed in range(20):
            c, _ = gen_queko(grid4, 5, 0.5, seed=seed)
            m = initial_mapper(c, grid4, 2.0, random.Random(seed))
            ok = all(
                grid4.has_edge(m[g.qubits[0]], m[g.qubits[1]])
                for g in c.gates
                if g.is_two_qubit
            )
            if ok:  # a fully-accepted mapping routes without SWAPs
                sol = astar_insert(c, grid4, m)
                assert swap_count(sol) == 0
            hits += ok
        assert hits >= 16  # >= 80% of 20 seeds

    # (depth, seed) of QUEKO circuits whose mapper result accepted every
    # pair but was not SWAP-free while the mapper returned its lowest-cost
    # intermediate placement instead of the full embedding.
    @pytest.mark.parametrize("depth,seed", [(5, 908207697), (5, 666712637), (10, 383471879)])
    def test_full_embedding_is_swap_free(self, grid4, depth, seed):
        c, _ = gen_queko(grid4, depth, 0.5, seed=seed)
        for k in range(10):
            m, accepted, total = srefine._initial_mapper_ex(c, grid4, 0.2, random.Random(k))
            if accepted == total:
                for g in c.gates:
                    if g.is_two_qubit:
                        assert grid4.has_edge(m[g.qubits[0]], m[g.qubits[1]])


class TestSrefineRun:
    def test_trivially_executable_zero(self, path4):
        c = Circuit.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        sol = srefine_run(c, path4, rng=random.Random(0))
        assert swap_count(sol) == 0

    def test_output_verifies(self, grid3):
        rng = random.Random(13)
        for seed in range(3):
            pairs = [tuple(rng.sample(range(7), 2)) for _ in range(10)]
            c = Circuit.from_pairs(7, pairs)
            cfg = SrefineConfig(candidates=2, mapper_first_budget=0.5, mapper_next_budget=0.2)
            sol = srefine_run(c, grid3, None, cfg, random.Random(seed))
            assert verify(c, grid3, sol).ok

    def test_planted_dag_fault_is_caught(self, grid3, monkeypatch):
        # the router follows a DAG missing the edges into odd gates and may
        # run gates out of order; the check reads order off the circuit
        rng = random.Random(3)
        c = Circuit.from_pairs(9, [tuple(rng.sample(range(9), 2)) for _ in range(25)])
        cfg = SrefineConfig(candidates=2, mapper_first_budget=0.1, mapper_next_budget=0.05)
        drop_dag_edges(monkeypatch, lambda g: g % 2 == 1)
        with pytest.raises(AssertionError, match="dependency"):
            srefine_run(c, grid3, None, cfg, random.Random(1))

    def test_refinement_with_witness_regions_not_worse(self, grid4):
        # regions derived from a known zero-SWAP solution should let the
        # refiner match or beat the standalone run on most seeds
        from mlqls import identity_cluster_map, interpolate
        from mlqls.verify import QlsSolution

        cfg = SrefineConfig(candidates=2, mapper_first_budget=0.5, mapper_next_budget=0.2)
        wins = 0
        trials = 20
        for seed in range(trials):
            c, wit = gen_queko(grid4, 8, 0.5, seed=seed)
            witness_sol = QlsSolution((wit,), tuple(0 for _ in c.gates), ())
            regions = interpolate(
                witness_sol,
                identity_cluster_map(c.num_qubits),
                identity_cluster_map(grid4.num_physical),
                grid4,
            )
            refined = srefine_run(c, grid4, regions, cfg, random.Random(seed))
            standalone = srefine_run(c, grid4, None, cfg, random.Random(seed))
            if swap_count(refined) <= swap_count(standalone):
                wins += 1
        assert wins >= trials // 2

    def test_deterministic_per_seed(self, grid3):
        c = star_circuit()
        cfg = SrefineConfig(candidates=2, mapper_first_budget=0.3, mapper_next_budget=0.2)
        a = srefine_run(c, grid3, None, cfg, random.Random(11))
        b = srefine_run(c, grid3, None, cfg, random.Random(11))
        assert a == b

    @pytest.mark.parametrize("seed", range(5))
    def test_swap_free_start_skips_annealing(self, grid4, monkeypatch, seed):
        calls = spy(monkeypatch, "sa_initial_mapping")
        c, _ = gen_queko(grid4, 5, 0.5, seed=seed)
        sol = srefine_run(c, grid4, None, SrefineConfig(mapper_first_budget=2.0), random.Random(seed))
        assert swap_count(sol) == 0
        assert len(calls) == 0

    def test_unembeddable_start_still_anneals(self, grid3, triangle_circuit, monkeypatch):
        # a triangle never embeds in a bipartite grid, so every candidate anneals
        calls = spy(monkeypatch, "sa_initial_mapping")
        cfg = SrefineConfig(candidates=3, mapper_first_budget=0.2, mapper_next_budget=0.1)
        sol = srefine_run(triangle_circuit, grid3, None, cfg, random.Random(0))
        assert swap_count(sol) == 1
        assert len(calls) == cfg.candidates

    @pytest.mark.parametrize(
        "fields",
        [
            dict(candidates=0),
            dict(mapper_first_budget=float("nan")),
            dict(mapper_next_budget=0.0),
            dict(mapper_first_budget=-1.0),
        ],
    )
    def test_config_validated(self, fields):
        with pytest.raises(ValueError):
            SrefineConfig(**fields)

    def test_unlimited_budgets_allowed(self, path4):
        cfg = SrefineConfig(candidates=1, mapper_first_budget=float("inf"))
        c = Circuit.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        assert swap_count(srefine_run(c, path4, None, cfg, random.Random(0))) == 0


def neighbour_masks(graph):
    """Bit p' of entry p is set when positions p and p' are adjacent."""
    return [sum(1 << nb for nb in ns) for ns in graph.neighbors]


def degree_masks(graph):
    """Bit p of entry k is set when position p has at least k neighbours."""
    return [
        sum(1 << p for p, ns in enumerate(graph.neighbors) if len(ns) >= k)
        for k in range(graph.num_physical)
    ]


def embed(graph, constraints, hint, budget):
    """``_embed`` with the neighbour and degree masks of ``graph``."""
    return _embed(constraints, neighbour_masks(graph), degree_masks(graph), hint, budget)


def check_embed(graph, constraints, hint, budget):
    """``_embed`` on neighbour and degree masks places every variable where
    the set-based reference does, and leaves the same budget."""
    expected_budget, got_budget = [budget], [budget]
    expected = reference_embed(constraints, graph, hint, expected_budget)
    got = embed(graph, constraints, hint, got_budget)
    assert got == expected
    assert got_budget == expected_budget


@st.composite
def embed_instances(draw):
    """A random connected device of at most 7 nodes, random adjacency
    constraints among up to as many qubits, a random hint and a budget that
    sometimes runs out and sometimes is unlimited."""
    n = draw(st.integers(2, 7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    graph = CouplingGraph.build(n, sorted(random_connected_graph(rng, n, draw(st.integers(0, n)))))
    nq = draw(st.integers(2, n))
    pair = st.lists(st.integers(0, nq - 1), min_size=2, max_size=2, unique=True)
    constraints = {}
    for a, b in draw(st.lists(pair, max_size=12)):
        constraints.setdefault(a, set()).add(b)
        constraints.setdefault(b, set()).add(a)
    hint = draw(st.dictionaries(st.integers(0, nq - 1), st.integers(0, n - 1)))
    return graph, constraints, hint, draw(st.integers(1, 300) | st.just(math.inf))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(embed_instances())
def test_embed_matches_recounting_reference(instance):
    check_embed(*instance)


# Devices of more than 64 positions, so that a neighbour mask spans several
# machine words.
WIDE_DEVICES = (make_device("eagle127"), make_device("grid", 12))


@st.composite
def wide_embed_instances(draw):
    """On eagle127 or grid:12: constraints among up to 12 qubits that a
    random connected placement satisfies (each adjacent pair kept with
    probability 4/5), up to 3 random pairs that may break that, a hint of
    random positions for about half the qubits, and a budget that sometimes
    runs out."""
    graph = draw(st.sampled_from(WIDE_DEVICES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    nq = draw(st.integers(2, 12))
    placed = [rng.randrange(graph.num_physical)]
    while len(placed) < nq:
        frontier = {nb for p in placed for nb in graph.neighbors[p]}.difference(placed)
        placed.append(rng.choice(sorted(frontier)))
    pairs = [
        (a, b)
        for a, b in itertools.combinations(range(nq), 2)
        if graph.has_edge(placed[a], placed[b]) and rng.random() < 0.8
    ]
    pairs += [rng.sample(range(nq), 2) for _ in range(draw(st.integers(0, 3)))]
    constraints = {}
    for a, b in pairs:
        constraints.setdefault(a, set()).add(b)
        constraints.setdefault(b, set()).add(a)
    hint = {q: rng.randrange(graph.num_physical) for q in range(nq) if rng.random() < 0.5}
    return graph, constraints, hint, draw(st.integers(1, 2000))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(wide_embed_instances())
def test_embed_matches_reference_on_wide_devices(instance):
    check_embed(*instance)


@st.composite
def mapper_instances(draw):
    """A random connected device of n = 4 to 10 nodes, a circuit of n - 3 to
    n qubits (at least 2) with up to 40 gates, some single-qubit, a budget
    of 1000 or 2500 mapper nodes, which denser circuits run out of, and a
    seed for the gate order."""
    n = draw(st.integers(4, 10))
    rng = random.Random(draw(st.integers(0, 2**32)))
    graph = CouplingGraph.build(n, sorted(random_connected_graph(rng, n, draw(st.integers(0, n)))))
    nq = draw(st.integers(max(2, n - 3), n))
    operands = [
        rng.sample(range(nq), 2) if rng.random() < 0.85 else [rng.randrange(nq)]
        for _ in range(draw(st.integers(0, 40)))
    ]
    gates = tuple(Gate(i, tuple(qs), "cx" if len(qs) == 2 else "h") for i, qs in enumerate(operands))
    circuit = Circuit(nq, gates, draw(st.booleans()))
    return graph, circuit, draw(st.sampled_from([0.01, 0.05])), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mapper_instances())
def test_mapper_matches_eager_reference(instance):
    graph, circuit, budget_seconds, seed = instance
    expected = reference_initial_mapper(circuit, graph, budget_seconds, random.Random(seed))
    got = srefine._initial_mapper_ex(circuit, graph, budget_seconds, random.Random(seed))
    assert got == expected[:3]


def budget_runs_out_case(seed=7):
    """60 random gates on 16 qubits. With seed 7 the mapper runs out of its
    budget of 1000 nodes on grid:4 with the seed-0 gate order."""
    rng = random.Random(seed)
    return Circuit.from_pairs(16, [tuple(rng.sample(range(16), 2)) for _ in range(60)])


def test_mapper_matches_eager_reference_when_budget_runs_out(grid4):
    c = budget_runs_out_case()
    expected = reference_initial_mapper(c, grid4, 0.01, random.Random(0))
    mapping, accepted, total, budget_left, _ = expected
    assert budget_left <= 0 and 0 < accepted < total
    assert srefine._initial_mapper_ex(c, grid4, 0.01, random.Random(0)) == expected[:3]


def check_degree_rule_embed(graph, constraints, hint, budget):
    """Where the search without the degree rule finishes within its budget,
    ``_embed`` returns its placement and uses no more nodes; where it runs
    out, ``_embed`` returns None or a valid injective embedding."""
    unpruned_budget, got_budget = [budget], [budget]
    unpruned = reference_embed(constraints, graph, hint, unpruned_budget, degree_rule=False)
    got = embed(graph, constraints, hint, got_budget)
    if unpruned_budget[0] > 0:
        assert got == unpruned
        assert got_budget[0] >= unpruned_budget[0]
    elif got is not None:
        assert sorted(got) == sorted(constraints)
        assert len(set(got.values())) == len(got)
        assert all(graph.has_edge(got[a], got[b]) for a in constraints for b in constraints[a])


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(embed_instances() | wide_embed_instances())
def test_degree_rule_keeps_the_first_embedding(instance):
    check_degree_rule_embed(*instance)


def check_degree_rule_mapper(circuit, graph, budget_seconds, seed):
    """The mapper with the degree rule against the eager reference without
    it: the same answer when the reference's budget lasts; otherwise it
    accepts a superset of the reference's pairs and, unless it accepts
    every pair, picks a placement of no higher annealing cost. Returns the
    reference's result and the mapper's."""
    expected = reference_initial_mapper(
        circuit, graph, budget_seconds, random.Random(seed), degree_rule=False
    )
    expected_map, _, total, budget_left, expected_pairs = expected
    accepted_pairs = set()
    real = srefine._embed

    def recording_embed(constraints, *args):
        solution = real(constraints, *args)
        if solution is not None:
            accepted_pairs.update((a, b) for a in constraints for b in constraints[a] if a < b)
        return solution

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(srefine, "_embed", recording_embed)
        got = srefine._initial_mapper_ex(circuit, graph, budget_seconds, random.Random(seed))
    assert got[1] == len(accepted_pairs)
    if budget_left > 0:
        assert got == expected[:3]
    else:
        assert accepted_pairs >= expected_pairs
        if got[1] < total:
            assert sa_cost(circuit, got[0], graph) <= sa_cost(circuit, expected_map, graph)
    return expected, got


@pytest.mark.parametrize("circuit_seed, further", [(7, False), (24, True)])
def test_degree_rule_mapper_when_budget_runs_out(grid4, circuit_seed, further):
    # Seed 7 runs out at the same pair with the rule as without it; seed 24
    # gets further with it (15 pairs against 7) and picks a cheaper start.
    c = budget_runs_out_case(circuit_seed)
    expected, got = check_degree_rule_mapper(c, grid4, 0.01, 0)
    assert expected[3] <= 0 and got[1] < got[2]
    assert (got[1] > expected[1]) == further
    assert (got[0] != expected[0]) == further


@st.composite
def crowded_mapper_instances(draw):
    """Every qubit of grid:3 or grid:4 in 10 to 60 random two-qubit gates,
    a budget of 1000 mapper nodes, which about half of them run out of, and
    a seed for the gate order."""
    graph = draw(st.sampled_from((make_device("grid", 3), make_device("grid", 4))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    nq = graph.num_physical
    pairs = [tuple(rng.sample(range(nq), 2)) for _ in range(draw(st.integers(10, 60)))]
    return Circuit.from_pairs(nq, pairs), graph, 0.01, draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(crowded_mapper_instances())
def test_degree_rule_mapper_accepts_a_superset(instance):
    check_degree_rule_mapper(*instance)


@st.composite
def routing_walks(draw):
    """A random connected device of 3 to 7 nodes, a random commutable or
    non-commutable circuit of 6 to 16 gates on 3 or more of them, about a
    fifth single-qubit gates, a start mapping, and a seed for a walk over
    routing moves. The gates and the start come from a seeded
    ``random.Random``, not from minimal Hypothesis draws, so most walks need
    SWAPs: 329 of the 400 in ``test_path_solution_matches_reference_builder``
    end with more than one block."""
    n = draw(st.integers(3, 7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    graph = CouplingGraph.build(n, sorted(random_connected_graph(rng, n, draw(st.integers(0, n // 2)))))
    nq = draw(st.integers(3, n))
    circuit = Circuit(nq, random_gates(rng, nq, draw(st.integers(6, 16))), draw(st.booleans()))
    start = Mapping(tuple(rng.sample(range(n), nq)))
    return graph, circuit, start, draw(st.integers(0, 2**32))


def rescanned(ctx, node):
    """A copy of ``node`` whose closure is rerun by ``reference_closure`` and
    whose sets, sums and estimate are rebuilt by scanning every gate."""
    fresh = _Node()
    fresh.pos = node.pos
    fresh.exec_mask = reference_closure(ctx.circuit, ctx.graph, node.pos, node.exec_mask)
    reference_sets(ctx, fresh)
    fresh.h = reference_h(ctx, fresh)
    return fresh


def test_gate_waits_for_every_predecessor(grid3):
    # gate 2 follows gate 0 on qubit 1 and gate 1 on qubit 2; gate 0 is
    # blocked, so gate 2 waits although gate 1 runs and its qubits are adjacent
    c = Circuit.from_pairs(4, [(0, 1), (2, 3), (1, 2)])
    root = _RouteContext(c, grid3).make_root(Mapping((8, 0, 1, 2)))
    assert root.exec_mask == 0b010 == reference_closure(c, grid3, root.pos, 0)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(routing_walks())
def test_child_state_matches_rescan(instance):
    graph, circuit, start, seed = instance
    ctx = _RouteContext(circuit, graph)
    node = ctx.make_root(start)
    expected = reference_closure(circuit, graph, node.pos, 0)
    assert node.exec_mask == expected
    rng = random.Random(seed)
    for _ in range(40):
        children = ctx.expand(node)
        if not children:
            break
        node = children[rng.randrange(len(children))]
        expected = reference_closure(circuit, graph, node.pos, expected)
        assert node.exec_mask == expected
        fresh = rescanned(ctx, node)
        assert node.exec_mask == fresh.exec_mask  # the child's closure is complete
        assert node.ready == fresh.ready
        assert node.onehop == fresh.onehop
        assert (node.rsum, node.osum, node.psum) == (fresh.rsum, fresh.osum, fresh.psum)
        assert node.h == fresh.h
        width = (graph.num_physical - 1).bit_length()
        assert node.code == sum(p << (q * width) for q, p in enumerate(node.pos))


NODE_FIELDS = (
    "edge", "pos", "occ", "code", "exec_mask", "done_here", "ready", "onehop",
    "rsum", "osum", "psum", "h",
)


def node_fields(node) -> tuple:
    return tuple(getattr(node, name) for name in NODE_FIELDS)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(routing_walks())
def test_expand_matches_reference(instance):
    # At every step of a walk, expansion gives the children of the two-pass
    # reference, in the same order.
    graph, circuit, start, seed = instance
    ctx = _RouteContext(circuit, graph)
    node = ctx.make_root(start)
    rng = random.Random(seed)
    for _ in range(40):
        children = ctx.expand(node)
        expected = reference_expand(ctx, node)
        assert [node_fields(c) for c in children] == [node_fields(c) for c in expected]
        if not children:
            break
        node = children[rng.randrange(len(children))]


CLOSED_FIELDS = ("done_here", "exec_mask", "ready", "onehop", "rsum", "osum", "psum", "h")


def check_children_without_close(ctx, node, children) -> int:
    """Check that each child that runs no gate, or only gates without
    successors, which ``children`` builds without ``_close``, has the state
    that ``_close`` gives it from the parent's sets. Returns how many of
    those children ran gates."""
    dist, succs = ctx.dist, ctx.dag.succs
    ran = 0
    for child in children:
        if any(succs[gid] for gid in child.done_here):
            continue  # built by _close
        closed = _Node()
        closed.pos = child.pos
        closed.exec_mask = node.exec_mask
        rsum = sum(dist[child.pos[ctx.q2[g][0]]][child.pos[ctx.q2[g][1]]] for g in node.ready)
        ctx._close(closed, node.ready, node.onehop, rsum, child.done_here)
        fields = [getattr(child, name) for name in CLOSED_FIELDS]
        assert fields == [getattr(closed, name) for name in CLOSED_FIELDS]
        ran += bool(child.done_here)
    return ran


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(routing_walks())
def test_children_without_close_match_close(instance):
    graph, circuit, start, seed = instance
    ctx = _RouteContext(circuit, graph)
    node = ctx.make_root(start)
    rng = random.Random(seed)
    for _ in range(40):
        children = ctx.expand(node)
        check_children_without_close(ctx, node, children)
        if not children:
            break
        node = children[rng.randrange(len(children))]


@pytest.mark.parametrize("commutable", [False, True])
def test_children_without_close_match_close_during_search(monkeypatch, grid4, commutable):
    # On both kinds of circuit, searches build children that run gates
    # without _close: every gate of a commutable circuit, and the last
    # gates on their qubits of a non-commutable one.
    ran = []
    real_expand = _RouteContext.expand

    def checked(ctx, node):
        children = real_expand(ctx, node)
        ran.append(check_children_without_close(ctx, node, children))
        return children

    monkeypatch.setattr(_RouteContext, "expand", checked)
    rng = random.Random(3)
    for _ in range(3):
        c = Circuit(12, random_gates(rng, 12, 30), commutable)
        sol = astar_insert(c, grid4, Mapping(tuple(rng.sample(range(16), 12))))
        assert verify(c, grid4, sol).ok
    assert sum(ran) > 100


@pytest.mark.parametrize("commutable", [False, True])
def test_expand_matches_reference_during_search(monkeypatch, grid4, commutable):
    # Searches on grid:4 with free positions: every expansion of every
    # episode gives the reference's children.
    expanded = []
    real_expand = _RouteContext.expand

    def checked(ctx, node):
        children = real_expand(ctx, node)
        expected = reference_expand(ctx, node)
        assert [node_fields(c) for c in children] == [node_fields(c) for c in expected]
        expanded.append(len(children))
        return children

    monkeypatch.setattr(_RouteContext, "expand", checked)
    rng = random.Random(3)
    for _ in range(3):
        c = Circuit(12, random_gates(rng, 12, 30), commutable)
        sol = astar_insert(c, grid4, Mapping(tuple(rng.sample(range(16), 12))))
        assert verify(c, grid4, sol).ok
    assert len(expanded) > 100


@st.composite
def candidate_walks(draw):
    """A routing walk as ``routing_walks`` draws it, or a QAOA circuit of 20
    to 40 qubits on grid:7 from a random start, whose commutable gates leave
    more than ``_MAX_CANDIDATE_GATES`` ready at the root."""
    if draw(st.booleans()):
        return draw(routing_walks())
    rng = random.Random(draw(st.integers(0, 2**32)))
    circuit = gen_qaoa(draw(st.sampled_from([20, 30, 40])), draw(st.integers(0, 99)))
    start = Mapping(tuple(rng.sample(range(49), circuit.num_qubits)))
    return make_device("grid", 7), circuit, start, draw(st.integers(0, 2**32))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(candidate_walks())
def test_candidate_edges_match_reference(instance):
    # At every step of a walk over expanded children, the candidate edges
    # equal the reference's set of (low, high) tuples, sorted.
    graph, circuit, start, seed = instance
    ctx = _RouteContext(circuit, graph)
    node = ctx.make_root(start)
    if circuit.num_qubits >= 20:
        assert len(node.ready) > _MAX_CANDIDATE_GATES
    rng = random.Random(seed)
    for _ in range(40):
        edges = ctx.candidate_edges(node)
        assert edges == reference_candidate_edges(ctx, node)
        if not edges:
            break
        children = ctx.expand(node)
        node = children[rng.randrange(len(children))]


@pytest.mark.parametrize("commutable", [False, True])
def test_episode_matches_reference(grid4, commutable):
    # Routes on grid:4 from random starts, one episode at a time as
    # astar_insert runs them: each episode gives the reference's goal, or
    # strands where it does, and the frontier is trimmed along the way.
    rng = random.Random(11)
    trims = 0
    for _ in range(4):
        c = Circuit(12, random_gates(rng, 12, 30), commutable)
        ctx = _RouteContext(c, grid4)
        node = ctx.make_root(Mapping(tuple(rng.sample(range(16), 12))))
        for _ in range(20):
            goal = srefine._episode(ctx, node)
            ref_goal, ref_trims = reference_episode(ctx, node)
            trims += ref_trims
            assert (goal is None) == (ref_goal is None)
            if goal is not None:
                assert node_fields(goal) == node_fields(ref_goal)
                assert _path_solution(ctx, goal) == _path_solution(ctx, ref_goal)
                break
            # the walk astar_insert takes after a stranded episode
            node = srefine._force_nearest_gate(ctx, node)
    assert trims > 0


def strand(monkeypatch) -> None:
    """Make every search episode that does not start at a goal strand at
    once, so the router walks one gate after another."""
    monkeypatch.setattr(
        srefine, "_episode", lambda ctx, root: root if root.exec_mask == ctx.all_mask else None
    )


# On path:5 a stranded search of this circuit first walks gate 0, from
# position 3 down to 2.
STRANDED_CIRCUIT = Circuit.from_pairs(5, [(2, 4), (3, 0), (3, 0), (0, 1), (2, 0)])
STRANDED_START = Mapping((2, 0, 3, 4, 1))


@pytest.mark.parametrize("stranded", [False, True])
def test_swap_edges_are_ordered(monkeypatch, stranded):
    # The answer's SWAPs are the path's node edges as they are, so every
    # one must be (low, high). Searched SWAPs come from expansion, walked
    # ones from the steps of _force_nearest_gate.
    if stranded:
        strand(monkeypatch)
    walks = spy(monkeypatch, "_force_nearest_gate")
    sol = astar_insert(STRANDED_CIRCUIT, make_device("path", 5), STRANDED_START)
    assert bool(walks) == stranded
    assert sol.swaps and all(a < b for (a, b), _ in sol.swaps)


def reference_path_solution(ctx, node):
    """The answer along ``node``'s parent chain as the router first built
    it: ``ReferenceSolutionBuilder`` fed the root's gates, then each later
    node's SWAP and gates."""
    chain = []
    while node is not None:
        chain.append(node)
        node = node.parent
    root = chain.pop()
    builder = ReferenceSolutionBuilder(ctx.num_gates, Mapping(tuple(root.pos)))
    for gid in root.done_here:
        builder.execute(gid)
    for node in reversed(chain):
        builder.add_swap(node.edge)
        for gid in node.done_here:
            builder.execute(gid)
    return builder.build()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(routing_walks())
def test_path_solution_matches_reference_builder(instance):
    # Walks mix searched children and nearest-gate walks, so gaps of one
    # and of several SWAPs occur, and the root may run gates.
    graph, circuit, start, seed = instance
    ctx = _RouteContext(circuit, graph)
    node = ctx.make_root(start)
    rng = random.Random(seed)
    for _ in range(60):
        if node.exec_mask == ctx.all_mask:
            break
        if rng.random() < 0.75:
            children = ctx.expand(node)
            node = children[rng.randrange(len(children))]
        else:
            node = srefine._force_nearest_gate(ctx, node)
    if node.exec_mask != ctx.all_mask:
        return
    sol = _path_solution(ctx, node)
    assert sol == reference_path_solution(ctx, node)
    assert verify(circuit, graph, sol).ok


def check_path_solutions(monkeypatch) -> list:
    """Compare every answer ``astar_insert`` reads off a path with the
    reference builder's; returns the answers."""
    answers = []

    def checked(ctx, node):
        sol = real(ctx, node)
        assert sol == reference_path_solution(ctx, node)
        answers.append(sol)
        return sol

    real = srefine._path_solution
    monkeypatch.setattr(srefine, "_path_solution", checked)
    return answers


@pytest.mark.parametrize("commutable", [False, True])
def test_path_solution_matches_reference_during_search(monkeypatch, grid4, commutable):
    answers = check_path_solutions(monkeypatch)
    rng = random.Random(7)
    for _ in range(3):
        c = Circuit(12, random_gates(rng, 12, 30), commutable)
        astar_insert(c, grid4, Mapping(tuple(rng.sample(range(16), 12))))
    assert len(answers) == 3 and all(sol.swaps for sol in answers)


def test_path_solution_matches_reference_when_stranded(monkeypatch):
    strand(monkeypatch)
    walks = spy(monkeypatch, "_force_nearest_gate")
    answers = check_path_solutions(monkeypatch)
    astar_insert(STRANDED_CIRCUIT, make_device("path", 5), STRANDED_START)
    assert walks and len(answers) == 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(3, 5),
    st.booleans(),
    st.integers(4, 30),
    st.integers(0, 2**32),
)
def test_routes_verify_when_episodes_strand(side, commutable, count, seed):
    # Real episodes, of which a seeded half of those that do not start at a
    # goal strand at once: searches and last-resort walks interleave, every
    # answer verifies, and each walk runs a gate, so strandings never exceed
    # the gate count.
    rng = random.Random(seed)
    graph = make_device("grid", side)
    nq = rng.randint(2, graph.num_physical)
    circuit = Circuit(nq, random_gates(rng, nq, count), commutable)
    start = Mapping(tuple(rng.sample(range(graph.num_physical), nq)))
    strandings = 0
    real = srefine._episode

    def halved(ctx, root):
        nonlocal strandings
        if root.exec_mask != ctx.all_mask and rng.random() < 0.5:
            strandings += 1
            return None
        return real(ctx, root)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(srefine, "_episode", halved)
        sol = astar_insert(circuit, graph, start)
    assert verify(circuit, graph, sol).ok
    assert strandings <= len(circuit.gates)


@st.composite
def swap_free_starts(draw):
    """A random connected device of 2 to 7 nodes, a start of 2 or more
    qubits on it, and a commutable or non-commutable circuit of up to 12
    gates whose every two-qubit gate sits on a coupler under the start. A
    share of the gates, from none to all, is single-qubit."""
    n = draw(st.integers(2, 7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    graph = CouplingGraph.build(n, sorted(random_connected_graph(rng, n, draw(st.integers(0, n)))))
    nq = draw(st.integers(2, n))
    start = Mapping(tuple(rng.sample(range(n), nq)))
    pairs = [
        (a, b)
        for a, b in itertools.permutations(range(nq), 2)
        if graph.has_edge(start[a], start[b])
    ]
    single = draw(st.sampled_from([0.0, 0.3, 1.0])) if pairs else 1.0
    gates = tuple(
        Gate(i, (rng.randrange(nq),), "h") if rng.random() < single else Gate(i, rng.choice(pairs))
        for i in range(draw(st.integers(0, 12)))
    )
    return graph, Circuit(nq, gates, draw(st.booleans())), start


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(swap_free_starts())
def test_swap_free_start_is_answered_without_search(instance):
    # The answer the search would read off its root, with no DAG built.
    graph, circuit, start = instance
    with pytest.MonkeyPatch.context() as mp:
        builds = drop_dag_edges(mp, lambda g: False)
        sol = astar_insert(circuit, graph, start)
        assert builds == []
    ctx = _RouteContext(circuit, graph)
    assert sol == _path_solution(ctx, ctx.make_root(start))


@st.composite
def annealing_instances(draw):
    """A random connected device of at most 6 nodes, a random circuit on it,
    a random start, regions for some instances, and an RNG seed."""
    n = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    graph = CouplingGraph.build(n, sorted(random_connected_graph(rng, n, draw(st.integers(0, n)))))
    nq = draw(st.integers(2, n))
    pair = st.lists(st.integers(0, nq - 1), min_size=2, max_size=2, unique=True)
    circuit = Circuit.from_pairs(nq, draw(st.lists(pair, max_size=12)), draw(st.booleans()))
    start = Mapping(tuple(rng.sample(range(n), nq)))
    regions = None
    if draw(st.booleans()):
        cells = st.frozensets(st.integers(0, n - 1), min_size=1)
        regions = MappingRegion(tuple(draw(cells) for _ in range(nq)))
    return graph, circuit, start, regions, draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(annealing_instances())
def test_annealing_matches_reference(instance):
    graph, circuit, start, regions, seed = instance
    expected = reference_sa_initial_mapping(circuit, graph, start, regions, random.Random(seed))
    assert sa_initial_mapping(circuit, graph, start, regions, random.Random(seed)) == expected


LIBRARY_DEVICES = {
    "grid:5": make_device("grid", 5),
    "grid:12": make_device("grid", 12),
    "eagle127": make_device("eagle127"),
}
# Region sizes per qubit: one cell, powers of two, odd sizes, or a mix.
REGION_SIZES = {
    "none": None,
    "one": (1,),
    "pow2": (2, 4, 8, 16),
    "odd": (3, 5, 7, 9),
    "mixed": (1, 2, 3, 6, 16, 25),
}


@pytest.mark.parametrize("regions_kind", REGION_SIZES)
@pytest.mark.parametrize("commutable", [False, True])
@pytest.mark.parametrize("device", LIBRARY_DEVICES)
def test_annealing_matches_reference_on_library_devices(device, commutable, regions_kind):
    # Library devices of 25, 144 and 127 positions, so every index draw
    # redraws with its own odds, and regions whose sizes are 1, powers of
    # two or odd.
    graph = LIBRARY_DEVICES[device]
    rng = random.Random(f"{device}:{commutable}:{regions_kind}")
    for _ in range(3):
        nq = rng.randint(2, 16)
        circuit = Circuit(nq, random_gates(rng, nq, rng.randint(1, 24)), commutable)
        start = Mapping(tuple(rng.sample(range(graph.num_physical), nq)))
        regions = None
        if REGION_SIZES[regions_kind] is not None:
            regions = MappingRegion(tuple(
                frozenset(rng.sample(range(graph.num_physical), rng.choice(REGION_SIZES[regions_kind])))
                for _ in range(nq)
            ))
        seed = rng.randrange(2**32)
        expected = reference_sa_initial_mapping(circuit, graph, start, regions, random.Random(seed))
        assert sa_initial_mapping(circuit, graph, start, regions, random.Random(seed)) == expected


@pytest.mark.parametrize(
    "num_qubits, regions",
    [(0, None), (2, (frozenset({0}), frozenset()))],
    ids=["zero_qubits", "empty_region"],
)
def test_annealing_rejects_empty_ranges(path4, num_qubits, regions):
    # Where randrange raises on an empty range, the annealer raises too,
    # before it draws; a plain tuple reaches the check, since MappingRegion
    # rejects an empty region itself.
    circuit = Circuit.from_pairs(num_qubits, [(0, 1)] if num_qubits else [])
    start = Mapping(tuple(range(num_qubits)))
    with pytest.raises(ValueError):
        reference_sa_initial_mapping(circuit, path4, start, regions, random.Random(0))
    with pytest.raises(ValueError):
        sa_initial_mapping(circuit, path4, start, regions, random.Random(0))


@st.composite
def oracle_sized_runs(draw):
    """A random connected device of at most 6 nodes, a random circuit of at
    most 10 gates on it (some single-qubit), random regions for some
    instances, and a seed."""
    n = draw(st.integers(3, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    graph = CouplingGraph.build(n, sorted(random_connected_graph(rng, n, draw(st.integers(0, 2)))))
    nq = draw(st.integers(2, n))
    circuit = Circuit(nq, random_gates(rng, nq, draw(st.integers(1, 10))), draw(st.booleans()))
    regions = None
    if draw(st.booleans()):
        regions = MappingRegion(
            tuple(frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(nq))
        )
    return graph, circuit, regions, draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(oracle_sized_runs())
def test_srefine_run_is_valid_bounded_and_reproducible(instance):
    # Standalone sRefine, outside the flow's pick of the better stage.
    graph, circuit, regions, seed = instance
    sol = srefine_run(circuit, graph, regions, None, random.Random(seed))
    assert verify(circuit, graph, sol).ok
    assert optimal_oracle(circuit, graph, swap_count(sol)) is not None
    assert sol.depth == asap_depth(circuit, sol)
    again = srefine_run(circuit, graph, regions, None, random.Random(seed))
    assert solution_to_json(again) == solution_to_json(sol)
