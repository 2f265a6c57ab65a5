"""Two-stage multilevel flow: standalone synthesis, then one V cycle of
coarsen -> exact coarsest solve -> interpolate -> refine.

Each stage yields a full verified solution; the best one (fewest SWAPs, then
lowest depth) is kept, so the final result never regresses below stage one.
Every level's answer comes from ``srefine_run`` or ``solve_exact``, which
check what they hand out, so the flow checks nothing again.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .cluster import (
    Level,
    LevelHierarchy,
    cluster_physical,
    cluster_program,
    coarsen,
    identity_cluster_map,
    interpolate,
)
from .exact import ExactConfig, fits_exact, solve_exact
from .model import Circuit, CouplingGraph, Mapping
from .srefine import SrefineConfig, srefine_run
from .verify import QlsSolution, swap_count


_MIN_SHRINK = 0.10
_MAX_LEVELS = 32


def compression_guard(prev: int, cur: int) -> bool:
    """True while coarsening may continue: ``prev`` qubits shrank to ``cur``
    by at least 10%."""
    return prev > 0 and (prev - cur) / prev >= _MIN_SHRINK


@dataclass
class FlowConfig:
    seed: int = 0
    srefine: SrefineConfig = field(default_factory=SrefineConfig)
    exact: ExactConfig = field(  # desk-scale budgets
        default_factory=lambda: ExactConfig(post_first_solution_budget=1.0, overall_budget=5.0)
    )


@dataclass
class StageStat:
    stage: str
    swaps: int
    seconds: float


@dataclass
class FlowResult:
    initial: QlsSolution
    final: QlsSolution
    levels: LevelHierarchy
    stats: list[StageStat]


def run_mlqls(circuit: Circuit, graph: CouplingGraph, cfg: FlowConfig | None = None) -> FlowResult:
    """Run the full two-stage flow (srefine, then one V cycle) and return
    every stage's best solution."""
    cfg = cfg or FlowConfig()
    if circuit.num_qubits > graph.num_physical:
        raise ValueError("more program qubits than physical qubits")
    rng = random.Random(cfg.seed)
    stats: list[StageStat] = []

    t0 = time.monotonic()
    initial = srefine_run(circuit, graph, None, cfg.srefine, random.Random(rng.randrange(1 << 62)))
    stats.append(StageStat("srefine", swap_count(initial), time.monotonic() - t0))

    if swap_count(initial) == 0:  # already optimal; nothing to refine
        hierarchy = LevelHierarchy([Level(circuit, graph, None, None)])
        return FlowResult(initial, initial, hierarchy, stats)
    t0 = time.monotonic()
    hierarchy = _build_hierarchy(circuit, graph, initial.block_mappings[0])
    candidate = _solve_hierarchy(hierarchy, cfg, rng)
    stats.append(StageStat("vcycle1", swap_count(candidate), time.monotonic() - t0))
    best = candidate if _better(candidate, initial) else initial
    return FlowResult(initial, best, hierarchy, stats)


def _better(a: QlsSolution, b: QlsSolution) -> bool:
    return (swap_count(a), a.depth) < (swap_count(b), b.depth)


def _build_hierarchy(circuit: Circuit, graph: CouplingGraph, guide: Mapping) -> LevelHierarchy:
    """Cluster repeatedly, guided by the current solution's first-block
    mapping, until the coarsest instance fits the exact-solver limits or
    compression stalls."""
    levels: list[Level] = []
    while not fits_exact(circuit) and len(levels) + 1 < _MAX_LEVELS:
        prog_cm = cluster_program(circuit, guide, graph)
        phys_cm = cluster_physical(graph, prog_cm, guide)
        levels.append(Level(circuit, graph, prog_cm, phys_cm))
        circuit, graph = coarsen(circuit, graph, prog_cm, phys_cm)
        # cluster_physical numbers physical cell i as the image of program
        # cell i, so the identity places each coarse qubit on its image.
        guide = Mapping(tuple(range(circuit.num_qubits)))
        if not compression_guard(levels[-1].circuit.num_qubits, circuit.num_qubits):
            break
    levels.append(Level(circuit, graph, None, None))
    return LevelHierarchy(levels)


def _quick_srefine(base: SrefineConfig) -> SrefineConfig:
    """Cheap configuration for warm-starting the exact coarsest solve."""
    return SrefineConfig(
        candidates=2,
        mapper_first_budget=min(base.mapper_first_budget, 1.0),
        mapper_next_budget=min(base.mapper_next_budget, 0.5),
    )


def _solve_hierarchy(
    hierarchy: LevelHierarchy, cfg: FlowConfig, rng: random.Random
) -> QlsSolution:
    """Solve the coarsest level (exactly when it fits), then interpolate and
    refine back down to the finest level."""
    coarsest = hierarchy.levels[-1]
    exact = fits_exact(coarsest.circuit)
    coarse_cfg = _quick_srefine(cfg.srefine) if exact else cfg.srefine
    coarse_sol = srefine_run(
        coarsest.circuit, coarsest.graph, None, coarse_cfg, random.Random(rng.randrange(1 << 62))
    )
    if exact:  # the heuristic answer warm-starts the exact solve
        coarse_sol = solve_exact(
            coarsest.circuit, coarsest.graph, cfg.exact, warm_start=coarse_sol
        ).solution
    if len(hierarchy) == 1:
        # Degenerate V: refine the finest level around the exact solution.
        level = hierarchy.levels[0]
        regions = interpolate(
            coarse_sol,
            identity_cluster_map(level.circuit.num_qubits),
            identity_cluster_map(level.graph.num_physical),
            level.graph,
        )
        refined = srefine_run(
            level.circuit, level.graph, regions, cfg.srefine, random.Random(rng.randrange(1 << 62))
        )
        return refined if _better(refined, coarse_sol) else coarse_sol
    for i in range(len(hierarchy) - 2, -1, -1):
        level = hierarchy.levels[i]
        assert level.prog_map is not None and level.phys_map is not None
        regions = interpolate(coarse_sol, level.prog_map, level.phys_map, level.graph)
        coarse_sol = srefine_run(
            level.circuit, level.graph, regions, cfg.srefine, random.Random(rng.randrange(1 << 62))
        )
    return coarse_sol
