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
    """Cluster and coarsen at least once, guided by the current solution's
    first-block mapping, and stop once the coarsest instance fits the
    exact-solver limits, compression stalls, or the hierarchy reaches
    ``_MAX_LEVELS`` levels."""
    levels: list[Level] = []
    for _ in range(_MAX_LEVELS - 1):  # the coarsest level is appended below
        prog_cm = cluster_program(circuit, guide, graph)
        phys_cm = cluster_physical(graph, prog_cm, guide)
        levels.append(Level(circuit, graph, prog_cm, phys_cm))
        circuit, graph = coarsen(circuit, graph, prog_cm, phys_cm)
        # cluster_physical numbers physical cell i as the image of program
        # cell i, so the identity places each coarse qubit on its image.
        guide = Mapping(tuple(range(circuit.num_qubits)))
        if fits_exact(circuit) or not compression_guard(
            levels[-1].circuit.num_qubits, circuit.num_qubits
        ):
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
    """Solve the coarsest level, then interpolate and refine each finer level
    in turn down to the finest. When the coarsest level fits the exact
    solver, a short sRefine run warm-starts it; otherwise a full sRefine run
    solves the level."""
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
    for level in reversed(hierarchy.levels[:-1]):
        assert level.prog_map is not None and level.phys_map is not None
        regions = interpolate(coarse_sol, level.prog_map, level.phys_map, level.graph)
        coarse_sol = srefine_run(
            level.circuit, level.graph, regions, cfg.srefine, random.Random(rng.randrange(1 << 62))
        )
    return coarse_sol
