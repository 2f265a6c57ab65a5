"""Answers depend on the seed and the budgets, never on the clock: every
search budget is a node count, so a clock that jumps ahead changes nothing."""

import ast
import itertools
import random
import time
from pathlib import Path

import pytest

import mlqls
from mlqls import (
    Circuit,
    ExactConfig,
    FlowConfig,
    SrefineConfig,
    gen_qaoa,
    make_device,
    run_mlqls,
    solve_exact,
)
from mlqls.verify import solution_to_json


def jump_clock(monkeypatch):
    """Make every ``time.monotonic()`` call read 1000 s later than the last."""
    clock = itertools.count(0.0, 1000.0)
    monkeypatch.setattr(time, "monotonic", lambda: next(clock))


def test_exact_answer_ignores_the_clock(monkeypatch):
    # exact-small style: 5 qubits and 10 gates on a 2x3 grid, with the
    # benchmark's budgets; the search needs far more than 512 nodes
    dev = make_device("custom", edges=[(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    rng = random.Random(3)
    c = Circuit.from_pairs(5, [tuple(rng.sample(range(5), 2)) for _ in range(10)])
    cfg = ExactConfig(post_first_solution_budget=1.0, overall_budget=3.0)
    steady = solve_exact(c, dev, cfg)
    jump_clock(monkeypatch)
    jumped = solve_exact(c, dev, cfg)
    assert steady.proven_optimal and not steady.timed_out
    assert (jumped.solution, jumped.proven_optimal, jumped.timed_out) == (
        steady.solution, steady.proven_optimal, steady.timed_out
    )


def test_flow_answer_ignores_the_clock(monkeypatch):
    # budgets small enough that the coarsest exact solve runs out of nodes
    g = make_device("grid", 4)
    c = gen_qaoa(16, 0)
    cfg = FlowConfig(
        seed=0,
        srefine=SrefineConfig(candidates=2, mapper_first_budget=0.5, mapper_next_budget=0.2),
        exact=ExactConfig(post_first_solution_budget=0.1, overall_budget=0.3),
    )
    steady = solution_to_json(run_mlqls(c, g, cfg).final)
    jump_clock(monkeypatch)
    jumped = solution_to_json(run_mlqls(c, g, cfg).final)
    assert jumped == steady


@pytest.mark.parametrize("module", ["exact", "srefine", "cluster", "model", "verify"])
def test_search_modules_do_not_read_the_clock(module):
    tree = ast.parse((Path(mlqls.__file__).parent / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & {"time", "datetime"}
