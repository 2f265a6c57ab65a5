"""Correctness gate, run outside the timed region.

An instance fails if compiling it raised, if the independent verifier
rejects the solution, if the solution's recorded depth is not its ASAP
depth, or if an exact answer marked ``proven_optimal`` differs from the
exhaustive oracle.
"""

from __future__ import annotations

import inspect


def check(lib, inst, outcome, oracle_cache: dict) -> tuple[str | None, int]:
    """(the reason ``outcome`` is wrong or None, the solution's ASAP depth).
    ``outcome`` is an Outcome or the exception compiling raised. Oracle
    answers are cached per instance label, because repeated rounds compile
    the same instances."""
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {outcome}", 0
    verify = inspect.unwrap(lib.verify.verify)
    asap_depth = inspect.unwrap(lib.verify.asap_depth)
    sol = outcome.solution
    report = verify(inst.circuit, inst.device, sol)
    if not report.ok:
        return f"verifier rejected the solution: {report.first_failure()}", 0
    depth = asap_depth(inst.circuit, sol)
    if sol.depth is not None and sol.depth != depth:
        return f"recorded depth {sol.depth} but ASAP depth is {depth}", depth
    res = outcome.exact
    if res is not None and res.proven_optimal:
        if inst.label not in oracle_cache:
            oracle = inspect.unwrap(lib.exact.optimal_oracle)
            oracle_cache[inst.label] = oracle(inst.circuit, inst.device, len(sol.swaps))
        best = oracle_cache[inst.label]
        if best != len(sol.swaps):
            return f"proven optimal at {len(sol.swaps)} SWAPs but the oracle finds {best}", depth
    return None, depth
