"""Golden answers: the sha256 of ``solution_to_json`` for a few small seeded
calls. Changes that claim to leave the search alone (speed-ups, refactors)
must keep every digest; a change that means to alter answers updates them and
says why.

The digests were captured on CPython 3.11.7 and give the same values on
3.10.13, 3.11.2 and 3.12.1. The searches sum floats, and ``sum()`` of floats
rounds differently from Python 3.12 on, so on another minor version a
mismatch is first checked against the parent checkout on that same
interpreter (this file run as a script there, or ``tools/same_answers.py``);
only a difference between the two trees is a change to the search.

Print the current digests with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import random

import pytest

from mlqls import (
    Circuit,
    ExactConfig,
    FlowConfig,
    Gate,
    SrefineConfig,
    gen_qaoa,
    make_device,
    run_mlqls,
    solve_exact,
    srefine_run,
)
from mlqls.verify import solution_to_json

# Small mapper budgets keep each call well under a second.
_SREFINE = SrefineConfig(candidates=2, mapper_first_budget=0.1, mapper_next_budget=0.05)


def _random_circuit(num_qubits, num_gates, seed, one_qubit_share=0.0):
    """Non-commutable circuit of random two-qubit gates, with roughly
    ``one_qubit_share`` of single-qubit gates mixed in."""
    rng = random.Random(seed)
    gates = []
    for i in range(num_gates):
        if rng.random() < one_qubit_share:
            gates.append(Gate(i, (rng.randrange(num_qubits),), "h"))
        else:
            gates.append(Gate(i, tuple(rng.sample(range(num_qubits), 2))))
    return Circuit(num_qubits, tuple(gates))


def _srefine_qaoa():
    return srefine_run(gen_qaoa(12, 3), make_device("grid", 4), None, _SREFINE, random.Random(7))


def _srefine_qaoa_grid5():
    return srefine_run(gen_qaoa(20, 5), make_device("grid", 5), None, _SREFINE, random.Random(2))


def _srefine_noncomm():
    circ = _random_circuit(16, 30, 11)
    return srefine_run(circ, make_device("grid", 4), None, _SREFINE, random.Random(1))


def _srefine_noncomm_one_qubit_gates():
    circ = _random_circuit(9, 40, 4, one_qubit_share=0.3)
    return srefine_run(circ, make_device("grid", 3), None, _SREFINE, random.Random(3))


def flow_qaoa20_grid5(qaoa_seed):
    """The full flow on QAOA-20 over grid:5, with small budgets."""
    dev = make_device("grid", 5)
    cfg = FlowConfig(
        seed=4,
        srefine=_SREFINE,
        exact=ExactConfig(post_first_solution_budget=0.1, overall_budget=0.3),
    )
    return run_mlqls(gen_qaoa(20, qaoa_seed), dev, cfg)


def _flow_qaoa():
    return flow_qaoa20_grid5(8).final


def _flow_qaoa_vcycle_wins():
    # The V cycle's refinement beats stage one here (7 SWAPs against 10), so
    # this digest pins how refinement routes.
    return flow_qaoa20_grid5(1).final


def _flow_qaoa48_three_levels():
    # Levels 48/19/8: the only digest whose flow coarsens more than once, so
    # it pins the guide mapping of the second coarsening.
    cfg = FlowConfig(
        seed=4,
        srefine=_SREFINE,
        exact=ExactConfig(post_first_solution_budget=0.1, overall_budget=0.3),
    )
    return run_mlqls(gen_qaoa(48, 0), make_device("grid", 7), cfg).final


def _exact_cold():
    dev = make_device("custom", edges=[(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    cfg = ExactConfig(post_first_solution_budget=1.0, overall_budget=3.0)
    return solve_exact(_random_circuit(5, 9, 20), dev, cfg).solution


def _exact_one_qubit_gates():
    dev = make_device("custom", edges=[(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    cfg = ExactConfig(post_first_solution_budget=1.0, overall_budget=3.0)
    circ = _random_circuit(6, 16, 5, one_qubit_share=0.3)
    return solve_exact(circ, dev, cfg).solution


CALLS = {
    "srefine_qaoa12_grid4": _srefine_qaoa,
    "srefine_qaoa20_grid5": _srefine_qaoa_grid5,
    "srefine_noncomm16x30_grid4": _srefine_noncomm,
    "srefine_noncomm9x40_1q_grid3": _srefine_noncomm_one_qubit_gates,
    "flow_qaoa20_grid5": _flow_qaoa,
    "flow_qaoa20_s1_grid5": _flow_qaoa_vcycle_wins,
    "flow_qaoa48_grid7": _flow_qaoa48_three_levels,
    "exact_cold_5x9_grid2x3": _exact_cold,
    "exact_6x16_1q_grid2x3": _exact_one_qubit_gates,
}


def digest(sol) -> str:
    text = json.dumps(solution_to_json(sol), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Captured on CPython 3.11.7, before the router's incremental ready-set
# bookkeeping landed; exact_6x16_1q_grid2x3 (11 two-qubit and 5 single-qubit
# gates, 2 SWAPs, proven optimal) before both searches dropped their
# in-degree counters; flow_qaoa20_s1_grid5 once refinement routed without
# regions; flow_qaoa48_grid7 (levels 48/19/8, 45 -> 41 SWAPs) at the commit
# before the hierarchy took the identity as its coarse guide.
GOLDEN = {
    "exact_6x16_1q_grid2x3": "99bcd4d127ca5cface87a1ae1f465a9934789191bebec66b8fb5ade25fa13949",
    "exact_cold_5x9_grid2x3": "972aa60143da7ac78d9fd945a5debb0f6333aae48b675b9d6d7d5f639d4ca9e5",
    "flow_qaoa20_grid5": "f983d1ea5810dc5657c6c88bb3db7f07a6e2a730ef9817a8a84367cc2b876419",
    "flow_qaoa20_s1_grid5": "ee3a41758c609b039bb9832f60342cc137ea5b40e6eccb612781accc1e9de62f",
    "flow_qaoa48_grid7": "31b8735e50d844eff920d7feea62177613d8325c1c3bf0fc5100f9ea9c5db9b9",
    "srefine_noncomm16x30_grid4": "1b34af7e58a1f482be9308a169fcf97c3224623f11c78aa88436546647c68bd7",
    "srefine_noncomm9x40_1q_grid3": "ef27c187d9e27a9536b6d491fcbb2dff61d45eb93b74876f83ca23264c41392f",
    "srefine_qaoa12_grid4": "a72383d004f9915a335a46bbc655d77ec83135fa87649da9da4e6a8bac62fea2",
    "srefine_qaoa20_grid5": "47b95347bb558f9bb622ef3f7c83a8bd17af54bcea697957c8044c6955ebe41f",
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_golden_answer(name):
    assert digest(CALLS[name]()) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CALLS):
        print(f'    "{name}": "{digest(CALLS[name]())}",')
