"""A seeded mutation fuzz test of every input path: the parsers, and the
command line for compile and verify. A malformed input must give a
``ValueError`` (from a parser) or exit code 2 (from ``main``), never another
exception; a well-formed one exits 0 or 1."""

import copy
import json
import random

import pytest

import mlqls.model as model
from mlqls import circuit_from_json, device_from_json, parse_qasm
from mlqls.cli import main, parse_device_spec

# Characters a text mutation inserts: digits, signs, the QASM and JSON
# punctuation, and letters of the keywords and device kinds.
ALPHABET = "0123456789-+.,;:=()[]{}\"' \nabcdeghilnpqrstxz"
# Values a JSON mutation puts in place of a node.
VALUES = [0, 1, -1, 2, 3, 17, 10**6, 2**64, -(2**31), 0.5, "", "x", "cx", None, True,
          [], {}, [0], [0, 1], [[0, 1]]]

QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
rz(pi/2) q[2];
cx q[2],q[3];
cx q[1],q[2];
"""
CIRCUIT = {
    "num_qubits": 4,
    "commutable": False,
    "gates": [{"qubits": [0, 1], "name": "cx"}, {"qubits": [2], "name": "h"}, {"qubits": [1, 2]}],
}
DEVICE = {"name": "t", "num_qubits": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
DEVICE_SPECS = ["grid:3", "path:4", "grid:4", "path:6", "sycamore", "eagle127"]
GEN_SPECS = ["chain:n=4", "qaoa:n=6", "chain: n = 5"]
# The fuzz keeps devices to at most this many positions, so that no input
# it builds costs more than a small compile; the size check and its error
# path are the same as at the real limit.
FUZZ_DEVICE_LIMIT = 16


def mutate_text(rng, text, most=3):
    """``text`` with one to ``most`` random deletions, insertions, copies or
    replacements of short runs."""
    for _ in range(rng.randint(1, most)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 4))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + "".join(rng.choices(ALPHABET, k=rng.randint(1, 3))) + text[i:]
        elif op == 2:
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + rng.choice(ALPHABET) + text[j:]
    return text


def mutate_json(rng, value):
    """A copy of ``value`` with one node replaced by a random value, or one
    entry of a list or object dropped, or its JSON text mutated."""
    if rng.random() < 0.25:
        try:
            return json.loads(mutate_text(rng, json.dumps(value), 1))
        except ValueError:
            pass  # not JSON any more: mutate a node instead
    value = copy.deepcopy(value)
    parent, key, node = None, None, value
    while isinstance(node, (list, dict)) and node and rng.random() < 0.7:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, rng.choice(keys)
        node = node[key]
    if parent is None:
        return rng.choice(VALUES)
    if rng.random() < 0.3:
        del parent[key]
    else:
        parent[key] = rng.choice(VALUES)
    return value


def run_main(argv):
    """``main``'s exit code, counting argparse's exit as its code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def small_devices(monkeypatch):
    monkeypatch.setattr(model, "MAX_DEVICE_QUBITS", FUZZ_DEVICE_LIMIT)


@pytest.mark.parametrize(
    "parse, base, mutate",
    [
        (parse_qasm, QASM, mutate_text),
        (circuit_from_json, CIRCUIT, mutate_json),
        (device_from_json, DEVICE, mutate_json),
        (parse_device_spec, DEVICE_SPECS, lambda rng, specs: mutate_text(rng, rng.choice(specs))),
    ],
    ids=["parse_qasm", "circuit_from_json", "device_from_json", "parse_device_spec"],
)
def test_parsers_raise_only_value_errors(small_devices, parse, base, mutate):
    rng = random.Random(0)
    for _ in range(1500):
        data = mutate(rng, base)
        try:
            parse(data)
        except ValueError:
            pass


def test_compile_and_verify_exit_0_1_or_2(small_devices, tmp_path, capsys):
    rng = random.Random(1)
    bundle_path = tmp_path / "bundle.json"
    argv = ["compile", "--device", "path:4", "--gen", "chain:n=4", "--mode", "srefine"]
    assert main([*argv, "--budget-scale", "0.001", "--out", str(bundle_path)]) == 0
    bundle = json.loads(bundle_path.read_text())
    given = tmp_path / "input"
    codes = []
    for k in range(150):
        # Mutate the device or the circuit, and keep the other well formed.
        on_device = rng.random() < 0.3
        device = rng.choice(DEVICE_SPECS[:4])
        if on_device:
            device = mutate_text(rng, device, 1)
        source = rng.randrange(3)
        if source == 0:
            gen = rng.choice(GEN_SPECS)
            inputs = ["--gen", gen if on_device else mutate_text(rng, gen, 1)]
        elif source == 1:
            given.write_text(QASM if on_device else mutate_text(rng, QASM, 1))
            inputs = ["--circuit", str(given)]
        else:
            path = given.with_suffix(".json")
            path.write_text(json.dumps(CIRCUIT if on_device else mutate_json(rng, CIRCUIT)))
            inputs = ["--circuit", str(path)]
        mode = rng.choice(["srefine", "vcycle", "exact"])
        codes.append(run_main(["compile", "--device", device, *inputs, "--mode", mode,
                               "--budget-scale", "0.001", "--seed", str(k)]))
        solution = tmp_path / "solution.json"
        solution.write_text(json.dumps(mutate_json(rng, bundle)))
        codes.append(run_main(["compile", "--mode", "verify", "--solution", str(solution)]))
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2}
    # the inputs reach every outcome: compiled or verified, failed, refused
    assert set(codes) == {0, 1, 2}
