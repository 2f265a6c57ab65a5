"""Command-line front end: compile circuits onto devices, verify solution
files, and run benchmark suites into JSON-lines run records."""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

from .exact import ExactConfig, solve_exact
from .flow import FlowConfig, run_mlqls
from .model import (
    Circuit,
    CouplingGraph,
    _json_field,
    circuit_from_json,
    circuit_to_json,
    device_from_json,
    device_to_json,
    gen_chain,
    gen_qaoa,
    gen_queko,
    load_device,
    load_json,
    make_device,
    parse_qasm,
)
from .srefine import SrefineConfig, srefine_run
from .verify import (
    QlsSolution,
    asap_depth,
    solution_from_json,
    solution_to_json,
    swap_count,
    verify,
)

# Paper-scale budgets in seconds, multiplied by --budget-scale (positive; inf
# lifts every limit); the searches turn them into node budgets at fixed rates.
_MAPPER_FIRST_SECONDS = 1000.0
_MAPPER_NEXT_SECONDS = 100.0
_EXACT_POST_FIRST_SECONDS = 100.0
_EXACT_OVERALL_SECONDS = 300.0

_SOLVE_MODES = ("srefine", "vcycle", "exact")


def parse_device_spec(spec: str) -> CouplingGraph:
    """The device a ``--device`` spec names; ValueError naming the spec when
    it is malformed."""
    kind, sep, arg = spec.partition(":")
    if sep and kind in ("grid", "path"):
        return make_device(kind, _spec_value(spec, "size", arg, int))
    if spec in ("sycamore", "sycamore54"):
        return make_device("sycamore54")
    if spec in ("eagle", "eagle127"):
        return make_device("eagle127")
    if sep and kind == "file":
        return load_device(arg)
    raise ValueError(f"unknown device spec {spec!r}")


def _spec_value(spec: str, name: str, text: str, kind: type):
    """``text`` read as an int (decimal digits only) or a float; ValueError
    naming the spec and the field ``name`` otherwise."""
    try:
        if kind is int and not text.isdecimal():
            raise ValueError
        return kind(text)
    except ValueError:
        problem = f"{name} must be {kind.__name__}, not {text!r}"
        raise ValueError(f"malformed spec {spec!r}: {problem}") from None


def _parse_kv(spec: str, text: str, keys: tuple[str, ...]) -> dict[str, str]:
    """The ``key=value`` pairs of a generator spec's ``text``; ValueError
    naming the spec on a pair without ``=``, a key not in ``keys`` or a
    repeated key."""
    out = {}
    for part in text.split(","):
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep:
            problem = f"{part!r} has no '='"
        elif key not in keys:
            problem = f"unknown key {key!r}"
        elif key in out:
            problem = f"repeated key {key!r}"
        else:
            out[key] = value.strip()
            continue
        raise ValueError(f"malformed spec {spec!r}: {problem} (keys: {', '.join(keys)})")
    return out


def build_circuit(
    device: CouplingGraph, circuit_file: str | None = None, gen: str | None = None, seed: int = 0
) -> Circuit:
    """Read ``circuit_file`` (QASM or circuit JSON) or generate from ``gen``."""
    if (circuit_file is None) == (gen is None):
        raise ValueError("exactly one of --circuit and --gen is required")
    if circuit_file is not None:
        with open(circuit_file) as fh:
            if circuit_file.endswith(".json"):
                return circuit_from_json(load_json(fh))
            return parse_qasm(fh.read())
    kind, _, rest = gen.partition(":")
    if kind == "queko":
        kv = _parse_kv(gen, rest, ("depth", "density"))
        depth = _spec_value(gen, "depth", kv.get("depth", "10"), int)
        density = _spec_value(gen, "density", kv.get("density", "0.5"), float)
        circuit, _ = gen_queko(device, depth, density, seed)
        return circuit
    if kind in ("qaoa", "chain"):
        kv = _parse_kv(gen, rest, ("n",))
        if "n" not in kv:
            raise ValueError(f"generator {kind!r} needs n=N")
        n = _spec_value(gen, "n", kv["n"], int)
        return gen_qaoa(n, seed) if kind == "qaoa" else gen_chain(n)
    raise ValueError(f"unknown generator {kind!r}")


def _solve(
    mode: str, circuit: Circuit, device: CouplingGraph, seed: int, scale: float
) -> tuple[QlsSolution, dict]:
    """Run one solver with the paper budgets times ``scale``; returns the
    solution and the mode's extra bundle metadata."""
    srefine_cfg = SrefineConfig(
        mapper_first_budget=_MAPPER_FIRST_SECONDS * scale,
        mapper_next_budget=_MAPPER_NEXT_SECONDS * scale,
    )
    if mode == "srefine":
        return srefine_run(circuit, device, None, srefine_cfg, random.Random(seed)), {}
    exact_cfg = ExactConfig(
        post_first_solution_budget=_EXACT_POST_FIRST_SECONDS * scale,
        overall_budget=_EXACT_OVERALL_SECONDS * scale,
    )
    if mode == "vcycle":
        result = run_mlqls(
            circuit, device, FlowConfig(seed=seed, srefine=srefine_cfg, exact=exact_cfg)
        )
        return result.final, {
            "stats": [
                {"stage": s.stage, "swaps": s.swaps, "seconds": round(s.seconds, 3)}
                for s in result.stats
            ],
            "levels": result.levels.to_json(),
        }
    if mode == "exact":
        res = solve_exact(circuit, device, exact_cfg)
        return res.solution, {
            "proven_optimal": res.proven_optimal,
            "timed_out": res.timed_out,
            "nodes": res.nodes,
        }
    raise ValueError(f"unknown mode {mode!r}")


def _check_budget_scale(scale: float) -> None:
    if not scale > 0:  # also catches nan
        raise ValueError(f"--budget-scale must be positive (inf for no limit), not {scale}")


def _compile_run(
    mode: str, circuit: Circuit, device: CouplingGraph, seed: int, scale: float
) -> tuple[QlsSolution, dict]:
    """Solve ``circuit`` on ``device`` through ``_solve``, timed and verified;
    returns the solution and its run record: mode, seed, sizes, SWAPs, depth,
    seconds, whether it verified, and the mode's extra metadata."""
    t0 = time.monotonic()
    sol, extra = _solve(mode, circuit, device, seed, scale)
    seconds = time.monotonic() - t0
    return sol, dict(
        mode=mode, seed=seed, qubits=circuit.num_qubits, gates=len(circuit.gates),
        swaps=swap_count(sol), depth=sol.depth, seconds=round(seconds, 3),
        verified=verify(circuit, device, sol).ok, **extra,
    )


def cmd_compile(args: argparse.Namespace) -> int:
    """Run ``mlqls compile`` with its parsed command-line arguments."""
    _check_budget_scale(args.budget_scale)
    device = parse_device_spec(args.device) if args.device else None
    if args.mode == "verify":
        return _cmd_verify(args, device)
    if device is None:
        raise ValueError("--device is required")
    circuit = build_circuit(device, args.circuit, args.gen, args.seed)
    sol, meta = _compile_run(args.mode, circuit, device, args.seed, args.budget_scale)
    if not meta["verified"]:  # internal bug: solvers must emit valid solutions
        failure = verify(circuit, device, sol).first_failure()
        print(f"INTERNAL ERROR: solution failed verification: {failure}")
        return 1
    bundle = {
        "device": device_to_json(device),
        "circuit": circuit_to_json(circuit),
        "solution": solution_to_json(sol),
        "meta": meta,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(bundle, fh, indent=2)
    print(
        f"mode={args.mode} qubits={meta['qubits']} gates={meta['gates']} "
        f"swaps={meta['swaps']} depth={meta['depth']} seconds={meta['seconds']:.2f}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace, device: CouplingGraph | None) -> int:
    if not args.solution:
        raise ValueError("--mode verify requires --solution")
    with open(args.solution) as fh:
        data = load_json(fh)
    if isinstance(data, dict) and "solution" in data:  # bundle written by cmd_compile
        circuit = circuit_from_json(data.get("circuit"))
        device = device_from_json(data.get("device"))
        data = data["solution"]
    else:
        if args.circuit is None or device is None:
            raise ValueError("bare solution file needs --circuit and --device")
        circuit = build_circuit(device, args.circuit, args.gen, args.seed)
    sol = solution_from_json(data)
    recorded_swaps = _json_field(data, "swap_count", int, "solution", default=None)
    report = verify(circuit, device, sol)
    if not report.ok:
        print(f"FAIL {report.first_failure()}")
        return 1
    swaps, depth = swap_count(sol), asap_depth(circuit, sol)
    # A recorded figure may be absent, but one that is given must be right.
    mismatches = [
        f"FAIL {name}: recorded {recorded}, {measure} {actual}"
        for name, recorded, measure, actual in (
            ("swap_count", recorded_swaps, "SWAPs listed", swaps),
            ("depth", sol.depth, "ASAP depth", depth),
        )
        if recorded is not None and recorded != actual
    ]
    if mismatches:
        print("\n".join(mismatches))
        return 1
    print(f"OK swaps={swaps} depth={depth}")
    if report.overlapping_gaps:
        print(f"note: gaps with overlapping swaps: {list(report.overlapping_gaps)}")
    return 0


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------

def _bench_instances(suite: str, devices: list[str], depths: list[int], sizes: list[int],
                     seeds: int, density: float) -> list[tuple]:
    """(label, device spec, device, circuit, seed) per instance, every device
    and circuit built before any solve; ValueError naming the option and the
    value that an instance cannot be built from."""
    # (device spec, depth or size, seed, label, the options that chose the circuit)
    if suite == "queko":
        specs = [
            (dev, depth, seed, f"queko_d{depth}_s{seed}", f"--depths {depth} (--density {density})")
            for dev in devices for depth in depths for seed in range(seeds)
        ]
    elif suite in ("qaoa", "chain"):
        # Without --devices, each size gets the smallest square grid that holds it.
        specs = [
            (dev, n, seed, f"qaoa_{n}_s{seed}" if suite == "qaoa" else f"chain_{n}", f"--sizes {n}")
            for n in sizes
            for dev in devices or [f"grid:{math.isqrt(max(n - 1, 1)) + 1}"]
            for seed in range(seeds)
        ]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    graphs: dict[str, CouplingGraph] = {}
    instances = []
    for dev, value, seed, label, options in specs:
        if dev not in graphs:
            try:
                graphs[dev] = parse_device_spec(dev)
            except ValueError as exc:
                raise ValueError(f"--devices {dev}: {exc}") from None
        try:
            if suite == "queko":
                circuit, _ = gen_queko(graphs[dev], value, density, seed)
            else:
                circuit = gen_qaoa(value, seed) if suite == "qaoa" else gen_chain(value)
            if circuit.num_qubits > graphs[dev].num_physical:
                raise ValueError(f"{circuit.num_qubits} qubits do not fit on {dev}")
        except ValueError as exc:
            raise ValueError(f"{options}: {exc}") from None
        instances.append((label, dev, graphs[dev], circuit, seed))
    return instances


def cmd_bench(suite: str, devices: list[str], depths: list[int], sizes: list[int],
              seeds: int, modes: list[str], density: float = 0.5,
              out: str | None = None, budget_scale: float = 0.01) -> int:
    """Run every mode on every instance of ``suite`` and print one JSON run
    record per run, also written to ``out`` when given."""
    _check_budget_scale(budget_scale)
    if not modes or not set(modes) <= set(_SOLVE_MODES) or len(set(modes)) < len(modes):
        raise ValueError(
            f"--modes must list one or more of {', '.join(_SOLVE_MODES)}, each once, not {modes}"
        )
    instances = _bench_instances(suite, devices, depths, sizes, seeds, density)
    if not instances:
        needs = "--devices and --depths" if suite == "queko" else "--sizes"
        raise ValueError(
            f"suite {suite!r} has no instances: it needs {needs} and --seeds of at least 1"
        )
    jobs = [(*instance, mode) for instance in instances for mode in modes]
    jobs.sort(key=lambda job: (job[0], job[1], job[5], job[4]))  # label, device, mode, seed
    with open(out or os.devnull, "w") as fh:
        for label, dev, device, circuit, seed, mode in jobs:
            _, record = _compile_run(mode, circuit, device, seed, budget_scale)
            line = json.dumps({"suite": suite, "circuit": label, "device": dev, **record})
            print(line, flush=True)
            fh.write(line + "\n")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mlqls", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compile", help="compile one circuit onto a device (or verify a solution)")
    pc.add_argument("--device", default=None,
                    help="grid:N | path:N | sycamore | eagle | file:PATH")
    pc.add_argument("--circuit", help="QASM or circuit-JSON file")
    pc.add_argument("--gen", help="queko:depth=D,density=X | qaoa:n=N | chain:n=N")
    pc.add_argument("--mode", default="vcycle", choices=[*_SOLVE_MODES, "verify"])
    pc.add_argument("--solution", help="solution JSON for --mode verify")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--budget-scale", type=float, default=0.01)
    pc.add_argument("--out", help="write solution bundle JSON here")

    pb = sub.add_parser("bench", help="run a benchmark suite")
    pb.add_argument("--suite", required=True, choices=["queko", "qaoa", "chain"])
    pb.add_argument("--devices", default="", help="comma-separated device specs")
    pb.add_argument("--depths", default="5,10", help="queko optimal depths")
    pb.add_argument("--sizes", default="", help="qaoa/chain qubit counts")
    pb.add_argument("--seeds", type=int, default=3)
    pb.add_argument("--modes", default="srefine,vcycle")
    pb.add_argument("--density", type=float, default=0.5)
    pb.add_argument("--budget-scale", type=float, default=0.01)
    pb.add_argument("--out", help="also write the JSON-lines records here")
    return parser


def _int_list(option: str, text: str) -> list[int]:
    """The comma-separated integers of ``text``; ValueError naming ``option``
    and the first entry that is not one."""
    values = []
    for entry in filter(None, text.split(",")):
        try:
            values.append(int(entry))
        except ValueError:
            raise ValueError(f"{option} {entry}: not an integer") from None
    return values


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compile":
            return cmd_compile(args)
        devices = [d for d in args.devices.split(",") if d]
        depths = _int_list("--depths", args.depths)
        sizes = _int_list("--sizes", args.sizes)
        modes = [m for m in args.modes.split(",") if m]
        if args.suite == "queko" and not devices:
            devices = ["grid:4"]
        return cmd_bench(
            args.suite, devices, depths, sizes, args.seeds, modes,
            density=args.density, out=args.out, budget_scale=args.budget_scale,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
