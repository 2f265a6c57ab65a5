"""Command-line front end: compile circuits onto devices, verify solution
files, and run benchmark suites into CSV/Markdown tables."""

from __future__ import annotations

import argparse
import json
import math
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
    if spec.startswith("grid:"):
        return make_device("grid", int(spec.split(":")[1]))
    if spec.startswith("path:"):
        return make_device("path", int(spec.split(":")[1]))
    if spec in ("sycamore", "sycamore54"):
        return make_device("sycamore54")
    if spec in ("eagle", "eagle127"):
        return make_device("eagle127")
    if spec.startswith("file:"):
        return load_device(spec.split(":", 1)[1])
    raise ValueError(f"unknown device spec {spec!r}")


def _parse_kv(text: str) -> dict[str, str]:
    out = {}
    for part in text.split(","):
        if not part:
            continue
        key, _, value = part.partition("=")
        out[key.strip()] = value.strip()
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
    kv = _parse_kv(rest)
    if kind == "queko":
        depth = int(kv.get("depth", "10"))
        density = float(kv.get("density", "0.5"))
        circuit, _ = gen_queko(device, depth, density, seed)
        return circuit
    if kind in ("qaoa", "chain"):
        if "n" not in kv:
            raise ValueError(f"generator {kind!r} needs n=N")
        n = int(kv["n"])
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
            "initial_swaps": swap_count(result.initial),
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


def cmd_compile(args: argparse.Namespace) -> int:
    """Run ``mlqls compile`` with its parsed command-line arguments."""
    _check_budget_scale(args.budget_scale)
    device = parse_device_spec(args.device) if args.device else None
    if args.mode == "verify":
        return _cmd_verify(args, device)
    if device is None:
        raise ValueError("--device is required")
    circuit = build_circuit(device, args.circuit, args.gen, args.seed)
    t0 = time.monotonic()
    sol, extra = _solve(args.mode, circuit, device, args.seed, args.budget_scale)
    seconds = time.monotonic() - t0
    if not args.dump_levels:
        extra.pop("levels", None)
    report = verify(circuit, device, sol)
    if not report.ok:  # internal bug: solvers must emit valid solutions
        print(f"INTERNAL ERROR: solution failed verification: {report.first_failure()}")
        return 1
    bundle = {
        "device": device_to_json(device),
        "circuit": circuit_to_json(circuit),
        "solution": solution_to_json(sol),
        "meta": {
            "mode": args.mode,
            "seed": args.seed,
            "swaps": swap_count(sol),
            "depth": sol.depth,
            "seconds": round(seconds, 3),
            **extra,
        },
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(bundle, fh, indent=2)
    print(
        f"mode={args.mode} qubits={circuit.num_qubits} gates={len(circuit.gates)} "
        f"swaps={swap_count(sol)} depth={sol.depth} seconds={seconds:.2f}"
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

_CSV_HEADER = "suite,circuit,device,mode,seed,qubits,gates,swaps,depth,seconds,verified"


def _bench_jobs(suite: str, devices: list[str], depths: list[int], sizes: list[int],
                seeds: int, modes: list[str], density: float) -> list[dict]:
    # (device, generator, seed, label) per instance
    if suite == "queko":
        instances = [
            (dev, f"queko:depth={depth},density={density}", seed, f"queko_d{depth}_s{seed}")
            for dev in devices for depth in depths for seed in range(seeds)
        ]
    elif suite in ("qaoa", "chain"):
        # Without --devices, each size gets the smallest square grid that holds it.
        instances = [
            (dev, f"{suite}:n={n}", seed, f"qaoa_{n}_s{seed}" if suite == "qaoa" else f"chain_{n}")
            for n in sizes
            for dev in devices or [f"grid:{math.isqrt(n - 1) + 1}"]
            for seed in range(seeds)
        ]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return [
        dict(suite=suite, device=dev, gen=gen, label=label, seed=seed, mode=mode)
        for dev, gen, seed, label in instances for mode in modes
    ]


def _run_bench_job(job: dict) -> dict:
    device = parse_device_spec(job["device"])
    circuit = build_circuit(device, gen=job["gen"], seed=job["seed"])
    t0 = time.monotonic()
    sol, _ = _solve(job["mode"], circuit, device, job["seed"], job["budget_scale"])
    seconds = time.monotonic() - t0
    ok = verify(circuit, device, sol).ok
    return dict(
        suite=job["suite"], circuit=job["label"], device=job["device"], mode=job["mode"],
        seed=job["seed"], qubits=circuit.num_qubits, gates=len(circuit.gates),
        swaps=swap_count(sol), depth=sol.depth, seconds=round(seconds, 3), verified=ok,
    )


def cmd_bench(suite: str, devices: list[str], depths: list[int], sizes: list[int],
              seeds: int, modes: list[str], density: float = 0.5,
              out: str | None = None, budget_scale: float = 0.01) -> int:
    _check_budget_scale(budget_scale)
    if not modes or not set(modes) <= set(_SOLVE_MODES) or len(set(modes)) < len(modes):
        raise ValueError(
            f"--modes must list one or more of {', '.join(_SOLVE_MODES)}, each once, not {modes}"
        )
    jobs = _bench_jobs(suite, devices, depths, sizes, seeds, modes, density)
    if not jobs:
        needs = "--devices and --depths" if suite == "queko" else "--sizes"
        raise ValueError(
            f"suite {suite!r} has no instances: it needs {needs} and --seeds of at least 1"
        )
    for job in jobs:
        job["budget_scale"] = budget_scale
    rows = [_run_bench_job(job) for job in jobs]
    rows.sort(key=lambda r: (r["suite"], r["circuit"], r["device"], r["mode"], r["seed"]))
    csv_lines = [_CSV_HEADER]
    for r in rows:
        csv_lines.append(
            f"{r['suite']},{r['circuit']},{r['device']},{r['mode']},{r['seed']},"
            f"{r['qubits']},{r['gates']},{r['swaps']},{r['depth']},{r['seconds']},{r['verified']}"
        )
    csv_text = "\n".join(csv_lines) + "\n"
    md_text = _markdown_table(rows, modes)
    if out:
        with open(out, "w") as fh:
            fh.write(csv_text)
        md_path = out.rsplit(".", 1)[0] + ".md"
        with open(md_path, "w") as fh:
            fh.write(md_text)
    print(md_text)
    return 0


def _markdown_table(rows: list[dict], modes: list[str]) -> str:
    lines = [
        "| circuit | device | mode | swaps | depth | seconds |",
        "|---|---|---|---:|---:|---:|",
    ]
    for r in rows:
        lines.append(
            f"| {r['circuit']} | {r['device']} | {r['mode']} | {r['swaps']} "
            f"| {r['depth']} | {r['seconds']} |"
        )
    baseline = modes[-1]
    by_instance: dict[tuple, dict[str, int]] = {}
    for r in rows:
        by_instance.setdefault((r["circuit"], r["device"], r["seed"]), {})[r["mode"]] = r["swaps"]
    ratio_cells = []
    for mode in modes:
        ratios = [
            (per_mode[mode] + 1) / (per_mode[baseline] + 1)
            for per_mode in by_instance.values()
            if mode in per_mode and baseline in per_mode
        ]
        if ratios:
            geo = math.exp(sum(math.log(x) for x in ratios) / len(ratios))
            ratio_cells.append(f"{mode}={geo:.2f}")
    lines.append("")
    lines.append(
        f"Geo. ratio of (swaps+1) vs {baseline}: " + ", ".join(ratio_cells)
    )
    return "\n".join(lines) + "\n"


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
    pc.add_argument("--dump-levels", action="store_true")
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
    pb.add_argument("--out", help="CSV output path (Markdown written alongside)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compile":
            return cmd_compile(args)
        devices = [d for d in args.devices.split(",") if d]
        depths = [int(x) for x in args.depths.split(",") if x]
        sizes = [int(x) for x in args.sizes.split(",") if x]
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
