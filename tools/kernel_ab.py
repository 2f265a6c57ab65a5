"""Compare the CPU time of two checkouts' mapper, annealing, routing and
exact kernels on the same recorded inputs, in one process.

    python3 tools/kernel_ab.py OTHER_CHECKOUT --workload qaoa-vcycle --seeds 1,2
    python3 tools/kernel_ab.py OTHER_CHECKOUT --workload qaoa-vcycle --seeds 1 \
        --kernels sa_initial_mapping

The tool loads each tree's ``src/mlqls`` under its own package name. It
compiles the workload's perfbench instance sets for the given seeds with
this checkout's package, once each, and records the input of every
``srefine._initial_mapper_ex``, ``srefine.sa_initial_mapping``,
``srefine.forward_backward`` and ``exact.solve_exact`` call (the V cycle's
coarse solves and the exact-small instances); ``--kernels`` names a
comma-separated subset to record and replay, all four by default. Then it
replays each input ``REPLAYS`` times in both trees, alternating which tree
goes first from replay to replay, asserts that both give the same output
(for ``_initial_mapper_ex``: the mapping, the accepted and total pair
counts and the state of its ``random.Random`` after the call; for
``sa_initial_mapping``: the mapping and that state; for ``solve_exact``:
the solution JSON, ``proven_optimal``, ``timed_out`` and ``nodes``), and
prints per kernel the calls, each tree's CPU seconds
(``time.process_time``, summed over every replay), the ratio of those
totals and the median of the per-input ratios. The total ratio weighs the
long calls; the median is robust to one input that a noisy neighbour
slowed. A kernel's traced ``self_s`` in perfbench is wall time and drifts
with the host's speed between runs; here both trees run the same inputs
side by side, so a drift favours neither. It exits 1 if the outputs
differ, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import random
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

MODULES = ("model", "verify", "cluster", "srefine", "exact", "flow")
KERNELS = ("_initial_mapper_ex", "sa_initial_mapping", "forward_backward", "solve_exact")
REPLAYS = 3  # replays of each recorded input per tree


def load_tree(tree: Path, name: str) -> SimpleNamespace:
    """Import ``tree/src/mlqls`` as the package ``name``; its modules'
    relative imports then resolve inside that package."""
    init = tree / "src" / "mlqls" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return SimpleNamespace(**{m: sys.modules[f"{name}.{m}"] for m in MODULES})


def record(lib, workload: str, seeds: list[int], kernels) -> list[tuple[str, dict]]:
    """Compile the instance sets and return the input of every call of the
    named kernels as plain data: ``(kernel, args)``."""
    calls: list[tuple[str, dict]] = []
    srefine = lib.srefine
    real_mapper = srefine._initial_mapper_ex
    real_sa, real_fb = srefine.sa_initial_mapping, srefine.forward_backward

    def mapper(circuit, graph, budget_seconds, rng):  # as initial_mapper calls it
        calls.append(("_initial_mapper_ex", dict(
            circuit=lib.model.circuit_to_json(circuit),
            device=lib.model.device_to_json(graph),
            budget=budget_seconds,
            rng=rng.getstate(),
        )))
        return real_mapper(circuit, graph, budget_seconds, rng)

    def sa(circuit, graph, start, regions, rng):  # as srefine_run calls it
        calls.append(("sa_initial_mapping", dict(
            circuit=lib.model.circuit_to_json(circuit),
            device=lib.model.device_to_json(graph),
            start=start.assignment,
            regions=None if regions is None else [sorted(r) for r in regions.regions],
            rng=rng.getstate(),
        )))
        return real_sa(circuit, graph, start, regions, rng)

    def fb(circuit, graph, m0):
        calls.append(("forward_backward", dict(
            circuit=lib.model.circuit_to_json(circuit),
            device=lib.model.device_to_json(graph),
            start=m0.assignment,
        )))
        return real_fb(circuit, graph, m0)

    real_exact = lib.exact.solve_exact

    def exact(circuit, graph, cfg=None, warm_start=None):
        calls.append(("solve_exact", dict(
            circuit=lib.model.circuit_to_json(circuit),
            device=lib.model.device_to_json(graph),
            budgets=None if cfg is None else (cfg.post_first_solution_budget, cfg.overall_budget),
            warm_start=None if warm_start is None else lib.verify.solution_to_json(warm_start),
        )))
        return real_exact(circuit, graph, cfg, warm_start)

    # The flow calls the name it imported; exact-small calls the module's.
    if "_initial_mapper_ex" in kernels:
        srefine._initial_mapper_ex = mapper
    if "sa_initial_mapping" in kernels:
        srefine.sa_initial_mapping = sa
    if "forward_backward" in kernels:
        srefine.forward_backward = fb
    if "solve_exact" in kernels:
        lib.flow.solve_exact = lib.exact.solve_exact = exact
    try:
        for seed in seeds:
            for inst in workloads.build(lib, workload, seed):
                workloads.compile_instance(lib, inst)
    finally:
        srefine._initial_mapper_ex = real_mapper
        srefine.sa_initial_mapping, srefine.forward_backward = real_sa, real_fb
        lib.flow.solve_exact = lib.exact.solve_exact = real_exact
    return calls


class Replayer:
    """Runs recorded inputs against one tree's package, building each
    distinct circuit and device once."""

    def __init__(self, lib):
        self.lib = lib
        self.cache: dict[str, object] = {}

    def _built(self, kind: str, data: dict):
        key = kind + json.dumps(data, sort_keys=True)
        if key not in self.cache:
            model = self.lib.model
            build = model.circuit_from_json if kind == "circuit" else model.device_from_json
            self.cache[key] = build(data)
        return self.cache[key]

    def run(self, kernel: str, args: dict) -> tuple[float, object]:
        """CPU seconds of one call, and its output as plain data."""
        lib = self.lib
        call_args = [self._built("circuit", args["circuit"]), self._built("device", args["device"])]
        if kernel == "solve_exact":
            budgets, warm_start = args["budgets"], args["warm_start"]
            call_args += [
                None if budgets is None else lib.exact.ExactConfig(*budgets),
                None if warm_start is None else lib.verify.solution_from_json(warm_start),
            ]
            module = lib.exact
        elif kernel == "_initial_mapper_ex":
            rng = random.Random()
            rng.setstate(args["rng"])
            call_args += [args["budget"], rng]
            module = lib.srefine
        else:
            call_args.append(lib.model.Mapping(tuple(args["start"])))
            if kernel == "sa_initial_mapping":
                regions = None
                if args["regions"] is not None:
                    regions = lib.cluster.MappingRegion(
                        tuple(frozenset(r) for r in args["regions"])
                    )
                rng = random.Random()
                rng.setstate(args["rng"])
                call_args += [regions, rng]
            module = lib.srefine
        gc.collect()
        t0 = time.process_time()
        out = getattr(module, kernel)(*call_args)
        seconds = time.process_time() - t0
        if kernel == "_initial_mapper_ex":
            mapping, accepted, total = out
            assignment = None if mapping is None else mapping.assignment
            return seconds, (assignment, accepted, total, rng.getstate())
        if kernel == "sa_initial_mapping":
            return seconds, (out.assignment, rng.getstate())
        if kernel == "solve_exact":
            flags = (out.proven_optimal, out.timed_out, out.nodes)
            return seconds, (lib.verify.solution_to_json(out.solution), *flags)
        return seconds, lib.verify.solution_to_json(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", help="root of the checkout to compare against")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--kernels", default=",".join(KERNELS),
                        help=f"comma-separated kernels to replay (default: {','.join(KERNELS)})")
    args = parser.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, not {args.seeds!r}")
    if not seeds:
        parser.error("--seeds needs at least one seed")
    kernels = [k for k in KERNELS if k in args.kernels.split(",")]
    if set(args.kernels.split(",")) - set(KERNELS):
        parser.error(f"--kernels takes names from {','.join(KERNELS)}, not {args.kernels!r}")
    other = Path(args.other).resolve()
    if not (other / "src" / "mlqls" / "__init__.py").is_file():
        parser.error(f"{other} holds no src/mlqls package")

    libs = {"this": load_tree(ROOT, "mlqls_ab_this"), "other": load_tree(other, "mlqls_ab_other")}
    calls = record(libs["this"], args.workload, seeds, kernels)
    replayers = {name: Replayer(lib) for name, lib in libs.items()}
    cpu = {(tree, kernel): 0.0 for tree in libs for kernel in kernels}
    count = dict.fromkeys(kernels, 0)
    ratios: dict[str, list[float]] = {kernel: [] for kernel in kernels}
    for i, (kernel, kernel_args) in enumerate(calls):
        spent = dict.fromkeys(libs, 0.0)
        for r in range(REPLAYS):
            order = ("this", "other") if (i + r) % 2 == 0 else ("other", "this")
            outputs = {}
            for tree in order:
                seconds, outputs[tree] = replayers[tree].run(kernel, kernel_args)
                spent[tree] += seconds
            if outputs["this"] != outputs["other"]:
                print(f"error: call {i} of {kernel} gives different outputs", file=sys.stderr)
                return 1
        for tree, seconds in spent.items():
            cpu[tree, kernel] += seconds
        count[kernel] += 1
        if spent["other"]:
            ratios[kernel].append(spent["this"] / spent["other"])

    print(f"this={ROOT}  other={other}  workload={args.workload}  seeds={seeds}  "
          f"replays={REPLAYS}")
    print(f"{'kernel':<20} {'calls':>6} {'this cpu_s':>11} {'other cpu_s':>12} "
          f"{'this/other':>11} {'median ratio':>13}")
    for kernel in kernels:
        mine, theirs = cpu["this", kernel], cpu["other", kernel]
        ratio = f"{mine / theirs:.3f}" if theirs else "n/a"
        median = f"{statistics.median(ratios[kernel]):.3f}" if ratios[kernel] else "n/a"
        print(f"{kernel:<20} {count[kernel]:>6} {mine:>11.3f} {theirs:>12.3f} {ratio:>11} "
              f"{median:>13}")
    print("outputs: same on every call")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
