"""Compile benchmark for mlqls.

One run compiles one workload's seeded instance set in a single process,
back to back (a closed loop with one client, no threads), checks every
output, and prints one JSON result as its last line:

    python3 perfbench/run.py --workload qaoa-vcycle --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference machine speed that a probe samples during the run (speed.py).
``--trace 1`` reports the per-layer metrics of a run with spans around each
layer (written to ``perfbench/out/``), without the probe. ``--all`` runs every workload, untraced then traced,
each in a fresh process, and prints one table. Run from the root of a
checkout that holds ``src/mlqls``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("model", "verify", "cluster", "srefine", "exact", "flow")
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "compile_ref_s": "s",
    "setup_s": "s",
    "routed_2q_gates": "count",
    "depth": "cycles",
    "peak_rss_mb": "MB",
    "verified_share": "share",
}
# Layer-specific metrics; every layer also gets "<layer>.calls" and "<layer>.self_s".
EXTRA_LAYER_UNITS = {
    "srefine.mapper.embedded_share": "share",
    "srefine.route.swaps": "count",
    "srefine.passes.per_call": "count",
    "srefine.run.candidates": "count",
    "exact.solve.timed_out": "count",
    "exact.solve.proven": "count",
    "cluster.levels": "count",
    "cluster.coarsest_qubits": "count",
    "cluster.coarsest_gates": "count",
    "flow.stage1_s": "s",
    "flow.vcycle_s": "s",
    "flow.vcycle_won": "count",
    "trace.compile_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_LAYER_UNITS)
    return units


def latency_summary(samples: list[float]) -> dict:
    """Per-instance compile time: the median and the highest whole
    percentile with at least ten samples beyond it, with the sample count."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    ordered = sorted(samples)
    k = 100 * (len(samples) - 10) // len(samples)
    if k > 50:
        out[f"p{k}"] = ordered[min(len(ordered) - 1, len(ordered) * k // 100)]
    return out


def run_record(workload: str, seed: int) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": loadavg,
    }


def set_up(workload: str, seed: int, smoke: bool):
    """Import mlqls afresh, build the devices and generate the circuits.
    Returns the modules, the instance set and the (start, end) clock
    readings around the work."""
    for name in [n for n in sys.modules if n == "mlqls" or n.startswith("mlqls.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("mlqls")
    lib = SimpleNamespace(**{m: sys.modules[f"mlqls.{m}"] for m in MODULES})
    instances = workloads.build(lib, workload, seed, smoke)
    return lib, instances, (start, time.perf_counter())


@dataclass
class Grade:
    """Checked outputs; the lists hold one total per round."""

    failures: list = field(default_factory=list)  # (instance label, reason)
    swaps: list = field(default_factory=list)
    depth: list = field(default_factory=list)
    routed_2q_gates: list = field(default_factory=list)  # two-qubit gates + 3 per SWAP
    exact_calls: int = 0
    proven: int = 0


def grade_rounds(lib, instances, rounds) -> Grade:
    """Check every output (see checks.py) and total the quality metrics of
    each round over the outputs that passed."""
    grade = Grade()
    oracle_cache: dict = {}
    for results in rounds:
        swaps = depth = routed = 0
        for inst, outcome in zip(instances, results):
            reason, sol_depth = checks.check(lib, inst, outcome, oracle_cache)
            if reason is not None:
                grade.failures.append((inst.label, reason))
                continue
            n = len(outcome.solution.swaps)
            swaps += n
            depth += sol_depth
            routed += sum(g.is_two_qubit for g in inst.circuit.gates) + 3 * n
            if outcome.exact is not None:
                grade.exact_calls += 1
                grade.proven += outcome.exact.proven_optimal
        grade.swaps.append(swaps)
        grade.depth.append(depth)
        grade.routed_2q_gates.append(routed)
    return grade


def measure(args) -> int:
    if not (SRC / "mlqls" / "__init__.py").is_file():
        print(f"error: no mlqls package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run_record(args.workload, args.seed)
    print("# record " + json.dumps(record), flush=True)
    if args.trace:
        return _measure(args, record, None)
    # Untraced runs sample the machine's speed throughout (speed.py); the
    # probe's own time is taken out of every measured window.
    probe = SpeedProbe()
    probe.start()
    try:
        return _measure(args, record, probe)
    finally:
        probe.stop()


def _measure(args, record: dict, probe: SpeedProbe | None) -> int:
    setups = []  # seconds without the probe
    setup_at = time.perf_counter()
    for _ in range(SETUP_REPEATS):
        if probe is not None:
            probe.sample()
        lib, instances, (start, end) = set_up(args.workload, args.seed, args.smoke)
        setups.append(end - start - (probe.busy_s(start, end) if probe else 0.0))
    if probe is not None:
        probe.sample()
    setup_at = (setup_at, time.perf_counter())
    if not Path(lib.model.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported mlqls from {lib.model.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install("mlqls")

    # Whole rounds over the instance set while the next one still fits in
    # --seconds; always at least one.
    rounds: list[list] = []
    round_at: list[tuple[float, float]] = []
    instance_at: list[tuple[float, float]] = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        if probe is not None:
            probe.sample()  # at least one sample inside every round
        results = []
        for inst in instances:
            if tracer is not None:
                tracer.run_id = len(instance_at)
            t0 = time.perf_counter()
            try:
                results.append(workloads.compile_instance(lib, inst, args.smoke))
            except Exception as exc:  # a failed instance is counted, not fatal
                traceback.print_exc()
                results.append(exc)
            instance_at.append((t0, time.perf_counter()))
        end = time.perf_counter()
        rounds.append(results)
        round_at.append((start, end))
        if end - begin + (end - start) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def wall_s(start: float, end: float) -> float:
        return end - start - (probe.busy_s(start, end) if probe else 0.0)

    round_s = [wall_s(*at) for at in round_at]
    instance_s = [wall_s(*at) for at in instance_at]

    grade = grade_rounds(lib, instances, rounds)
    for label, reason in grade.failures:
        print(f"FAILED {args.workload} seed {args.seed} {label}: {reason}", file=sys.stderr)
    attempted = len(instances) * len(rounds)
    compile_s = statistics.median(round_s)
    summary = {
        "compile_s": compile_s,
        "setup_wall_s": statistics.median(setups),
        "swaps": statistics.median(grade.swaps),
        "depth": statistics.median(grade.depth),
        "peak_rss_mb": peak_rss_mb,
        "failed_share": len(grade.failures) / attempted,
        "proven_share": grade.proven / grade.exact_calls if grade.exact_calls else None,
        "instances": len(instances),
        "rounds": len(rounds),
        "instance_s": latency_summary(instance_s),
    }
    if probe is not None:
        # Each round and the whole set-up phase scaled by the mean probe
        # sample inside it.
        summary["compile_ref_s"] = statistics.median(
            probe.reference_s(s, *at) for s, at in zip(round_s, round_at)
        )
        summary["setup_s"] = statistics.median(probe.reference_s(s, *setup_at) for s in setups)
        summary["probe_kernel_ms"] = 1000 * probe.kernel_s(round_at[0][0], round_at[-1][1])
        summary["probe_samples"] = len(probe.samples)
    print("# summary " + json.dumps(summary), flush=True)

    if tracer is None:
        values = {
            "compile_ref_s": summary["compile_ref_s"],
            "setup_s": summary["setup_s"],
            "routed_2q_gates": statistics.median(grade.routed_2q_gates),
            "depth": summary["depth"],
            "peak_rss_mb": peak_rss_mb,
            "verified_share": 1.0 - summary["failed_share"],
        }
        units = END_TO_END_UNITS
    else:
        values = tracer.layer_metrics(len(rounds))
        values["trace.compile_s"] = compile_s
        values["trace.unaccounted_s"] = sum(round_s) / len(rounds) - sum(
            values[f"{layer}.self_s"] for layer in LAYERS
        )
        values["trace.overhead_s"] = len(tracer.spans) / len(rounds) * Tracer.cost_per_span()
        units = per_layer_units()
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json", record)
    result = {
        "correct": not grade.failures,
        "attempted": attempted,
        "failed": len(grade.failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def _run_child(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run one workload in a fresh process; returns (summary, result)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    summary = next(json.loads(l[len("# summary "):]) for l in lines if l.startswith("# summary "))
    return summary, json.loads(lines[-1])


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced and traced, each in a fresh process: the
    summary metrics with units, the tracing overhead measured two ways
    (traced minus untraced compile_s, which machine drift blurs, and the
    span count times the cost of one span) and the traced self time summed
    over all layers."""
    cols = [("compile_s", "s"), ("compile_ref_s", "s"), ("setup_s", "s"), ("swaps", "count"), ("depth", "cycles"),
            ("peak_rss_mb", "MB"), ("failed_share", "share"), ("proven_share", "share")]
    head = [f"{n} [{u}]" for n, u in cols] + ["trace_diff_s", "span_cost_s", "layers_self_s"]
    print(f"{'workload':<14} " + " ".join(f"{h:>17}" for h in head))
    for workload in workloads.WORKLOADS:
        summary, _ = _run_child(workload, seed, seconds, 0)
        traced, layers = _run_child(workload, seed, seconds, 1)
        values = [summary[n] for n, _ in cols]
        diff = traced["compile_s"] - summary["compile_s"]
        span_cost = layers["metrics"]["trace.overhead_s"]["value"]
        self_s = sum(layers["metrics"][f"{layer}.self_s"]["value"] for layer in LAYERS)
        cells = ["n/a" if v is None else f"{v:.4g}" for v in values + [diff, span_cost, self_s]]
        print(f"{workload:<14} " + " ".join(f"{c:>17}" for c in cells), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instances and budgets")
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload or --all is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
