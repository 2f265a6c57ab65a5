"""Compare this checkout's benchmark metrics with another checkout's, in
alternating pairs of untraced runs.

    python3 tools/paired_bench.py OTHER_CHECKOUT --workload queko-zero --seeds 1,2,3,4,5,6,7,8,9,10

For each seed the tool runs ``perfbench/run.py --trace 0`` once in each tree,
each with that tree's own ``perfbench`` and ``src/mlqls``, one run at a time,
for the ``run_seconds`` that ``BENCHMARK.json`` sets.
The tree that goes first alternates from seed to seed, so a host that drifts
in speed favours neither. It then prints, per end-to-end metric of
``BENCHMARK.json``, the median and quartiles over the seeds in each tree, the
change of the median, and on how many seeds this checkout was better. Last
it prints each tree's median number of rounds, from the runs' ``# summary``
lines: perfbench keeps every round's outputs until it grades them, so a tree
that fits more rounds into ``run_seconds`` reads a higher ``peak_rss_mb``. It
exits 1 if a run fails, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict[str, float]:
    """One untraced run in ``tree``; returns its metric values by name, and
    its number of rounds as ``rounds``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{tree}: {' '.join(cmd[1:])} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    values = {name: m["value"] for name, m in metrics.items()}
    summary = next(line for line in lines if line.startswith("# summary "))
    values["rounds"] = json.loads(summary.removeprefix("# summary "))["rounds"]
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", help="root of the checkout to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, not {args.seeds!r}")
    if not seeds:
        parser.error("--seeds needs at least one seed")
    other = Path(args.other).resolve()
    if not (other / "perfbench" / "run.py").is_file():
        parser.error(f"{other} holds no perfbench/run.py")

    trees = {"this": ROOT, "other": other}
    runs: dict[str, list[dict[str, float]]] = {"this": [], "other": []}
    seconds = benchmark["run_seconds"]
    for i, seed in enumerate(seeds):
        order = ("this", "other") if i % 2 == 0 else ("other", "this")
        for name in order:
            try:
                runs[name].append(run_once(trees[name], args.workload, seed, seconds))
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        pair = "  ".join(f"{name} {runs[name][-1]['compile_ref_s']:.4g}" for name in order)
        print(f"seed {seed}: compile_ref_s {pair}", flush=True)

    print(f"\nthis={ROOT}  other={other}  workload={args.workload}  seeds={seeds}")
    print(f"{'metric':<16} {'this q1/median/q3':>30} {'other q1/median/q3':>30} "
          f"{'change':>8} {'wins':>6}")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        mine = [r[name] for r in runs["this"]]
        theirs = [r[name] for r in runs["other"]]
        lower = metric["better"] == "lower"
        wins = sum((a < b) if lower else (a > b) for a, b in zip(mine, theirs))
        qa, qb = quartiles(mine), quartiles(theirs)
        change = f"{(qa[1] - qb[1]) / qb[1]:+.1%}" if qb[1] else "n/a"
        print(f"{name:<16} {'/'.join(f'{v:.4g}' for v in qa):>30} "
              f"{'/'.join(f'{v:.4g}' for v in qb):>30} {change:>8} "
              f"{f'{wins}/{len(seeds)}':>6}")
    rounds = {name: statistics.median(r["rounds"] for r in runs[name]) for name in trees}
    print(f"median rounds: this {rounds['this']:g}  other {rounds['other']:g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
