"""Check that two checkouts give byte-identical answers on the perfbench
instance sets.

    python3 tools/same_answers.py OTHER_CHECKOUT --seeds 0,1,2
    python3 tools/same_answers.py OTHER_CHECKOUT --seeds 0 --workloads route-noncomm

Each workload's instance set is built with this checkout's
``perfbench/workloads.build`` and compiled with ``compile_instance`` against
the ``src/mlqls`` of each tree, one subprocess per tree, both at once. For
every workload the tool prints one digest per tree over all instances and
seeds (the sha256 of each solution's JSON, plus the proven/timed-out flags of
exact solves) with that tree's total SWAPs, and the first instance whose
answer differs. A change that means to alter answers reads its SWAP delta
from the same run. It exits 1 if any answer differs, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

MODULES = ("model", "verify", "cluster", "srefine", "exact", "flow")


def _answer_digest(lib, outcome) -> str:
    answer = {"solution": lib.verify.solution_to_json(outcome.solution)}
    if outcome.exact is not None:
        answer["proven_optimal"] = outcome.exact.proven_optimal
        answer["timed_out"] = outcome.exact.timed_out
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def emit(tree: Path, workloads_arg: list[str], seeds: list[int]) -> int:
    """Compile every instance against ``tree/src`` and print one JSON line
    per instance: workload, seed, label, answer digest and SWAP count."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    importlib.import_module("mlqls")
    lib = SimpleNamespace(**{m: sys.modules[f"mlqls.{m}"] for m in MODULES})
    if not Path(lib.model.__file__).resolve().is_relative_to(src):
        print(f"error: imported mlqls from {lib.model.__file__}, not {src}", file=sys.stderr)
        return 2
    for workload in workloads_arg:
        for seed in seeds:
            for inst in workloads.build(lib, workload, seed):
                outcome = workloads.compile_instance(lib, inst)
                row = dict(workload=workload, seed=seed, label=inst.label,
                           sha256=_answer_digest(lib, outcome),
                           swaps=lib.verify.swap_count(outcome.solution))
                print(json.dumps(row), flush=True)
    return 0


def _run_trees(trees: list[Path], workloads_arg: list[str], seeds: list[int]) -> list[list[dict]]:
    cmd = [sys.executable, __file__, "--emit", "--workloads", ",".join(workloads_arg),
           "--seeds", ",".join(map(str, seeds))]
    procs = [subprocess.Popen([*cmd, str(tree)], stdout=subprocess.PIPE, text=True)
             for tree in trees]
    outputs = [proc.communicate()[0] for proc in procs]
    for tree, proc in zip(trees, procs):
        if proc.returncode != 0:
            raise RuntimeError(f"compiling against {tree} failed with exit {proc.returncode}")
    return [[json.loads(line) for line in out.splitlines()] for out in outputs]


def compare(other: Path, workloads_arg: list[str], seeds: list[int]) -> int:
    trees = [ROOT, other.resolve()]
    if not all((t / "src" / "mlqls" / "__init__.py").is_file() for t in trees):
        print(f"error: {other} holds no src/mlqls package", file=sys.stderr)
        return 2
    mine, theirs = _run_trees(trees, workloads_arg, seeds)
    differ = False
    print(f"trees: this={ROOT} other={trees[1]}  seeds: {seeds}")
    for workload in workloads_arg:
        a = [r for r in mine if r["workload"] == workload]
        b = [r for r in theirs if r["workload"] == workload]
        da = hashlib.sha256("".join(r["sha256"] for r in a).encode()).hexdigest()
        db = hashlib.sha256("".join(r["sha256"] for r in b).encode()).hexdigest()
        same = da == db and len(a) == len(b)
        sa, sb = sum(r["swaps"] for r in a), sum(r["swaps"] for r in b)
        print(f"{workload:14s} {len(a):4d} instances  this {da[:16]} {sa:5d} swaps  "
              f"other {db[:16]} {sb:5d} swaps  {'same' if same else 'DIFFERENT'}")
        if not same:
            differ = True
            first = next(x or y for x, y in itertools.zip_longest(a, b) if x != y)
            print(f"  first difference: seed {first['seed']} instance {first['label']}")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", help="root of the checkout to compare against")
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated workload seeds")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS),
                        help="comma-separated perfbench workloads (default: all)")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        print(f"error: --seeds must be comma-separated integers, not {args.seeds!r}",
              file=sys.stderr)
        return 2
    workloads_arg = [w for w in args.workloads.split(",") if w]
    if not seeds or not workloads_arg:
        print("error: need at least one seed and one workload", file=sys.stderr)
        return 2
    if not set(workloads_arg) <= set(workloads.WORKLOADS):
        print(f"error: --workloads must name some of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.emit:
        return emit(Path(args.other), workloads_arg, seeds)
    return compare(Path(args.other), workloads_arg, seeds)


if __name__ == "__main__":
    raise SystemExit(main())
