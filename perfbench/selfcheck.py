"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Runs every workload on tiny instances (``--smoke``), untraced and traced,
   and asserts that the result line names every metric of BENCHMARK.json
   with its unit, and that every output passed the checks.
2. Drops one SWAP from a real solution and asserts that the correctness
   gate counts that instance as failed.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   perfbench/, and asserts that it exits non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_metrics_print() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                          "--trace", trace, "--smoke")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, proc.stderr)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics")


def check_corrupted_solution_fails() -> None:
    sys.path.insert(0, str(run.SRC))
    lib, instances, _ = run.set_up("route-noncomm", 0, smoke=True)
    inst = instances[0]
    good = workloads.compile_instance(lib, inst, smoke=True)
    assert good.solution.swaps, "the smoke instance needs at least one SWAP"
    sol = good.solution
    broken = workloads.Outcome(type(sol)(sol.block_mappings, sol.gate_block, sol.swaps[:-1], sol.depth), None)
    grade = run.grade_rounds(lib, [inst, inst], [[good, broken]])
    assert [label for label, _ in grade.failures] == [inst.label], grade.failures
    print(f"ok   dropped SWAP counted as failed: {grade.failures[0][1]}")


def check_fails_without_program() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _bench(bare, "--workload", "exact-small", "--seed", "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"ok   without src/mlqls: exit {proc.returncode}")


if __name__ == "__main__":
    check_metrics_print()
    check_corrupted_solution_fails()
    check_fails_without_program()
    print("selfcheck passed")
