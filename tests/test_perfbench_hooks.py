"""The compile benchmark in perfbench/ traces package callables by module and
attribute name, and builds solver configs by field name. A renamed or removed
callable would leave its layer at zero in a traced run instead of failing,
and a removed config field would fail only the benchmark run, so check both
here."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPANS = _ROOT / "perfbench" / "spans.py"
_WORKLOADS = ("qaoa-vcycle", "queko-zero", "route-noncomm", "exact-small")


def test_every_traced_layer_is_a_package_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    missing = [
        f"{layer}: mlqls.{module}.{attr}"
        for layer, (module, attr) in spans.LAYERS.items()
        if not callable(getattr(importlib.import_module(f"mlqls.{module}"), attr, None))
    ]
    assert not missing, missing


def _smoke_run(workload: str, trace: int) -> tuple[dict, str]:
    """One smoke run of the benchmark; returns its result line and stderr."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    return result, proc.stderr


# The traced layers' counters read what astar_insert and run_mlqls return,
# so a change to those results fails here instead of leaving a layer at 0.
_ROUTES_WITH_SWAPS = ("qaoa-vcycle", "route-noncomm")


@pytest.mark.parametrize("workload", _WORKLOADS)
def test_benchmark_smoke_run_is_correct(workload):
    _smoke_run(workload, 0)
    result, stderr = _smoke_run(workload, 1)
    assert "not found" not in stderr, stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["srefine.route.calls"] > 0
    if workload in _ROUTES_WITH_SWAPS:
        assert metrics["srefine.route.swaps"] > 0
    # Each answer is checked once where a solver hands it out: once per
    # forward/backward call, and by the exact solver at the end and, in the
    # flow, on its warm start.
    k = 1 if workload == "exact-small" else 2
    assert metrics["verify.check.calls"] == pytest.approx(
        metrics["srefine.passes.calls"] + k * metrics["exact.solve.calls"]
    )
