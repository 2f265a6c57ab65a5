"""Spans around the layers of mlqls, recorded from outside the package.

Each layer is a module-level callable. The package binds names with
``from .x import y``, so a wrapper is installed in every ``mlqls`` module
namespace that holds the original function; calls made inside the package
then go through the wrapper too. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Layer name -> (defining module, attribute).
LAYERS = {
    "srefine.mapper": ("srefine", "_initial_mapper_ex"),
    "srefine.anneal": ("srefine", "sa_initial_mapping"),
    "srefine.route": ("srefine", "astar_insert"),
    "srefine.passes": ("srefine", "forward_backward"),
    "srefine.match": ("srefine", "initial_matching"),
    "srefine.run": ("srefine", "srefine_run"),
    "exact.solve": ("exact", "solve_exact"),
    "cluster.program": ("cluster", "cluster_program"),
    "cluster.physical": ("cluster", "cluster_physical"),
    "cluster.coarsen": ("cluster", "coarsen"),
    "cluster.interpolate": ("cluster", "interpolate"),
    "flow.run": ("flow", "run_mlqls"),
    "verify.check": ("verify", "verify"),
    "verify.depth": ("verify", "asap_depth"),
    "model.dag": ("model", "build_dag"),
}


def _count_mapper(counts: Counter, result) -> None:
    _, accepted, total = result
    counts["mapper.accepted"] += accepted
    counts["mapper.pairs"] += total


def _count_route(counts: Counter, sol) -> None:
    counts["route.swaps"] += len(sol.swaps)


def _count_exact(counts: Counter, res) -> None:
    counts["exact.timed_out"] += res.timed_out
    counts["exact.proven"] += res.proven_optimal


def _count_flow(counts: Counter, res) -> None:
    coarsest = res.levels.levels[-1].circuit
    counts["flow.runs"] += 1
    counts["flow.levels"] += len(res.levels)
    counts["flow.coarsest_qubits"] += coarsest.num_qubits
    counts["flow.coarsest_gates"] += len(coarsest.gates)
    counts["flow.vcycle_won"] += res.final is not res.initial
    for stat in res.stats:
        key = "flow.stage1_s" if stat.stage == "srefine" else "flow.vcycle_s"
        counts[key] += stat.seconds


_COUNTERS = {
    "srefine.mapper": _count_mapper,
    "srefine.route": _count_route,
    "exact.solve": _count_exact,
    "flow.run": _count_flow,
}


class Tracer:
    """Span recorder. A span is (name, start, end, parent index, run id);
    the run id is the index of the instance being compiled."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []

    def install(self, package: str) -> None:
        """Wrap every layer in every loaded module of ``package``."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for layer, (module, attr) in LAYERS.items():
            original = getattr(sys.modules.get(f"{package}.{module}"), attr, None)
            if original is None:
                print(f"trace: {package}.{module}.{attr} not found; {layer} stays at 0", file=sys.stderr)
                continue
            wrapper = self._wrap(layer, original, _COUNTERS.get(layer))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if count is not None:
                count(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def cost_per_span(calls: int = 100_000) -> float:
        """Seconds one span adds to a call, timed on a wrapped no-op against
        the bare no-op."""

        def noop():
            return None

        wrapped = Tracer()._wrap("probe", noop, None)
        clock = time.perf_counter
        start = clock()
        for _ in range(calls):
            wrapped()
        traced = clock() - start
        start = clock()
        for _ in range(calls):
            noop()
        return (traced - (clock() - start)) / calls

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per layer; self time is a span's duration
        minus the durations of its direct children."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return calls, self_s

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric: calls and self time for each layer, plus
        the ratios and counts that each layer's results carry. Counts and
        times are per round over the instance set; ratios and the hierarchy
        sizes (means per flow run) are not divided."""
        calls, self_s = self.self_times()
        c = self.counts
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / rounds
            out[f"{layer}.self_s"] = self_s[layer] / rounds
        runs = c["flow.runs"]
        candidates = sum(
            1 for s in self.spans
            if s[0] == "srefine.anneal" and s[3] >= 0 and self.spans[s[3]][0] == "srefine.run"
        )
        out.update({
            "srefine.mapper.embedded_share": _ratio(c["mapper.accepted"], c["mapper.pairs"]),
            "srefine.route.swaps": c["route.swaps"] / rounds,
            "srefine.passes.per_call": _ratio(calls["srefine.route"], calls["srefine.passes"]),
            "srefine.run.candidates": candidates / rounds,
            "exact.solve.timed_out": c["exact.timed_out"] / rounds,
            "exact.solve.proven": c["exact.proven"] / rounds,
            "cluster.levels": _ratio(c["flow.levels"], runs),
            "cluster.coarsest_qubits": _ratio(c["flow.coarsest_qubits"], runs),
            "cluster.coarsest_gates": _ratio(c["flow.coarsest_gates"], runs),
            "flow.stage1_s": c["flow.stage1_s"] / rounds,
            "flow.vcycle_s": c["flow.vcycle_s"] / rounds,
            "flow.vcycle_won": c["flow.vcycle_won"] / rounds,
        })
        return out

    def dump(self, path, record: dict) -> None:
        with open(path, "w") as fh:
            json.dump({
                "record": record,
                "fields": ["name", "start", "end", "parent", "run"],
                "spans": self.spans,
            }, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
