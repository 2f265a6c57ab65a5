"""Machine-speed probe: times a fixed pure-Python kernel at regular wall-clock
intervals while the benchmark runs, so that compile times can be scaled to a
fixed reference speed.

The host's speed drifts by up to a factor of two within a minute, and CPU
time drifts with it (see README.md). The probe samples that speed from
inside the same process: a SIGALRM handler runs the kernel every
``PERIOD_S`` seconds, between bytecodes of whatever runs at that moment.
The kernel does the kind of work the compiler does (an annealing loop over a
distance matrix and an A* search with a heap and dicts), and it never
changes with the package under test, so its time reflects the machine only.

A window's time at reference speed is its wall time, less the time spent in
the probe, times ``REFERENCE_S`` over the mean kernel time in the window.
"""

from __future__ import annotations

import heapq
import math
import random
import signal
import statistics
import time

PERIOD_S = 0.2
# Kernel seconds that define the reference speed (about the kernel's time on
# an idle 2-core Intel Xeon host with Python 3.11). Any constant would do:
# it only sets the scale of the reported seconds.
REFERENCE_S = 0.003


class _Kernel:
    """A fixed amount of annealing and A* work; the same work every call."""

    SIDE = 5
    ANNEAL_STEPS = 1000
    ASTAR_GRID, ASTAR_REPS = 12, 6

    def __init__(self) -> None:
        rng = random.Random(2)
        n = self.SIDE * self.SIDE
        side = self.SIDE
        self.dist = [[abs(a // side - b // side) + abs(a % side - b % side) for b in range(n)]
                     for a in range(n)]
        self.adj: list[list[int]] = [[] for _ in range(n)]
        for _ in range(60):
            a, b = rng.sample(range(n), 2)
            self.adj[a].append(b)
            self.adj[b].append(a)
        g = self.ASTAR_GRID
        self.walls = {(rng.randrange(g), rng.randrange(g)) for _ in range(30)} - {(0, 0), (g - 1, g - 1)}

    def __call__(self) -> None:
        self._anneal()
        self._astar()

    def _anneal(self) -> None:
        rng = random.Random(3)
        dist, adj = self.dist, self.adj
        n = len(dist)
        pos = list(range(n))
        temp = 2.0
        for _ in range(self.ANNEAL_STEPS):
            a, b = rng.randrange(n), rng.randrange(n)
            if a == b:
                continue
            pa, pb = pos[a], pos[b]
            delta = 0
            for c in adj[a]:
                if c != b:
                    delta += dist[pb][pos[c]] - dist[pa][pos[c]]
            for c in adj[b]:
                if c != a:
                    delta += dist[pa][pos[c]] - dist[pb][pos[c]]
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                pos[a], pos[b] = pb, pa
            temp *= 0.999

    def _astar(self) -> None:
        g, walls = self.ASTAR_GRID, self.walls
        goal = (g - 1, g - 1)
        for _ in range(self.ASTAR_REPS):
            heap = [(0, 0, (0, 0))]
            seen = {(0, 0): 0}
            while heap:
                _, cost, (x, y) = heapq.heappop(heap)
                if (x, y) == goal:
                    break
                for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if 0 <= nxt[0] < g and 0 <= nxt[1] < g and nxt not in walls:
                        if cost + 1 < seen.get(nxt, 1 << 30):
                            seen[nxt] = cost + 1
                            h = goal[0] - nxt[0] + goal[1] - nxt[1]
                            heapq.heappush(heap, (cost + 1 + h, cost + 1, nxt))


class SpeedProbe:
    """Samples (start, kernel seconds) while started; see the module doc."""

    def __init__(self) -> None:
        self.kernel = _Kernel()
        self.samples: list[tuple[float, float]] = []
        self._previous = None
        for _ in range(20):  # warm up the interpreter's specialised bytecode
            self.kernel()

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.kernel()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _within(self, begin: float, end: float) -> list[float]:
        return [d for t, d in self.samples if begin <= t < end]

    def busy_s(self, begin: float, end: float) -> float:
        """Seconds the probe itself took between ``begin`` and ``end``."""
        return sum(self._within(begin, end))

    def kernel_s(self, begin: float, end: float) -> float:
        """Mean kernel seconds of the samples between ``begin`` and ``end``."""
        inside = self._within(begin, end)
        if not inside:
            raise ValueError("no probe sample in the window")
        return statistics.fmean(inside)

    def reference_s(self, wall_s: float, begin: float, end: float) -> float:
        """``wall_s``, measured between ``begin`` and ``end`` with the probe's
        own time already taken out, scaled to the reference speed."""
        return wall_s * REFERENCE_S / self.kernel_s(begin, end)
