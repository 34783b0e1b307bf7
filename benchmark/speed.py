"""Machine-speed probes for scaling latencies to a reference speed.

On a shared host the same Python code runs up to about 1.5x slower for
seconds at a time while other tenants load the machine; raw medians of
20-second runs then differ by 25-30% between runs.  Two probes run no
swenctrl code, so a change to the program cannot change them:

* "cpu": fixed in-process work (list building, a BFS and dict lookups, with
  the garbage collector paused), run every PROBE_INTERVAL_S.  It scales
  in-process latencies and span durations.
* "start": a bare interpreter start, `python -c pass`, run before every CLI
  subprocess.  It scales CLI latencies, which are mostly process start-up.

A latency started at t is multiplied by REFERENCE_S[probe] / (median probe
time within WINDOW_S[probe] of t).  A slower program still reads slower;
only the host's speed is divided out.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from collections import deque
from time import perf_counter

PROBE_INTERVAL_S = 0.1
WINDOW_S = {"cpu": 1.0, "start": 3.0}
REFERENCE_S = {"cpu": 0.0015, "start": 0.04}  # probe times the scaled latencies assume
PROBE_N, PROBE_ARCS = 1000, 6000  # size of the cpu probe's graph; REFERENCE_S["cpu"] assumes it


def probe() -> float:
    """Time one fixed unit of interpreter and memory work."""
    n = PROBE_N
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        adj = [[] for _ in range(n)]
        for i in range(PROBE_ARCS):
            adj[(i * 7919) % n].append([(i * 104729) % n, i & 7, 0])
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        while queue:
            for e in adj[queue.popleft()]:
                if e[1] > 0 and not seen[e[0]]:
                    seen[e[0]] = True
                    queue.append(e[0])
        table = {(i, i + 1): i for i in range(n + n // 2)}
        sum(table[(i, i + 1)] for i in range(0, len(table), 3))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def start_probe(env: dict, cwd: str) -> float:
    """Time one bare interpreter start."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", "pass"], capture_output=True,
                          env=env, cwd=cwd, check=False)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"bare interpreter start exited {proc.returncode}")
    return dt


class SpeedProbe:
    """Probe times of each kind, keyed by when they were taken."""

    def __init__(self):
        self.times: dict[str, list[float]] = {"cpu": [], "start": []}
        self.values: dict[str, list[float]] = {"cpu": [], "start": []}

    def record(self, kind: str, t: float, value: float) -> None:
        self.times[kind].append(t)
        self.values[kind].append(value)

    def maybe_probe(self) -> None:
        """Run the cpu probe if the last one is PROBE_INTERVAL_S old or older."""
        now = perf_counter()
        times = self.times["cpu"]
        if not times or now - times[-1] >= PROBE_INTERVAL_S:
            self.record("cpu", now, probe())

    def scale(self, t: float, kind: str = "cpu") -> float:
        """Factor that turns a latency started at `t` into reference time."""
        times, values = self.times[kind], self.values[kind]
        if not values:  # no CLI ran: nothing to scale with this probe
            return 1.0
        lo = bisect_left(times, t - WINDOW_S[kind])
        hi = bisect_right(times, t + WINDOW_S[kind])
        return REFERENCE_S[kind] / statistics.median(values[lo:hi] or values)
