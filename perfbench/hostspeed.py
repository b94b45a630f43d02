"""A fixed pure-Python workload that gauges how fast the host runs Python now.

The benchmark's cores are shared with other machines' work, and their load
changes the speed of the same code by 20-50 % within minutes, inside a run
and between runs.  Every timed request is therefore bracketed by two gauges,
and its wall time is scaled by `REFERENCE_NS` over their mean: the result
reads as the time the request would take on a host where one gauge takes
`REFERENCE_NS`.  The gauge's work mirrors the program's (Bellman backups
over tuples of branches, line parsing, a graph search) but is the
benchmark's own code and never calls soundmdp, so a change to the program
moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import random
import statistics
import time

#: the gauge time the scaled figures are expressed at, about one gauge on
#: the shared 2-core host the benchmark was built on when it is quiet
REFERENCE_NS = 4_000_000
#: kernel runs per gauge; the gauge is their median
REPEATS = 5

_STATES = 400


def _build() -> tuple[list[tuple], str]:
    rng = random.Random(7)
    kernel = [tuple(tuple((0.25, 0.0, rng.randrange(_STATES)) for _ in range(4))
                    for _ in range(3))
              for _ in range(_STATES)]
    text = "\n".join(f"{s} {a} {rng.random():.6f} {rng.randrange(_STATES)}"
                     for s in range(_STATES) for a in range(3))
    return kernel, text


_KERNEL, _TEXT = _build()


def _kernel_once() -> float:
    values = [0.0] * _STATES
    for _ in range(6):
        for s, trs in enumerate(_KERNEL):
            best = None
            for branches in trs:
                acc = 0.0
                for p, r, t in branches:
                    acc += p * (r + values[t] + 1.0)
                if best is None or acc > best:
                    best = acc
            values[s] = best * 0.5
    succ: dict[int, list[int]] = {}
    for line in _TEXT.splitlines():
        s, _, p, t = line.split()
        if float(p) > 0.0:
            succ.setdefault(int(s), []).append(int(t))
    seen: set[int] = set()
    stack = [0]
    while stack:
        s = stack.pop()
        if s not in seen:
            seen.add(s)
            stack.extend(succ[s])
    return values[0] + len(seen)


def gauge_ns() -> int:
    """Median wall time of `REPEATS` runs of the fixed kernel, in ns."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        _kernel_once()
        times.append(time.perf_counter_ns() - start)
    return int(statistics.median(times))


def scaled_ns(wall_ns: float, before_ns: int, after_ns: int) -> float:
    """`wall_ns` expressed at the reference host speed, from the gauges
    taken right before and right after it."""
    return wall_ns * REFERENCE_NS * 2 / (before_ns + after_ns)
