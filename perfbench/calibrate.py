"""Host-speed calibration: a fixed pure-Python kernel timed between rounds.

On a shared host the speed a process gets changes by up to 2x in phases of
seconds to minutes, so two runs of the same code a few minutes apart differ
by more than any useful bound. This kernel slows and speeds up with the
solver: over ten minutes on a 2-vCPU host, 16-second medians of the kernel
moved between 14 and 27 ms, fixed solves moved by 16-30% (quartile
distance over median), and each solve's time over the kernel's by 4-6%. So
each run times the kernel between its rounds and scales the times it
reports by ``NOMINAL_MS`` over the kernel's time around them: a reported
millisecond is one at the host speed where the kernel takes
``NOMINAL_MS``. The kernel never touches the package under test, so a
change to the program moves the scaled times exactly as it moves the raw
ones; the run's report keeps both, and the factors.

The kernel counts the models of one fixed random 3-CNF with unit
propagation over occurrence lists, which is the same kind of work as the
package's engine: small lists and dicts, integer literals, many short calls.
It runs with the garbage collector off, so the objects the program leaves
behind do not change its time.
"""

from __future__ import annotations

import gc
import random
import time

# the unit of every reported time: the kernel's median on a 2-vCPU Xeon
# (2.0 GHz) with Python 3.11 in the host's slower phase; fast phases take 14 ms
NOMINAL_MS = 27.0


def _formula() -> tuple[int, list[tuple[int, ...]]]:
    rng = random.Random("perfbench-calibration")
    n = 25
    clauses = [tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)) for _ in range(75)]
    return n, clauses


NUM_VARS, CLAUSES = _formula()


def _occurrences(clauses):
    occ: dict[int, list[tuple[int, ...]]] = {}
    for c in clauses:
        for lit in c:
            occ.setdefault(-lit, []).append(c)
    return occ


OCC = _occurrences(CLAUSES)


def _propagate(assign: dict[int, bool], lit: int) -> bool:
    """Set lit and everything it forces; False on a conflict."""
    queue = [lit]
    while queue:
        lit = queue.pop()
        var, val = abs(lit), lit > 0
        if var in assign:
            if assign[var] != val:
                return False
            continue
        assign[var] = val
        for c in OCC.get(lit, ()):
            free = None
            for other in c:
                seen = assign.get(abs(other))
                if seen is None:
                    if free is not None:
                        break
                    free = other
                elif seen == (other > 0):
                    break
            else:
                if free is None:
                    return False
                queue.append(free)
    return True


def _count(assign: dict[int, bool], var: int) -> int:
    while var <= NUM_VARS and var in assign:
        var += 1
    if var > NUM_VARS:
        return 1
    total = 0
    for lit in (var, -var):
        trial = dict(assign)
        if _propagate(trial, lit):
            total += _count(trial, var + 1)
    return total


def kernel() -> int:
    """The fixed amount of work that is timed: the formula's model count."""
    return _count({}, 1)


def sample() -> float:
    """One timing of the kernel, in milliseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return (time.perf_counter() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()
