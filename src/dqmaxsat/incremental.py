"""Incremental solving: grow dependency sets one variable at a time.

Starts every chooser on the empty support (a single constant selector) and
alternates oracle calls with support expansions. Each expansion splits the
affected selectors in two along the added variable, re-derives the
objective from the grown supports with the same selector encoding as the
global reduction, and carries the previous optimum over as the incumbent.
The oracle then searches every assignment: one that ignores the new
variable equals an assignment over the old support, whose count is at most
the incumbent's, and the oracle accepts only strict improvements. A full
run makes exactly 1 + sum of |H_i| oracle calls and may be stopped after
any call, yielding the best strategies over the supports grown so far.

Expansions go round-robin over the choosers in prefix order, skipping
those whose support is complete; each grows its chooser's support by the
lowest remaining dependency variable.

Every call's objective reaches the same count-cells as the problem's own
CNF, whatever the supports, so init enumerates them once and every
request of the run carries them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional

from .formula import Cnf, Problem, Solution, TRUE_CNF
from .oracle import OracleRequest, max_count, reachable_cells
from .reduction import SelectorMap, decode, selector_objective


@dataclass(frozen=True)
class IterationRecord:
    """One oracle call: which expansion preceded it and what it achieved."""

    iteration: int
    expanded_var: Optional[int]
    expanded_on: Optional[int]
    count: int
    elapsed_ms: float
    solution: Solution

    def as_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "expanded_var": self.expanded_var,
            "expanded_on": self.expanded_on,
            "count": self.count,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "functions": {
                str(x): sorted(sorted(m, key=abs) for m in fn.minterms)
                for x, fn in self.solution.functions.items()
            },
        }


@dataclass(frozen=True)
class IncrementalState:
    problem: Problem
    selectors: SelectorMap
    objective: Cnf
    incumbent: Mapping[int, bool]
    # the count-cells of problem.cnf, which every objective reaches alike
    cells: tuple[tuple[int, ...], ...]
    # always empty; kept only because the benchmark's spans (perfbench/spans.py)
    # read state.filter.clauses off every expand
    filter = TRUE_CNF

    def remaining(self, x: int) -> frozenset[int]:
        return self.problem.deps[x].difference(self.selectors.supports[x])

    def finished(self) -> bool:
        return all(not self.remaining(x) for x in self.problem.max_vars)

    def request(self) -> OracleRequest:
        return OracleRequest(
            objective=self.objective,
            max_vars=self.selectors.selector_vars(),
            count_vars=self.problem.count_vars,
            incumbent=self.incumbent,
            cells=self.cells,
        )


def init(p: Problem) -> IncrementalState:
    """Empty supports: one constant selector per chooser, incumbent all false."""
    selectors = SelectorMap.over(p, {x: () for x in p.max_vars})
    return IncrementalState(
        problem=p,
        selectors=selectors,
        objective=selector_objective(p, selectors),
        incumbent={s: False for s in selectors.owner},
        cells=reachable_cells(p.cnf, p.count_vars),
    )


def expand(st: IncrementalState, x: int, u: int) -> IncrementalState:
    """Grow chooser x's support by u, splitting each of its selectors in two.

    Selector s of monomial m gives way to fresh selectors for m ∧ u and
    m ∧ ¬u, allocated in canonical minterm order of the grown support, and
    the objective is derived afresh from the grown supports. That is the
    paper's substitution of s by (s_u ∧ u) ∨ (s_¬u ∧ ¬u). Both children
    take over s's incumbent value, which keeps the incumbent's count.
    """
    if u not in st.remaining(x):
        raise ValueError(f"variable {u} is not expandable for chooser {x}")
    selectors = st.selectors.with_support(x, st.selectors.supports[x] + (u,))
    new_table = selectors.selectors[x]
    incumbent = {s: v for s, v in st.incumbent.items() if st.selectors.owner[s][0] != x}
    for m_old, s in st.selectors.selectors[x].items():
        for lit in (u, -u):
            incumbent[new_table[tuple(sorted(m_old + (lit,), key=abs))]] = st.incumbent[s]
    return replace(
        st,
        selectors=selectors,
        objective=selector_objective(st.problem, selectors),
        incumbent=incumbent,
    )


def _choose(st: IncrementalState, rotor: int) -> tuple[int, int]:
    """The first chooser from position rotor on with variables left, and its lowest one."""
    order = st.problem.max_vars
    x = next(v for v in order[rotor:] + order[:rotor] if st.remaining(v))
    return x, min(st.remaining(x))


def run(
    p: Problem,
    budget: Optional[int] = None,
    on_iteration: Optional[Callable[[IterationRecord], None]] = None,
) -> Solution:
    """Alternate oracle calls and expansions until supports are complete.

    budget caps the number of oracle calls; when it stops the run early the
    result is the anytime solution over the partially grown supports. The
    per-call records (count, elapsed time, decoded functions) go to
    on_iteration, the only place they are kept.
    """
    if budget is not None and budget < 1:
        raise ValueError("budget must allow at least one oracle call")
    st = init(p)
    rotor = 0
    last = None
    for iteration in itertools.count(1):
        t0 = time.perf_counter()
        res = max_count(st.request())
        elapsed = (time.perf_counter() - t0) * 1000
        anytime = replace(decode(st.selectors, res.best),
                          achieved_count=res.best_count, total=p.total)
        record = IterationRecord(
            iteration=iteration,
            expanded_var=last[0] if last else None,
            expanded_on=last[1] if last else None,
            count=res.best_count,
            elapsed_ms=elapsed,
            solution=anytime,
        )
        st = replace(st, incumbent=dict(res.best))
        if on_iteration is not None:
            on_iteration(record)
        if st.finished() or (budget is not None and iteration >= budget):
            return anytime
        x, u = _choose(st, rotor)
        rotor = (st.problem.max_vars.index(x) + 1) % len(st.problem.max_vars)
        st = expand(st, x, u)
        last = (x, u)
