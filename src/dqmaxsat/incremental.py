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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional

from .formula import Cnf, Problem, Solution, TRUE_CNF, minterms_of
from .oracle import OracleRequest, max_count
from .reduction import SelectorMap, decode, selector_objective

POLICIES = ("round-robin", "fixed-order", "largest-remaining")


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
    partial_deps: Mapping[int, frozenset[int]]
    selectors: SelectorMap
    objective: Cnf
    incumbent: Mapping[int, bool]
    iteration: int
    trace: tuple[IterationRecord, ...] = ()
    next_id: int = 0
    # always empty; kept only because the benchmark's spans (perfbench/spans.py)
    # read state.filter.clauses off every expand
    filter = TRUE_CNF

    def remaining(self, x: int) -> frozenset[int]:
        return self.problem.deps[x] - self.partial_deps[x]

    def finished(self) -> bool:
        return all(not self.remaining(x) for x in self.problem.max_vars)

    def request(self) -> OracleRequest:
        return OracleRequest(
            objective=self.objective,
            max_vars=self.selectors.selector_vars(),
            count_vars=self.problem.count_vars,
            incumbent=self.incumbent,
        )


def init(p: Problem) -> IncrementalState:
    """Empty supports: one constant selector per chooser, incumbent all false."""
    next_id = p.cnf.num_vars + 1
    tables: dict[int, dict[tuple[int, ...], int]] = {}
    owner: dict[int, tuple[int, tuple[int, ...]]] = {}
    for x in p.max_vars:
        tables[x] = {(): next_id}
        owner[next_id] = (x, ())
        next_id += 1
    selectors = SelectorMap({x: () for x in p.max_vars}, tables, owner)
    return IncrementalState(
        problem=p,
        partial_deps={x: frozenset() for x in p.max_vars},
        selectors=selectors,
        objective=selector_objective(p, selectors, next_id - 1),
        incumbent={s: False for s in owner},
        iteration=0,
        next_id=next_id,
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
    old_table = st.selectors.selectors[x]
    new_support = tuple(sorted(st.partial_deps[x] | {u}))

    next_id = st.next_id
    new_table: dict[tuple[int, ...], int] = {}
    for m in minterms_of(new_support):
        new_table[m] = next_id
        next_id += 1

    incumbent = {s: v for s, v in st.incumbent.items() if st.selectors.owner[s][0] != x}
    for m_old, s in old_table.items():
        for lit in (u, -u):
            incumbent[new_table[tuple(sorted(m_old + (lit,), key=abs))]] = st.incumbent[s]

    supports = dict(st.selectors.supports)
    tables = dict(st.selectors.selectors)
    owner = {s: o for s, o in st.selectors.owner.items() if o[0] != x}
    supports[x] = new_support
    tables[x] = new_table
    for m, s in new_table.items():
        owner[s] = (x, m)
    selectors = SelectorMap(supports, tables, owner)

    partial = dict(st.partial_deps)
    partial[x] = st.partial_deps[x] | {u}
    return replace(
        st,
        partial_deps=partial,
        selectors=selectors,
        objective=selector_objective(st.problem, selectors, next_id - 1),
        incumbent=incumbent,
        next_id=next_id,
    )


def _choose(st: IncrementalState, policy: str, rotor: int) -> tuple[int, int]:
    open_vars = [x for x in st.problem.max_vars if st.remaining(x)]
    if policy == "fixed-order":
        x = open_vars[0]
    elif policy == "largest-remaining":
        x = max(open_vars, key=lambda v: (len(st.remaining(v)), -st.problem.max_vars.index(v)))
    else:  # round-robin
        order = st.problem.max_vars
        x = next(order[(rotor + k) % len(order)] for k in range(len(order))
                 if order[(rotor + k) % len(order)] in open_vars)
    return x, min(st.remaining(x))


def run(
    p: Problem,
    policy: str = "round-robin",
    budget: Optional[int] = None,
    on_iteration: Optional[Callable[[IterationRecord], None]] = None,
) -> Solution:
    """Alternate oracle calls and expansions until supports are complete.

    budget caps the number of oracle calls; when it stops the run early the
    result is the anytime solution over the partially grown supports. The
    per-call records (count, elapsed time, decoded functions) are passed to
    on_iteration and kept on the state's trace.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    if budget is not None and budget < 1:
        raise ValueError("budget must allow at least one oracle call")
    st = init(p)
    rotor = 0
    last = None
    while True:
        t0 = time.perf_counter()
        res = max_count(st.request())
        elapsed = (time.perf_counter() - t0) * 1000
        anytime = replace(decode(st.selectors, res.best),
                          achieved_count=res.best_count, total=p.total)
        record = IterationRecord(
            iteration=st.iteration + 1,
            expanded_var=last[0] if last else None,
            expanded_on=last[1] if last else None,
            count=res.best_count,
            elapsed_ms=elapsed,
            solution=anytime,
        )
        st = replace(st, incumbent=dict(res.best), iteration=st.iteration + 1,
                     trace=st.trace + (record,))
        if on_iteration is not None:
            on_iteration(record)
        if st.finished() or (budget is not None and st.iteration >= budget):
            return anytime
        x, u = _choose(st, policy, rotor)
        rotor = (st.problem.max_vars.index(x) + 1) % len(st.problem.max_vars)
        st = expand(st, x, u)
        last = (x, u)
