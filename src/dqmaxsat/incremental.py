"""Incremental solving: grow dependency sets one variable at a time.

Starts every chooser on the empty support (a single constant selector) and
alternates iterations with support expansions. Each expansion splits the
affected selectors in two along the added variable and carries the
previous optimum over as the incumbent, count included. A B&B call
derives the objective from the supports, with the same selector encoding
as the global reduction; no other step builds one, and a call the row
table answers builds none. An iteration asks the oracle for the best
assignment: one that ignores the new variable equals an assignment over
the old support, whose count is at most the incumbent's, and the oracle
accepts only strict improvements. Once the incumbent reaches every
count-cell nothing can beat it, so the remaining iterations keep it
without an oracle call. A full run makes exactly 1 + sum of |H_i|
iterations and may be stopped after any of them, yielding the best
strategies over the supports grown so far.

schedule lists the expansions, which depend only on the problem:
round-robin over the choosers in prefix order, skipping those whose
support is complete, each taking its chooser's lowest remaining variable.

Every call's objective reaches the same count-cells as the problem's own
CNF, whatever the supports, so every request of the run carries the cells
of the one ChainTable that init builds for the run. Every call goes
through oracle.oracle_call with that table: its rows span the full
dependency sets, so one enumeration serves every partial support, and
within the row guard it gives the cells too, and the DP or the B&B
probing rows answers every call. Past it the table holds the run's one
B&B probe budget: once the calls together pass it, the table is asked
first on every later call.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional

from .formula import Cnf, Problem, Solution, TRUE_CNF
from .oracle import ChainTable, DeferredRequest, OracleRequest, OracleResult, max_count, oracle_call
from .reduction import SelectorMap, check_selectors, decode, selector_objective


@dataclass(frozen=True)
class IterationRecord:
    """One iteration: which expansion preceded it and what it achieved.

    best is the oracle's selector assignment over selectors, and total
    the problem's; the strategies they stand for are decoded on the first
    read of solution, while as_dict reads the minterms off the selector
    tables directly.
    """

    iteration: int
    expanded_var: Optional[int]
    expanded_on: Optional[int]
    count: int
    elapsed_ms: float
    selectors: SelectorMap
    best: Mapping[int, bool]
    total: int

    @functools.cached_property
    def solution(self) -> Solution:
        """The anytime strategies over this iteration's supports, with their count."""
        return replace(decode(self.selectors, self.best), achieved_count=self.count, total=self.total)

    def as_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "expanded_var": self.expanded_var,
            "expanded_on": self.expanded_on,
            "count": self.count,
            "elapsed_ms": round(self.elapsed_ms, 3),
            # a selector table's monomials list their literals in support order
            "functions": {
                str(x): sorted(list(m) for m, s in table.items() if self.best[s])
                for x, table in self.selectors.selectors.items()
            },
        }


@dataclass(frozen=True)
class IncrementalState:
    problem: Problem
    selectors: SelectorMap
    incumbent: Mapping[int, bool]
    # the run's row table; its cells, those of problem.cnf, every objective reaches alike
    table: ChainTable
    # always empty; kept only because the benchmark's spans (perfbench/spans.py)
    # read state.filter.clauses off every expand
    filter = TRUE_CNF

    @functools.cached_property
    def objective(self) -> Cnf:
        return selector_objective(self.problem, self.selectors)

    def remaining(self, x: int) -> frozenset[int]:
        return self.problem.deps[x].difference(self.selectors.supports[x])

    def request(self) -> OracleRequest:
        """This state's oracle request; its objective is built when the B&B reads it."""
        return DeferredRequest(lambda: self.objective, self.incumbent, self.table.cells)


def init(p: Problem) -> IncrementalState:
    """Empty supports: one constant selector per chooser, incumbent all false, and the run's table."""
    selectors = SelectorMap.over(p, {x: () for x in p.max_vars})
    return IncrementalState(
        problem=p,
        selectors=selectors,
        incumbent={s: False for s in selectors.owner},
        table=ChainTable(p),
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
    return replace(st, selectors=selectors, incumbent=incumbent)


def schedule(p: Problem) -> list[tuple[int, int]]:
    """Every (chooser, variable) expansion of a full run, in order.

    Round k takes the k-th lowest dependency variable of each chooser that
    has one, the choosers in prefix order.
    """
    columns = [[(x, u) for u in sorted(p.deps[x])] for x in p.max_vars]
    return [step for rnd in itertools.zip_longest(*columns) for step in rnd if step]


def run(
    p: Problem,
    budget: Optional[int] = None,
    on_iteration: Optional[Callable[[IterationRecord], None]] = None,
) -> Solution:
    """Alternate iterations and expansions until supports are complete.

    budget caps the iterations; stopped early, the run returns the anytime
    solution over the partially grown supports. Supports that need more
    selectors than the global reduction allows raise BudgetExceeded up
    front. An iteration calls the oracle until the incumbent reaches every
    cell, and from then on keeps the incumbent, which is what the oracle
    would return. The per-iteration records go to on_iteration, the only
    place they are kept.
    """
    if budget is not None and budget < 1:
        raise ValueError("budget must allow at least one iteration")
    steps = schedule(p)[:None if budget is None else budget - 1]
    check_selectors(sum(y == x for y, _ in steps) for x in p.max_vars)
    st = init(p)
    count = -1  # the incumbent's count, which expand keeps
    for iteration, (x, u) in enumerate([(None, None), *steps], 1):
        if x is not None:
            st = expand(st, x, u)
        t0 = time.perf_counter()
        if count == len(st.table.cells):
            # no assignment reaches more than every cell, and the incumbent
            # wins ties: the oracle would answer the same
            res = OracleResult(st.incumbent, count)
        else:
            res = oracle_call(st.table, st.selectors, st.request(), max_count)
        count = res.best_count
        elapsed = (time.perf_counter() - t0) * 1000
        record = IterationRecord(
            iteration=iteration,
            expanded_var=x,
            expanded_on=u,
            count=res.best_count,
            elapsed_ms=elapsed,
            selectors=st.selectors,
            best=res.best,
            total=p.total,
        )
        st = replace(st, incumbent=dict(res.best))
        if on_iteration is not None:
            on_iteration(record)
    return record.solution
