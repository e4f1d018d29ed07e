"""Whole-support reduction: one selector variable per complete monomial.

A strategy for a chooser x with dependency set H is exactly a subset of the
2^|H| complete monomials over H. Allocating one fresh selector variable per
monomial and tying x to the selected disjunction turns strategy search into
a plain choice of selector values, solved by one oracle call
(oracle.oracle_call, which a chain-shaped instance's row table may answer
instead of max_count) and decoded back into minterm sets. SelectorMap is
the one allocator of selector ids and selector_objective the one encoding,
for any supports, full or partial: the global reduction builds its map
over the full dependency sets (the local method solves an instance of
constant choices by it whole, and each leaf with a residual support on
its cofactor), and the incremental method starts from empty supports and
grows them with SelectorMap.with_support.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .formula import (
    Cnf,
    MintermFunction,
    Problem,
    Solution,
    minterms_of,
    selector_definition_clauses,
)
from .oracle import ChainTable, DeferredRequest, OracleRequest, max_count, oracle_call

DEFAULT_SELECTOR_BUDGET = 1 << 20


class BudgetExceeded(ValueError):
    """The instance needs more selectors than the configured budget."""


@dataclass(frozen=True)
class SelectorMap:
    """Bijection between (chooser, monomial) pairs and selector variables.

    num_vars is the highest variable id in use, selectors included. Fresh
    selectors always take the ids just above it, one chooser at a time, in
    canonical minterm order of the chooser's support.
    """

    supports: Mapping[int, tuple[int, ...]]
    selectors: Mapping[int, Mapping[tuple[int, ...], int]]
    owner: Mapping[int, tuple[int, tuple[int, ...]]]
    num_vars: int

    @classmethod
    def over(cls, p: Problem, supports: Mapping[int, Iterable[int]]) -> "SelectorMap":
        """Selectors for every chooser of p over its given support, in prefix order."""
        sel = cls({}, {}, {}, p.cnf.num_vars)
        for x in p.max_vars:
            sel = sel.with_support(x, supports[x])
        return sel

    def with_support(self, x: int, support: Iterable[int]) -> "SelectorMap":
        """The map with x's selectors retired and fresh ones allocated over support."""
        support = tuple(sorted(support))
        table = {m: s for s, m in enumerate(minterms_of(support), self.num_vars + 1)}
        owner = {s: o for s, o in self.owner.items() if o[0] != x}
        owner.update((s, (x, m)) for m, s in table.items())
        return SelectorMap({**self.supports, x: support}, {**self.selectors, x: table},
                           owner, self.num_vars + len(table))


def check_selectors(sizes: Iterable[int], budget: int = DEFAULT_SELECTOR_BUDGET) -> None:
    """Raise BudgetExceeded when supports of these sizes need more than budget selectors."""
    if (need := sum(1 << k for k in sizes)) > budget:
        raise BudgetExceeded(f"{need} selectors exceed the budget of {budget}")


def selector_objective(p: Problem, sel: SelectorMap) -> Cnf:
    """The objective p.cnf plus every chooser's selector definition clauses.

    Linear in the number of selectors: 2 clauses per selector.
    """
    clauses = list(p.cnf.clauses)
    for x in p.max_vars:
        clauses.extend(selector_definition_clauses(x, sel.supports[x], sel.selectors[x]))
    return Cnf.build(sel.num_vars, clauses)


def build_reduction(p: Problem, budget: int = DEFAULT_SELECTOR_BUDGET,
                    ) -> tuple[OracleRequest, SelectorMap, ChainTable]:
    """Reduce a dependency-constrained instance to one oracle request.

    The request's choice variables are the fresh selectors, over the full
    dependency sets; the original choosers are left uncounted since the
    definition clauses determine them pointwise. Incumbent is the all-false
    (all strategies constant false) assignment. The root cells are those of
    p.cnf, which the selector objective reaches alike; the solve's row
    table, returned with the request, gives them. The objective is built
    when the B&B first reads it, so a solve the table answers builds none.
    The selector budget is checked before anything is enumerated.
    """
    check_selectors((len(h) for h in p.deps.values()), budget)
    sel = SelectorMap.over(p, p.deps)
    table = ChainTable(p)
    req = DeferredRequest(lambda: selector_objective(p, sel), {s: False for s in sel.owner},
                          table.cells)
    return req, sel, table


def decode(sel: SelectorMap, alpha: Mapping[int, bool]) -> Solution:
    """Read the synthesized functions off a total selector assignment."""
    functions = {}
    for x, table in sel.selectors.items():
        functions[x] = MintermFunction.of(
            sel.supports[x], [m for m, s in table.items() if alpha[s]]
        )
    return Solution(functions=functions)


def solve_global(p: Problem, budget: int = DEFAULT_SELECTOR_BUDGET) -> Solution:
    """Optimal strategies via the one-shot reduction."""
    req, sel, table = build_reduction(p, budget)
    res = oracle_call(table, sel, req, max_count)
    return replace(decode(sel, res.best), achieved_count=res.best_count, total=p.total)


def solve_dqbf(p: Problem) -> tuple[bool, Solution]:
    """Decide a dependency-quantified formula with no existential variables.

    Satisfiable exactly when some strategy tuple makes every count-variable
    assignment a model; the witness carries the synthesized functions either
    way.
    """
    if p.exist_vars:
        raise ValueError("decision form requires an empty existential set")
    witness = solve_global(p)
    return witness.achieved_count == p.total, witness
