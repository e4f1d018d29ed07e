"""Whole-support reduction: one selector variable per complete monomial.

A strategy for a chooser x with dependency set H is exactly a subset of the
2^|H| complete monomials over H. Allocating one fresh selector variable per
monomial and tying x to the selected disjunction turns strategy search into
a plain choice of selector values, solved by one oracle call and decoded
back into minterm sets. selector_objective is that encoding for any
supports, full or partial; the incremental method builds its objective with
it too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .formula import (
    Cnf,
    MintermFunction,
    Problem,
    Solution,
    minterms_of,
    selector_definition_clauses,
)
from .oracle import OracleRequest, OracleResult, max_count

DEFAULT_SELECTOR_BUDGET = 1 << 20


class BudgetExceeded(ValueError):
    """The instance needs more selectors than the configured budget."""


@dataclass(frozen=True)
class SelectorMap:
    """Bijection between (chooser, monomial) pairs and selector variables."""

    supports: Mapping[int, tuple[int, ...]]
    selectors: Mapping[int, Mapping[tuple[int, ...], int]]
    owner: Mapping[int, tuple[int, tuple[int, ...]]]

    def selector_vars(self) -> tuple[int, ...]:
        return tuple(sorted(self.owner))


def selector_objective(p: Problem, sel: SelectorMap, num_vars: int) -> Cnf:
    """The objective p.cnf plus every chooser's selector definition clauses.

    num_vars must cover every selector. Linear in the number of selectors:
    2 clauses per selector.
    """
    clauses = list(p.cnf.clauses)
    for x in p.max_vars:
        clauses.extend(selector_definition_clauses(x, sel.supports[x], sel.selectors[x]))
    return Cnf.build(num_vars, clauses)


def build_reduction(p: Problem, budget: int = DEFAULT_SELECTOR_BUDGET) -> tuple[OracleRequest, SelectorMap]:
    """Reduce a dependency-constrained instance to one oracle request.

    The request's choice variables are the fresh selectors; the original
    choosers are left uncounted since the definition clauses determine them
    pointwise. Incumbent is the all-false (all strategies constant false)
    assignment.
    """
    need = sum(1 << len(p.deps[x]) for x in p.max_vars)
    if need > budget:
        raise BudgetExceeded(f"{need} selectors exceed the budget of {budget}")
    next_id = p.cnf.num_vars + 1
    supports: dict[int, tuple[int, ...]] = {}
    selectors: dict[int, dict[tuple[int, ...], int]] = {}
    owner: dict[int, tuple[int, tuple[int, ...]]] = {}
    for x in p.max_vars:
        support = tuple(sorted(p.deps[x]))
        table: dict[tuple[int, ...], int] = {}
        for m in minterms_of(support):
            table[m] = next_id
            owner[next_id] = (x, m)
            next_id += 1
        supports[x] = support
        selectors[x] = table
    sel = SelectorMap(supports, selectors, owner)
    req = OracleRequest(
        objective=selector_objective(p, sel, next_id - 1),
        max_vars=sel.selector_vars(),
        count_vars=p.count_vars,
        incumbent={s: False for s in owner},
    )
    return req, sel


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
    req, sel = build_reduction(p, budget)
    res = max_count(req)
    return replace(decode(sel, res.best), achieved_count=res.best_count, total=p.total)


def solve_dqbf(p: Problem, budget: int = DEFAULT_SELECTOR_BUDGET) -> tuple[bool, Solution]:
    """Decide a dependency-quantified formula with no existential variables.

    Satisfiable exactly when some strategy tuple makes every count-variable
    assignment a model; the witness carries the synthesized functions either
    way.
    """
    if p.exist_vars:
        raise ValueError("decision form requires an empty existential set")
    witness = solve_global(p, budget)
    return witness.achieved_count == p.total, witness
