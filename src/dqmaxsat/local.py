"""Divide and conquer on variables every chooser is allowed to see.

A variable u common to all dependency sets can be fixed to a constant: the
two cofactor sub-problems are independent, strictly smaller, and their
optima add up. Eligibility requires u to be a counted variable, or an
existential one that the objective pins down as a function of the counted
variables (otherwise the two cofactors could double-count); that test is
oracle.ChainTable's too. plan_split picks up to MAX_SPLIT_VARS of them;
solve_local solves the leaves and joins them by Shannon expansion.

Each leaf is the cofactor of the problem under its monomial
(leaf_problems), solved on its own by the global reduction. Leaf counts
add, so the optima of the whole are the products of the leaves' optima,
and within one monomial the order of minterms_of is the residual
support's own order: the product of the leaves' least optima is the least
optimum of the whole, which solve_local therefore finds by the global
reduction on the whole instance exactly where oracle.holds_rows(p).
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Sequence

from .counting import check_solution
from .engine import Engine
from .formula import Cnf, MintermFunction, Problem, Solution, cofactor, minterms_of
from .oracle import holds_rows
from .reduction import solve_global

# at most 2**6 = 64 leaves per split
MAX_SPLIT_VARS = 6

# the solver of each leaf's cofactor (leaf_problems); a one-entry table only
# because the benchmark's spans (perfbench/spans.py) wrap its values, so
# solve_local looks it up here on every solve it splits into leaves
LEAF_SOLVERS: dict[str, Callable[..., Solution]] = {"global": solve_global}

# per formula, for as long as it lives: (unshared candidates, shared set) -> forced
_VERDICTS: "weakref.WeakKeyDictionary[Cnf, dict]" = weakref.WeakKeyDictionary()


class NoEligibleVariable(ValueError):
    """No variable qualifies for splitting; use another method."""


def functionally_dependent(
    f: Cnf, candidates: Iterable[int], shared: Iterable[int]
) -> frozenset[int]:
    """The candidates that the shared variables force in every model of f.

    Shared candidates come back as forced. For the others, Padoa's method:
    every unshared variable gets a copy in a doubled formula, and u is
    forced when no two models agree on the shared variables yet differ on
    u; the verdict holds however the unshared ones are later constrained.
    One engine holds the doubled formula, one assumption query per
    candidate (u true, its copy false; the copies are symmetric). Verdicts
    are kept in _VERDICTS for as long as f lives: asked again, no engine.
    """
    us, ys, n = frozenset(candidates), frozenset(shared), f.num_vars
    for u in us:
        if not 1 <= u <= n:
            raise ValueError(f"variable {u} out of range")
    unshared = us - ys
    if not unshared:
        return us
    verdicts = _VERDICTS.setdefault(f, {})
    key = (unshared, ys)
    if key not in verdicts:
        # literal-indexed, as in the engine (shadow[-v] is -shadow[v]): shared
        # variables map to themselves, the others to their copy n above
        shadow = [0] + [v if v in ys else v + n for v in range(1, n + 1)]
        shadow += [-s for s in reversed(shadow[1:])]
        engine = Engine(2 * n, list(f.clauses) + [[shadow[lit] for lit in c] for c in f.clauses])
        verdicts[key] = frozenset(u for u in unshared if not engine.satisfiable((u, -shadow[u])))
    return (us & ys) | verdicts[key]


def shared_variables(p: Problem) -> frozenset[int]:
    """The variables every chooser sees, the only candidates for a split; none without choosers."""
    if not p.max_vars:
        return frozenset()
    return frozenset.intersection(*(p.deps[x] for x in p.max_vars))


def plan_split(p: Problem) -> tuple[int, ...]:
    """The variables to split p on, in ascending order.

    Eligible are the variables every chooser sees that the counted
    variables force (counted ones among them); the smallest MAX_SPLIT_VARS
    are kept. Raises NoEligibleVariable when there are none.
    """
    if not p.max_vars:
        raise NoEligibleVariable("no choosers, nothing to split for")
    eligible = sorted(functionally_dependent(p.cnf, shared_variables(p), p.count_vars))
    if not eligible:
        raise NoEligibleVariable("no common dependency variable qualifies")
    return tuple(eligible[:MAX_SPLIT_VARS])


def leaf_problems(p: Problem, split: Sequence[int]) -> list[Problem]:
    """The cofactor of p under each monomial over split, in canonical order.

    Leaf k corresponds to the k-th monomial of minterms_of(split), the
    all-positive one first; the split variables leave every role.
    """
    gone = set(split)
    count_keep = p.count_vars - gone
    exist_keep = p.exist_vars - gone
    deps_keep = {x: p.deps[x] - gone for x in p.max_vars}
    return [Problem(cofactor(p.cnf, m), p.max_vars, count_keep, exist_keep, deps_keep)
            for m in minterms_of(split)]


def _recombine(p: Problem, split: Sequence[int], leaf_solutions: Sequence[Solution]) -> Solution:
    functions = {}
    for x in p.max_vars:
        support = tuple(sorted(p.deps[x]))
        minterms = []
        for leaf_m, sol in zip(minterms_of(split), leaf_solutions):
            for m in sol.functions[x].minterms:
                minterms.append(tuple(sorted(m + leaf_m, key=abs)))
        functions[x] = MintermFunction.of(support, minterms)
    achieved = sum(s.achieved_count for s in leaf_solutions)
    return Solution(functions=functions, achieved_count=achieved, total=p.total)


def solve_local(p: Problem) -> Solution:
    """Split, solve the leaves, recombine, and recount.

    The whole instance is solved by the global reduction where
    oracle.holds_rows(p), otherwise each leaf's cofactor, one leaf after
    another. The count is re-verified against an independent recount of
    the strategies before being returned; a disagreement raises and means
    a solver bug, never a bad input.
    """
    split = plan_split(p)
    if holds_rows(p):
        solution = solve_global(p)
    else:
        solve_leaf = LEAF_SOLVERS["global"]
        solution = _recombine(p, split, [solve_leaf(leaf) for leaf in leaf_problems(p, split)])
    check_solution(p, solution)
    return solution
