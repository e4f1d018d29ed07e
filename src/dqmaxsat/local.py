"""Divide and conquer on variables every chooser is allowed to see.

A variable u common to all dependency sets can be fixed to a constant: the
two cofactor sub-problems are independent, strictly smaller, and their
optima add up. Eligibility requires u to be a counted variable, or an
existential one that the objective pins down as a function of the counted
variables (otherwise the two cofactors could double-count). plan_split
only picks up to MAX_SPLIT_VARS eligible variables; solve_local builds the
leaves once and stitches their strategies together by Shannon expansion.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .counting import check_solution
from .engine import Engine
from .formula import Cnf, MintermFunction, Problem, Solution, cofactor, minterms_of
from .reduction import solve_global

# at most 2**6 = 64 leaves per split
MAX_SPLIT_VARS = 6

# leaves are solved by the global reduction; a one-entry table only because
# the benchmark's spans (perfbench/spans.py) wrap its values, so solve_local
# looks the solver up here on every call
LEAF_SOLVERS: dict[str, Callable[[Problem], Solution]] = {"global": solve_global}


class NoEligibleVariable(ValueError):
    """No variable qualifies for splitting; use another method."""


def functionally_dependent(
    f: Cnf, candidates: Iterable[int], count_vars: Iterable[int]
) -> frozenset[int]:
    """The candidates that the count variables force in every model of f.

    Padoa's method: every non-count variable gets a copy in a doubled
    formula, and u is forced when no two models agree on all count variables
    yet differ on u. Sharing only the count variables makes the verdict hold
    however the other variables are later constrained, so one check covers
    every substitution. One engine holds the doubled formula, and each
    candidate is one assumption query (u true, its copy false): the copies
    are symmetric, so that also answers the opposite pair. No candidates, no
    engine.
    """
    ys = set(count_vars)
    n = f.num_vars
    us = set(candidates)
    for u in us:
        if u in ys:
            raise ValueError(f"{u} is a count variable")
        if not 1 <= u <= n:
            raise ValueError(f"variable {u} out of range")
    if not us:
        return frozenset()
    # literal-indexed, as in the engine (shadow[-v] is -shadow[v]): count
    # variables map to themselves, the others to their copy n above
    shadow = [0] + [v if v in ys else v + n for v in range(1, n + 1)]
    shadow += [-s for s in reversed(shadow[1:])]
    engine = Engine(2 * n, list(f.clauses) + [[shadow[lit] for lit in c] for c in f.clauses])
    return frozenset(u for u in us if not engine.satisfiable((u, -shadow[u])))


def plan_split(p: Problem) -> tuple[int, ...]:
    """The variables to split p on, in ascending order.

    Eligible are the counted variables every chooser sees and the seen
    existential ones the counted variables force; the smallest
    MAX_SPLIT_VARS of them are kept. Raises NoEligibleVariable when there
    are none.
    """
    if not p.max_vars:
        raise NoEligibleVariable("no choosers, nothing to split for")
    common = frozenset.intersection(*(p.deps[x] for x in p.max_vars))
    existential = common - p.count_vars
    forced = functionally_dependent(p.cnf, existential, p.count_vars) if existential else frozenset()
    eligible = sorted((common & p.count_vars) | forced)
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
    """Split, solve the leaves one after another, recombine, and recount.

    The summed leaf counts are re-verified against an independent recount of
    the recombined strategies before being returned; a disagreement raises
    and means a solver bug, never a bad input.
    """
    solve_leaf = LEAF_SOLVERS["global"]
    split = plan_split(p)
    leaf_solutions = [solve_leaf(leaf) for leaf in leaf_problems(p, split)]
    solution = _recombine(p, split, leaf_solutions)
    check_solution(p, solution)
    return solution
