"""Divide and conquer on variables every chooser is allowed to see.

A variable u common to all dependency sets can be fixed to a constant: the
two cofactor sub-problems are independent, strictly smaller, and their
optima add up. Eligibility requires u to be a counted variable, or an
existential one that the objective pins down as a function of the counted
variables (otherwise the two cofactors could double-count). All eligible
variables are eliminated at once, bounded by a leaf budget, and the leaf
strategies are stitched back together by Shannon expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .counting import check_solution
from .engine import Engine
from .formula import Cnf, MintermFunction, Problem, Solution, cofactor, minterms_of
from .incremental import run as incremental_run
from .reduction import solve_global

DEFAULT_LEAF_BUDGET = 64

LEAF_SOLVERS: dict[str, Callable[[Problem], Solution]] = {
    "global": solve_global,
    "incremental": incremental_run,
}


class NoEligibleVariable(ValueError):
    """No variable qualifies for splitting; use another method."""


@dataclass(frozen=True)
class SplitPlan:
    split_vars: tuple[int, ...]
    leaves: tuple[Problem, ...]


def functionally_dependent(f: Cnf, u: int, count_vars: Iterable[int]) -> bool:
    """Whether u is forced by the count variables in every model of f.

    Checks that no two models agree on all count variables yet differ on u,
    with every non-count variable duplicated in a second copy of f. Sharing
    only the count variables makes the verdict independent of how the other
    variables might later be constrained, so one check covers every
    substitution. One satisfiability call on the doubled formula, which the
    engine loads in one pass.
    """
    ys = set(count_vars)
    if u in ys:
        raise ValueError(f"{u} is a count variable")
    n = f.num_vars
    if not 1 <= u <= n:
        raise ValueError(f"variable {u} out of range")
    # literal-indexed, as in the engine: count variables map to themselves,
    # the others to their copy n above
    shadow = [0] * (2 * n + 1)
    for v in range(1, n + 1):
        s = v if v in ys else v + n
        shadow[v] = s
        shadow[-v] = -s
    doubled = list(f.clauses)
    doubled += [[shadow[lit] for lit in c] for c in f.clauses]
    doubled += [(u, shadow[u]), (-u, -shadow[u])]
    return not Engine(2 * n, doubled).satisfiable()


def plan_split(p: Problem, leaf_budget: int = DEFAULT_LEAF_BUDGET) -> SplitPlan:
    """Pick the split variables and build all cofactor leaf problems.

    Eligible variables are taken in ascending id order; when their full
    power set of assignments would exceed leaf_budget leaves, only a prefix
    is eliminated. Leaf k corresponds to the k-th canonical monomial over
    the split variables (all-positive first). A leaf_budget below 1
    raises ValueError: no split fits it, not even the unsplit problem.
    """
    if leaf_budget < 1:
        raise ValueError(f"leaf budget must be at least 1, got {leaf_budget}")
    if not p.max_vars:
        raise NoEligibleVariable("no choosers, nothing to split for")
    common = frozenset.intersection(*(p.deps[x] for x in p.max_vars))
    eligible = [
        u for u in sorted(common)
        if u in p.count_vars or functionally_dependent(p.cnf, u, p.count_vars)
    ]
    if not eligible:
        raise NoEligibleVariable("no common dependency variable qualifies")
    while (1 << len(eligible)) > leaf_budget:
        eligible.pop()
    split = tuple(eligible)

    leaves = []
    count_keep = p.count_vars - set(split)
    exist_keep = p.exist_vars - set(split)
    deps_keep = {x: p.deps[x] - set(split) for x in p.max_vars}
    for m in minterms_of(split):
        f = p.cnf
        for lit in m:
            f = cofactor(f, abs(lit), lit > 0)
        leaves.append(Problem.of(f, p.max_vars, count_keep, exist_keep, deps_keep))
    return SplitPlan(split, tuple(leaves))


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


def solve_local(
    p: Problem,
    leaf_solver: str = "global",
    leaf_budget: int = DEFAULT_LEAF_BUDGET,
) -> Solution:
    """Split, solve the leaves one after another, recombine, and recount.

    The summed leaf counts are re-verified against an independent recount of
    the recombined strategies before being returned; a disagreement raises
    and means a solver bug, never a bad input.
    """
    if leaf_solver not in LEAF_SOLVERS:
        raise ValueError(f"unknown leaf solver {leaf_solver!r}, expected one of {sorted(LEAF_SOLVERS)}")
    solve_leaf = LEAF_SOLVERS[leaf_solver]
    plan = plan_split(p, leaf_budget)
    leaf_solutions = [solve_leaf(leaf) for leaf in plan.leaves]
    solution = _recombine(p, plan.split_vars, leaf_solutions)
    check_solution(p, solution)
    return solution
