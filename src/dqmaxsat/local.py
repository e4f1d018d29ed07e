"""Divide and conquer on variables every chooser is allowed to see.

A variable u common to all dependency sets can be fixed to a constant: the
two cofactor sub-problems are independent, strictly smaller, and their
optima add up. Eligibility requires u to be a counted variable, or an
existential one that the objective pins down as a function of the counted
variables (otherwise the two cofactors could double-count). plan_split
only picks up to MAX_SPLIT_VARS eligible variables; solve_local solves
every leaf and stitches their strategies together by Shannon expansion.

When every chooser sees exactly the split variables (and there are at most
MAX_SPLIT_VARS choosers), each leaf picks one tuple of constants: Max#SAT
over constant choices. constant_leaves then answers every leaf from one
projected enumeration over the counted, split and chooser variables,
tallying the cells per leaf and per chooser tuple; no oracle call is made.
That is exact: every split variable is counted or forced by the counted
variables, so the cells that agree with a leaf's monomial are, with the
split literals dropped, exactly the leaf's own cells.

Otherwise each leaf is the cofactor of the problem under its monomial
(leaf_problems), solved on its own by the global reduction. Leaf counts
add, so the optima of the whole are the products of the leaves' optima,
and within one monomial the order of minterms_of is the residual
support's own order: the product of the leaves' least optima is the least
optimum of the whole.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Sequence

from .counting import check_solution
from .engine import Engine
from .formula import Cnf, MintermFunction, Problem, Solution, cofactor, minterms_of
from .oracle import reachable_cells
from .reduction import solve_global

# at most 2**6 = 64 leaves per split, and as many chooser tuples per cell
# of constant leaves
MAX_SPLIT_VARS = 6

# leaves with a residual support are solved by the global reduction, once
# per leaf, on the leaf's own cofactor (leaf_problems); constant leaves
# (constant_leaves) never come here. A one-entry table only because the
# benchmark's spans (perfbench/spans.py) wrap its values, so solve_local
# looks the solver up here on every solve with residual leaves
LEAF_SOLVERS: dict[str, Callable[..., Solution]] = {"global": solve_global}


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


def constant_leaves(p: Problem, split: Sequence[int]) -> list[Solution]:
    """Each leaf's optimum when every chooser sees exactly the split variables.

    One enumeration over the count, split and chooser variables: a cell with
    split literals m, counted literals y and chooser values a says that leaf
    m reaches y with the choosers set to a, so each leaf's count for a is its
    tally of such cells. A leaf answers with the largest tally, ties going
    to the lexicographically least tuple in p.max_vars order, false first,
    and all false with count 0 when it has no cell. That is what the global
    reduction's oracle returns on the leaf: one selector per chooser, in
    p.max_vars order, searched false first from the all-false incumbent.
    The leaves come in minterms_of(split) order.
    """
    gone = set(split)
    order = sorted(p.count_vars | gone | set(p.max_vars))
    at = [i for i, v in enumerate(order) if v in gone]
    chooser_at = [order.index(x) for x in p.max_vars]
    tallies: dict[tuple[int, ...], Counter] = {m: Counter() for m in minterms_of(split)}
    for cell in reachable_cells(p.cnf, order):
        tallies[tuple([cell[i] for i in at])][tuple([cell[i] > 0 for i in chooser_at])] += 1
    leaves = []
    for tally in tallies.values():
        best = min(tally, key=lambda a: (-tally[a], a), default=(False,) * len(p.max_vars))
        functions = {x: MintermFunction.constant(v) for x, v in zip(p.max_vars, best)}
        leaves.append(Solution(functions=functions, achieved_count=tally[best]))
    return leaves


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

    Constant leaves, where every chooser sees exactly the split variables
    and there are at most MAX_SPLIT_VARS choosers, all come from one
    enumeration (constant_leaves). Otherwise each leaf's cofactor is solved
    by the global reduction, one leaf after another. The summed leaf counts
    are re-verified against an independent recount of the recombined
    strategies before being returned; a disagreement raises and means a
    solver bug, never a bad input.
    """
    split = plan_split(p)
    gone = frozenset(split)
    if len(p.max_vars) <= MAX_SPLIT_VARS and all(p.deps[x] == gone for x in p.max_vars):
        leaf_solutions = constant_leaves(p, split)
    else:
        solve_leaf = LEAF_SOLVERS["global"]
        leaf_solutions = [solve_leaf(leaf) for leaf in leaf_problems(p, split)]
    solution = _recombine(p, split, leaf_solutions)
    check_solution(p, solution)
    return solution
