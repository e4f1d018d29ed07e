"""Divide and conquer on variables every chooser is allowed to see.

A variable u common to all dependency sets can be fixed to a constant: the
two cofactor sub-problems are independent, strictly smaller, and their
optima add up. Eligibility requires u to be a counted variable, or an
existential one that the objective pins down as a function of the counted
variables (otherwise the two cofactors could double-count). plan_split
only picks up to MAX_SPLIT_VARS eligible variables; solve_local solves
every leaf and stitches their strategies together by Shannon expansion.

No leaf is built as a problem of its own. The leaves' root cells come from
one projected enumeration of the whole problem over its counted and split
variables (leaf_cells), not one per leaf. That is exact: every split
variable is counted or forced by the counted variables, so the enumeration
has no more cells than the count projection, and the cells that agree with
a leaf's monomial are, with the split literals dropped, exactly the leaf's
own cells, still in lexicographic order. All leaves share one selector
layout, the dependency sets less the split variables, so one selector
objective and one oracle engine serve them all: each leaf is one oracle
call that assumes its monomial first (OracleRequest.given) instead of
cofactoring by it. The split variables occur in no selector definition and
no cell, so each probe has the answer it would have on the leaf's
cofactor, and the engine's learned clauses follow from the objective alone,
so they hold in every leaf.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Sequence

from .counting import check_solution
from .engine import Engine
from .formula import Cnf, MintermFunction, Problem, Solution, minterms_of
from .oracle import reachable_cells
from .reduction import selector_request, solve_request

# at most 2**6 = 64 leaves per split
MAX_SPLIT_VARS = 6

# leaves are solved by the global reduction's oracle call, once per leaf, on
# the one engine and selector map of the solve, each request given its
# monomial and its share of the one enumeration (leaf_cells) as root cells; a
# one-entry table only because the benchmark's spans (perfbench/spans.py)
# wrap its values, so solve_local looks the solver up here on every call
LEAF_SOLVERS: dict[str, Callable[..., Solution]] = {"global": solve_request}


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


def leaf_cells(p: Problem, split: Sequence[int]) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Each leaf's root cells, keyed by its monomial over split.

    One enumeration over the count and split variables; the share of
    monomial m equals reachable_cells of the cofactor of p under m over its
    counted variables: the cells whose split literals form m, with those
    literals dropped, over p.count_vars less split.
    """
    gone = set(split)
    order = sorted(p.count_vars | gone)
    at = [i for i, v in enumerate(order) if v in gone]
    rest = [i for i, v in enumerate(order) if v not in gone]
    shares: dict[tuple[int, ...], list[tuple[int, ...]]] = {m: [] for m in minterms_of(split)}
    for cell in reachable_cells(p.cnf, order):
        shares[tuple([cell[i] for i in at])].append(tuple([cell[i] for i in rest]))
    return {m: tuple(share) for m, share in shares.items()}


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

    One enumeration gives every leaf its root cells (leaf_cells), and one
    engine, loaded once with the selector objective over the dependency
    sets less the split variables, answers every leaf's oracle call. The
    summed leaf counts are re-verified against an independent recount of
    the recombined strategies before being returned; a disagreement raises
    and means a solver bug, never a bad input.
    """
    solve_leaf = LEAF_SOLVERS["global"]
    split = plan_split(p)
    shares = leaf_cells(p, split)
    gone = frozenset(split)
    req, sel = selector_request(p, {x: p.deps[x] - gone for x in p.max_vars})
    req = replace(req, count_vars=p.count_vars - gone)
    probe = Engine(req.objective.num_vars, req.objective.clauses)
    leaf_solutions = [solve_leaf(replace(req, given=m, cells=shares[m]), sel, probe)
                      for m in minterms_of(split)]
    solution = _recombine(p, split, leaf_solutions)
    check_solution(p, solution)
    return solution
