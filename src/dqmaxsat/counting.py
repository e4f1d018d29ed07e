"""Projected model counting and independent solution verification.

A recount substitutes each function as the cubes of its Shannon-tree cover
(`formula.apply_substitution`), at most min(2^|H|, |M|·|H| + 1) clauses
for |M| minterms over support H, so its size follows the functions, not
the width of their supports.
"""

from __future__ import annotations

from typing import Iterable

from .engine import enumerate_projected
from .formula import Cnf, Problem, Solution, apply_substitution


class VerificationMismatch(ValueError):
    """A claimed count disagrees with the recomputed one."""


def count_projected(f: Cnf, count_vars: Iterable[int], exist_vars: Iterable[int] = ()) -> int:
    """Number of count_vars assignments extendable to a model of f.

    A counted variable that no clause mentions doubles the count unenumerated.
    Variables of f outside count_vars are existentially quantified whether or
    not they are listed in exist_vars; the explicit list only guards against
    accidental overlap between the two roles. The package never passes it
    (a Problem rules the overlap out); it stays because the benchmark's own
    tests (perfbench/tests/test_bench.py) do.
    """
    count = set(count_vars)
    overlap = count & set(exist_vars)
    if overlap:
        raise ValueError(f"variables counted and eliminated at once: {sorted(overlap)}")
    return enumerate_projected(f, count & f.variables()) << len(count - f.variables())


def check_solution(problem: Problem, solution: Solution) -> int:
    """Recount a candidate solution from scratch.

    Substitutes the functions into the objective, one clause per cube of
    each function's cover, and re-runs the projected count. Raises
    DependencyViolation when a function reads outside its variable's
    dependency set, VerificationMismatch when the solution carries a claimed
    count that the recount contradicts. Returns the true count.
    """
    composed = apply_substitution(problem, solution)
    count = count_projected(composed, problem.count_vars)
    if solution.achieved_count is not None and solution.achieved_count != count:
        raise VerificationMismatch(
            f"claimed {solution.achieved_count} models, recount found {count}"
        )
    if solution.total is not None and solution.total != problem.total:
        raise VerificationMismatch(
            f"claimed a space of {solution.total} assignments, problem has {problem.total}"
        )
    return count
