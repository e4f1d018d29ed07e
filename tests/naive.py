"""Slow reference implementations used to cross-check the real ones.

Everything here walks truth tables or small game trees directly, or, for
variable elimination, searches plain clause sets afresh at every step,
with no shared code paths into the package under test beyond the basic
dataclasses.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from dqmaxsat.formula import Problem, Solution, minterms_of


def assignments(variables: Iterable[int]):
    vs = sorted(variables)
    for bits in itertools.product([False, True], repeat=len(vs)):
        yield dict(zip(vs, bits))


def eval_clause(clause, assignment: Mapping[int, bool]) -> bool:
    return any(assignment[abs(lit)] == (lit > 0) for lit in clause)


def eval_cnf(clauses, assignment: Mapping[int, bool]) -> bool:
    return all(eval_clause(c, assignment) for c in clauses)


def tt_models(num_vars: int, clauses) -> list[dict[int, bool]]:
    return [a for a in assignments(range(1, num_vars + 1)) if eval_cnf(clauses, a)]


def tt_satisfiable(num_vars: int, clauses) -> bool:
    return any(eval_cnf(clauses, a) for a in assignments(range(1, num_vars + 1)))


def tt_projections(num_vars: int, clauses, proj: Iterable[int]) -> set[tuple[bool, ...]]:
    pv = sorted(set(proj))
    found = set()
    for m in tt_models(num_vars, clauses):
        found.add(tuple(m[v] for v in pv))
    return found


def tt_projections_by_rows(num_vars: int, clauses, proj: Iterable[int]) -> set[tuple[bool, ...]]:
    """tt_projections, with one int holding a clause's value on all 2^n rows.

    Row r sets variable v to bit v-1 of r. Fast enough for 12 variables in
    a property test.
    """
    rows = 1 << num_vars
    every = (1 << rows) - 1
    true_on = [0]
    for v in range(1, num_vars + 1):
        half = 1 << (v - 1)
        # 2^(v-1) rows false, then as many true, repeated
        true_on.append(every // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half))
    models = every
    for c in clauses:
        sat = 0
        for lit in c:
            sat |= true_on[lit] if lit > 0 else every ^ true_on[-lit]
        models &= sat
    pv = sorted(set(proj))
    found = set()
    while models:
        r = (models & -models).bit_length() - 1
        models &= models - 1
        found.add(tuple(bool(r >> (v - 1) & 1) for v in pv))
    return found


def tt_count_projected(num_vars: int, clauses, proj: Iterable[int]) -> int:
    if not set(proj):
        return 1 if tt_satisfiable(num_vars, clauses) else 0
    return len(tt_projections(num_vars, clauses, proj))


def minterm_substitution(problem: Problem, solution: Solution) -> list[tuple[int, ...]]:
    """The objective's clauses plus one clause per complete monomial of each support.

    The minterm encoding that cube covers replaced in the recount: for each
    chooser x and each monomial m over its support, (-m | x) when m is a
    minterm of x's function and (-m | -x) otherwise. 2^|H| clauses of width
    |H| + 1 per chooser; the empty support gives one unit clause.
    """
    clauses = list(problem.cnf.clauses)
    for x in problem.max_vars:
        fn = solution.functions[x]
        for m in minterms_of(fn.support):
            clauses.append(tuple(-l for l in m) + (x if m in fn.minterms else -x,))
    return clauses


def minterm_recount(problem: Problem, solution: Solution) -> int:
    """The count of the minterm encoding, by truth table."""
    return tt_count_projected(problem.cnf.num_vars, minterm_substitution(problem, solution),
                              problem.count_vars)


def candidate_functions(support):
    """All functions on a support, as minterm frozensets, in mask order.

    Mask bit j picks the j-th minterm of minterms_of(support), masks ascend
    from 0 (constant false) to all-ones (constant true).
    """
    terms = minterms_of(tuple(support))
    for mask in range(1 << len(terms)):
        yield frozenset(terms[j] for j in range(len(terms)) if mask >> j & 1)


def naive_dqmaxsat(problem: Problem) -> tuple[int, dict[int, frozenset]]:
    """Exhaustive strategy search by direct truth-table evaluation.

    Iterates candidate tuples with the last listed variable cycling fastest
    and keeps the first strict maximum, mirroring the order contract of the
    packaged brute-force oracle so results can be compared bit for bit.
    """
    xs = problem.max_vars
    ys = sorted(problem.count_vars)
    others = sorted(set(range(1, problem.cnf.num_vars + 1)) - set(xs))
    best_count = -1
    best: dict[int, frozenset] = {}
    for combo in itertools.product(*(candidate_functions(problem.deps[x]) for x in xs)):
        chosen = dict(zip(xs, combo))
        seen = set()
        for a in assignments(others):
            full = dict(a)
            for x in xs:
                point = tuple(
                    v if full[abs(v)] else -v for v in sorted(problem.deps[x])
                )
                full[x] = point in chosen[x]
            if eval_cnf(problem.cnf.clauses, full):
                seen.add(tuple(full[y] for y in ys))
        if len(seen) > best_count:
            best_count = len(seen)
            best = chosen
    return best_count, best


def split_tree_capacity(secrets: frozenset, thresholds: Iterable[int], queries: int) -> int:
    """Most distinct observation outcomes an adaptive threshold tester forces.

    Each query partitions the live secret set against a chosen threshold and
    every non-empty leaf of the resulting depth-bounded tree is one outcome.
    Exact: any adaptive threshold strategy induces such a tree and vice
    versa, and wasting a query never beats splitting (the value is monotone
    in the remaining depth).
    """
    ts = sorted(set(thresholds))

    def go(live: frozenset, left: int) -> int:
        if not live:
            return 0
        best = 1
        if left > 0:
            for t in ts:
                hi = frozenset(z for z in live if z >= t)
                lo = live - hi
                if hi and lo:
                    best = max(best, go(hi, left - 1) + go(lo, left - 1))
        return best

    return go(secrets, queries)


def best_interval_hits(width: int) -> int:
    """Optimum of the two-sided bound game at a given bit width.

    Two hidden words a, b are drawn; their wrapped sum s is announced; the
    tester answers one word g per sum class and scores the pairs with
    a <= g <= b. Classes partition the pairs, so classwise maxima add up.
    """
    n = 1 << width
    per_sum: dict[int, list[tuple[int, int]]] = {}
    for a in range(n):
        for b in range(n):
            per_sum.setdefault((a + b) % n, []).append((a, b))
    total = 0
    for pairs in per_sum.values():
        total += max(sum(a <= g <= b for a, b in pairs) for g in range(n))
    return total


def eliminate_by_sets(p: Problem) -> tuple[list[frozenset[int]], list[int]]:
    """What formula.eliminate_unseen leaves, as clause sets, and the variables it eliminates.

    The same rule over clause sets, searched afresh for every variable:
    tautologies go first, then each existential variable that no chooser
    sees, highest first, goes when its distinct non-tautological
    resolvents are no more than its clauses. The clauses left are
    returned in no particular order, the eliminated variables as tried.
    """
    seen = p.count_vars.union(p.max_vars, *p.deps.values())
    clauses = [frozenset(c) for c in p.cnf.clauses if not any(-lit in c for lit in c)]
    gone = []
    for v in sorted(p.exist_vars - seen, reverse=True):
        pos = [c for c in clauses if v in c]
        neg = [c for c in clauses if -v in c]
        resolvents = {(a - {v}) | (b - {-v}) for a in pos for b in neg}
        resolvents = {r for r in resolvents if not any(-lit in r for lit in r)}
        if len(resolvents) <= len(pos) + len(neg):
            clauses = [c for c in clauses if v not in c and -v not in c] + list(resolvents)
            gone.append(v)
    return clauses, gone
