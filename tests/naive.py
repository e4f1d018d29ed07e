"""Slow reference implementations used to cross-check the real ones.

Everything here walks truth tables or small game trees directly, or, for
variable elimination, searches plain clause sets afresh at every step,
or, for bitblasting, emits every gate's full definition, with no shared
code paths into the package under test beyond the basic dataclasses.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

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


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if abs(a) < abs(b) else (b, a)


class FullTseitinLowerer:
    """The bitblaster's gate emitter with every gate fully defined.

    The same interface as bitvec._Lowerer, so that encode runs on it when
    it is patched in. Each gate gets all its Tseitin clauses, both
    polarities, at creation; a sum bit is (a xor b) xor carry, a carry
    out (a and b) or (carry and (a xor b)), the final one included.
    Constants fold and equal gates are shared. Literals in variable order.
    """

    def __init__(self, first_gate_var: int):
        self.next_var = first_gate_var
        self.emitted: list[tuple[int, ...]] = []
        self._cache: dict[tuple, int] = {}

    def clauses(self) -> list[tuple[int, ...]]:
        return self.emitted

    def g_not(self, a):
        return (not a) if isinstance(a, bool) else -a

    def _gate(self, op: str, a: int, b: int) -> int:
        key = (op, min(a, b), max(a, b))
        g = self._cache.get(key)
        if g is None:
            g = self._cache[key] = self.next_var
            self.next_var += 1
            if op == "and":
                self.emitted += [(a, -g), (b, -g), (*_pair(-a, -b), g)]
            elif op == "or":
                self.emitted += [(-a, g), (-b, g), (*_pair(a, b), -g)]
            else:
                self.emitted += [(*_pair(a, b), -g), (*_pair(-a, -b), -g),
                                 (*_pair(-a, b), g), (*_pair(a, -b), g)]
        return g

    def g_and(self, a, b):
        if a is False or b is False:
            return False
        if a is True:
            return b
        if b is True:
            return a
        if a == b:
            return a
        if a == -b:
            return False
        return self._gate("and", a, b)

    def g_or(self, a, b):
        if a is True or b is True:
            return True
        if a is False:
            return b
        if b is False:
            return a
        if a == b:
            return a
        if a == -b:
            return True
        return self._gate("or", a, b)

    def g_xor(self, a, b):
        if isinstance(a, bool):
            return self.g_not(b) if a else b
        if isinstance(b, bool):
            return self.g_not(a) if b else a
        if a == b:
            return False
        if a == -b:
            return True
        return self._gate("xor", a, b)

    def ripple_add(self, xs: Sequence, ys: Sequence, carry=False) -> list:
        out = []
        for a, b in zip(xs, ys):
            axb = self.g_xor(a, b)
            out.append(self.g_xor(axb, carry))
            carry = self.g_or(self.g_and(a, b), self.g_and(carry, axb))
        return out

    def subtract(self, xs: Sequence, ys: Sequence) -> list:
        return self.ripple_add(xs, [self.g_not(b) for b in ys], True)

    def unsigned_ge(self, xs: Sequence, ys: Sequence):
        carry = True
        for a, b in zip(xs, [self.g_not(y) for y in ys]):
            axb = self.g_xor(a, b)
            carry = self.g_or(self.g_and(a, b), self.g_and(carry, axb))
        return carry

    def assert_ge(self, xs: Sequence, ys: Sequence) -> None:
        self.assert_bit(self.unsigned_ge(xs, ys))

    def equal(self, xs: Sequence, ys: Sequence):
        acc = True
        for a, b in zip(xs, ys):
            acc = self.g_and(acc, self.g_not(self.g_xor(a, b)))
        return acc

    def assert_bit(self, b) -> None:
        if b is not True:
            self.emitted.append(() if b is False else (b,))

    def tie_equal(self, vars_: Sequence[int], bits: Sequence) -> None:
        for v, b in zip(vars_, bits):
            if isinstance(b, bool):
                self.emitted.append((v if b else -v,))
            else:
                self.emitted += [_pair(-v, b), _pair(v, -b)]

    def bits_of(self, e, env: Mapping[str, tuple[int, ...]]) -> list:
        if e.op == "const":
            return [bool(e.value >> i & 1) for i in range(e.width)]
        if e.op == "var":
            return list(env[e.name])
        if e.op == "not":
            return [self.g_not(self.bits_of(e.args[0], env)[0])]
        xs = self.bits_of(e.args[0], env)
        ys = self.bits_of(e.args[1], env)
        if e.op == "add":
            return self.ripple_add(xs, ys)
        if e.op == "sub":
            return self.subtract(xs, ys)
        if e.op == "eq":
            return [self.equal(xs, ys)]
        if e.op == "ge":
            return [self.unsigned_ge(xs, ys)]
        if e.op == "le":
            return [self.unsigned_ge(ys, xs)]
        return [self.g_and(xs[0], ys[0]) if e.op == "and" else self.g_or(xs[0], ys[0])]
