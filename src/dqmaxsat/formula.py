"""Clause-level vocabulary: literals, CNF formulas, monomials, problems.

Literals are nonzero signed integers (DIMACS convention): ``v`` is the
positive literal of variable ``v``, ``-v`` its negation. A monomial is a
tuple of literals, one per variable of its support, sorted by variable id.
A clause is a tuple of literals, kept as built: only the engine cleans it.

A synthesized function is put back into a formula as disjoint cubes, the
leaves of its Shannon tree over the ascending support, cut where the
function is constant: one clause per cube, at most
min(2^|H|, |M|·|H| + 1) for |M| minterms over |H| support variables.

A local or global solve runs on eliminate_unseen(problem): the formula
with the existential variables that no chooser sees eliminated where that
pays, each fixed false by a unit clause. Every projected count the solve
takes is the same on it, and the answer is recounted on the problem as
loaded.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence


class DependencyViolation(ValueError):
    """A synthesized function uses variables outside its dependency set."""


@dataclass(frozen=True)
class Cnf:
    """An immutable CNF formula over variables 1..num_vars, clauses kept as built."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    @staticmethod
    def build(num_vars: int, clause_lists: Iterable[Iterable[int]]) -> "Cnf":
        """The formula over the given clauses, each made a tuple as it is."""
        return Cnf(num_vars, tuple(map(tuple, clause_lists)))

    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for c in self.clauses for l in c)


TRUE_CNF = Cnf(0, ())


def cofactor(f: Cnf, lits: Iterable[int]) -> Cnf:
    """Restrict f by a monomial: make each of its literals true, in one pass.

    Satisfied clauses disappear, falsified literals are deleted, and the
    remaining clauses keep their order. A clause reduced to the empty tuple
    marks the cofactor unsatisfiable; that is a valid result, not an error.
    """
    true = set(lits)
    false = {-l for l in true}
    out = []
    for c in f.clauses:
        if true.isdisjoint(c):
            out.append(c if false.isdisjoint(c) else tuple(l for l in c if l not in false))
    return Cnf(f.num_vars, tuple(out))


def eliminate_unseen(p: "Problem") -> "Problem":
    """p with the existential variables that no chooser sees eliminated where that pays.

    One pass of bounded variable elimination (Eén & Biere, SAT 2005) over
    the existential variables outside every dependency set, highest id
    first, so that a gate output goes before its inputs. A variable v goes
    when the distinct non-tautological resolvents of its clauses on v are
    no more than those clauses, and replaces them. The formula left is
    ∃v of the one before. Since no chooser sees v, every projected count
    under any strategies stays the same (Lagniez & Marquis, AAAI 2014),
    and so do Padoa's verdicts and the cells, rows and optima that the
    oracle derives from the formula.

    Each eliminated variable keeps its id and role and is fixed false by a
    unit clause, its only occurrence, so no engine branches on it; apart
    from those units the clause count never grows. Tautologies are
    dropped. The other clauses that stay keep their order, the resolvents
    follow in the order made, each with its literals by ascending variable,
    then the units by ascending variable. Returns p itself when nothing
    goes.
    """
    seen = p.count_vars.union(p.max_vars, *p.deps.values())
    candidates = sorted(p.exist_vars - seen, reverse=True)
    if not candidates:
        return p
    n = p.cnf.num_vars
    clauses = list(p.cnf.clauses)
    # each clause's literals as a set, None once it is dropped (a tautology
    # at once); sets keep the memory linear in the formula, where bit sets
    # over literal codes would take |clauses| * num_vars bits
    live: list[Optional[frozenset[int]]] = []
    occurs: list[list[int]] = [[] for _ in range(2 * n + 1)]  # literal-indexed
    for i, c in enumerate(clauses):
        lits = frozenset(c)
        if lits.isdisjoint(map(operator.neg, lits)):
            for lit in lits:
                occurs[lit].append(i)
        else:
            lits = None
        live.append(lits)
    gone = []
    for v in candidates:
        pos = [i for i in occurs[v] if live[i] is not None]
        neg = [i for i in occurs[-v] if live[i] is not None]
        replaced = len(pos) + len(neg)
        rests = [live[j] - {-v} for j in neg]
        resolvents: dict[frozenset[int], None] = {}
        for i in pos:
            c = live[i] - {v}
            clash = frozenset(map(operator.neg, c))
            for d in rests:
                if clash.isdisjoint(d):
                    resolvents[c | d] = None
            if len(resolvents) > replaced:
                break
        else:
            for i in pos + neg:
                live[i] = None
            for r in resolvents:
                for lit in r:
                    occurs[lit].append(len(live))
                live.append(r)
                clauses.append(tuple(sorted(r, key=abs)))
            gone.append(v)
    if not gone:
        return p
    clauses = [c for c, lits in zip(clauses, live) if lits is not None]
    clauses += [(-v,) for v in reversed(gone)]
    return Problem(Cnf(n, tuple(clauses)), p.max_vars, p.count_vars, p.exist_vars, p.deps)


def minterms_of(support: Sequence[int]) -> list[tuple[int, ...]]:
    """All complete monomials over `support` in binary-counting order.

    The support is taken in ascending variable order. Index 0 is the
    all-positive monomial; bit j of the index (most significant bit first)
    negates the j-th smallest support variable. The empty support yields
    the single empty monomial.
    """
    vs = sorted(support)
    if len(set(vs)) != len(vs):
        raise ValueError("support has duplicate variables")
    n = len(vs)
    out = []
    for k in range(1 << n):
        lits = [vs[j] if not (k >> (n - 1 - j)) & 1 else -vs[j] for j in range(n)]
        out.append(tuple(sorted(lits, key=abs)))
    return out


def negate_monomial(m: Sequence[int]) -> tuple[int, ...]:
    """The clause asserting that monomial `m` does not hold."""
    return tuple(-l for l in m)


def monomial_holds(m: Sequence[int], assignment: Mapping[int, bool]) -> bool:
    return all(assignment[abs(l)] == (l > 0) for l in m)


@dataclass(frozen=True)
class MintermFunction:
    """A Boolean function given as the set of its selected complete monomials.

    The form is canonical: the support ascends and each minterm lists its
    literals in support order, which the recount relies on. `.of` and
    `.constant` build it from any order.
    """

    support: tuple[int, ...]
    minterms: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        sup = set(self.support)
        if len(sup) != len(self.support):
            raise ValueError("support has duplicate variables")
        if list(self.support) != sorted(sup):
            raise ValueError(f"support {self.support} is not in ascending order; build with .of")
        for m in self.minterms:
            if len(m) != len(sup) or {abs(l) for l in m} != sup:
                raise ValueError(f"minterm {m} is not complete over support {self.support}")
            if any(abs(l) != v for l, v in zip(m, self.support)):
                raise ValueError(f"minterm {m} is not sorted by variable; build with .of")

    @staticmethod
    def of(support: Sequence[int], minterms: Iterable[Sequence[int]]) -> "MintermFunction":
        return MintermFunction(
            tuple(sorted(support)),
            frozenset(tuple(sorted(m, key=abs)) for m in minterms),
        )

    @staticmethod
    def constant(value: bool) -> "MintermFunction":
        # the empty monomial selected/unselected encodes top/bottom
        return MintermFunction((), frozenset([()]) if value else frozenset())

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return any(monomial_holds(m, assignment) for m in self.minterms)

    def constant_value(self) -> Optional[bool]:
        """The constant this function equals, or None if it is not constant."""
        if not self.minterms:
            return False
        if len(self.minterms) == 1 << len(self.support):
            return True
        return None


@dataclass(frozen=True)
class Problem:
    """A maximization instance: CNF objective plus variable roles.

    max_vars is the ordered quantifier prefix of maximizing variables;
    deps maps each of them to its dependency set, a subset of
    count_vars | exist_vars. Each formula variable lies in 1..cnf.num_vars.
    """

    cnf: Cnf
    max_vars: tuple[int, ...]
    count_vars: frozenset[int]
    exist_vars: frozenset[int]
    deps: Mapping[int, frozenset[int]]

    def __post_init__(self) -> None:
        xs = set(self.max_vars)
        if len(xs) != len(self.max_vars):
            raise ValueError("duplicate maximizing variable")
        if xs & self.count_vars or xs & self.exist_vars or self.count_vars & self.exist_vars:
            raise ValueError("variable role sets must be pairwise disjoint")
        used = self.cnf.variables()
        if used and (0 in used or max(used) > self.cnf.num_vars):
            raise ValueError(f"the formula has a literal outside 1..{self.cnf.num_vars}")
        declared = xs | self.count_vars | self.exist_vars
        missing = used - declared
        if missing:
            raise ValueError(f"variables {sorted(missing)} occur in the formula but have no role")
        if set(self.deps) != xs:
            raise ValueError("deps must map exactly the maximizing variables")
        pool = self.count_vars | self.exist_vars
        for x, h in self.deps.items():
            extra = set(h) - pool
            if extra:
                raise ValueError(f"dependency set of {x} mentions non-counting, non-existential {sorted(extra)}")

    @staticmethod
    def of(
        cnf: Cnf,
        max_vars: Sequence[int],
        count_vars: Iterable[int],
        exist_vars: Iterable[int],
        deps: Mapping[int, Iterable[int]],
    ) -> "Problem":
        return Problem(
            cnf,
            tuple(max_vars),
            frozenset(count_vars),
            frozenset(exist_vars),
            {x: frozenset(h) for x, h in deps.items()},
        )

    @property
    def total(self) -> int:
        return 1 << len(self.count_vars)


@dataclass(frozen=True)
class Solution:
    """Synthesized functions for the maximizing variables plus the count they achieve."""

    functions: Mapping[int, MintermFunction]
    achieved_count: Optional[int] = None
    total: Optional[int] = None


def selector_definition_clauses(
    x: int, support: Sequence[int], selector_of: Mapping[tuple[int, ...], int]
) -> list[tuple[int, ...]]:
    """Clauses tying x to its per-monomial selector variables.

    Encodes x ⇔ ⋁_m (selector_of[m] ∧ m) with no auxiliary variables:
    complete monomials over the support are mutually exclusive and
    exhaustive, so per minterm the pair (¬m ∨ ¬x ∨ s) ∧ (¬m ∨ x ∨ ¬s)
    suffices. 2·2^|support| clauses of length |support|+2.
    """
    out = []
    for m in minterms_of(support):
        s = selector_of[m]
        nm = negate_monomial(m)
        out.append(nm + (-x, s))
        out.append(nm + (x, -s))
    return out


def _cubes(fn: MintermFunction) -> list[tuple[tuple[int, ...], bool]]:
    """The leaves of fn's Shannon tree over its ascending support, with fn's value on each.

    A node is split on the next support variable, positive branch first,
    unless fn is constant below it. The cubes are disjoint and cover every
    point of the support; there are at most min(2^|H|, |M|·|H| + 1) of them,
    since every split node holds a minterm and a minterm lies below one node
    per depth. The empty support gives the single empty cube.
    """
    n = len(fn.support)
    out = []
    stack = [((), list(fn.minterms))]
    while stack:
        cube, ms = stack.pop()
        j = len(cube)
        if not ms or len(ms) == 1 << (n - j):
            out.append((cube, bool(ms)))
            continue
        v = fn.support[j]
        stack.append((cube + (-v,), [m for m in ms if m[j] < 0]))
        stack.append((cube + (v,), [m for m in ms if m[j] > 0]))
    return out


def apply_substitution(p: Problem, s: Solution) -> Cnf:
    """Conjoin definition clauses fixing each maximizing variable to its function.

    Each function's cubes (`_cubes`) are disjoint and cover its support
    space, so constant selection needs no auxiliary variables: a cube c on
    which the function is true contributes (-c | x), one on which it is
    false (-c | -x). Every assignment of the non-maximizing variables then
    forces each x to its function value, making the result equivalent to
    the substituted objective once the maximizing variables are treated as
    existential. A function with minterm set M over support H adds at most
    min(2^|H|, |M|·|H| + 1) clauses, none longer than |H| + 1, so the
    recount's size follows the function, not 2^|H|; a constant adds one
    unit clause.
    """
    clauses = list(p.cnf.clauses)
    for x in p.max_vars:
        fn = s.functions.get(x)
        if fn is None:
            raise DependencyViolation(f"no function provided for maximizing variable {x}")
        if not set(fn.support) <= p.deps[x]:
            raise DependencyViolation(
                f"function for {x} depends on {sorted(set(fn.support) - p.deps[x])}, "
                f"outside its dependency set"
            )
        for cube, value in _cubes(fn):
            clauses.append(negate_monomial(cube) + (x if value else -x,))
    return Cnf.build(p.cnf.num_vars, clauses)
