"""Hand-built reference instances, random instance generators, and leaf problems."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from dqmaxsat.formula import Cnf, MintermFunction, Problem, cofactor, minterms_of


def copy_or_and() -> Problem:
    """One chooser reading two derived signals: an or and an and of the counters.

    Variables: 1 chooser, 2 and 3 counted, 4 = (2 or 3), 5 = (2 and 3);
    the objective forces 1 == 2. Optimum 3 of 4.
    """
    f = Cnf.build(5, [
        [-1, 2], [1, -2],
        [-4, 2, 3], [4, -2], [4, -3],
        [-5, 2], [-5, 3], [5, -2, -3],
    ])
    return Problem.of(f, max_vars=[1], count_vars=[2, 3], exist_vars=[4, 5],
                      deps={1: [4, 5]})


def two_implications() -> Problem:
    """Two choosers, each seeing one helper signal. Optimum 3 of 4.

    Variables: choosers 1 and 2, counted 3 and 4, helpers 5 and 6.
    Encodes (1 -> 4) and (3 -> 2) and ((3 or 6) == (4 and 5)).
    """
    f = Cnf.build(6, [
        [-1, 4],
        [-3, 2],
        [-3, 4], [-3, 5],
        [-6, 4], [-6, 5],
        [-4, -5, 3, 6],
    ])
    return Problem.of(f, max_vars=[1, 2], count_vars=[3, 4], exist_vars=[5, 6],
                      deps={1: [5], 2: [6]})


def copy_or() -> Problem:
    """Single chooser seeing only the or-signal. Optimum 3 via copying it."""
    f = Cnf.build(4, [
        [-1, 2], [1, -2],
        [-4, 2, 3], [4, -2], [4, -3],
    ])
    return Problem.of(f, max_vars=[1], count_vars=[2, 3], exist_vars=[4],
                      deps={1: [4]})


def random_problem(rng: random.Random, num_vars: int = 7, num_max: int = 2,
                   dep_limit: int = 2, num_clauses: int | None = None) -> Problem:
    """A random instance with small dependency sets.

    Role assignment: variables 1..num_max maximize, at least one counted
    variable, the rest split between counted and existential at random.
    """
    assert num_vars >= num_max + 1
    rest = list(range(num_max + 1, num_vars + 1))
    count_vars = [num_max + 1] + [v for v in rest[1:] if rng.random() < 0.5]
    exist_vars = [v for v in rest[1:] if v not in count_vars]
    pool = count_vars + exist_vars
    deps = {
        x: rng.sample(pool, rng.randint(0, min(dep_limit, len(pool))))
        for x in range(1, num_max + 1)
    }
    if num_clauses is None:
        num_clauses = rng.randint(1, 2 * num_vars)
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(3, num_vars))
        vs = rng.sample(range(1, num_vars + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return Problem.of(Cnf.build(num_vars, clauses), max_vars=list(range(1, num_max + 1)),
                      count_vars=count_vars, exist_vars=exist_vars, deps=deps)


@st.composite
def problems(draw, max_num_vars: int = 7, max_num_max: int = 2, dep_limit: int = 2):
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    rng = random.Random(seed)
    num_max = draw(st.integers(min_value=1, max_value=max_num_max))
    num_vars = draw(st.integers(min_value=num_max + 1, max_value=max_num_vars))
    return random_problem(rng, num_vars=num_vars, num_max=num_max, dep_limit=dep_limit)


@st.composite
def functions(draw, support) -> MintermFunction:
    """A random function over support: a set of its minterms, or the complement of one."""
    terms = minterms_of(support)
    chosen = draw(st.sets(st.sampled_from(terms)))
    if draw(st.booleans()):
        chosen = set(terms) - chosen
    return MintermFunction.of(support, chosen)


def leaf_problems(p: Problem, split) -> list[Problem]:
    """The cofactor of p under each monomial over split, in canonical order.

    Leaf k corresponds to the k-th monomial of minterms_of(split), the
    all-positive one first; the split variables leave every role. The local
    method builds none of these: they are what its leaves are checked
    against.
    """
    gone = set(split)
    count_keep = p.count_vars - gone
    exist_keep = p.exist_vars - gone
    deps_keep = {x: p.deps[x] - gone for x in p.max_vars}
    return [Problem(cofactor(p.cnf, m), p.max_vars, count_keep, exist_keep, deps_keep)
            for m in minterms_of(split)]
