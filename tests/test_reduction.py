import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dqmaxsat.counting import check_solution, count_projected
from dqmaxsat.formula import Cnf, MintermFunction, Problem, minterms_of, selector_definition_clauses
from dqmaxsat.oracle import brute_force_dqmaxsat, reachable_cells
from dqmaxsat.reduction import (
    BudgetExceeded,
    SelectorMap,
    build_reduction,
    decode,
    selector_objective,
    solve_dqbf,
    solve_global,
)

import instances


def test_selector_layout_two_signal_chooser(copy_or_and):
    req, sel, _ = build_reduction(copy_or_and)
    # canonical monomial order over support (4, 5): ++, +-, -+, --
    assert sel.selectors[1] == {(4, 5): 6, (4, -5): 7, (-4, 5): 8, (-4, -5): 9}
    assert req.cells == reachable_cells(copy_or_and.cnf, [2, 3])
    assert req.incumbent == {6: False, 7: False, 8: False, 9: False}
    # 8 objective clauses plus 2 per monomial
    assert len(req.objective.clauses) == 8 + 8


def test_selector_layout_two_choosers(two_implications):
    req, sel, _ = build_reduction(two_implications)
    assert sel.selectors[1] == {(5,): 7, (-5,): 8}
    assert sel.selectors[2] == {(6,): 9, (-6,): 10}
    assert sorted(req.incumbent) == [7, 8, 9, 10]


def test_empty_dependency_sets_degenerate_to_plain_choice():
    f = Cnf.build(2, [[1, 2]])
    p = Problem.of(f, max_vars=[1], count_vars=[2], exist_vars=[], deps={1: []})
    req, sel, _ = build_reduction(p)
    assert sel.selectors[1] == {(): 3}
    assert ( -1, 3) in req.objective.clauses
    assert (1, -3) in req.objective.clauses


def test_selector_freshness_and_bijection(two_implications):
    req, sel, _ = build_reduction(two_implications)
    for s, (x, m) in sel.owner.items():
        assert s > two_implications.cnf.num_vars
        assert sel.selectors[x][m] == s
    assert len(sel.owner) == len(set(sel.owner))


def _assert_consistent(p, sel):
    """owner inverts the tables, and the objective covers exactly these selectors."""
    pairs = {(x, m): s for x, table in sel.selectors.items() for m, s in table.items()}
    assert {s: xm for xm, s in pairs.items()} == dict(sel.owner)
    assert set(sel.supports) == set(sel.selectors) == set(p.max_vars)
    assert all(list(sel.selectors[x]) == minterms_of(sel.supports[x]) for x in p.max_vars)
    assert max(sel.owner, default=p.cnf.num_vars) <= sel.num_vars
    definitions = [c for x in p.max_vars
                   for c in selector_definition_clauses(x, sel.supports[x], sel.selectors[x])]
    assert selector_objective(p, sel) == Cnf.build(sel.num_vars, list(p.cnf.clauses) + definitions)


@settings(max_examples=200, deadline=None)
@given(instances.problems(max_num_vars=8, max_num_max=3, dep_limit=3), st.data())
def test_selector_map_allocates_fresh_ids_in_order(p, data):
    pool = sorted(p.count_vars | p.exist_vars)
    supports = st.lists(st.sampled_from(pool), unique=True, max_size=3)
    start = {x: data.draw(supports) for x in p.max_vars}
    sel = SelectorMap.over(p, start)
    # contiguous from the formula's last id: choosers in prefix order, each
    # chooser's monomials in canonical order
    layout = [(x, m) for x in p.max_vars for m in minterms_of(start[x])]
    n = p.cnf.num_vars
    assert sel.num_vars == n + len(layout)
    assert [sel.owner[s] for s in range(n + 1, sel.num_vars + 1)] == layout
    _assert_consistent(p, sel)
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        x = data.draw(st.sampled_from(p.max_vars))
        support = data.draw(supports)
        grown = sel.with_support(x, support)
        assert grown.supports[x] == tuple(sorted(support))
        for y in p.max_vars:
            if y != x:
                assert grown.supports[y] == sel.supports[y]
                assert grown.selectors[y] == sel.selectors[y]
        # x's old ids are retired, its new ones follow the old num_vars
        assert set(sel.selectors[x].values()).isdisjoint(grown.owner)
        assert list(grown.selectors[x].values()) == list(range(sel.num_vars + 1, grown.num_vars + 1))
        _assert_consistent(p, grown)
        sel = grown


@settings(max_examples=200, deadline=None)
@given(instances.problems(max_num_vars=8, max_num_max=3, dep_limit=3), st.data())
def test_selector_objective_reaches_the_cells_of_the_problem(p, data):
    # what lets one enumeration of p.cnf serve every oracle call of a
    # solve: over any partial supports, the selector of each point's active
    # monomial can take the chooser's value there
    supports = {}
    for x in p.max_vars:
        deps = sorted(p.deps[x])
        keep = data.draw(st.lists(st.booleans(), min_size=len(deps), max_size=len(deps)))
        supports[x] = [u for u, kept in zip(deps, keep) if kept]
    sel = SelectorMap.over(p, supports)
    objective = selector_objective(p, sel)
    assert reachable_cells(objective, p.count_vars) == reachable_cells(p.cnf, p.count_vars)


def test_budget_guard(copy_or_and):
    with pytest.raises(BudgetExceeded):
        build_reduction(copy_or_and, budget=3)
    build_reduction(copy_or_and, budget=4)


class TestDecode:
    def test_named_assignment(self, copy_or_and):
        _, sel, _ = build_reduction(copy_or_and)
        alpha = {6: True, 7: True, 8: False, 9: False}
        s = decode(sel, alpha)
        assert s.functions[1].minterms == frozenset([(4, 5), (4, -5)])

    def test_all_false_gives_constant_false_on_full_support(self, copy_or_and):
        _, sel, _ = build_reduction(copy_or_and)
        s = decode(sel, {6: False, 7: False, 8: False, 9: False})
        assert s.functions[1].support == (4, 5)
        assert s.functions[1].constant_value() is False

    def test_all_true_gives_constant_true(self, copy_or_and):
        _, sel, _ = build_reduction(copy_or_and)
        s = decode(sel, {6: True, 7: True, 8: True, 9: True})
        assert s.functions[1].constant_value() is True


def test_reduced_count_equals_recount_for_every_selector_assignment(copy_or_and):
    # the reduction is exact: for any selector choice, counting the reduced
    # objective equals substituting the decoded functions and recounting
    req, sel, _ = build_reduction(copy_or_and)
    for bits in itertools.product([False, True], repeat=4):
        alpha = dict(zip(sorted(req.incumbent), bits))
        units = [(s,) if alpha[s] else (-s,) for s in sorted(req.incumbent)]
        reduced = Cnf(req.objective.num_vars, req.objective.clauses + tuple(units))
        direct = count_projected(reduced, copy_or_and.count_vars)
        assert direct == check_solution(copy_or_and, decode(sel, alpha))


@pytest.mark.parametrize("seed", range(25))
def test_reduced_count_equals_recount_random(seed):
    rng = random.Random(seed)
    p = instances.random_problem(rng, num_vars=rng.randint(3, 6), num_max=rng.randint(1, 2))
    req, sel, _ = build_reduction(p)
    for _ in range(6):
        alpha = {s: rng.random() < 0.5 for s in sorted(req.incumbent)}
        units = [(s,) if alpha[s] else (-s,) for s in sorted(req.incumbent)]
        reduced = Cnf(req.objective.num_vars, req.objective.clauses + tuple(units))
        assert count_projected(reduced, p.count_vars) == check_solution(p, decode(sel, alpha))


class TestSolveGlobal:
    def test_two_signal_chooser(self, copy_or_and):
        s = solve_global(copy_or_and)
        assert s.achieved_count == 3
        assert s.total == 4
        assert check_solution(copy_or_and, s) == 3

    def test_two_choosers(self, two_implications):
        assert solve_global(two_implications).achieved_count == 3

    def test_or_copy(self, copy_or):
        s = solve_global(copy_or)
        assert s.achieved_count == 3
        assert s.functions[1].minterms == frozenset([(4,)])

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force(self, seed):
        p = instances.random_problem(random.Random(seed), num_vars=6)
        assert solve_global(p).achieved_count == brute_force_dqmaxsat(p).achieved_count


class TestSolveDqbf:
    def test_copy_function_satisfies(self):
        f = Cnf.build(2, [[-1, 2], [1, -2]])
        p = Problem.of(f, max_vars=[1], count_vars=[2], exist_vars=[], deps={1: [2]})
        sat, witness = solve_dqbf(p)
        assert sat
        assert witness.functions[1].minterms == frozenset([(2,)])

    def test_constant_cannot_copy(self):
        f = Cnf.build(2, [[-1, 2], [1, -2]])
        p = Problem.of(f, max_vars=[1], count_vars=[2], exist_vars=[], deps={1: []})
        sat, witness = solve_dqbf(p)
        assert not sat
        assert witness.achieved_count == 1

    def test_half_visibility_of_a_conjunction(self):
        # chooser sees only the first of two counted inputs it must AND
        f = Cnf.build(3, [[-1, 2], [-1, 3], [1, -2, -3]])
        p = Problem.of(f, max_vars=[1], count_vars=[2, 3], exist_vars=[], deps={1: [2]})
        sat, witness = solve_dqbf(p)
        assert not sat
        assert witness.achieved_count == 3

    def test_rejects_existential_variables(self, copy_or):
        with pytest.raises(ValueError):
            solve_dqbf(copy_or)
