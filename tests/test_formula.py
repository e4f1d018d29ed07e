import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dqmaxsat.formula import (
    Cnf,
    DependencyViolation,
    MintermFunction,
    Problem,
    Solution,
    apply_substitution,
    cofactor,
    minterms_of,
    monomial_holds,
    negate_monomial,
)

import instances
from naive import assignments, eval_cnf, minterm_substitution, tt_models


def test_cnf_build_keeps_clauses_as_given():
    # literal order, repeated literals and tautologies are the engine's to clean
    f = Cnf.build(3, [[1, -1], [3, 2, 3], []])
    assert f.clauses == ((1, -1), (3, 2, 3), ())


@pytest.mark.parametrize("u,value,expect", [
    (1, True, ((2,),)),
    (1, False, ()),
])
def test_cofactor_three_ways(u, value, expect):
    # f = (1 | 2) & (-1 | 2): setting 1 keeps the reduced second clause,
    # clearing 1 satisfies it and reduces the first to (2)
    f = Cnf.build(2, [[1, 2], [-1, 2]])
    got = cofactor(f, (u if value else -u,))
    assert got.clauses == ((2,),)


def test_cofactor_can_produce_empty_clause():
    f = Cnf.build(1, [[1]])
    assert cofactor(f, (-1,)).clauses == ((),)
    # a clause over two split variables, both falsified by the monomial
    g = Cnf.build(3, [[1, -2], [3]])
    assert cofactor(g, (-1, 2)).clauses == ((), (3,))


def test_cofactor_by_a_monomial_in_one_pass():
    # satisfied clauses go, falsified literals go, the rest keep their order
    f = Cnf.build(4, [[3, 1], [-1, 4], [2, 4], [-2, -3, 4], [4, 3]])
    assert cofactor(f, (-1, 2)).clauses == ((3,), (-3, 4), (4, 3))
    assert cofactor(f, ()) == f


@given(st.lists(st.lists(st.integers(1, 4).flatmap(lambda v: st.sampled_from([v, -v])),
                         max_size=3), max_size=6),
       st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), unique_by=abs, max_size=3))
def test_cofactor_by_a_monomial_keeps_the_models_that_extend_it(clauses, monomial):
    f = Cnf.build(4, clauses)
    g = cofactor(f, monomial)
    for a in assignments(range(1, 5)):
        if monomial_holds(monomial, a):
            assert eval_cnf(g.clauses, a) == eval_cnf(f.clauses, a)
    assert not {abs(l) for l in monomial} & g.variables()


def test_minterms_order_is_binary_counting_positive_first():
    assert minterms_of((2, 5)) == [(2, 5), (2, -5), (-2, 5), (-2, -5)]


def test_minterms_of_empty_support():
    assert minterms_of(()) == [()]


def test_minterms_of_rejects_duplicates():
    with pytest.raises(ValueError):
        minterms_of((3, 3))


def test_minterms_sorted_regardless_of_input_order():
    assert minterms_of((5, 2)) == minterms_of((2, 5))


@given(st.sets(st.integers(min_value=1, max_value=9), min_size=0, max_size=4))
def test_minterms_partition_the_cube(support):
    terms = minterms_of(tuple(support))
    assert len(terms) == 1 << len(support)
    for a in assignments(support):
        holding = [m for m in terms if monomial_holds(m, a)]
        assert len(holding) == 1


def test_negate_monomial():
    assert negate_monomial((2, -5)) == (-2, 5)


class TestMintermFunction:
    def test_constant_true_and_false(self):
        top = MintermFunction.constant(True)
        bot = MintermFunction.constant(False)
        assert top.evaluate({}) is True
        assert bot.evaluate({}) is False
        assert top.constant_value() is True
        assert bot.constant_value() is False

    def test_constant_value_of_proper_function(self):
        assert MintermFunction.of((3,), [(3,)]).constant_value() is None

    def test_rejects_foreign_minterms(self):
        with pytest.raises(ValueError):
            MintermFunction.of((1,), [(2,)])

    def test_rejects_a_repeated_support_variable(self):
        # a minterm over (1, 1) would otherwise look complete
        with pytest.raises(ValueError, match="duplicate"):
            MintermFunction.of((1, 1), [(1,)])

    @pytest.mark.parametrize("support,minterms", [
        ((3, 2), {(3, 2)}),
        ((2, 3), {(3, 2)}),
        ((2, 3), {(2, 3), (-3, 2)}),
        ((3, 2), set()),
    ], ids=["descending-support", "unsorted-minterm", "one-unsorted-minterm", "descending-constant"])
    def test_rejects_a_non_canonical_order(self, support, minterms):
        # the recount reads the i-th literal of a minterm as the i-th support variable's
        with pytest.raises(ValueError, match="build with .of"):
            MintermFunction(support, frozenset(minterms))

    def test_evaluate_matches_membership(self):
        f = MintermFunction.of((1, 3), [(1, 3), (-1, -3)])  # parity-ish: x1 == x3
        assert f.evaluate({1: True, 3: True})
        assert not f.evaluate({1: True, 3: False})
        assert f.evaluate({1: False, 3: False})

    @given(st.integers(min_value=0, max_value=15))
    def test_of_is_canonical(self, mask):
        terms = minterms_of((2, 4))
        chosen = [terms[j] for j in range(4) if mask >> j & 1]
        f = MintermFunction.of((4, 2), [tuple(reversed(m)) for m in chosen])
        assert f.support == (2, 4)
        assert f.minterms == frozenset(chosen)


def _tiny_problem():
    # x1 copies z1 or doesn't; Y = {2, 3}; objective x1 <-> y2
    f = Cnf.build(4, [[-1, 3], [1, -3]])
    return Problem.of(f, max_vars=[1], count_vars=[2, 3], exist_vars=[4], deps={1: [4]})


class TestProblem:
    def test_total_is_count_space_size(self):
        assert _tiny_problem().total == 4

    def test_roles_must_be_disjoint(self):
        f = Cnf.build(2, [[1, 2]])
        with pytest.raises(ValueError):
            Problem.of(f, max_vars=[1], count_vars=[1, 2], exist_vars=[], deps={1: []})

    def test_roles_must_cover_formula(self):
        f = Cnf.build(3, [[1, 2, 3]])
        with pytest.raises(ValueError):
            Problem.of(f, max_vars=[1], count_vars=[2], exist_vars=[], deps={1: []})

    def test_deps_must_point_into_count_or_exist(self):
        f = Cnf.build(3, [[1, 2, 3]])
        with pytest.raises(ValueError):
            Problem.of(f, max_vars=[1, 2], count_vars=[3], exist_vars=[], deps={1: [2], 2: []})

    @pytest.mark.parametrize("clause", [[3], [1, -3], [0]])
    def test_rejects_a_literal_outside_the_variables(self, clause):
        f = Cnf.build(2, [[1, 2], clause])
        with pytest.raises(ValueError):
            Problem.of(f, max_vars=[1], count_vars=[2], exist_vars=[3], deps={1: []})

    def test_every_max_var_needs_a_dependency_set(self):
        f = Cnf.build(2, [[1, 2]])
        with pytest.raises(ValueError):
            Problem.of(f, max_vars=[1], count_vars=[2], exist_vars=[], deps={})


class TestApplySubstitution:
    def test_identity_copy(self):
        p = _tiny_problem()
        s = Solution(functions={1: MintermFunction.of((4,), [(4,)])})
        composed = apply_substitution(p, s)
        # substituted objective forces x1 == z1 on top of x1 == y2
        want = {tuple(sorted(m.items())) for m in tt_models(4, [[-1, 3], [1, -3], [-4, 1], [4, -1]])}
        got = {tuple(sorted(m.items())) for m in tt_models(4, composed.clauses)}
        assert got == want

    def test_constant_false_adds_unit(self):
        p = _tiny_problem()
        s = Solution(functions={1: MintermFunction.constant(False)})
        composed = apply_substitution(p, s)
        assert (-1,) in composed.clauses

    def test_constant_true_adds_unit(self):
        p = _tiny_problem()
        s = Solution(functions={1: MintermFunction.constant(True)})
        assert (1,) in apply_substitution(p, s).clauses

    def test_support_outside_dependency_set_is_rejected(self):
        p = _tiny_problem()
        s = Solution(functions={1: MintermFunction.of((2,), [(2,)])})
        with pytest.raises(DependencyViolation):
            apply_substitution(p, s)

    def test_missing_function_is_rejected(self):
        p = _tiny_problem()
        with pytest.raises(DependencyViolation):
            apply_substitution(p, Solution(functions={}))

    @given(st.integers(min_value=0, max_value=3))
    def test_substitution_pins_the_function_pointwise(self, mask):
        p = _tiny_problem()
        terms = minterms_of((4,))
        fn = MintermFunction.of((4,), [terms[j] for j in range(2) if mask >> j & 1])
        composed = apply_substitution(p, Solution(functions={1: fn}))
        for m in tt_models(4, composed.clauses):
            assert m[1] == fn.evaluate(m)


# one chooser, 1, reading counted variables among 2..7 through no objective
# clause: every clause of the composed formula is a function clause
_supports = st.lists(st.integers(min_value=2, max_value=7), unique=True, max_size=6)


def _substituted(fn):
    p = Problem.of(Cnf(7, ()), [1], fn.support, [], {1: fn.support})
    s = Solution(functions={1: fn})
    return p, s, apply_substitution(p, s).clauses


class TestCubeCover:
    @settings(max_examples=300, deadline=None)
    @given(_supports.flatmap(instances.functions))
    def test_same_models_as_the_minterm_encoding(self, fn):
        p, s, clauses = _substituted(fn)
        assert tt_models(7, clauses) == tt_models(7, minterm_substitution(p, s))

    @settings(max_examples=300, deadline=None)
    @given(_supports.flatmap(instances.functions))
    def test_cubes_partition_the_support_space(self, fn):
        _, _, clauses = _substituted(fn)
        assert all(abs(c[-1]) == 1 for c in clauses)
        cubes = [negate_monomial(c[:-1]) for c in clauses]
        for a in assignments(fn.support):
            holding = [j for j, cube in enumerate(cubes) if monomial_holds(cube, a)]
            assert len(holding) == 1
            assert (clauses[holding[0]][-1] > 0) == fn.evaluate(a)

    @settings(max_examples=300, deadline=None)
    @given(_supports.flatmap(instances.functions))
    def test_clause_count_and_width_are_bounded(self, fn):
        _, _, clauses = _substituted(fn)
        n = len(fn.support)
        assert len(clauses) <= min(1 << n, len(fn.minterms) * n + 1)
        assert all(len(c) <= n + 1 for c in clauses)

    @pytest.mark.parametrize("value", [True, False])
    def test_a_constant_over_a_wide_support_is_one_unit(self, value):
        support = tuple(range(2, 8))
        fn = MintermFunction.of(support, minterms_of(support) if value else [])
        assert _substituted(fn)[2] == ((1 if value else -1,),)

    def test_full_split_follows_the_minterm_order(self):
        fn = MintermFunction.of((2, 3), [(2, 3), (-2, -3)])
        assert _substituted(fn)[2] == ((-2, -3, 1), (-2, 3, -1), (2, -3, -1), (2, 3, 1))
