import itertools
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dqmaxsat.engine import Engine, enumerate_projected, solve
from dqmaxsat.formula import Cnf

from naive import eval_cnf, tt_count_projected, tt_models, tt_projections, tt_satisfiable


@contextmanager
def recorded_blocks(k=None):
    """Every blocking clause enumerate_projected attaches, as a list of literals.

    With k given, also asserts at each block that all variables 1..k are
    assigned, that the clause negates exactly the decisions on them, and
    that every deeper level is a decision on a variable above k.
    """
    blocks = []
    block = Engine._block

    def recording(eng, depth):
        trail, lim = eng._trail, eng._lim
        decisions = [trail[start] for start in lim]
        if k is not None:
            assert all(eng._vals[v] for v in range(1, k + 1))
            assert all(abs(d) <= k for d in decisions[:depth])
            assert all(abs(d) > k for d in decisions[depth:])
            assert all(eng._reason[abs(d)] is None and eng._level[abs(d)] == level
                       for level, d in enumerate(decisions, 1))
        blocks.append([-d for d in decisions[:depth]])
        return block(eng, depth)

    with mock.patch.object(Engine, "_block", recording):
        yield blocks


def clauses_strategy(max_vars=6, max_clauses=12):
    lit = st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    return st.lists(st.lists(lit, min_size=1, max_size=4), min_size=0, max_size=max_clauses)


def test_empty_formula_is_sat():
    assert solve(Cnf.build(3, [])) == {1: False, 2: False, 3: False}


def test_empty_clause_is_unsat():
    assert solve(Cnf.build(2, [[]])) is None


def test_unit_chain():
    f = Cnf.build(3, [[1], [-1, 2], [-2, 3]])
    assert solve(f) == {1: True, 2: True, 3: True}


def test_simple_conflict():
    assert solve(Cnf.build(1, [[1], [-1]])) is None


def test_model_is_lexicographically_least_false_first():
    # both polarities of 1 extend to models; decision order must pick false
    f = Cnf.build(2, [[1, 2]])
    assert solve(f) == {1: False, 2: True}


def test_pigeonhole_3_into_2_unsat():
    # p_ij: pigeon i in hole j, vars 1..6 row-major
    def v(i, j):
        return 2 * i + j + 1

    clauses = [[v(i, 0), v(i, 1)] for i in range(3)]
    for j in range(2):
        for a, b in itertools.combinations(range(3), 2):
            clauses.append([-v(a, j), -v(b, j)])
    assert solve(Cnf.build(6, clauses)) is None


def test_assumptions_restrict_models():
    f = Cnf.build(2, [[1, 2]])
    eng = Engine(f.num_vars, f.clauses)
    assert eng.solve([1]) == {1: True, 2: False}
    assert eng.solve([-1]) == {1: False, 2: True}
    assert eng.solve([-1, -2]) is None
    # engine state is reusable after an unsat call
    assert eng.solve([2]) is not None


def test_conflicting_assumption_literals():
    eng = Engine(1)
    assert eng.solve([1, -1]) is None


def test_satisfiable_leaves_engine_reusable():
    eng = Engine(2, [[1, 2]])
    assert eng.satisfiable()
    assert not eng.satisfiable([-1, -2])
    assert eng.satisfiable([-1])
    assert eng.solve() is not None


def test_literal_zero_is_rejected():
    eng = Engine(3)
    with pytest.raises(ValueError):
        eng.satisfiable([1, 0])


def test_out_of_range_assumption_is_rejected():
    eng = Engine(3, [[1, 2]])
    with pytest.raises(ValueError):
        eng.satisfiable([-4])
    assert eng.satisfiable([-1])


def test_learned_clauses_survive_assumption_changes():
    # unsat core under assumption 1, other branch stays reachable
    f = Cnf.build(3, [[-1, 2], [-1, -2]])
    eng = Engine(f.num_vars, f.clauses)
    assert not eng.satisfiable([1])
    assert eng.satisfiable([3])
    assert eng.satisfiable([-1])


@settings(max_examples=300, deadline=None)
@given(clauses_strategy())
def test_agrees_with_truth_table(clause_lists):
    f = Cnf.build(6, clause_lists)
    model = solve(f)
    if model is None:
        assert not tt_satisfiable(6, f.clauses)
    else:
        assert eval_cnf(f.clauses, model)


@settings(max_examples=200, deadline=None)
@given(clauses_strategy(max_vars=5), st.lists(st.sampled_from([1, -1, 2, -2]), max_size=2, unique_by=abs))
def test_assumption_solves_agree_with_conditioned_table(clause_lists, assumptions):
    f = Cnf.build(5, clause_lists)
    conditioned = list(f.clauses) + [[a] for a in assumptions]
    got = Engine(f.num_vars, f.clauses).solve(assumptions)
    if got is None:
        assert not tt_satisfiable(5, conditioned)
    else:
        assert eval_cnf(conditioned, got)


class TestWitnessAndCore:
    def test_core_names_only_the_clashing_assumptions(self):
        # 1 forces 2, which forces -3; assumption 4 plays no part
        eng = Engine(4, [[-1, 2], [-2, -3]])
        assert not eng.satisfiable([1, 3, 4])
        assert sorted(eng.core) == [1, 3]

    def test_assumption_false_at_level_0_is_its_own_core(self):
        eng = Engine(2, [[-1]])
        assert not eng.satisfiable([2, 1])
        assert eng.core == [1]

    def test_contradictory_assumptions_are_the_core(self):
        eng = Engine(2)
        assert not eng.satisfiable([1, 2, -1])
        assert sorted(eng.core) == [-1, 1]

    def test_level_0_unsat_database_gives_an_empty_core(self):
        eng = Engine(2, [[1], [-1]])
        assert not eng.satisfiable([2])
        assert eng.core == []

    def test_unsat_found_by_search_gives_an_empty_core(self):
        # pigeonhole 3 into 2 needs conflicts before it is refuted at level 0
        def v(i, j):
            return 2 * i + j + 1

        clauses = [[v(i, 0), v(i, 1)] for i in range(3)]
        for j in range(2):
            for a, b in itertools.combinations(range(3), 2):
                clauses.append([-v(a, j), -v(b, j)])
        eng = Engine(6, clauses)
        assert not eng.satisfiable([1])
        assert not eng.satisfiable([2])
        assert eng.core == []

    def test_witness_is_the_false_first_model(self):
        eng = Engine(3, [[1, 2]])
        assert eng.satisfiable([3])
        assert eng.witness[1:] == [-1, 1, 1]

    @settings(max_examples=300, deadline=None)
    @given(clauses_strategy(max_vars=6),
           st.lists(st.lists(st.integers(min_value=-6, max_value=6).filter(bool), max_size=5),
                    min_size=1, max_size=4))
    def test_witness_and_core_agree_with_truth_table(self, clause_lists, probes):
        # successive probes on one engine, so learned clauses carry over
        f = Cnf.build(6, clause_lists)
        eng = Engine(f.num_vars, f.clauses)
        for assumptions in probes:
            units = [[a] for a in assumptions]
            sat = eng.satisfiable(assumptions)
            assert sat == tt_satisfiable(6, list(f.clauses) + units)
            if sat:
                model = {v: eng.witness[v] > 0 for v in range(1, 7)}
                assert eval_cnf(list(f.clauses) + units, model)
            else:
                assert set(eng.core) <= set(assumptions)
                assert not tt_satisfiable(6, list(f.clauses) + [[a] for a in eng.core])


class TestLoader:
    """The constructor loads its clause list in one pass."""

    def test_duplicates_tautologies_and_units(self):
        # stored once each, duplicates dropped; the tautology not at all
        eng = Engine(3, [[1, 1, -2, -2], [2, -2, 3], [3, -1, 3]])
        assert sorted(tuple(c) for ws in eng._watches for c in ws) == [(1, -2), (1, -2), (3, -1), (3, -1)]
        eng = Engine(3, [[1, 1, -2, -2], [2, -2, 3], [-1]])
        # (1 | -2) & -1 leaves -2 forced and 3 free
        assert eng.satisfiable()
        assert eng.witness[1:] == [-1, -1, -1]
        assert not eng.satisfiable([2])
        assert eng.core == [2]

    def test_clashing_units_make_the_engine_unsat(self):
        eng = Engine(2, [[1], [2], [-1]])
        assert not eng.ok
        assert not eng.satisfiable()
        assert eng.core == []

    def test_units_propagate_into_longer_clauses(self):
        # both long clauses are attached before the units are queued; under
        # -1 and -2 one forces 3 and the other -3
        eng = Engine(3, [[1, 2, 3], [-1], [-2], [-3, 1, 2]])
        assert not eng.ok
        assert Engine(3, [[1, 2, 3], [-1], [-2]]).satisfiable()

    def test_empty_clause_makes_the_engine_unsat(self):
        eng = Engine(2, [[1, 2], []])
        assert not eng.ok
        assert not eng.satisfiable([1])

    @pytest.mark.parametrize("clauses", [
        [[1, 0]], [[0]], [[4]], [[-4, 1]], [[1], [2, 9]],
        # checked even inside a tautology
        [[1, -1, 4]],
    ])
    def test_literal_out_of_range_is_rejected(self, clauses):
        with pytest.raises(ValueError):
            Engine(3, clauses)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=-5, max_value=5).filter(bool), min_size=1, max_size=4),
                    max_size=10),
           st.none() | st.integers(min_value=0, max_value=10),
           st.lists(st.lists(st.integers(min_value=-5, max_value=5).filter(bool), max_size=3),
                    min_size=1, max_size=4))
    def test_bulk_load_agrees_with_truth_table(self, clause_lists, empty_at, probes):
        # raw lists: repeated literals, both polarities of a variable, units
        # that may clash, and sometimes the empty clause
        if empty_at is not None:
            clause_lists.insert(empty_at, [])
        eng = Engine(5, clause_lists)
        assert eng.ok or not tt_satisfiable(5, clause_lists)
        for assumptions in probes:
            models = tt_models(5, clause_lists + [[a] for a in assumptions])
            sat = eng.satisfiable(assumptions)
            assert sat == bool(models)
            if sat:
                # the least model, false before true, lowest variable first
                assert {v: eng.witness[v] > 0 for v in range(1, 6)} == models[0]
            else:
                assert set(eng.core) <= set(assumptions)
                assert not tt_satisfiable(5, clause_lists + [[a] for a in eng.core])


    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=-6, max_value=6).filter(bool), min_size=1, max_size=6),
                    max_size=12),
           st.lists(st.lists(st.integers(min_value=-6, max_value=6).filter(bool), max_size=3),
                    min_size=1, max_size=4),
           st.sets(st.integers(min_value=1, max_value=6)))
    def test_raw_clauses_load_like_cleaned_ones(self, raw, probes, proj):
        # the loader is the package's only clause cleaner: literals in any
        # order, repeated literals and tautologies load as the sorted,
        # duplicate-free clauses without the tautologies do
        clean = [sorted(set(c), key=abs) for c in raw if not any(-lit in c for lit in c)]
        eng_raw, eng_clean = Engine(6, raw), Engine(6, clean)
        for assumptions in probes:
            sat = eng_raw.satisfiable(assumptions)
            assert sat == eng_clean.satisfiable(assumptions)
            if sat:
                assert eng_raw.witness == eng_clean.witness
        cells_raw, cells_clean = [], []
        got = enumerate_projected(Cnf.build(6, raw), proj, visit=cells_raw.append)
        assert got == enumerate_projected(Cnf.build(6, clean), proj, visit=cells_clean.append)
        assert cells_raw == cells_clean


class TestTrailReuse:
    def test_kept_prefix_sees_later_assumptions(self):
        # the second probe keeps level 1 (assumption -1) and then meets 3,
        # which that level's consequences already make false
        eng = Engine(3, [[1, 2], [-2, -3]])
        assert eng.satisfiable([-1, -3])
        assert eng.witness[1:] == [-1, 1, -1]
        assert not eng.satisfiable([-1, 3])
        assert sorted(eng.core) == [-1, 3]
        assert eng.satisfiable([-1])

    @settings(max_examples=300, deadline=None)
    @given(clauses_strategy(max_vars=6, max_clauses=10),
           st.lists(st.integers(min_value=-6, max_value=6).filter(bool), max_size=4),
           st.lists(st.one_of(
               st.tuples(st.just("probe"), st.integers(0, 4),
                         st.lists(st.integers(min_value=-6, max_value=6).filter(bool), max_size=3)),
               st.tuples(st.just("solve"), st.integers(0, 4), st.just([])),
           ), min_size=1, max_size=8))
    def test_probes_sharing_prefixes_agree_with_truth_table(self, clause_lists, prefix, ops):
        # one engine throughout, so each call starts from the trail of the last
        clauses = [list(c) for c in Cnf.build(6, clause_lists).clauses]
        eng = Engine(6, clauses)
        for kind, cut, lits in ops:
            assumptions = prefix[:cut] + lits
            units = [[a] for a in assumptions]
            models = tt_models(6, clauses + units)
            if kind == "solve":
                assert eng.solve(assumptions) == (models[0] if models else None)
                continue
            sat = eng.satisfiable(assumptions)
            assert sat == bool(models)
            if sat:
                # the least model, false before true, lowest variable first
                assert {v: eng.witness[v] > 0 for v in range(1, 7)} == models[0]
            else:
                assert set(eng.core) <= set(assumptions)
                assert not tt_satisfiable(6, clauses + [[a] for a in eng.core])


class TestWatchLists:
    def test_conflict_mid_list_keeps_the_unvisited_watches(self):
        # all three clauses watch 1; with 1 false, the first implies 2, the
        # second then conflicts, and the third is never visited
        eng = Engine(3, [[1, 2], [1, -2], [1, 3]])
        eng._lim.append(len(eng._trail))
        eng._enqueue(-1, None)
        assert eng._propagate() == [-2, 1]
        assert eng._watches[1] == [[2, 1], [-2, 1], [1, 3]]

    def test_clause_past_a_conflict_still_propagates(self):
        # unsatisfiable: 3 is forced, then 4 and -2, against [2, -3]; a
        # conflict on -3's list must not drop [2, -3], which comes after it
        eng = Engine(4, [[2, 3], [-2, 3], [-4, -2], [4, -3], [1, 2, -3], [2, -3]])
        assert not eng.satisfiable()

    def test_a_clause_that_moves_its_watch_leaves_the_list(self):
        eng = Engine(4, [[1, 2, 3], [1, 4], [1, -2, 4, 3]])
        eng._lim.append(len(eng._trail))
        eng._enqueue(-1, None)
        assert eng._propagate() is None
        # the ternary clause and the long one found new watches; the binary
        # clause implied 4 and stays
        assert eng._watches[1] == [[4, 1]]
        assert eng._watches[3] == [[2, 3, 1]]
        assert eng._watches[4] == [[4, 1], [-2, 4, 1, 3]]


class TestEnumerateProjected:
    def test_counts_distinct_projections(self):
        # z free, projection on 1..2: 3 of 4 cells extend to a model
        f = Cnf.build(3, [[1, 2, 3], [-1, 2]])
        assert enumerate_projected(f, [1, 2]) == 3

    def test_visit_sees_each_cell_once(self):
        f = Cnf.build(3, [[1, 2, 3], [-1, 2]])
        seen = []
        enumerate_projected(f, [1, 2], visit=seen.append)
        assert len(seen) == len(set(seen)) == 3
        assert all(tuple(map(abs, cell)) == (1, 2) for cell in seen)

    def test_empty_projection_is_satisfiability_indicator(self):
        assert enumerate_projected(Cnf.build(2, [[1], [2]]), []) == 1
        assert enumerate_projected(Cnf.build(1, [[1], [-1]]), []) == 0

    def test_projection_variable_outside_formula(self):
        # var 4 is unconstrained, doubling the projected count
        f = Cnf.build(3, [[1], [2, 3]])
        assert enumerate_projected(f, [1, 4]) == 2

    def test_implied_projection_literals_are_not_blocked(self):
        # deciding -1 implies -2 on level 1, so the first blocking clause is
        # [1] alone, a unit, and enumeration resumes at level 0
        f = Cnf.build(3, [[1, -2]])
        seen = []
        with recorded_blocks() as blocks:
            assert enumerate_projected(f, [1, 2], visit=seen.append) == 3
        assert seen == [(-1, -2), (1, -2), (1, 2)]
        assert blocks[0] == [1]

    @settings(max_examples=300, deadline=None)
    @given(clauses_strategy(max_vars=8, max_clauses=14),
           st.sets(st.integers(min_value=1, max_value=8), max_size=8))
    def test_enumeration_order_matches_restarts(self, clause_lists, proj):
        # mostly short clauses over up to 8 variables: propagation often puts
        # two projection literals on one level, and only the decision of the
        # two is blocked
        f = Cnf.build(8, clause_lists)
        visited = []
        got = enumerate_projected(f, proj, visit=visited.append)
        assert got == tt_count_projected(8, f.clauses, proj)
        # the order that solving afresh after each block gives when the
        # projection variables are numbered first: lexicographic over
        # sorted(proj), false first, whatever the formula
        pv = sorted(proj)
        want = [tuple(v if b else -v for v, b in zip(pv, cell))
                for cell in sorted(tt_projections(8, f.clauses, proj))]
        assert visited == want

    @settings(max_examples=200, deadline=None)
    @given(clauses_strategy(max_vars=8, max_clauses=14),
           st.sets(st.integers(min_value=1, max_value=8), max_size=8))
    def test_blocking_clauses_hold_only_projection_decisions(self, clause_lists, proj):
        # enumerate_projected numbers the projection variables 1..k
        k = len(proj)
        f = Cnf.build(8, clause_lists)
        with recorded_blocks(k) as blocks:
            got = enumerate_projected(f, proj)
        assert got == tt_count_projected(8, f.clauses, proj)
        # one block per model; the last one finds nothing left to decide
        # or leads the search to refute the database
        assert len(blocks) == got

    @settings(max_examples=200, deadline=None)
    @given(clauses_strategy(max_vars=5, max_clauses=8),
           st.sets(st.integers(min_value=1, max_value=5), max_size=5))
    def test_matches_truth_table_projection(self, clause_lists, proj):
        f = Cnf.build(5, clause_lists)
        visited = []
        got = enumerate_projected(f, proj, visit=visited.append)
        assert got == tt_count_projected(5, f.clauses, proj)
        if proj:
            pv = tuple(sorted(proj))
            assert all(tuple(map(abs, cell)) == pv for cell in visited)
            assert {tuple(lit > 0 for lit in cell) for cell in visited} == tt_projections(5, f.clauses, proj)
