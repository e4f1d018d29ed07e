import hashlib
import itertools
import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dqmaxsat.bitvec import encode, parse_program
from dqmaxsat.engine import Engine, enumerate_projected
from dqmaxsat.formula import Cnf

from naive import (eval_cnf, tt_count_projected, tt_models, tt_projections, tt_projections_by_rows,
                   tt_satisfiable)


@contextmanager
def recorded_flips(k=None):
    """Every second branch enumerate_projected opens, as (level, literal).

    A flip is a fresh level whose decision is positive, read when the level
    is first propagated: enumeration decides false first, so only a second
    branch decides true. Asserts at each flip that every variable below the
    reopened decision is still assigned, and that the reopened level is the
    top one and held the negated decision when last propagated; and at each
    backjump that it lands no lower than the last flip, the floor. With k
    given, also asserts at each flip that the level held a first-branch
    decision on one of the variables 1..k, that every deeper level deciding
    one of them was already a second branch, and that every second branch
    opened so far still holds its literal.
    """
    flips = []
    seconds = {}  # engine -> its second branches as (level, literal), ascending
    floors = {}  # engine -> the level of its last flip
    before = {}  # engine -> its decisions when last propagated
    propagate, attach = Engine._propagate, Engine._assert

    def recording(eng):
        trail, lim = eng._trail, eng._lim
        decisions = [trail[start] for start in lim]
        if lim and eng._qhead == lim[-1] == len(trail) - 1 and trail[-1] > 0:
            level, d = len(lim), -trail[-1]
            last = before[eng]
            assert last[level - 1] == d and decisions[:level - 1] == last[:level - 1]
            if k is not None:
                second = seconds.setdefault(eng, [])
                assert all(last[l - 1] == lit for l, lit in second)
                assert level not in dict(second)
                assert abs(d) <= k
                deeper = [l for l in range(level + 1, len(last) + 1) if abs(last[l - 1]) <= k]
                assert set(deeper) <= set(dict(second))
                seconds[eng] = [(l, lit) for l, lit in second if l < level] + [(level, -d)]
            assert eng._reason[-d] is None and eng._level[-d] == level
            assert all(eng._vals[v] for v in range(1, -d))
            flips.append((level, -d))
            floors[eng] = level
        before[eng] = decisions
        return propagate(eng)

    def checked_assert(eng, c):
        # the learned clause is attached right after the backjump
        assert len(eng._lim) >= floors.get(eng, 0)
        attach(eng, c)

    with mock.patch.object(Engine, "_propagate", recording), \
            mock.patch.object(Engine, "_assert", checked_assert):
        yield flips


@contextmanager
def only_learned_clauses_attached():
    """Assert that every clause _assert attaches is the one _analyze just learned.

    In an enumeration, also asserts at each backjump that every variable
    below the decision of the first level it removes is still assigned.
    """
    pending = []
    analyze, attach = Engine._analyze, Engine._assert

    def recording_analyze(eng, conflict):
        learned, back = analyze(eng, conflict)
        pending.append((learned, [eng._trail[start] for start in eng._lim]))
        return learned, back

    def checked_assert(eng, c):
        assert pending, f"{c} attached outside conflict analysis"
        learned, decisions = pending.pop()
        assert learned is c, f"{c} attached outside conflict analysis"
        removed = decisions[len(eng._lim)]
        assert all(eng._vals[v] for v in range(1, abs(removed)))
        attach(eng, c)

    with mock.patch.object(Engine, "_analyze", recording_analyze), \
            mock.patch.object(Engine, "_assert", checked_assert):
        yield
    assert not pending


@contextmanager
def recorded_decisions():
    """Every level enumerate_projected opens, as its decision literal, in order.

    Asserts at each that the decision is on the lowest unassigned variable,
    read when the level is first propagated.
    """
    decisions = []
    propagate = Engine._propagate

    def recording(eng):
        trail, lim = eng._trail, eng._lim
        if lim and eng._qhead == lim[-1] == len(trail) - 1:  # a fresh level
            d = trail[-1]
            assert all(eng._vals[v] for v in range(1, abs(d)))
            decisions.append(d)
        return propagate(eng)

    with mock.patch.object(Engine, "_propagate", recording):
        yield decisions


@contextmanager
def recorded_levels():
    """The level count each _search call starts from, and each _analyze's levels.

    Yields (starts, jumps): jumps gets (conflict level, backjump level) for
    every conflict analysed.
    """
    starts, jumps = [], []
    search, analyze = Engine._search, Engine._analyze

    def recording_search(eng, assumptions):
        starts.append(len(eng._lim))
        return search(eng, assumptions)

    def recording_analyze(eng, conflict):
        learned, back = analyze(eng, conflict)
        jumps.append((len(eng._lim), back))
        return learned, back

    with mock.patch.object(Engine, "_search", recording_search), \
            mock.patch.object(Engine, "_analyze", recording_analyze):
        yield starts, jumps


@contextmanager
def checked_watches():
    """Assert the watch invariants after every _propagate.

    Each clause in a watch list sits in exactly the lists of c[0] and c[1],
    every implied literal is at position 0 of its reason, and every list
    keeps the relative order of the clauses it held before the call, with
    the clauses it gained behind them.
    """
    propagate = Engine._propagate

    def checking(eng):
        lists = [list(map(id, ws)) for ws in eng._watches]
        conflict = propagate(eng)
        homes = {}
        for lit, ws in enumerate(eng._watches):
            ids = list(map(id, ws))
            now, before = set(ids), set(lists[lit])
            old = [i for i in ids if i in before]
            assert old == [i for i in lists[lit] if i in now]
            assert ids[:len(old)] == old
            for c in ws:
                homes.setdefault(id(c), (c, []))[1].append(lit)
        n = len(eng._watches)
        for c, at in homes.values():
            assert sorted(at) == sorted([c[0] % n, c[1] % n])
        for lit in eng._trail:
            r = eng._reason[abs(lit)]
            assert r is None or r[0] == lit
        return conflict

    with mock.patch.object(Engine, "_propagate", checking):
        yield


def assert_levels_hold_assumptions(eng, assumptions):
    """Level i holds assumptions[i-1] as true, for every open level up to |A|.

    The level starts with the assumption as its decision, or it is empty
    because the assumption already held below it.
    """
    trail, lim, vals, levels = eng._trail, eng._lim, eng._vals, eng._level
    for i in range(1, min(len(lim), len(assumptions)) + 1):
        a = assumptions[i - 1]
        assert vals[a] == 1
        if levels[abs(a)] == i:
            assert trail[lim[i - 1]] == a and eng._reason[abs(a)] is None
        else:
            end = lim[i] if i < len(lim) else len(trail)
            assert levels[abs(a)] < i and lim[i - 1] == end


def clauses_strategy(max_vars=6, max_clauses=12):
    lit = st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    return st.lists(st.lists(lit, min_size=1, max_size=4), min_size=0, max_size=max_clauses)


def three_sat_strategy(num_vars=8):
    """Random 3-SAT at 3 to 4.5 clauses per variable, so that most searches meet conflicts."""
    lit = st.sampled_from([v for v in range(-num_vars, num_vars + 1) if v])
    return st.lists(st.tuples(lit, lit, lit), min_size=3 * num_vars, max_size=num_vars * 9 // 2)


def clauses_or_three_sat(max_vars=6, max_clauses=12):
    """clauses_strategy's draw or random 3-SAT over as many variables.

    The first alone reaches Engine._analyze in a few examples of a few hundred.
    """
    return st.one_of(clauses_strategy(max_vars, max_clauses), three_sat_strategy(max_vars))


def test_empty_formula_is_sat():
    f = Cnf.build(3, [])
    assert Engine(f.num_vars, f.clauses).solve() == {1: False, 2: False, 3: False}


def test_empty_clause_is_unsat():
    f = Cnf.build(2, [[]])
    assert Engine(f.num_vars, f.clauses).solve() is None


def test_unit_chain():
    f = Cnf.build(3, [[1], [-1, 2], [-2, 3]])
    assert Engine(f.num_vars, f.clauses).solve() == {1: True, 2: True, 3: True}


def test_simple_conflict():
    f = Cnf.build(1, [[1], [-1]])
    assert Engine(f.num_vars, f.clauses).solve() is None


def test_model_is_lexicographically_least_false_first():
    # both polarities of 1 extend to models; decision order must pick false
    f = Cnf.build(2, [[1, 2]])
    assert Engine(f.num_vars, f.clauses).solve() == {1: False, 2: True}


def test_pigeonhole_3_into_2_unsat():
    # p_ij: pigeon i in hole j, vars 1..6 row-major
    def v(i, j):
        return 2 * i + j + 1

    clauses = [[v(i, 0), v(i, 1)] for i in range(3)]
    for j in range(2):
        for a, b in itertools.combinations(range(3), 2):
            clauses.append([-v(a, j), -v(b, j)])
    f = Cnf.build(6, clauses)
    assert Engine(f.num_vars, f.clauses).solve() is None


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
    # unsatisfiable under assumption 1, other branch stays reachable
    f = Cnf.build(3, [[-1, 2], [-1, -2]])
    eng = Engine(f.num_vars, f.clauses)
    assert not eng.satisfiable([1])
    assert eng.satisfiable([3])
    assert eng.satisfiable([-1])


@settings(max_examples=300, deadline=None)
@given(clauses_or_three_sat())
def test_agrees_with_truth_table(clause_lists):
    f = Cnf.build(6, clause_lists)
    model = Engine(f.num_vars, f.clauses).solve()
    if model is None:
        assert not tt_satisfiable(6, f.clauses)
    else:
        assert eval_cnf(f.clauses, model)


@settings(max_examples=200, deadline=None)
@given(clauses_or_three_sat(max_vars=5), st.lists(st.sampled_from([1, -1, 2, -2]), max_size=2, unique_by=abs))
def test_assumption_solves_agree_with_conditioned_table(clause_lists, assumptions):
    f = Cnf.build(5, clause_lists)
    conditioned = list(f.clauses) + [[a] for a in assumptions]
    got = Engine(f.num_vars, f.clauses).solve(assumptions)
    if got is None:
        assert not tt_satisfiable(5, conditioned)
    else:
        assert eval_cnf(conditioned, got)


class TestWitnessAndCore:
    def test_witness_is_the_false_first_model(self):
        eng = Engine(3, [[1, 2]])
        assert eng.satisfiable([3])
        assert eng.witness[1:] == [-1, 1, 1]

    @settings(max_examples=300, deadline=None)
    @given(clauses_or_three_sat(max_vars=6),
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

    def test_clashing_units_make_the_engine_unsat(self):
        eng = Engine(2, [[1], [2], [-1]])
        assert not eng.ok
        assert not eng.satisfiable()

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
        assert eng.satisfiable([-1])

    def test_an_assumption_that_holds_opens_its_own_level(self):
        # 1 implies 2, so assumption 2 already holds when its level opens
        eng = Engine(3, [[-1, 2]])
        with recorded_levels() as (starts, _):
            assert eng.satisfiable([1, 2])
            assert eng._trail == [1, 2, -3]
            assert eng._lim == [0, 2, 2]  # level 2 is empty, level 3 decides -3
            assert eng.satisfiable([1, 2, 3])
        # the second probe shares [1, 2] and keeps both levels
        assert starts == [0, 2]
        assert eng._trail == [1, 2, 3]
        assert eng._lim == [0, 2, 2]

    @settings(max_examples=200, deadline=None)
    @given(three_sat_strategy(),
           st.lists(st.integers(min_value=-8, max_value=8).filter(bool), max_size=4),
           st.lists(st.tuples(st.integers(0, 4),
                              st.lists(st.integers(min_value=-8, max_value=8).filter(bool),
                                       max_size=3)),
                    min_size=1, max_size=8))
    def test_each_assumption_owns_one_level(self, clause_lists, prefix, ops):
        eng = Engine(8, Cnf.build(8, clause_lists).clauses)
        previous, levels = [], 0
        with recorded_levels() as (starts, jumps):
            for cut, lits in ops:
                assumptions = prefix[:cut] + lits
                shared = 0
                for a, b in zip(previous, assumptions):
                    if a != b:
                        break
                    shared += 1
                sat = eng.satisfiable(assumptions)
                assert starts[-1] == min(shared, levels)
                if sat:
                    assert len(eng._lim) >= len(assumptions)
                assert_levels_hold_assumptions(eng, assumptions)
                previous, levels = assumptions, len(eng._lim)
        assert all(0 <= back < level for level, back in jumps)

    @settings(max_examples=300, deadline=None)
    @given(clauses_or_three_sat(max_vars=6, max_clauses=10),
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


    @settings(max_examples=150, deadline=None)
    @given(three_sat_strategy(8), st.lists(st.one_of(
        st.lists(st.integers(min_value=-8, max_value=8).filter(bool), max_size=4),
        st.sets(st.integers(min_value=1, max_value=8), max_size=8)), min_size=1, max_size=6))
    def test_propagation_keeps_the_watch_invariants(self, clause_lists, ops):
        # assumption probes (lists) on one engine, interleaved with
        # enumerations (sets) on engines of their own
        f = Cnf.build(8, clause_lists)
        with checked_watches():
            eng = Engine(f.num_vars, f.clauses)
            for op in ops:
                if isinstance(op, list):
                    eng.satisfiable(op)
                else:
                    enumerate_projected(f, op)


class TestTrace:
    def test_learned_clauses_and_trails_are_pinned(self):
        # every learned clause with its backjump level, and the trail at
        # each satisfiable answer and each enumerated model, over 200 random
        # formulas. Answers alone cannot show a change in propagation
        # order: the engine returns the least model whatever it learned
        rng = random.Random(2718)
        h = hashlib.sha256()
        engines = []
        init, analyze = Engine.__init__, Engine._analyze

        def recording_init(eng, *args):
            init(eng, *args)
            engines.append(eng)

        def recording_analyze(eng, conflict):
            learned, back = analyze(eng, conflict)
            h.update(f"learn {learned} {back}\n".encode())
            return learned, back

        def visit(cell):
            h.update(f"model {cell} {engines[-1]._trail}\n".encode())

        with mock.patch.object(Engine, "__init__", recording_init), \
                mock.patch.object(Engine, "_analyze", recording_analyze):
            for _ in range(200):
                nv = rng.randint(6, 12)
                lits = [v for v in range(-nv, nv + 1) if v]
                clauses = [[rng.choice((v, -v)) for v in rng.sample(range(1, nv + 1), 3)]
                           for _ in range(rng.randint(3 * nv, 9 * nv // 2))]
                f = Cnf.build(nv, clauses)
                eng = Engine(f.num_vars, f.clauses)
                prefix = rng.sample(lits, 3)
                for _ in range(4):
                    assumptions = prefix[:rng.randint(0, 3)] + rng.sample(lits, rng.randint(0, 2))
                    sat = eng.satisfiable(assumptions)
                    h.update(f"sat {assumptions} {sat} {eng._trail}\n".encode())
                enumerate_projected(f, rng.sample(range(1, nv + 1), rng.randint(0, nv)), visit)
        assert h.hexdigest() == "9c5e264d85550c9a39e79f3d977fa089076aa225e2d77e19b1942ef0057f00b8"


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

    @pytest.mark.parametrize("bad", [0, -1])
    def test_a_projection_variable_below_1_is_rejected(self, bad):
        f = Cnf.build(2, [[1, 2]])
        with pytest.raises(ValueError, match=f"^projection variable {bad} out of range$"):
            enumerate_projected(f, [1, bad])

    def test_implied_projection_literals_are_not_flipped(self):
        # deciding -1 implies -2 on level 1, so the first flip reopens level
        # 1 on 1; then -2 is a decision on level 2, and the second flip
        # reopens level 2 on 2
        f = Cnf.build(3, [[1, -2]])
        seen = []
        with recorded_flips() as flips:
            assert enumerate_projected(f, [1, 2], visit=seen.append) == 3
        assert seen == [(-1, -2), (1, -2), (1, 2)]
        assert flips == [(1, 1), (2, 2)]

    def test_a_backjump_resumes_decisions_at_the_lowest_unassigned_variable(self):
        # -1 on level 1; -2 on level 2 implies -3; -4 on level 3 implies 5,
        # which conflicts. The learned clause [4, 1] backjumps to level 1,
        # which unassigns 2 and the implied 3, both below the last decision
        # 4: the next decision is -2 again, not -5
        f = Cnf.build(5, [[2, -3], [1, 5, 4], [-5, 4]])
        seen = []
        with recorded_decisions() as decisions, recorded_flips(5) as flips, \
                only_learned_clauses_attached():
            assert enumerate_projected(f, range(1, 6), visit=seen.append) == \
                tt_count_projected(5, f.clauses, range(1, 6))
        assert decisions[:5] == [-1, -2, -4, -2, -5]
        # the first model's levels decide -1, -2 and -5; the last is flipped
        assert seen[0] == (-1, -2, -3, 4, -5) and flips[0] == (3, 5)

    @settings(max_examples=300, deadline=None)
    @given(clauses_or_three_sat(max_vars=8, max_clauses=14),
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

    @settings(max_examples=300, deadline=None)
    @given(three_sat_strategy(12), st.sets(st.integers(min_value=1, max_value=12), max_size=12))
    def test_enumeration_order_matches_truth_table_at_twelve_variables(self, clause_lists, proj):
        # longer searches, where an analysed backjump sometimes lands below
        # the deepest second branch and is held there
        f = Cnf.build(12, clause_lists)
        visited = []
        got = enumerate_projected(f, proj, visit=visited.append)
        pv = sorted(proj)
        want = [tuple(v if b else -v for v, b in zip(pv, cell))
                for cell in sorted(tt_projections_by_rows(12, f.clauses, proj))]
        assert visited == want and got == len(want)

    @settings(max_examples=200, deadline=None)
    @given(clauses_or_three_sat(max_vars=8, max_clauses=14),
           st.sets(st.integers(min_value=1, max_value=8), max_size=8))
    def test_flips_negate_only_first_branch_projection_decisions(self, clause_lists, proj):
        # enumerate_projected numbers the projection variables 1..k
        k = len(proj)
        f = Cnf.build(8, clause_lists)
        with recorded_flips(k) as flips, only_learned_clauses_attached(), recorded_decisions():
            got = enumerate_projected(f, proj)
        assert got == tt_count_projected(8, f.clauses, proj)
        # every model after the first lies in a subtree opened by a flip
        assert len(flips) >= got - 1

    def test_a_long_enumeration_attaches_only_learned_clauses(self):
        # the three-probe width-4 leak game, projected onto the counted
        # variables, the choosers and what they see: 12,748 cells, count and
        # order pinned while a clause was still attached per model, which
        # made the last models about four times as slow as the first
        game = "\n".join(["width 4", "mode leak", "random z in 1..13",
                          "input x1", "observe y1 := z >= x1",
                          "input x2", "observe y2 := z <= x2",
                          "input x3", "observe y3 := z >= x3"])
        p, _ = encode(parse_program(game))
        proj = set(p.count_vars).union(p.max_vars, *p.deps.values())
        cells = []
        with only_learned_clauses_attached():
            assert enumerate_projected(p.cnf, proj, visit=cells.append) == 12748
        assert hashlib.sha256(repr(cells).encode()).hexdigest() == \
            "8edf0c86ac9c7f6038d982661259b436f16426a3f511aaad6244eb98a1afc6dc"

    @settings(max_examples=200, deadline=None)
    @given(clauses_or_three_sat(max_vars=5, max_clauses=8),
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
