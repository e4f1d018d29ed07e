import itertools
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dqmaxsat.cli import load_instance_text
from dqmaxsat.counting import check_solution
from dqmaxsat.engine import Engine
from dqmaxsat import oracle
from dqmaxsat.formula import Cnf, Problem, Solution, cofactor, minterms_of
from dqmaxsat.incremental import expand, init, schedule
from dqmaxsat.incremental import run as run_incremental
from dqmaxsat.oracle import (
    ChainTable,
    InstanceTooLarge,
    MalformedRequest,
    OracleRequest,
    OracleResult,
    brute_force_dqmaxsat,
    max_count,
    oracle_call,
    reachable_cells,
)
from dqmaxsat.reduction import build_reduction, solve_global

import instances
from naive import (
    assignments,
    eval_cnf,
    naive_dqmaxsat,
    tt_count_projected,
)

def count_vars_of(req: OracleRequest) -> list[int]:
    """The count variables, read off the cells as max_count reads them."""
    return [abs(lit) for lit in req.cells[0]] if req.cells else []


def reference_max_count(req: OracleRequest):
    """Reference for max_count by plain enumeration: incumbent first, then
    every choice assignment in ascending-id false-first order, strict
    improvements."""
    ms = sorted(req.incumbent)
    ys = count_vars_of(req)
    nv = max([req.objective.num_vars] + ms + ys, default=0)
    rest = [v for v in range(1, nv + 1) if v not in req.incumbent]

    def count_of(alpha):
        cells = set()
        for others in assignments(rest):
            a = {**alpha, **others}
            if eval_cnf(req.objective.clauses, a):
                cells.add(tuple(a[y] for y in ys))
        return len(cells)

    best = dict(req.incumbent)
    best_count = count_of(best)
    for bits in itertools.product([False, True], repeat=len(ms)):
        alpha = dict(zip(ms, bits))
        if count_of(alpha) > best_count:
            best = alpha
            best_count = count_of(alpha)
    return best, best_count


def _single_chooser_request():
    # copy_or_and objective plus one constant selector (var 6) for chooser 1
    p = instances.copy_or_and()
    obj = Cnf.build(6, list(p.cnf.clauses) + [[-1, 6], [1, -6]])
    return OracleRequest(
        objective=obj,
        incumbent={6: False},
        cells=reachable_cells(obj, [2, 3]),
    )


def _split_chooser_request(incumbent=None):
    # chooser 1 now reads var 4: selector 7 for (4), selector 8 for (-4)
    p = instances.copy_or_and()
    obj = Cnf.build(8, list(p.cnf.clauses) + [
        [-4, -1, 7], [-4, 1, -7],
        [4, -1, 8], [4, 1, -8],
    ])
    return OracleRequest(
        objective=obj,
        incumbent=incumbent or {7: False, 8: False},
        cells=reachable_cells(obj, [2, 3]),
    )


def test_constant_chooser_keeps_incumbent_on_tie():
    res = max_count(_single_chooser_request())
    assert res.best_count == 2
    assert dict(res.best) == {6: False}


def test_split_chooser_finds_the_copy_strategy():
    res = max_count(_split_chooser_request())
    assert res.best_count == 3
    assert dict(res.best) == {7: True, 8: False}


@pytest.mark.parametrize("cell", [(2,), (3, 2), (-2, 4), (2, 3, 4), ()])
def test_cell_over_other_variables_is_malformed(cell):
    # cells hold one literal per count variable, in ascending order; the
    # count variables are read off the first cell, so the odd cell is tried
    # last and first
    req = _single_chooser_request()
    for cells in (req.cells + (cell,), (cell,) + req.cells):
        with pytest.raises(MalformedRequest):
            max_count(OracleRequest(req.objective, req.incumbent, cells))


def test_cells_over_descending_variables_are_malformed():
    req = _single_chooser_request()
    reversed_cells = tuple(cell[::-1] for cell in req.cells)
    with pytest.raises(MalformedRequest):
        max_count(OracleRequest(req.objective, req.incumbent, reversed_cells))


def test_no_choice_variables_counts_the_objective():
    f = Cnf.build(3, [[1, 2], [-3, 1]])
    req = OracleRequest(f, {}, reachable_cells(f, [1, 2]))
    res = max_count(req)
    assert res.best_count == 3
    assert dict(res.best) == {}


def _random_request(rng: random.Random):
    # up to 8 choice variables, so cells keep witnesses over several levels
    num_choice = rng.randint(1, 8)
    num_vars = num_choice + rng.randint(2, 5)
    ms = rng.sample(range(1, num_vars + 1), num_choice)
    others = [v for v in range(1, num_vars + 1) if v not in ms]
    ys = [v for v in others if rng.random() < 0.6] or others[:1]
    clauses = []
    for _ in range(rng.randint(1, num_vars + 2)):
        # one choice and one other variable, so choices gate the cells
        vs = [rng.choice(ms), rng.choice(others)] + rng.sample(range(1, num_vars + 1), rng.randint(0, 1))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    incumbent = {v: False for v in ms}
    f = Cnf.build(num_vars, clauses)
    return OracleRequest(f, incumbent, reachable_cells(f, ys))


@pytest.mark.parametrize("seed", range(60))
def test_matches_reference_enumeration(seed):
    req = _random_request(random.Random(seed))
    res = max_count(req)
    want_best, want_count = reference_max_count(req)
    assert res.best_count == want_count
    assert dict(res.best) == want_best


def _random_request_with_incumbent(rng: random.Random):
    # incremental passes its previous best, so the incumbent is any total
    # assignment; drawn last, so the objective is _random_request's
    req = _random_request(rng)
    incumbent = {v: rng.random() < 0.5 for v in sorted(req.incumbent)}
    return OracleRequest(req.objective, incumbent, req.cells)


@pytest.mark.parametrize("seed", range(60))
def test_random_incumbent_matches_reference_enumeration(seed):
    req = _random_request_with_incumbent(random.Random(seed))
    res = max_count(req)
    want_best, want_count = reference_max_count(req)
    assert res.best_count == want_count
    assert dict(res.best) == want_best


def test_one_engine_and_no_enumeration_per_call(monkeypatch):
    # the root cells come with the request, and the incumbent is counted
    # on the probe engine
    built = []
    enumerations = []
    init = Engine.__init__
    enumerate_projected = oracle.enumerate_projected

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_enumerate(*args, **kwargs):
        enumerations.append(1)
        return enumerate_projected(*args, **kwargs)

    monkeypatch.setattr(Engine, "__init__", counting_init)
    monkeypatch.setattr(oracle, "enumerate_projected", counting_enumerate)
    requests = [_single_chooser_request(), _split_chooser_request(),
                _split_chooser_request({7: True, 8: False})]
    requests += [_random_request_with_incumbent(random.Random(seed)) for seed in range(20)]
    for req in requests:
        built.clear()
        enumerations.clear()
        max_count(req)
        assert (len(built), len(enumerations)) == (1, 0)


def test_witnesses_skip_probes(monkeypatch):
    # choices 1..3, counted 4, 5: y4 needs x1, y5 needs x3 and not x2, so
    # all four cells are reachable only under x1 & -x2 & x3. The B&B keeps
    # witnesses only: a cell whose witness agrees with a node's new literal
    # is kept without a probe
    objective = Cnf.build(5, [[-4, 1], [-5, -2], [-5, 3]])
    req = OracleRequest(
        objective=objective,
        incumbent={1: False, 2: False, 3: False},
        cells=reachable_cells(objective, [4, 5]),
    )
    probes = []
    satisfiable = Engine.satisfiable

    def counting(self, assumptions=()):
        result = satisfiable(self, assumptions)
        chosen = tuple(sorted((a for a in assumptions if abs(a) <= 3), key=abs))
        probes.append((chosen, tuple(a for a in assumptions if abs(a) > 3), result))
        return result

    monkeypatch.setattr(Engine, "satisfiable", counting)
    res = max_count(req)
    assert (dict(res.best), res.best_count) == reference_max_count(req)
    assert res.best_count == 4
    assert probes == [
        # the incumbent (-1, -2, -3), one probe per root cell: it reaches
        # one cell, whose witness seeds its root entry; the other three
        # start with none
        ((-1, -2, -3), (-4, -5), True),
        ((-1, -2, -3), (-4, 5), False),
        ((-1, -2, -3), (4, -5), False),
        ((-1, -2, -3), (4, 5), False),
        # node (-1): cell (-4, -5) keeps the incumbent's witness, which has
        # -1; the three others are probed, and (-4, 5) is reached
        ((-1,), (-4, 5), True),
        ((-1,), (4, -5), False),
        ((-1,), (4, 5), False),
        # node (-1, -2): both cells keep their witnesses, which have -2
        # node (-1, -2, -3): cell (-4, -5) keeps its witness; cell (-4, 5)
        # has 3 in its witness and fails its probe, so 1 cell cannot beat 1
        ((-1, -2, -3), (-4, 5), False),
        # node (-1, -2, 3): cell (-4, 5) keeps its witness, which has 3
        ((-1, -2, 3), (-4, -5), True),
        # leaf: 2 cells beat the incumbent's 1; node (-1) cannot beat 2
        # node (1): no cell has a witness with 1
        ((1,), (-4, -5), True),
        ((1,), (-4, 5), True),
        ((1,), (4, -5), True),
        ((1,), (4, 5), True),
        # node (1, -2): all four cells keep their witnesses, which have -2
        # node (1, -2, -3): the cells with -3 in their witnesses keep them;
        # the two with 3 fail their probes, so 2 cells cannot beat 2
        ((1, -2, -3), (-4, 5), False),
        ((1, -2, -3), (4, 5), False),
        # node (1, -2, 3): the cells with 3 in their witnesses keep them
        ((1, -2, 3), (-4, -5), True),
        ((1, -2, 3), (4, -5), True),
        # leaf: 4 cells, every cell, so no branch can beat it
    ]


def test_the_budget_hook_is_optional(copy_or_and, monkeypatch):
    # a hook that never answers leaves the search as it is without one, and
    # is charged every probe, node by node; the root's 4 with the first
    req = build_reduction(copy_or_and)[0]
    probes = []
    satisfiable = Engine.satisfiable

    def counting(self, assumptions=()):
        probes.append(1)
        return satisfiable(self, assumptions)

    monkeypatch.setattr(Engine, "satisfiable", counting)
    want = max_count(req)
    assert want.best_count == 3
    made = len(probes)
    probes.clear()
    charged = []
    assert max_count(req, charged.append) == want
    assert sum(charged) == len(probes) == made and charged[0] == len(req.cells) == 4
    # an answer the hook gives is returned as it is
    assert max_count(req, lambda spent: OracleResult({}, -1)) == OracleResult({}, -1)


def _cofactor_cases(rng: random.Random):
    # _random_request's objective with one or two of its non-choice
    # variables given, counted ones among them leaving the count, as the
    # local method's split variables do; one monomial over them per leaf
    req = _random_request(rng)
    others = [v for v in range(1, req.objective.num_vars + 1) if v not in req.incumbent]
    split = sorted(rng.sample(others, rng.randint(1, min(2, len(others)))))
    return req, set(count_vars_of(req)) - set(split), minterms_of(split)


@pytest.mark.parametrize("seed", range(60))
def test_given_literals_answer_for_the_cofactored_objective(seed):
    # each monomial given as unit clauses of the objective, against the
    # cofactored objective that the local method solves its leaves on: the
    # same cells, and the same choices from max_count as from the reference
    req, count_vars, monomials = _cofactor_cases(random.Random(seed))
    for m in monomials:
        units = Cnf.build(req.objective.num_vars, [*req.objective.clauses, *([lit] for lit in m)])
        cofactored = cofactor(req.objective, m)
        cells = reachable_cells(cofactored, count_vars)
        assert reachable_cells(units, count_vars) == cells
        res = max_count(OracleRequest(cofactored, req.incumbent, cells))
        want_best, want_count = reference_max_count(OracleRequest(units, req.incumbent, cells))
        assert res.best_count == want_count
        assert dict(res.best) == want_best


def test_deep_branch_and_bound_needs_no_recursion():
    # one chooser sees 5 counted variables: 32 selectors, so the search
    # goes 32 choices deep before it finds the copy of y1; a recursive
    # search needs more than the 36 frames allowed here
    f = Cnf.build(6, [[-1, 2], [1, -2]])
    p = Problem.of(f, max_vars=[1], count_vars=[2, 3, 4, 5, 6], exist_vars=[],
                   deps={1: [2, 3, 4, 5, 6]})
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 36)
    try:
        # max_count itself: solve_global would take the DP's answer here
        res = max_count(build_reduction(p)[0])
    finally:
        sys.setrecursionlimit(limit)
    assert res.best_count == 32


@pytest.mark.parametrize("seed", range(40, 70))
def test_incumbent_is_a_floor(seed):
    req = _random_request(random.Random(seed))
    if req is None:
        return
    units = [[v] if req.incumbent[v] else [-v] for v in sorted(req.incumbent)]
    floor = tt_count_projected(
        req.objective.num_vars, list(req.objective.clauses) + units, count_vars_of(req))
    assert max_count(req).best_count >= floor


def test_determinism():
    req = _split_chooser_request()
    first = max_count(req)
    second = max_count(req)
    assert first.best_count == second.best_count
    assert dict(first.best) == dict(second.best)


class TestBruteForce:
    def test_one_chooser_two_signals(self, copy_or_and):
        s = brute_force_dqmaxsat(copy_or_and)
        assert s.achieved_count == 3
        assert s.total == 4
        # any strategy selecting the both-true point and not the both-false
        # point is optimal; the canonical order lands on the conjunction
        assert s.functions[1].minterms == frozenset([(4, 5)])
        assert check_solution(copy_or_and, s) == 3

    def test_two_choosers(self, two_implications):
        s = brute_force_dqmaxsat(two_implications)
        assert s.achieved_count == 3
        assert check_solution(two_implications, s) == 3

    def test_four_is_unattainable(self, two_implications):
        assert brute_force_dqmaxsat(two_implications).achieved_count < 4

    def test_or_copy(self, copy_or):
        s = brute_force_dqmaxsat(copy_or)
        assert s.achieved_count == 3
        assert s.functions[1].minterms == frozenset([(4,)])

    def test_selector_guard(self):
        f = Cnf.build(6, [[1]])
        p = Problem.of(f, max_vars=[1], count_vars=[2, 3, 4, 5, 6], exist_vars=[],
                       deps={1: [2, 3, 4, 5]})
        # 2^4 = 16 positions is fine, a fifth dependency would be 32
        brute_force_dqmaxsat(p)
        p2 = Problem.of(f, max_vars=[1], count_vars=[2, 3, 4, 5, 6], exist_vars=[],
                        deps={1: [2, 3, 4, 5, 6]})
        with pytest.raises(InstanceTooLarge):
            brute_force_dqmaxsat(p2)

    def test_variable_count_guard(self):
        f = Cnf.build(25, [[25]])
        p = Problem.of(f, max_vars=[1], count_vars=[25],
                       exist_vars=range(2, 25), deps={1: []})
        with pytest.raises(InstanceTooLarge):
            brute_force_dqmaxsat(p)

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_pointwise_reference(self, seed):
        p = instances.random_problem(random.Random(seed), num_vars=5)
        want_count, want_fns = naive_dqmaxsat(p)
        s = brute_force_dqmaxsat(p)
        assert s.achieved_count == want_count
        for x in p.max_vars:
            assert s.functions[x].minterms == want_fns[x]
        assert check_solution(p, s) == want_count


def _answers(res):
    return None if res is None else (dict(res.best), res.best_count)


def _refused(req, budget=None):
    """A B&B for calls the table must answer itself."""
    raise AssertionError("the B&B was asked")


def _recorded(budgeted: list):
    """max_count, noting for each call whether it ran on a budget."""
    def bnb(req, budget=None):
        budgeted.append(budget is not None)
        return max_count(req, budget)
    return bnb


class TestChainTable:
    """The DP's entry, called directly, against max_count on the same call."""

    @settings(max_examples=300, deadline=None)
    @given(instances.problems(max_num_vars=7, max_num_max=3, dep_limit=2))
    def test_every_incremental_call_matches_max_count(self, p):
        # one table for the whole run, as incremental.run keeps it; the
        # incumbent carried over is max_count's answer. The dispatch answers
        # every call as max_count does too, both on the table asked directly,
        # which holds its rows from the first call on and so is asked first,
        # and on one left to the run's probe budget
        state = init(p)
        table, budgeted = ChainTable(p), ChainTable(p)
        for step in [None, *schedule(p)]:
            if step is not None:
                state = expand(state, *step)
            want = max_count(state.request())
            got = table.solve(state.selectors, state.incumbent)
            if got is not None:
                assert _answers(got) == _answers(want)
            for dispatch in (table, budgeted):
                assert _answers(oracle_call(dispatch, state.selectors, state.request(), max_count)) == _answers(want)
            state = replace(state, incumbent=dict(want.best))
        brute = brute_force_dqmaxsat(p).achieved_count
        assert want.best_count == brute
        assert run_incremental(p).achieved_count == solve_global(p).achieved_count == brute

    @settings(max_examples=300, deadline=None)
    @given(instances.problems(max_num_vars=7, max_num_max=3, dep_limit=2), st.randoms())
    def test_global_reduction_with_a_random_incumbent(self, p, rnd):
        req, sel, table = build_reduction(p)
        incumbent = {s: rnd.random() < 0.5 for s in sorted(req.incumbent)}
        req = OracleRequest(req.objective, incumbent, req.cells)
        got = table.solve(sel, incumbent)
        if got is not None:
            assert _answers(got) == _answers(max_count(req))

    @pytest.fixture
    def row_tables(self, monkeypatch):
        """The projections the tables enumerate rows over, in call order."""
        made = []
        real = oracle.enumerate_projected

        def recording(f, proj, visit=None):
            made.append(sorted(proj))
            return real(f, proj, visit)

        monkeypatch.setattr(oracle, "enumerate_projected", recording)
        return made

    @settings(max_examples=300, deadline=None)
    @given(instances.problems(max_num_vars=7, max_num_max=3, dep_limit=2))
    def test_the_table_gives_the_cells(self, p):
        # from its rows, deduplicated and sorted, where it enumerates them
        # up front; otherwise from reachable_cells
        assert ChainTable(p).cells == reachable_cells(p.cnf, p.count_vars)

    def test_chain_shaped_full_supports_enumerate_the_rows_alone(self, copy_or_and, row_tables):
        # one chooser whose helpers the counters force: the rows come first,
        # the cells are their projection, and the table, which holds its
        # rows, answers the call with no B&B
        req, sel, table = build_reduction(copy_or_and)
        assert row_tables == [[1, 2, 3, 4, 5]]
        assert table.cells == ((-2, -3), (-2, 3), (2, -3), (2, 3))
        assert table.bound == 8
        assert oracle_call(table, sel, req, _refused) == max_count(req)

    def test_more_choosers_than_counted_variables_enumerate_the_cells_alone(self, row_tables):
        # two blind two-bit threshold probes: chain-shaped, but 2^|X| = 16
        # chooser tuples exceed the 4 cells any two observations can reach,
        # so the rows wait, and the global call's B&B answers within its
        # budget of Tb = 64 probes
        text = ("width 2\nmode leak\nrandom z\ninput x1\nobserve y1 := z >= x1\n"
                "input x2\nobserve y2 := z >= x2\n")
        p = load_instance_text(text)[0]
        assert (len(p.max_vars), len(p.count_vars)) == (4, 2)
        req, sel, table = build_reduction(p)
        assert oracle._blocks(p, {x: tuple(sorted(p.deps[x])) for x in p.max_vars}) is not None
        assert row_tables == [sorted(p.count_vars)]
        budgeted = []
        assert oracle_call(table, sel, req, _recorded(budgeted)) == max_count(req)
        assert budgeted == [True] and 0 < table.spent <= table.bound == 64
        row_tables.clear()
        assert solve_global(p).achieved_count == 4
        assert row_tables == [sorted(p.count_vars)]

    def test_two_root_groups(self, row_tables):
        # chooser 1 sees counted 2, chooser 2 sees 2 and 3: the root groups
        # are the values of 2, and each selector lies under one of them
        f = Cnf.build(5, [[-1, 2, 4], [1, -2, -3], [-4, -5, 3], [5, -1], [1, 4, -5],
                          [-2, 1, 5], [3, 4, 5]])
        p = Problem.of(f, max_vars=[1, 4], count_vars=[2, 3, 5], exist_vars=[],
                       deps={1: [2], 4: [2, 3]})
        req, sel, table = build_reduction(p)
        assert row_tables == [[1, 2, 3, 4, 5]]
        blocks = oracle._blocks(p, sel.supports)
        assert [support for support, _, _ in blocks] == [(2,), (2, 3)]
        tree = table._tree(table._rows, blocks, sel, 0)
        assert len(tree) == 2
        want = max_count(req)
        assert _answers(table.solve(sel, req.incumbent)) == _answers(want)
        assert want.best_count == brute_force_dqmaxsat(p).achieved_count
        for rnd in map(random.Random, range(20)):
            incumbent = {s: rnd.random() < 0.5 for s in sorted(req.incumbent)}
            got = table.solve(sel, incumbent)
            assert _answers(got) == _answers(max_count(OracleRequest(req.objective, incumbent, req.cells)))

    def test_supports_that_are_not_nested(self, two_implications, row_tables):
        # chooser 1 sees helper 5 and chooser 2 helper 6: the shape fails
        # before any row is enumerated, and the table enumerates the cells
        state = init(two_implications)
        for step in schedule(two_implications):
            state = expand(state, *step)
        assert state.selectors.supports == {1: (5,), 2: (6,)}
        row_tables.clear()
        assert ChainTable(two_implications).solve(state.selectors, state.incumbent) is None
        assert row_tables == [[3, 4]]
        # the same over counted variables, which need no forcing: chooser 1
        # sees 3 and chooser 2 sees 4. A DP that took them as nested would
        # let chooser 2 answer each value of 3 on its own and claim all 4
        # cells, where the optimum is 3
        f = Cnf.build(4, [[-1, 3], [2, -3, 1], [-2, -3, -4], [3, 2]])
        p = Problem.of(f, max_vars=[1, 2], count_vars=[3, 4], exist_vars=[], deps={1: [3], 2: [4]})
        req, sel, table = build_reduction(p)
        assert table.solve(sel, req.incumbent) is None
        assert max_count(req).best_count == brute_force_dqmaxsat(p).achieved_count == 3
        # the full supports are not nested either, so the table answers no
        # call: the B&B answers it without a budget, and no row is enumerated
        row_tables.clear()
        budgeted = []
        assert oracle_call(table, sel, req, _recorded(budgeted)) == max_count(req)
        assert (budgeted, table.spent, row_tables) == ([False], 0, [])

    def test_an_observation_no_cell_forces(self, or_with_free_helper, row_tables):
        # the helper 5 decides the chooser when counter 2 is false, so no
        # cell forces it and the full support is not chain-shaped: the table
        # answers no call, not even one over the counters alone, which the
        # B&B answers with no row enumerated
        p = or_with_free_helper
        req, sel, table = build_reduction(p)
        assert row_tables == [[2, 3, 4]]
        state = expand(init(p), 1, 2)
        row_tables.clear()
        assert table.solve(sel, req.incumbent) is None
        assert table.solve(state.selectors, state.incumbent) is None
        budgeted = []
        assert oracle_call(table, state.selectors, state.request(), _recorded(budgeted)) == \
            max_count(state.request())
        assert (budgeted, row_tables) == ([False], [])

    def test_rows_past_the_bound(self, row_tables):
        # chooser 1 will see the existential 3, which no cell forces: with
        # the empty support the call is chain-shaped, but 3 would double the
        # rows of most (cell, chooser) pairs past Tb = 4. The full support
        # is not chain-shaped, so the table answers no call and enumerates
        # no row
        f = Cnf.build(3, [[-1, 2, 3]])
        p = Problem.of(f, max_vars=[1], count_vars=[2], exist_vars=[3], deps={1: [3]})
        state = init(p)
        table = ChainTable(p)
        assert table.bound == 4
        row_tables.clear()
        assert table.solve(state.selectors, state.incumbent) is None
        assert oracle_call(table, state.selectors, state.request(), max_count) == max_count(state.request())
        assert row_tables == []

    def test_the_rule(self, monkeypatch):
        # a table that holds its rows is asked first, even where 2^|X| = 2
        # chooser tuples exceed its one cell; one whose full table could
        # pass ROW_GUARD leaves the call to the B&B on a budget of Tb probes
        f = Cnf.build(3, [[1, 2, 3]])
        p = Problem.of(f, max_vars=[1], count_vars=[2, 3], exist_vars=[], deps={1: [2]})
        one_cell = Problem.of(Cnf.build(3, [[1, 2, 3], [2], [3]]), max_vars=[1],
                              count_vars=[2, 3], exist_vars=[], deps={1: [2]})
        for problem, cells in ((p, 4), (one_cell, 1)):
            req, sel, table = build_reduction(problem)
            assert (len(table.cells), table.bound) == (cells, 2 * cells)
            assert oracle_call(table, sel, req, _refused) == max_count(req)
        monkeypatch.setattr(oracle, "ROW_GUARD", 7)
        req, sel, table = build_reduction(p)
        budgeted = []
        assert oracle_call(table, sel, req, _recorded(budgeted)) == max_count(req)
        assert budgeted == [True]

    def test_a_spent_budget_hands_the_call_to_the_table(self, monkeypatch):
        # the copy chooser of y1 over three counters: 8 cells and 2 tuples,
        # so Tb = 16; with a ROW_GUARD below 2^(|X|+|Y|) the table does not
        # enumerate its rows up front, the B&B spends more than 16 probes,
        # asks it, and the table, which then holds its rows, answers every
        # later call first
        f = Cnf.build(4, [[-1, 2], [1, -2]])
        p = Problem.of(f, max_vars=[1], count_vars=[2, 3, 4], exist_vars=[],
                       deps={1: [2, 3, 4]})
        monkeypatch.setattr(oracle, "ROW_GUARD", 8)
        req, sel, table = build_reduction(p)
        want = max_count(req)
        charged = []
        assert max_count(req, charged.append) == want and sum(charged) > 16
        assert oracle_call(table, sel, req, max_count) == want
        assert 16 < table.spent < sum(charged)
        assert oracle_call(table, sel, req, _refused) == want

    def test_the_budget_is_one_per_solve(self, monkeypatch, row_tables):
        # chooser 2 sees nothing and chooser 1 comes to see counter 4: 2
        # cells and 4 chooser tuples, so Tb = 8, and with |X| > |Y| the rows
        # wait. The run's first call probes 5 times and its second 4: each
        # stays under Tb, but together they pass it, and the table
        # enumerates its rows and answers the second
        f = Cnf.build(4, [[2, -4, 3], [-1, -4], [-3, 4, -2], [1, 4]])
        p = Problem.of(f, max_vars=[1, 2], count_vars=[4], exist_vars=[3],
                       deps={1: [4], 2: []})
        state = init(p)
        table = state.table
        assert table.bound == 8
        answered = []
        solve = table.solve

        def recording(sel, incumbent):
            res = solve(sel, incumbent)
            answered.append(res is not None)
            return res

        monkeypatch.setattr(table, "solve", recording)
        first = oracle_call(table, state.selectors, state.request(), max_count)
        assert first == max_count(state.request())
        assert (table.spent, answered, row_tables) == (5, [], [[4]])
        assert schedule(p) == [(1, 4)]
        state = expand(replace(state, incumbent=dict(first.best)), 1, 4)
        second = oracle_call(table, state.selectors, state.request(), max_count)
        assert second == max_count(state.request())
        assert (answered, row_tables) == ([True], [[4], [1, 2, 4]])

    @settings(max_examples=300, deadline=None)
    @given(instances.problems(max_num_vars=7, max_num_max=3, dep_limit=2))
    def test_forced_rows_fit_the_bound(self, p):
        # where the full supports are chain-shaped, a row is fixed by its
        # cell and its chooser tuple, so the rows number at most Tb
        table = ChainTable(p)
        if oracle._blocks(p, {x: tuple(sorted(p.deps[x])) for x in p.max_vars}) is not None:
            assert table._enumerate()
            assert len(table._rows) <= table.bound

    def test_a_run_whose_full_supports_are_not_chain_shaped(self, row_tables):
        # both choosers come to see counter 4 and the existential 3, which
        # 4 alone does not force. With chooser 1's support grown to 3 the
        # call is chain-shaped, since chooser 2's choice forces 3 there, but
        # the table answers no call of the run: the budget passes Tb = 8 on
        # the second call, the B&B answers it and every later one, and no
        # row is enumerated
        f = Cnf.build(4, [[1, 4], [2, 3], [3, -2, 1], [-3, -4, 2]])
        p = Problem.of(f, max_vars=[1, 2], count_vars=[4], exist_vars=[3],
                       deps={1: [3, 4], 2: [3, 4]})
        state = init(p)
        table = state.table
        row_tables.clear()
        for step in [None, *schedule(p)]:
            if step is not None:
                state = expand(state, *step)
            res = oracle_call(table, state.selectors, state.request(), max_count)
            assert res == max_count(state.request())
            state = replace(state, incumbent=dict(res.best))
        assert table.spent > table.bound == 8
        assert row_tables == []
        assert res.best_count == brute_force_dqmaxsat(p).achieved_count
