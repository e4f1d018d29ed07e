import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from dqmaxsat.counting import check_solution
from dqmaxsat.engine import Engine
from dqmaxsat import oracle
from dqmaxsat.formula import Cnf, Problem, Solution, cofactor, minterms_of
from dqmaxsat.oracle import (
    InstanceTooLarge,
    MalformedRequest,
    OracleRequest,
    brute_force_dqmaxsat,
    max_count,
    reachable_cells,
)
from dqmaxsat.reduction import solve_global

import instances
from naive import (
    assignments,
    eval_cnf,
    naive_dqmaxsat,
    tt_count_projected,
)

def reference_max_count(req: OracleRequest):
    """Reference for max_count by plain enumeration: incumbent first, then
    every choice assignment in ascending-id false-first order, strict
    improvements."""
    ms = sorted(req.max_vars)
    ys = sorted(req.count_vars)
    nv = max([req.objective.num_vars] + ms + ys, default=0)
    rest = [v for v in range(1, nv + 1) if v not in req.max_vars]

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
        max_vars=(6,),
        count_vars=frozenset([2, 3]),
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
        max_vars=(7, 8),
        count_vars=frozenset([2, 3]),
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


def test_partial_incumbent_is_malformed():
    req = _split_chooser_request(incumbent={7: False})
    with pytest.raises(MalformedRequest):
        max_count(req)


def test_duplicate_choice_variable_is_malformed():
    req = _single_chooser_request()
    bad = OracleRequest(req.objective, (6, 6), req.count_vars, {6: False}, req.cells)
    with pytest.raises(MalformedRequest):
        max_count(bad)


@pytest.mark.parametrize("cell", [(2,), (3, 2), (-2, 4), (2, 3, 4), ()])
def test_cell_over_other_variables_is_malformed(cell):
    # cells hold one literal per count variable, in ascending order
    req = _single_chooser_request()
    bad = OracleRequest(req.objective, req.max_vars, req.count_vars, req.incumbent,
                        req.cells + (cell,))
    with pytest.raises(MalformedRequest):
        max_count(bad)


def test_no_choice_variables_counts_the_objective():
    f = Cnf.build(3, [[1, 2], [-3, 1]])
    req = OracleRequest(f, (), frozenset([1, 2]), {}, reachable_cells(f, [1, 2]))
    res = max_count(req)
    assert res.best_count == 3
    assert dict(res.best) == {}


def _random_request(rng: random.Random):
    # up to 8 choice variables, so cells keep witnesses over several levels
    # and cores learned in one subtree apply in its cousins
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
    return OracleRequest(f, tuple(ms), frozenset(ys), incumbent, reachable_cells(f, ys))


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
    incumbent = {v: rng.random() < 0.5 for v in req.max_vars}
    return OracleRequest(req.objective, req.max_vars, req.count_vars, incumbent, req.cells)


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


def test_witnesses_and_cores_skip_probes(monkeypatch):
    # choices 1..3, counted 4, 5: y4 needs x1, y5 needs x3 and not x2, so
    # all four cells are reachable only under x1 & -x2 & x3
    objective = Cnf.build(5, [[-4, 1], [-5, -2], [-5, 3]])
    req = OracleRequest(
        objective=objective,
        max_vars=(1, 2, 3),
        count_vars=frozenset([4, 5]),
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
        # one cell, and its witness and cores seed the root entries
        ((-1, -2, -3), (-4, -5), True),
        ((-1, -2, -3), (-4, 5), False),  # core {-3}
        ((-1, -2, -3), (4, -5), False),  # core {-1}
        ((-1, -2, -3), (4, 5), False),  # core {-1}
        # node (-1): cell (-4, -5) keeps the incumbent's witness, cells
        # (4, -5) and (4, 5) are dropped by their core {-1}
        ((-1,), (-4, 5), True),
        # node (-1, -2): both cells keep their witnesses, which have -2
        # node (-1, -2, -3): cell (-4, -5) keeps its witness and cell
        # (-4, 5) is dropped by its core {-3}, so 1 cell cannot beat 1
        ((-1, -2, 3), (-4, -5), True),  # cell (-4, 5) keeps its witness
        # leaf: 2 cells beat the incumbent's 1
        ((1,), (-4, -5), True),
        ((1,), (-4, 5), True),
        ((1,), (4, -5), True),
        ((1,), (4, 5), True),
        # node (1, -2): all four cells keep their witnesses, which have -2
        # node (1, -2, -3): cell (-4, 5) is dropped by its core {-3} from
        # the incumbent's probe; the two others keep their witnesses
        ((1, -2, -3), (4, 5), False),
        ((1, -2, 3), (-4, -5), True),
        ((1, -2, 3), (4, -5), True),
    ]


def _given_cases(rng: random.Random):
    # _random_request's objective with one or two of its non-choice
    # variables given, counted ones among them leaving the count, as the
    # local method's split variables do; one monomial over them per leaf
    req = _random_request(rng)
    others = [v for v in range(1, req.objective.num_vars + 1) if v not in req.max_vars]
    split = sorted(rng.sample(others, rng.randint(1, min(2, len(others)))))
    return req, req.count_vars - set(split), minterms_of(split)


@pytest.mark.parametrize("seed", range(60))
def test_given_literals_answer_for_the_cofactored_objective(seed):
    # each monomial given as unit clauses of the objective, against the
    # cofactored objective that the local method solves its leaves on: the
    # same cells, and the same choices from max_count as from the reference
    req, count_vars, monomials = _given_cases(random.Random(seed))
    for m in monomials:
        units = Cnf.build(req.objective.num_vars, [*req.objective.clauses, *([lit] for lit in m)])
        cofactored = cofactor(req.objective, m)
        cells = reachable_cells(cofactored, count_vars)
        assert reachable_cells(units, count_vars) == cells
        res = max_count(OracleRequest(cofactored, req.max_vars, count_vars, req.incumbent, cells))
        want_best, want_count = reference_max_count(
            OracleRequest(units, req.max_vars, count_vars, req.incumbent, cells))
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
        s = solve_global(p)
    finally:
        sys.setrecursionlimit(limit)
    assert s.achieved_count == 32


@pytest.mark.parametrize("seed", range(40, 70))
def test_incumbent_is_a_floor(seed):
    req = _random_request(random.Random(seed))
    if req is None:
        return
    units = [[v] if req.incumbent[v] else [-v] for v in sorted(req.max_vars)]
    floor = tt_count_projected(
        req.objective.num_vars, list(req.objective.clauses) + units,
        sorted(req.count_vars))
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
