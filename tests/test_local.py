import dataclasses
import gc
import itertools
import json
import random
import weakref
from importlib import resources

import pytest
from hypothesis import assume, given, settings, strategies as st

from dqmaxsat import cli, counting, local, oracle, reduction
from dqmaxsat.counting import check_solution
from dqmaxsat.dimacs import render_instance
from dqmaxsat.engine import Engine
from dqmaxsat.formula import Cnf, Problem, eliminate_unseen, minterms_of
from dqmaxsat.local import (
    MAX_SPLIT_VARS,
    NoEligibleVariable,
    functionally_dependent,
    leaf_problems,
    plan_split,
    solve_local,
)
from dqmaxsat.oracle import brute_force_dqmaxsat
from dqmaxsat.reduction import SelectorMap, solve_global

import instances
from naive import tt_models, tt_projections


def _forced_by_enumeration(num_vars, clauses, candidates, count_vars):
    """The candidates on which no two models agreeing on count_vars differ."""
    models = tt_models(num_vars, clauses)
    return frozenset(
        u for u in candidates
        if not any(all(a[y] == b[y] for y in count_vars) and a[u] != b[u]
                   for a, b in itertools.combinations(models, 2))
    )


@pytest.fixture
def engines_built(monkeypatch):
    """A list that grows by one for every Engine the local module builds.

    The verdict store starts empty, so no verdict of an earlier test saves
    an engine here.
    """
    local._VERDICTS.clear()
    built = []

    def counting_engine(*args):
        built.append(args)
        return real(*args)

    real = local.Engine
    monkeypatch.setattr(local, "Engine", counting_engine)
    return built


@pytest.fixture
def oracle_engines(monkeypatch):
    """The engines the oracle builds, one per max_count call, in call order."""
    built = []
    real = oracle.Engine

    def building(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(oracle, "Engine", building)
    return built


def _sum_reach_3():
    text = resources.files("dqmaxsat").joinpath("bench", "sum_reach_3.atk").read_text()
    return cli.load_instance_text(text)[0]


@st.composite
def _dependence_cases(draw):
    num_vars = draw(st.integers(min_value=2, max_value=6))
    var = st.integers(min_value=1, max_value=num_vars)
    lit = var.flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(lit, min_size=0, max_size=3), max_size=8))
    count_vars = draw(st.sets(var, max_size=num_vars - 1))
    rest = sorted(set(range(1, num_vars + 1)) - count_vars)
    candidates = draw(st.sets(st.sampled_from(rest), min_size=1))
    return num_vars, clauses, candidates, count_vars


class TestFunctionalDependency:
    def test_or_of_counters_is_dependent(self, copy_or_and):
        assert functionally_dependent(copy_or_and.cnf, [4, 5], [2, 3]) == {4, 5}

    def test_unconstrained_variable_is_not(self):
        f = Cnf.build(2, [[1]])
        assert functionally_dependent(f, [2], [1]) == frozenset()

    def test_half_constrained_helper_is_not(self, two_implications):
        # helper 5 is only forced when 3 holds; otherwise both values extend
        assert functionally_dependent(two_implications.cnf, [5, 6], [3, 4]) == frozenset()

    def test_shared_candidates_are_determined(self, copy_or_and, engines_built):
        assert functionally_dependent(copy_or_and.cnf, [4, 2], [2, 3]) == {2, 4}
        # shared candidates alone need no engine
        engines_built.clear()
        assert functionally_dependent(copy_or_and.cnf, [3, 2], [2, 3]) == {2, 3}
        assert engines_built == []

    def test_rejects_a_variable_out_of_range(self, copy_or_and):
        with pytest.raises(ValueError, match="out of range"):
            functionally_dependent(copy_or_and.cnf, [4, 6], [2, 3])

    def test_no_candidates_build_no_engine(self, copy_or_and, engines_built):
        assert functionally_dependent(copy_or_and.cnf, [], [2, 3]) == frozenset()
        assert engines_built == []

    def test_one_plan_builds_at_most_one_engine(self, copy_or_and, two_implications, engines_built):
        # both signals of copy_or_and are checked on one engine;
        # two_implications's choosers share no variable, so none is checked
        assert plan_split(copy_or_and) == (4, 5)
        assert len(engines_built) == 1
        with pytest.raises(NoEligibleVariable):
            plan_split(two_implications)
        assert len(engines_built) == 1

    def test_a_question_asked_again_builds_no_engine(self, copy_or_and, engines_built):
        # kept by (unshared candidates, shared set): the shared candidate 2
        # does not make a new question, and another shared set does
        assert functionally_dependent(copy_or_and.cnf, [4, 5], [2, 3]) == {4, 5}
        assert functionally_dependent(copy_or_and.cnf, [5, 4, 2], [3, 2]) == {2, 4, 5}
        assert len(engines_built) == 1
        assert functionally_dependent(copy_or_and.cnf, [4, 5], [2]) == frozenset()
        assert len(engines_built) == 2

    def test_verdicts_live_as_long_as_their_formula(self, engines_built, monkeypatch):
        # a solve keeps its verdicts on the reduced formula it runs on, and
        # they go with it when the solve returns; neither that formula nor
        # the loaded one outlives its holder, so a long run of solves keeps
        # no formula alive
        reduced, verdicts = [], []

        def eliminate(problem):
            q = eliminate_unseen(problem)
            reduced.append(weakref.ref(q.cnf))
            return q

        def solve(problem):
            solution = solve_local(problem)
            verdicts.append(len(local._VERDICTS))
            return solution

        monkeypatch.setattr(cli, "eliminate_unseen", eliminate)
        monkeypatch.setattr(cli, "solve_local", solve)
        p = _sum_reach_3()
        assert cli.run_method(p)[1] == "local"
        assert verdicts == [1]
        gc.collect()
        assert reduced[0]() is None
        assert len(local._VERDICTS) == 0
        formula = weakref.ref(p.cnf)
        del p
        gc.collect()
        assert formula() is None

    @pytest.mark.parametrize("seed", range(25))
    def test_conservative_against_model_enumeration(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(2, 5)
        clauses = [
            [v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, num_vars + 1), rng.randint(1, min(3, num_vars)))]
            for _ in range(rng.randint(1, 8))
        ]
        f = Cnf.build(num_vars, clauses)
        ys = [v for v in range(1, num_vars + 1) if rng.random() < 0.5]
        candidates = [v for v in range(1, num_vars + 1) if v not in ys]
        assert functionally_dependent(f, candidates, ys) == _forced_by_enumeration(
            num_vars, f.clauses, candidates, ys)

    @settings(max_examples=300, deadline=None)
    @given(case=_dependence_cases())
    def test_agrees_with_model_enumeration(self, case):
        num_vars, clauses, candidates, count_vars = case
        f = Cnf.build(num_vars, clauses)
        assert functionally_dependent(f, candidates, count_vars) == _forced_by_enumeration(
            num_vars, f.clauses, candidates, count_vars)

    def test_the_rows_answer_within_the_row_bound(self, copy_or_and, engines_built):
        table = oracle.ChainTable(copy_or_and)
        assert table.bounded
        assert functionally_dependent(copy_or_and.cnf, [4, 5], [2, 3], table) == {4, 5}
        assert functionally_dependent(copy_or_and.cnf, [4, 5], [3], table) == frozenset()
        assert engines_built == []

    @settings(max_examples=300, deadline=None)
    @given(instances.problems(max_num_vars=7, max_num_max=3, dep_limit=3), st.data())
    def test_the_rows_give_padoas_verdict(self, p, data):
        # within the row bound the rows are the models projected onto the
        # columns, so two rows differ on a candidate where two models do
        assume(oracle.row_bounded(p))
        table = oracle.ChainTable(p)
        columns = sorted(table._column)
        candidates = data.draw(st.sets(st.sampled_from(columns), min_size=1))
        # each column shared or not, so that wide shared sets come up often
        picks = data.draw(st.lists(st.booleans(), min_size=len(columns), max_size=len(columns)))
        shared = {v for v, pick in zip(columns, picks) if pick}
        padoa = functionally_dependent(p.cnf, candidates, shared)
        assert table.forced(candidates - shared, shared) == padoa - shared
        local._VERDICTS.clear()
        assert functionally_dependent(p.cnf, candidates, shared, table) == padoa


class TestPlanSplit:
    def test_both_signals_split(self, copy_or_and):
        split = plan_split(copy_or_and)
        assert split == (4, 5)
        leaves = leaf_problems(copy_or_and, split)
        assert len(leaves) == 4
        # leaf 0 fixes both signals true: the objective forces both counters
        first = leaves[0]
        assert first.count_vars == frozenset([2, 3])
        assert first.exist_vars == frozenset()
        assert first.deps == {1: frozenset()}
        assert 4 not in first.cnf.variables() and 5 not in first.cnf.variables()

    def test_leaf_order_is_canonical(self, copy_or_and):
        leaves = leaf_problems(copy_or_and, plan_split(copy_or_and))
        # index 0 = both true; an unsatisfiable cofactor sits at index 2
        # (first signal false, second true is impossible for or/and)
        cnf = leaves[2].cnf
        assert Engine(cnf.num_vars, cnf.clauses).solve() is None

    def test_disjoint_dependency_sets_are_ineligible(self, two_implications):
        with pytest.raises(NoEligibleVariable):
            plan_split(two_implications)

    def test_count_variables_are_eligible_without_dependency_check(self, engines_built):
        f = Cnf.build(3, [[-1, 2, 3]])
        p = Problem.of(f, max_vars=[1], count_vars=[2, 3], exist_vars=[],
                       deps={1: [2]})
        assert plan_split(p) == (2,)
        assert engines_built == []
        assert leaf_problems(p, (2,))[0].count_vars == frozenset([3])

    def test_planning_builds_no_problem(self, copy_or_and, monkeypatch):
        built = []
        post_init = Problem.__post_init__
        monkeypatch.setattr(Problem, "__post_init__", lambda q: built.append(q) or post_init(q))
        assert plan_split(copy_or_and) == (4, 5)
        assert cli.choose_method(copy_or_and) == "local"
        assert built == []

    def test_no_choosers_is_ineligible(self):
        f = Cnf.build(1, [[1]])
        p = Problem.of(f, max_vars=[], count_vars=[1], exist_vars=[], deps={})
        with pytest.raises(NoEligibleVariable):
            plan_split(p)

    def test_seven_common_variables_split_on_the_first_six(self):
        f = Cnf.build(8, [[-1, 2], [1, -2]])
        p = Problem.of(f, max_vars=[1], count_vars=range(2, 9), exist_vars=[],
                       deps={1: range(2, 9)})
        split = plan_split(p)
        assert MAX_SPLIT_VARS == 6
        assert split == (2, 3, 4, 5, 6, 7)
        leaves = leaf_problems(p, split)
        assert len(leaves) == 64
        assert all(leaf.count_vars == {8} and leaf.deps == {1: {8}} for leaf in leaves)
        assert solve_local(p).achieved_count == 1 << 7


@st.composite
def _split_problems(draw):
    """A random problem whose choosers all see a few shared variables, and its split."""
    p = draw(instances.problems(max_num_vars=7, dep_limit=3))
    seen = draw(st.sets(st.sampled_from(sorted(p.count_vars | p.exist_vars)),
                        min_size=1, max_size=3))
    p = dataclasses.replace(p, deps={x: p.deps[x] | seen for x in p.max_vars})
    try:
        split = plan_split(p)
    except NoEligibleVariable:
        assume(False)
    return p, split


@st.composite
def _constant_leaf_problems(draw):
    """A random problem whose choosers all see exactly its split, and the split."""
    p = draw(instances.problems(max_num_vars=7, max_num_max=3))
    seen = draw(st.sets(st.sampled_from(sorted(p.count_vars | p.exist_vars)),
                        min_size=1, max_size=3))
    p = dataclasses.replace(p, deps={x: frozenset(seen) for x in p.max_vars})
    try:
        split = plan_split(p)
    except NoEligibleVariable:
        assume(False)
    assume(set(split) == seen)
    return p, split


def _constant_choice_optimum(p, split):
    """Max#SAT over constant choices by truth table: per leaf, the best chooser tuple's cells."""
    total = 0
    for m in itertools.product(*((v, -v) for v in split)):
        total += max(
            len(tt_projections(p.cnf.num_vars,
                               [*p.cnf.clauses, *([x if b else -x] for x, b in zip(p.max_vars, t)),
                                *([lit] for lit in m)],
                               sorted(p.count_vars)))
            for t in itertools.product((False, True), repeat=len(p.max_vars)))
    return total


class TestConstantLeaves:
    """Every chooser sees exactly the split: the whole instance is one block of the DP."""

    @settings(max_examples=300, deadline=None)
    @given(_constant_leaf_problems())
    def test_each_leaf_is_its_global_solve(self, case):
        p, split = case
        got = solve_local(p)
        want = local._recombine(p, split, [solve_global(leaf) for leaf in leaf_problems(p, split)])
        assert got.functions == want.functions
        assert got.achieved_count == want.achieved_count == _constant_choice_optimum(p, split)

    def test_ties_go_to_the_least_tuple(self):
        # exactly one of the choosers 1, 2 may hold: (false, true) and
        # (true, false) reach both cells of each leaf, and the first wins
        f = Cnf.build(4, [[1, 2], [-1, -2]])
        p = Problem.of(f, max_vars=[1, 2], count_vars=[3, 4], exist_vars=[],
                       deps={1: [3], 2: [3]})
        assert plan_split(p) == (3,)
        s = solve_local(p)
        assert s.achieved_count == 4
        assert [s.functions[x].constant_value() for x in (1, 2)] == [False, True]

    def test_one_solve_enumerates_twice(self, monkeypatch):
        # once for the table's rows, whose projection gives the cells, and
        # once for the recount
        calls = []
        for module in (oracle, counting):
            real = module.enumerate_projected

            def counted(*args, real=real, **kwargs):
                calls.append(args[1])
                return real(*args, **kwargs)

            monkeypatch.setattr(module, "enumerate_projected", counted)
        p = _sum_reach_3()
        assert len(plan_split(p)) == 3
        assert solve_local(p).achieved_count == 26
        assert len(calls) == 2

    def test_a_leaf_without_cells_is_all_false(self, copy_or_and):
        # "and" without "or" is impossible: the chooser is false there
        s = solve_local(copy_or_and)
        assert s.achieved_count == 3
        assert (-4, 5) not in s.functions[1].minterms

    def test_constant_leaves_make_no_oracle_call(self, monkeypatch, oracle_engines):
        # an auto solve plans and then solves the whole instance: the table's
        # one enumeration gives the cells and answers the one oracle call
        p = _sum_reach_3()
        split = plan_split(p)
        assert len(split) == 3 and all(p.deps[x] == set(split) for x in p.max_vars)
        searched, enumerated = [], []
        monkeypatch.setattr(reduction, "max_count",
                            lambda *args, real=reduction.max_count: searched.append(args) or real(*args))
        monkeypatch.setattr(oracle, "enumerate_projected",
                            lambda *args, real=oracle.enumerate_projected, **kwargs:
                            enumerated.append(args[1]) or real(*args, **kwargs))
        solution, method, _ = cli.run_method(p)
        assert (method, solution.achieved_count) == ("local", 26)
        assert searched == [] and oracle_engines == []
        assert len(enumerated) == 1

    def _plans(self, monkeypatch):
        """The table each plan_split call of the command line and of local is handed."""
        tables = []
        monkeypatch.setattr(local, "plan_split",
                            lambda p, table=None, real=plan_split: tables.append(table) or real(p, table))
        monkeypatch.setattr(cli, "plan_split", local.plan_split)
        return tables

    @pytest.mark.parametrize("method, plans", [("auto", 2), ("local", 1), ("global", 0)])
    def test_a_solve_within_the_row_bound_builds_no_engine(self, method, plans, monkeypatch,
                                                           engines_built):
        # the solve's one table answers the plans and the shape of the full
        # supports from its rows; under auto it is built before the choice
        tables = self._plans(monkeypatch)
        solution, used, _ = cli.run_method(_sum_reach_3(), method)
        assert (used, solution.achieved_count) == ("local" if method == "auto" else method, 26)
        assert len(tables) == plans and None not in tables and len(set(map(id, tables))) <= 1
        assert engines_built == []

    def test_an_auto_solve_builds_one_engine_for_its_two_plans(self, monkeypatch, engines_built):
        # past the row bound no table precedes the choice: Padoa's engine
        # answers the first plan, and its verdicts the second
        monkeypatch.setattr(oracle, "ROW_GUARD", 4)
        tables = self._plans(monkeypatch)
        solution, method, _ = cli.run_method(_sum_reach_3())
        assert (method, solution.achieved_count) == ("local", 26)
        assert tables == [None, None]
        assert len(engines_built) == 1

    def test_the_chain_test_reuses_the_plans_verdicts(self, engines_built):
        # every chooser sees exactly the split: the table's one block is the
        # plan's question, asked of the same formula with the same shared set
        p = _sum_reach_3()
        plan_split(p)
        engines_built.clear()
        table = oracle.ChainTable(p)
        sel = SelectorMap.over(p, p.deps)
        res = table.solve(sel, {s: False for s in sel.owner})
        assert res is not None and res.best_count == 26
        assert engines_built == []

    def test_a_leaf_table_takes_the_rows_a_fresh_one_enumerates(self, or_with_free_helper):
        # a split's leaves read their rows and cells off the whole table
        p = or_with_free_helper
        table, split = oracle.ChainTable(p), plan_split(p)
        assert table.bounded and split
        for leaf, monomial in zip(leaf_problems(p, split), minterms_of(split)):
            fresh = oracle.ChainTable(leaf)
            object.__setattr__(leaf, "_rows", table.under(monomial))
            given = oracle.ChainTable(leaf)
            assert (given.cells, given.up_front) == (fresh.cells, fresh.up_front)
            assert (given._enumerate(), given._rows) == (fresh._enumerate(), fresh._rows)

    def test_seven_constant_choosers_take_the_leaf_solver(self, monkeypatch):
        # more choosers than counted variables: the table holds no rows up
        # front, so each leaf is an oracle call
        f = Cnf.build(10, [[-8, -9, 3], [-8, 9, -3], [8, -1, -10], [8, 1, 10, 4],
                           [-4, -5, 9], [-5, 6, -7], [2, 7, 10], [-2, -6]])
        p = Problem.of(f, max_vars=range(1, 8), count_vars=[8, 9, 10], exist_vars=[],
                       deps={x: [8] for x in range(1, 8)})
        assert plan_split(p) == (8,) and not oracle.holds_rows(p)
        calls = []
        solve_leaf = local.LEAF_SOLVERS["global"]
        monkeypatch.setitem(local.LEAF_SOLVERS, "global",
                            lambda *args: calls.append(args) or solve_leaf(*args))
        s = solve_local(p)
        assert len(calls) == 2
        want = solve_global(p)
        assert s.functions == want.functions
        assert s.achieved_count == want.achieved_count == 6
        assert brute_force_dqmaxsat(p).achieved_count == 6

    @pytest.mark.parametrize("choosers", range(3, 7))
    def test_more_choosers_than_counted_variables_take_the_leaf_solver(self, choosers, monkeypatch):
        # every chooser sees only the split, but the choosers outnumber the
        # counted variables: the table holds no rows up front, and each of
        # the two leaves is solved on its own
        rng = random.Random(choosers)
        k = choosers
        clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, k + 4), 3)]
                   for _ in range(2 * k)]
        p = Problem.of(Cnf.build(k + 3, clauses), max_vars=range(1, k + 1),
                       count_vars=[k + 1, k + 2], exist_vars=[k + 3],
                       deps={x: [k + 1] for x in range(1, k + 1)})
        assert plan_split(p) == (k + 1,) and not oracle.holds_rows(p)
        leaves = []
        solve_leaf = local.LEAF_SOLVERS["global"]
        monkeypatch.setitem(local.LEAF_SOLVERS, "global",
                            lambda leaf: leaves.append(leaf) or solve_leaf(leaf))
        s = solve_local(p)
        assert leaves == leaf_problems(p, (k + 1,))
        assert s.functions == solve_global(p).functions
        assert s.achieved_count == brute_force_dqmaxsat(p).achieved_count


class TestSolveLocal:
    def test_leaf_optima_and_recombination(self, copy_or_and):
        leaf_best = [solve_global(leaf) for leaf in leaf_problems(copy_or_and, plan_split(copy_or_and))]
        # both-true cofactor forces the chooser on, both-false forces it off
        assert leaf_best[0].functions[1].constant_value() is True
        assert leaf_best[3].functions[1].constant_value() is False
        assert [s.achieved_count for s in leaf_best] == [1, 1, 0, 1]
        s = solve_local(copy_or_and)
        assert s.achieved_count == 3
        assert s.achieved_count == solve_global(copy_or_and).achieved_count
        assert s.functions[1].support == (4, 5)

    def test_auto_builds_the_leaves_once(self, capsys, oracle_engines, or_with_free_helper, tmp_path):
        path = tmp_path / "helper.dqm"
        path.write_text(render_instance(or_with_free_helper))
        assert cli.main(["solve", str(path), "--method", "auto", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "local" and doc["count"] == 7
        # choose_method only plans: the one local solve makes one oracle
        # call for each of the eight leaves
        assert len(oracle_engines) == 8

    def test_eight_leaves_solve_their_own_cofactors(self, monkeypatch, oracle_engines,
                                                     or_with_free_helper):
        # the helper keeps a residual support, so the leaves are not
        # constant: each cofactor is one global solve and one oracle call
        split = plan_split(or_with_free_helper)
        assert split == (2, 3, 4)
        leaves = []
        solve_leaf = local.LEAF_SOLVERS["global"]
        monkeypatch.setitem(local.LEAF_SOLVERS, "global",
                            lambda leaf: leaves.append(leaf) or solve_leaf(leaf))
        assert solve_local(or_with_free_helper).achieved_count == 7
        assert leaves == leaf_problems(or_with_free_helper, split)
        assert len(oracle_engines) == 8

    @settings(max_examples=300, deadline=None)
    @given(_split_problems())
    def test_same_functions_and_count_as_global(self, case):
        # leaf counts add, so the least optimum of the whole is the product
        # of the leaves' least optima, residual and constant leaves alike
        p, _ = case
        got, want = solve_local(p), solve_global(p)
        assert got.functions == want.functions
        assert got.achieved_count == want.achieved_count

    def test_recombined_solution_verifies(self, copy_or_and):
        s = solve_local(copy_or_and)
        assert check_solution(copy_or_and, s) == 3

    def test_propagates_ineligibility(self, two_implications):
        with pytest.raises(NoEligibleVariable):
            solve_local(two_implications)

    def test_split_on_count_variables_partitions_the_space(self):
        # chooser copies the visible counter; splitting on it still counts 4
        f = Cnf.build(3, [[-1, 2], [1, -2]])
        p = Problem.of(f, max_vars=[1], count_vars=[2, 3], exist_vars=[],
                       deps={1: [2]})
        s = solve_local(p)
        assert s.achieved_count == 4
        assert s.total == 4

    @pytest.mark.parametrize("seed", range(40))
    def test_random_eligible_instances_match_global(self, seed):
        rng = random.Random(seed)
        for _ in range(20):
            p = instances.random_problem(rng, num_vars=rng.randint(3, 6))
            try:
                plan_split(p)
            except NoEligibleVariable:
                continue
            s = solve_local(p)
            want = solve_global(p)
            assert s.functions == want.functions
            assert s.achieved_count == want.achieved_count
            assert s.achieved_count == brute_force_dqmaxsat(p).achieved_count
            break
