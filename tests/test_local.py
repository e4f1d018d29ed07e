import itertools
import random

import pytest

from dqmaxsat.counting import check_solution
from dqmaxsat.engine import solve as solve_cnf
from dqmaxsat.formula import Cnf, Problem
from dqmaxsat.local import (
    NoEligibleVariable,
    functionally_dependent,
    plan_split,
    solve_local,
)
from dqmaxsat.oracle import brute_force_dqmaxsat
from dqmaxsat.reduction import solve_global

import instances
from naive import tt_models


class TestFunctionalDependency:
    def test_or_of_counters_is_dependent(self, copy_or_and):
        assert functionally_dependent(copy_or_and.cnf, 4, [2, 3])
        assert functionally_dependent(copy_or_and.cnf, 5, [2, 3])

    def test_unconstrained_variable_is_not(self):
        f = Cnf.build(2, [[1]])
        assert not functionally_dependent(f, 2, [1])

    def test_half_constrained_helper_is_not(self, two_implications):
        # helper 5 is only forced when 3 holds; otherwise both values extend
        assert not functionally_dependent(two_implications.cnf, 5, [3, 4])
        assert not functionally_dependent(two_implications.cnf, 6, [3, 4])

    def test_rejects_count_variable(self, copy_or_and):
        with pytest.raises(ValueError):
            functionally_dependent(copy_or_and.cnf, 2, [2, 3])

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
        u = rng.randint(1, num_vars)
        ys = [v for v in range(1, num_vars + 1) if v != u and rng.random() < 0.6]
        verdict = functionally_dependent(f, u, ys)
        models = tt_models(num_vars, f.clauses)
        pairs = any(
            all(a[y] == b[y] for y in ys) and a[u] != b[u]
            for a, b in itertools.combinations(models, 2)
        )
        assert verdict == (not pairs)


class TestPlanSplit:
    def test_both_signals_split(self, copy_or_and):
        plan = plan_split(copy_or_and)
        assert plan.split_vars == (4, 5)
        assert len(plan.leaves) == 4
        # leaf 0 fixes both signals true: the objective forces both counters
        first = plan.leaves[0]
        assert first.count_vars == frozenset([2, 3])
        assert first.exist_vars == frozenset()
        assert first.deps == {1: frozenset()}
        assert 4 not in first.cnf.variables() and 5 not in first.cnf.variables()

    def test_leaf_order_is_canonical(self, copy_or_and):
        plan = plan_split(copy_or_and)
        # index 0 = both true; an unsatisfiable cofactor sits at index 2
        # (first signal false, second true is impossible for or/and)
        assert not solve_cnf(plan.leaves[2].cnf)

    def test_disjoint_dependency_sets_are_ineligible(self, two_implications):
        with pytest.raises(NoEligibleVariable):
            plan_split(two_implications)

    def test_count_variables_are_eligible_without_dependency_check(self):
        f = Cnf.build(3, [[-1, 2, 3]])
        p = Problem.of(f, max_vars=[1], count_vars=[2, 3], exist_vars=[],
                       deps={1: [2]})
        plan = plan_split(p)
        assert plan.split_vars == (2,)
        assert plan.leaves[0].count_vars == frozenset([3])

    def test_no_choosers_is_ineligible(self):
        f = Cnf.build(1, [[1]])
        p = Problem.of(f, max_vars=[], count_vars=[1], exist_vars=[], deps={})
        with pytest.raises(NoEligibleVariable):
            plan_split(p)

    def test_leaf_budget_keeps_a_prefix(self):
        # four common count variables, budget 4 -> only the first two split
        f = Cnf.build(5, [[-1, 2], [1, -2]])
        p = Problem.of(f, max_vars=[1], count_vars=[2, 3, 4, 5], exist_vars=[],
                       deps={1: [2, 3, 4, 5]})
        plan = plan_split(p, leaf_budget=4)
        assert plan.split_vars == (2, 3)
        assert len(plan.leaves) == 4


    @pytest.mark.parametrize("leaf_budget", [0, -1])
    def test_leaf_budget_below_one_is_rejected(self, copy_or_and, leaf_budget):
        with pytest.raises(ValueError, match="leaf budget must be at least 1"):
            plan_split(copy_or_and, leaf_budget=leaf_budget)

    def test_leaf_budget_one_leaves_the_problem_unsplit(self, copy_or_and):
        plan = plan_split(copy_or_and, leaf_budget=1)
        assert plan.split_vars == ()
        assert plan.leaves == (copy_or_and,)


class TestSolveLocal:
    def test_leaf_optima_and_recombination(self, copy_or_and):
        plan = plan_split(copy_or_and)
        leaf_best = [solve_global(leaf) for leaf in plan.leaves]
        # both-true cofactor forces the chooser on, both-false forces it off
        assert leaf_best[0].functions[1].constant_value() is True
        assert leaf_best[3].functions[1].constant_value() is False
        assert [s.achieved_count for s in leaf_best] == [1, 1, 0, 1]
        s = solve_local(copy_or_and)
        assert s.achieved_count == 3
        assert s.achieved_count == solve_global(copy_or_and).achieved_count
        assert s.functions[1].support == (4, 5)

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
                plan = plan_split(p)
            except NoEligibleVariable:
                continue
            s = solve_local(p)
            assert s.achieved_count == solve_global(p).achieved_count
            assert s.achieved_count == brute_force_dqmaxsat(p).achieved_count
            break
