import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from dqmaxsat.counting import check_solution
from dqmaxsat.formula import Cnf, Problem, selector_definition_clauses
from dataclasses import replace

from dqmaxsat import incremental
from dqmaxsat.incremental import IterationRecord, expand, init, run, schedule
from dqmaxsat import oracle
from dqmaxsat.oracle import brute_force_dqmaxsat, max_count, reachable_cells
from dqmaxsat.reduction import decode, selector_objective, solve_global

import instances
from naive import tt_models


def collect(p, **kwargs):
    records = []
    solution = run(p, on_iteration=records.append, **kwargs)
    return solution, records


class TestInit:
    def test_constant_selector_per_chooser(self, copy_or_and):
        st = init(copy_or_and)
        assert st.selectors.selectors[1] == {(): 6}
        assert (-1, 6) in st.objective.clauses
        assert (1, -6) in st.objective.clauses
        assert st.incumbent == {6: False}
        assert st.filter.clauses == ()
        assert st.selectors.supports == {1: ()}

    def test_two_choosers(self, two_implications):
        st = init(two_implications)
        assert st.selectors.selectors[1] == {(): 7}
        assert st.selectors.selectors[2] == {(): 8}

    def test_first_oracle_call_scores_the_best_constant(self, copy_or_and):
        st = init(copy_or_and)
        res = max_count(st.request())
        assert res.best_count == 2
        assert dict(res.best) == {6: False}


class TestExpand:
    def test_selector_split_and_clause_rewrite(self, copy_or_and):
        st = expand(init(copy_or_and), 1, 4)
        assert st.selectors.selectors[1] == {(4,): 7, (-4,): 8}
        assert st.selectors.supports[1] == (4,)
        # the objective is p.cnf plus the definition clauses of the grown
        # support, nothing else
        assert st.objective == Cnf.build(8, list(copy_or_and.cnf.clauses) + [
            (-4, -1, 7),
            (-4, 1, -7),
            (4, -1, 8),
            (4, 1, -8),
        ])
        st = expand(st, 1, 5)
        table = st.selectors.selectors[1]
        assert table == {(4, 5): 9, (4, -5): 10, (-4, 5): 11, (-4, -5): 12}
        assert st.objective == Cnf.build(12, list(copy_or_and.cnf.clauses)
                                         + selector_definition_clauses(1, (4, 5), table))

    def test_incumbent_duplicated_onto_children(self, copy_or_and):
        st0 = init(copy_or_and)
        st0 = replace(st0, incumbent={6: True})
        st = expand(st0, 1, 4)
        assert st.incumbent == {7: True, 8: True}

    def test_expand_rejects_foreign_variable(self, copy_or_and):
        with pytest.raises(ValueError):
            expand(init(copy_or_and), 1, 2)

    def test_expand_rejects_repeat(self, copy_or_and):
        st = expand(init(copy_or_and), 1, 4)
        with pytest.raises(ValueError):
            expand(st, 1, 4)

    def test_rewritten_objective_equals_fresh_definition_clauses(self, copy_or):
        # splitting must be semantically the same as defining the child
        # selectors from scratch
        st = expand(init(copy_or), 1, 4)
        fresh = list(copy_or.cnf.clauses) + selector_definition_clauses(
            1, (4,), {(4,): st.selectors.selectors[1][(4,)],
                      (-4,): st.selectors.selectors[1][(-4,)]})
        nv = st.objective.num_vars
        assert tt_models(nv, st.objective.clauses) == tt_models(nv, fresh)

    def test_second_call_prefers_the_copy_strategy(self, copy_or_and):
        st = init(copy_or_and)
        res = max_count(st.request())
        st = replace(st, incumbent=dict(res.best))
        st = expand(st, 1, 4)
        res = max_count(st.request())
        assert res.best_count == 3
        assert dict(res.best) == {7: True, 8: False}

    def test_duplicated_incumbent_preserves_count(self, copy_or_and):
        st = init(copy_or_and)
        first = max_count(st.request())
        st = replace(st, incumbent=dict(first.best))
        st = expand(st, 1, 4)
        units = tuple((s,) if st.incumbent[s] else (-s,) for s in sorted(st.incumbent))
        from dqmaxsat.counting import count_projected
        carried = count_projected(
            Cnf(st.objective.num_vars, st.objective.clauses + units),
            copy_or_and.count_vars)
        assert carried == first.best_count

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_expansion_keeps_the_incumbents_count(self, data):
        # the settled skip in run relies on this for every incumbent, not
        # only for an optimal one
        p = data.draw(instances.problems(dep_limit=3))
        state = init(p)
        state = replace(state, incumbent={s: data.draw(st.booleans()) for s in state.incumbent})
        count = check_solution(p, decode(state.selectors, state.incumbent))
        while any(state.remaining(x) for x in p.max_vars) and data.draw(st.booleans()):
            x = data.draw(st.sampled_from([x for x in p.max_vars if state.remaining(x)]))
            u = data.draw(st.sampled_from(sorted(state.remaining(x))))
            state = expand(state, x, u)
            assert check_solution(p, decode(state.selectors, state.incumbent)) == count

    def test_large_support_expands_linearly(self):
        # x1 copies y2 and sees all 8 counted variables y2..y9: 256 selectors
        # after the last split, 2 definition clauses each
        f = Cnf.build(9, [[-1, 2], [1, -2]])
        p = Problem.of(f, max_vars=[1], count_vars=range(2, 10), exist_vars=[],
                       deps={1: range(2, 10)})
        st = init(p)
        t0 = time.perf_counter()
        for u in range(2, 10):
            st = expand(st, 1, u)
        assert time.perf_counter() - t0 < 1.0
        assert len(st.objective.clauses) == len(p.cnf.clauses) + 2 * 2 ** 8
        solution, records = collect(p)
        assert [r.count for r in records] == [128] + [256] * 8
        assert solution.achieved_count == 256
        assert check_solution(p, solution) == 256


# per-iteration (expanded chooser, expanded variable, count, functions)
PINNED_ITERATIONS = {
    "copy_or_and": [
        (None, None, 2, {"1": []}),
        (1, 4, 3, {"1": [[4]]}),
        (1, 5, 3, {"1": [[4, -5], [4, 5]]}),
    ],
    "two_implications": [
        (None, None, 3, {"1": [], "2": [[]]}),
        (1, 5, 3, {"1": [], "2": [[]]}),
        (2, 6, 3, {"1": [], "2": [[-6], [6]]}),
    ],
}


def rotor_expansions(p):
    """The expansions of a full run as a rotor picks them, one at a time: the
    first chooser from the rotor's position on with variables left takes its
    lowest one, and the rotor moves just past that chooser."""
    remaining = {x: set(p.deps[x]) for x in p.max_vars}
    rotor, expansions = 0, []
    while any(remaining.values()):
        order = p.max_vars[rotor:] + p.max_vars[:rotor]
        x = next(v for v in order if remaining[v])
        u = min(remaining[x])
        remaining[x].remove(u)
        rotor = (p.max_vars.index(x) + 1) % len(p.max_vars)
        expansions.append((x, u))
    return expansions


def reference_records(p):
    """run's records from a loop that calls max_count at every iteration and
    takes its expansions from the rotor rather than from schedule."""
    state, last, records = init(p), None, []
    expansions = iter(rotor_expansions(p))
    for iteration in itertools.count(1):
        res = max_count(state.request())
        records.append(IterationRecord(
            iteration=iteration,
            expanded_var=last[0] if last else None,
            expanded_on=last[1] if last else None,
            count=res.best_count,
            elapsed_ms=0.0,
            selectors=state.selectors,
            best=res.best,
            total=p.total,
        ))
        state = replace(state, incumbent=dict(res.best))
        last = next(expansions, None)
        if last is None:
            return records
        state = expand(state, *last)


def named_problem(name):
    """random_<seed> is instances.random_problem at that seed, any other name an instance."""
    if name.startswith("random_"):
        return instances.random_problem(random.Random(int(name[7:])), num_vars=6)
    return getattr(instances, name)()


def untimed(records):
    return [{k: v for k, v in r.as_dict().items() if k != "elapsed_ms"} for r in records]


class TestRun:
    def test_call_counts_and_trace(self, copy_or_and):
        solution, records = collect(copy_or_and)
        assert [r.count for r in records] == [2, 3, 3]
        assert [(r.expanded_var, r.expanded_on) for r in records] == [
            (None, None), (1, 4), (1, 5)]
        assert solution.achieved_count == 3
        assert check_solution(copy_or_and, solution) == 3

    @pytest.mark.parametrize("name", ["copy_or_and", "two_implications", "copy_or"])
    def test_one_enumeration_per_run(self, name, monkeypatch):
        # init's table enumerates once for the whole run: its rows, whose
        # projection gives the cells, since every table here has few
        # columns, chain-shaped (one chooser that sees forced helpers) or
        # not (two_implications, whose full supports are not nested)
        p = getattr(instances, name)()
        enumerations = []
        calls = []
        enumerate_projected = oracle.enumerate_projected

        def counting_enumerate(f, proj, *args, **kwargs):
            enumerations.append(sorted(proj))
            return enumerate_projected(f, proj, *args, **kwargs)

        monkeypatch.setattr(oracle, "enumerate_projected", counting_enumerate)
        solution = run(p, on_iteration=calls.append)
        table = sorted(p.count_vars.union(p.max_vars, *p.deps.values()))
        assert enumerations == [table]
        assert len(calls) == 1 + sum(len(p.deps[x]) for x in p.max_vars)
        assert solution.achieved_count == brute_force_dqmaxsat(p).achieved_count
        assert init(p).table.cells == reachable_cells(p.cnf, p.count_vars)

    def test_round_robin_alternates(self, two_implications):
        solution, records = collect(two_implications)
        assert len(records) == 3
        assert [(r.expanded_var, r.expanded_on) for r in records] == [
            (None, None), (1, 5), (2, 6)]
        assert solution.achieved_count == 3

    def test_budget_one_yields_best_constants(self, copy_or_and):
        solution, records = collect(copy_or_and, budget=1)
        assert len(records) == 1
        assert solution.achieved_count == 2
        assert solution.functions[1].support == ()
        assert solution.functions[1].constant_value() is False
        assert check_solution(copy_or_and, solution) == 2

    def test_budget_two_already_optimal(self, copy_or_and):
        solution, records = collect(copy_or_and, budget=2)
        assert solution.achieved_count == 3
        assert solution.functions[1].support == (4,)

    def test_every_iteration_matches_global_on_the_partial_problem(self, copy_or_and):
        _, records = collect(copy_or_and)
        partials = [{1: []}, {1: [4]}, {1: [4, 5]}]
        for record, deps in zip(records, partials):
            sub = Problem.of(copy_or_and.cnf, copy_or_and.max_vars,
                             copy_or_and.count_vars, copy_or_and.exist_vars, deps)
            assert record.count == solve_global(sub).achieved_count

    def test_no_choosers_is_a_plain_projected_count(self):
        f = Cnf.build(3, [[1, 2], [-3, 1]])
        p = Problem.of(f, max_vars=[], count_vars=[1, 2], exist_vars=[3], deps={})
        solution, records = collect(p)
        assert solution.achieved_count == 3
        assert len(records) == 1

    def test_rejects_zero_budget(self, copy_or_and):
        with pytest.raises(ValueError):
            run(copy_or_and, budget=0)

    @pytest.mark.parametrize("name", sorted(PINNED_ITERATIONS))
    def test_iteration_functions_are_pinned(self, name):
        _, records = collect(getattr(instances, name)())
        got = [(d["expanded_var"], d["expanded_on"], d["count"], d["functions"])
               for d in (r.as_dict() for r in records)]
        assert got == PINNED_ITERATIONS[name]

    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances_match_brute_force(self, seed):
        p = instances.random_problem(random.Random(seed), num_vars=6)
        calls = 1 + sum(len(p.deps[x]) for x in p.max_vars)
        solution, records = collect(p)
        assert len(records) == calls
        counts = [r.count for r in records]
        assert counts == sorted(counts)
        assert solution.achieved_count == brute_force_dqmaxsat(p).achieved_count
        assert check_solution(p, solution) == solution.achieved_count

    @pytest.mark.parametrize("name, calls, counts", [
        ("two_implications", 1, [3, 3, 3]),
        ("or_with_free_helper", 2, [6, 7, 7, 7, 7]),
        ("copy_or_and", 3, [2, 3, 3]),
    ])
    def test_oracle_stops_once_the_incumbent_reaches_every_cell(
            self, name, calls, counts, monkeypatch):
        # counted at the one dispatch that every oracle call goes through,
        # whether the DP or max_count answers it
        p = getattr(instances, name)()
        made = []

        def counting_oracle_call(table, sel, req, bnb):
            made.append(req)
            return oracle.oracle_call(table, sel, req, bnb)

        monkeypatch.setattr(incremental, "oracle_call", counting_oracle_call)
        _, records = collect(p)
        assert [r.count for r in records] == counts
        assert len(made) == calls

    @pytest.mark.parametrize("name", sorted(PINNED_ITERATIONS) + ["random_1", "random_3"])
    def test_settled_iterations_build_no_objective(self, name, monkeypatch):
        # the objective is built when the B&B of an oracle call reads it, and
        # only then; random_1 settles after its first expansion, random_3 at
        # its first call
        p = named_problem(name)
        built, made, searched = [], [], []

        def counting_objective(*args):
            built.append(1)
            return selector_objective(*args)

        def counting_oracle_call(*args):
            made.append(1)
            return oracle.oracle_call(*args)

        def counting_max_count(*args):
            searched.append(1)
            return max_count(*args)

        monkeypatch.setattr(incremental, "selector_objective", counting_objective)
        monkeypatch.setattr(incremental, "oracle_call", counting_oracle_call)
        monkeypatch.setattr(incremental, "max_count", counting_max_count)
        _, records = collect(p)
        assert len(built) == len(searched) <= len(made)
        if name.startswith("random_"):
            assert len(made) < len(records)

    def test_a_table_answered_run_builds_no_objective(self, copy_or_and, monkeypatch):
        # copy_or_and's table holds its rows from the start and answers all
        # three calls, so no B&B runs and no objective is built
        def refused(*args):
            raise AssertionError("nothing reads the objective when the table answers")

        monkeypatch.setattr(incremental, "selector_objective", refused)
        monkeypatch.setattr(incremental, "max_count", refused)
        solution, records = collect(copy_or_and)
        assert [r.count for r in records] == [2, 3, 3]
        assert check_solution(copy_or_and, solution) == 3

    @settings(max_examples=200, deadline=None)
    @given(instances.problems(max_num_max=3, dep_limit=3))
    def test_schedule_is_the_rotor_order(self, p):
        steps = schedule(p)
        assert steps == rotor_expansions(p)
        assert len(steps) == sum(len(p.deps[x]) for x in p.max_vars)
        for x in p.max_vars:
            mine = [u for chooser, u in steps if chooser == x]
            assert mine == sorted(mine)

    @pytest.mark.parametrize("name", [f"random_{seed}" for seed in range(20)]
                             + sorted(PINNED_ITERATIONS))
    def test_records_match_an_oracle_call_per_iteration(self, name):
        p = named_problem(name)
        _, records = collect(p)
        assert untimed(records) == untimed(reference_records(p))

    @pytest.mark.parametrize("seed", range(20, 30))
    def test_anytime_solutions_verify(self, seed):
        p = instances.random_problem(random.Random(seed), num_vars=6)
        _, records = collect(p)
        for r in records:
            assert check_solution(p, r.solution) == r.count

    @pytest.mark.parametrize("seed", range(20, 30))
    def test_records_serialize_the_functions_they_decode(self, seed):
        p = instances.random_problem(random.Random(seed), num_vars=6)
        solution, records = collect(p)
        assert solution is records[-1].solution
        assert (solution.achieved_count, solution.total) == (records[-1].count, p.total)
        for r in records:
            assert r.as_dict()["functions"] == {
                str(x): sorted(sorted(m, key=abs) for m in fn.minterms)
                for x, fn in r.solution.functions.items()}

    def test_record_serialization(self, copy_or_and):
        _, records = collect(copy_or_and)
        d = records[-1].as_dict()
        assert d["iteration"] == 3
        assert d["expanded_var"] == 1 and d["expanded_on"] == 5
        assert d["count"] == 3
        assert set(d["functions"]) == {"1"}
