import pytest
from hypothesis import given, settings, strategies as st

from dqmaxsat.counting import VerificationMismatch, check_solution, count_projected
from dqmaxsat.formula import Cnf, DependencyViolation, MintermFunction, Problem, Solution

import instances
from naive import minterm_recount, tt_count_projected
from test_engine import clauses_strategy


def test_count_projected_small():
    f = Cnf.build(3, [[1, 2], [-3, 1]])
    assert count_projected(f, [1, 2], [3]) == 3


def test_count_projected_rejects_overlap():
    f = Cnf.build(2, [[1, 2]])
    with pytest.raises(ValueError):
        count_projected(f, [1], [1, 2])


def test_unsat_counts_zero():
    assert count_projected(Cnf.build(2, [[1], [-1]]), [2]) == 0


@settings(max_examples=150, deadline=None)
@given(clauses_strategy(max_vars=5, max_clauses=8),
       st.sets(st.integers(min_value=1, max_value=5)))
def test_count_projected_matches_truth_table(clause_lists, proj):
    f = Cnf.build(5, clause_lists)
    assert count_projected(f, proj) == tt_count_projected(5, f.clauses, proj)


def _copy_problem():
    # objective ties x1 to y2; x1 may read z (var 4), which copies y1
    f = Cnf.build(4, [[-1, 3], [1, -3], [-4, 2], [4, -2]])
    return Problem.of(f, max_vars=[1], count_vars=[2, 3], exist_vars=[4], deps={1: [4]})


def test_check_solution_recounts():
    p = _copy_problem()
    s = Solution(functions={1: MintermFunction.of((4,), [(4,)])})
    # x1 := z forces y2 == y1, leaving 2 of 4 cells
    assert check_solution(p, s) == 2


def test_check_solution_accepts_matching_claim():
    p = _copy_problem()
    s = Solution(
        functions={1: MintermFunction.of((4,), [(4,)])},
        achieved_count=2,
        total=4,
    )
    assert check_solution(p, s) == 2


@pytest.mark.parametrize("claimed", [1, 3])
def test_check_solution_rejects_wrong_count(claimed):
    p = _copy_problem()
    s = Solution(functions={1: MintermFunction.of((4,), [(4,)])}, achieved_count=claimed)
    with pytest.raises(VerificationMismatch):
        check_solution(p, s)


def test_check_solution_rejects_wrong_total():
    p = _copy_problem()
    s = Solution(functions={1: MintermFunction.of((4,), [(4,)])}, achieved_count=2, total=8)
    with pytest.raises(VerificationMismatch):
        check_solution(p, s)


def test_check_solution_rejects_support_violation():
    p = _copy_problem()
    s = Solution(functions={1: MintermFunction.of((2,), [(2,)])})
    with pytest.raises(DependencyViolation):
        check_solution(p, s)


def test_check_solution_constant_strategies():
    p = _copy_problem()
    for value, want in [(True, 2), (False, 2)]:
        s = Solution(functions={1: MintermFunction.constant(value)})
        assert check_solution(p, s) == want


def test_check_solution_reads_the_canonical_form():
    # x1 must hold; a function true on the single point 2 & 3 leaves one cell
    p = Problem.of(Cnf.build(3, [[1, 2], [1, -2]]), [1], [2, 3], [], {1: [2, 3]})
    fn = MintermFunction.of((3, 2), [(3, 2)])
    assert fn == MintermFunction((2, 3), frozenset({(2, 3)}))
    assert check_solution(p, Solution(functions={1: fn})) == 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_solution_matches_the_minterm_recount(data):
    p = data.draw(instances.problems(max_num_vars=7, dep_limit=4))
    fns = {x: data.draw(instances.functions(sorted(p.deps[x]))) for x in p.max_vars}
    s = Solution(functions=fns)
    assert check_solution(p, s) == minterm_recount(p, s)
