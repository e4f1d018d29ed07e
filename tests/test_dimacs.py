"""Instance text format: strict parsing, rendering, and round-trips."""

import random

import pytest

import instances
from dqmaxsat.dimacs import ParseError, parse_instance, render_instance
from dqmaxsat.formula import Cnf, Problem
from dqmaxsat.reduction import solve_global

SEVEN_CLAUSE = """\
c one chooser sees the or and the and of two counted bits
p dqmscnf 5 7
d 1 4 5 0
r 2 3 0
e 4 5 0
-1 4 0
1 -2 0
-4 2 3 0
4 -3 0
-5 2 0
-5 3 0
5 -1 -3 0
"""


class TestParse:
    def test_seven_clause_instance(self):
        p = parse_instance(SEVEN_CLAUSE)
        assert p.max_vars == (1,)
        assert p.deps == {1: frozenset({4, 5})}
        assert p.count_vars == frozenset({2, 3})
        assert p.exist_vars == frozenset({4, 5})
        assert p.cnf.num_vars == 5
        assert len(p.cnf.clauses) == 7
        assert p.total == 4

    def test_seven_clause_matches_direct_encoding(self, copy_or_and):
        # same models as the 8-clause build, so the same optimum
        compact = parse_instance(SEVEN_CLAUSE)
        from naive import tt_models

        def model_set(p):
            return {
                tuple(sorted(m.items()))
                for m in tt_models(p.cnf.num_vars, p.cnf.clauses)
            }

        assert model_set(compact) == model_set(copy_or_and)
        s = solve_global(compact)
        assert s.achieved_count == 3

    def test_comments_and_blank_lines_ignored(self):
        text = "c hello\n\np dqmscnf 1 1\nc mid\nr 1 0\n\n1 0\nc tail\n"
        p = parse_instance(text)
        assert p.count_vars == frozenset({1})
        assert p.cnf.clauses == ((1,),)

    def test_empty_clause_is_representable(self):
        p = parse_instance("p dqmscnf 1 1\nr 1 0\n0\n")
        assert p.cnf.clauses == ((),)

    def test_zero_clause_instance(self):
        p = parse_instance("p dqmscnf 2 0\nd 1 2 0\nr 2 0\n")
        assert p.cnf.clauses == ()
        assert p.deps == {1: frozenset({2})}

    def test_parse_keeps_clauses_as_written(self):
        # repeated literals and tautologies are left to the engine's loader
        p = parse_instance("p dqmscnf 2 2\nr 1 2 0\n2 -1 2 0\n1 -1 0\n")
        assert p.cnf.clauses == ((2, -1, 2), (1, -1))


BAD = [
    ("r 1 0\n1 0\n", "header"),
    ("p dqmscnf 1 1\np dqmscnf 1 1\nr 1 0\n1 0\n", "duplicate header"),
    ("p wcnf 1 1\nr 1 0\n1 0\n", "dqmscnf"),
    ("p dqmscnf 1\nr 1 0\n1 0\n", "header"),
    ("p dqmscnf -1 0\nr 1 0\n", "non-negative"),
    ("p dqmscnf 1 one\nr 1 0\n1 0\n", "integer"),
    ("p dqmscnf 1 1\nr 1\n1 0\n", "end with 0"),
    ("p dqmscnf 2 1\nr 1 0 2 0\n1 0\n", "terminator"),
    ("p dqmscnf 1 1\nd 0\nr 1 0\n1 0\n", "needs a variable"),
    ("p dqmscnf 2 0\nd 1 -2 0\nr 2 0\n", "positive"),
    ("p dqmscnf 2 0\nd 1 2 2 0\nr 2 0\n", "duplicate entry"),
    ("p dqmscnf 1 0\nd 1 1 0\n", "duplicate entry"),
    ("p dqmscnf 2 0\nd 1 3 0\nr 2 0\n", "outside"),
    ("p dqmscnf 2 0\nr 1 0\nr 1 0\ne 2 0\n", "already declared"),
    ("p dqmscnf 2 0\nd 1 0\nr 2 0\ne 1 0\n", "already declared"),
    ("p dqmscnf 2 0\nr 1 2 0\nd 1 0\n", "out of order"),
    ("p dqmscnf 2 0\ne 1 0\nr 2 0\n", "out of order"),
    ("p dqmscnf 2 1\nr 1 2 0\n1 0\nd 2 0\n", "out of order"),
    ("p dqmscnf 2 0\nd 1 2 0\ne 2 0\n", "at least one `r`"),
    ("p dqmscnf 2 0\nr 1 0\n", "never declared"),
    ("p dqmscnf 1 1\nr 1 0\n", "expected 1 clauses, found 0"),
    ("p dqmscnf 1 1\nr 1 0\n1 0\n-1 0\n", "more than"),
    ("p dqmscnf 2 1\nr 1 0\n1 2 0\n", "before every variable"),
    ("p dqmscnf 2 1\nr 1 2 0\n1 3 0\n", "undeclared"),
    ("p dqmscnf 2 2\nd 1 2 0\nr 2 0\n1 0\n2 0\n", None),  # valid: control case
    ("p dqmscnf 3 0\nd 1 2 0\nd 2 0\nr 3 0\n", "not on any `r` or `e`"),
]


class TestRejections:
    @pytest.mark.parametrize("text,fragment", [b for b in BAD if b[1] is not None])
    def test_malformed_text_is_rejected(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert fragment in str(err.value)

    def test_overlong_integer_is_named_and_cut_short(self):
        digits = "9" * 5000  # past int()'s default limit of 4300 digits
        with pytest.raises(ParseError) as err:
            parse_instance(f"p dqmscnf {digits} 1\nr 1 0\n1 0\n")
        assert "integer too long" in str(err.value)
        assert len(str(err.value)) < 100

    def test_control_case_parses(self):
        text = next(t for t, frag in BAD if frag is None)
        parse_instance(text)

    def test_line_numbers_are_reported(self):
        text = "c pad\np dqmscnf 2 0\nd 1 2 0\nd 2 1 0\nr 1 0\ne 2 0\n"
        # var 2's dependency (var 1) sits on an r line, but 1 is a chooser? no:
        # here 1 is declared by the first d line, so the r line redeclares it
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == 5

    def test_dep_error_points_at_the_d_line(self):
        text = "p dqmscnf 3 0\nd 1 2 0\nd 2 0\nr 3 0\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == 2
        assert "[2]" in str(err.value)


class TestRender:
    def test_render_seven_clause(self):
        p = parse_instance(SEVEN_CLAUSE)
        out = render_instance(p)
        assert out.splitlines()[0] == "p dqmscnf 5 7"
        assert "d 1 4 5 0" in out
        assert "r 2 3 0" in out
        assert "e 4 5 0" in out

    def test_render_requires_counting_vars(self):
        p = Problem.of(Cnf.build(1, [[1]]), (), (), (1,), {})
        with pytest.raises(ValueError, match="counting"):
            render_instance(p)

    def test_render_requires_total_role_coverage(self):
        p = Problem.of(Cnf.build(3, [[1]]), (), (1,), (2,), {})
        with pytest.raises(ValueError, match="no role"):
            render_instance(p)

    def test_no_exist_line_when_empty(self):
        p = Problem.of(Cnf.build(2, [[1, 2]]), (1,), (2,), (), {1: (2,)})
        out = render_instance(p)
        assert "\ne" not in out


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["copy_or_and", "two_implications", "copy_or"])
    def test_fixture_round_trips(self, name, request):
        p = request.getfixturevalue(name)
        assert parse_instance(render_instance(p)) == p

    def test_random_round_trips(self):
        rng = random.Random(20240817)
        for _ in range(60):
            p = instances.random_problem(rng)
            assert parse_instance(render_instance(p)) == p

    def test_parse_render_parse_is_stable(self):
        p = parse_instance(SEVEN_CLAUSE)
        assert parse_instance(render_instance(p)) == p
