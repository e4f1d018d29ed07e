import contextlib
import hashlib
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dqmaxsat import bitvec
from dqmaxsat.bitvec import (
    BvProgram,
    ProgramError,
    encode,
    evaluate_cover,
    lift,
    minimize_minterms,
    parse_program,
)
from dqmaxsat.engine import Engine, enumerate_projected
from dqmaxsat.formula import MintermFunction, Solution
from dqmaxsat.incremental import run as run_incremental
from dqmaxsat.local import solve_local
from dqmaxsat.reduction import solve_global

from naive import FullTseitinLowerer, best_interval_hits, split_tree_capacity
from test_golden import SEED, workloads


SUM_GAME = """\
# two hidden words, their wrapped sum is announced, then one guess
width 3
mode reach
random y1
random y2
observe s := y1 + y2
input x
assume y1 <= x
win x <= y2
"""

PROBE_GAME = """\
width 3
mode leak
random z in 1..6
input x1
observe y1 := z >= x1
input x2
observe y2 := z >= x2
input x3
observe y3 := z >= x3
"""


class TestParse:
    def test_sum_game_shape(self):
        prog = parse_program(SUM_GAME)
        assert isinstance(prog, BvProgram)
        assert prog.width == 3 and prog.mode == "reach"
        kinds = [st.kind for st in prog.statements]
        assert kinds == ["random", "random", "observe", "input", "assume", "win"]
        assert prog.statements[2].expr.op == "add"
        assert prog.statements[5].expr.op == "le"

    def test_probe_game_shape(self):
        prog = parse_program(PROBE_GAME)
        assert prog.mode == "leak"
        assert prog.statements[0].lo == 1 and prog.statements[0].hi == 6
        assert [st.name for st in prog.statements if st.kind == "input"] == ["x1", "x2", "x3"]

    def test_empty_text(self):
        with pytest.raises(ProgramError):
            parse_program("")

    def test_comments_and_blank_lines_are_skipped(self):
        prog = parse_program("# nothing\nwidth 1\n\nmode leak\nrandom a # tail\n")
        assert prog.width == 1
        assert prog.statements[0].name == "a"

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("mode leak\nrandom a\n", "width"),
            ("width 2\nrandom a\n", "mode"),
            ("width 2\nwidth 3\nmode leak\nrandom a\n", "twice"),
            ("width 0\nmode leak\nrandom a\n", "positive"),
            ("width 2\nmode maybe\nrandom a\n", "reach"),
            ("width 2\nmode leak\nrandom a\nwidth 2\n", "precede"),
            ("width 2\nmode leak\nspawn a\n", "unknown statement"),
            ("width 2\nmode leak\nrandom a\nrandom a\n", "assigned twice"),
            ("width 2\nmode leak\nobserve o := a\n", "not assigned"),
            ("width 2\nmode leak\nrandom a\nwin a >= 1\n", "not allowed"),
            ("width 2\nmode reach\nrandom a\n", "win"),
            ("width 2\nmode reach\nrandom a\nwin a >= 1\nwin a >= 1\n", "second win"),
            ("width 2\nmode reach\nrandom a\nwin 0 <= a <= 1\n", "chain"),
            ("width 2\nmode leak\nrandom a\nobserve o := a >= 1\nobserve p := a + o\n", "width mismatch"),
            ("width 2\nmode leak\nrandom a\nassume a\n", "1-bit"),
            ("width 2\nmode leak\nrandom a\nassume !a\n", "1-bit"),
            ("width 2\nmode leak\nrandom a\nassume a >= 9\n", "does not fit"),
            ("width 2\nmode leak\nrandom a in 3..1\n", "empty range"),
            ("width 2\nmode leak\nrandom a in 1..7\n", "does not fit"),
            ("width 2\nmode leak\nrandom a in 1..\n", "range syntax"),
            ("width 2\nmode leak\nrandom a\nassume a >= $\n", "unexpected character"),
            ("width 2\nmode leak\nobserve o a\n", "observe syntax"),
            ("width 2\nmode leak\ninput a b\n", "exactly one name"),
            ("width 2\nmode leak\nrandom a\nassume (a >= 1\n", "unexpected end of line"),
            ("width 2\nmode leak\nrandom a\nassume a >= 1 1\n", "after expression"),
            ("width 2\nmode leak\nrandom input\n", "keyword"),
        ],
    )
    def test_rejects(self, text, fragment):
        with pytest.raises(ProgramError) as info:
            parse_program(text)
        assert fragment in str(info.value)

    def test_diagnostic_carries_position(self):
        with pytest.raises(ProgramError) as info:
            parse_program("width 2\nmode leak\nrandom a\nassume a >= $\n")
        assert info.value.line == 4
        assert info.value.col == 13

    def test_use_before_assignment_of_later_input(self):
        text = "width 2\nmode leak\nrandom a\nobserve o := x >= a\ninput x\n"
        with pytest.raises(ProgramError, match="not assigned"):
            parse_program(text)


def _observed(text: str, values: dict[str, int]) -> int:
    """Value the observation 'o' is forced to, given concrete operand words."""
    problem, bitmap = encode(parse_program(text))
    assumptions = []
    for name, val in values.items():
        for i, v in enumerate(bitmap.bits[name]):
            assumptions.append(v if val >> i & 1 else -v)
    model = Engine(problem.cnf.num_vars, problem.cnf.clauses).solve(assumptions)
    assert model is not None, "operand assignment should extend to a model"
    return sum(model[v] << i for i, v in enumerate(bitmap.bits["o"]))


class TestBitblasting:
    # every operator, every operand pair, every width up to 3

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("op,fn", [
        ("+", lambda a, b, n: (a + b) % n),
        ("-", lambda a, b, n: (a - b) % n),
        ("==", lambda a, b, n: int(a == b)),
        (">=", lambda a, b, n: int(a >= b)),
        ("<=", lambda a, b, n: int(a <= b)),
    ])
    def test_binary_operators_exhaustively(self, width, op, fn):
        text = f"width {width}\nmode leak\nrandom a\nrandom b\nobserve o := a {op} b\n"
        n = 1 << width
        for a in range(n):
            for b in range(n):
                assert _observed(text, {"a": a, "b": b}) == fn(a, b, n)

    @pytest.mark.parametrize("op,fn", [
        ("&&", lambda a, b: a and b),
        ("||", lambda a, b: a or b),
    ])
    def test_connectives_exhaustively(self, op, fn):
        text = f"width 1\nmode leak\nrandom a\nrandom b\nobserve o := a {op} b\n"
        for a in range(2):
            for b in range(2):
                assert _observed(text, {"a": a, "b": b}) == fn(a, b)

    def test_negation_exhaustively(self):
        text = "width 1\nmode leak\nrandom a\nobserve o := !a\n"
        assert _observed(text, {"a": 0}) == 1
        assert _observed(text, {"a": 1}) == 0

    def test_compound_expression(self):
        text = (
            "width 2\nmode leak\nrandom a\nrandom b\n"
            "observe o := (a + b >= 3) && !(a == b) || a <= 1 && b == 2\n"
        )
        for a in range(4):
            for b in range(4):
                want = int(((a + b) % 4 >= 3) and a != b or (a <= 1 and b == 2))
                assert _observed(text, {"a": a, "b": b}) == want

    def test_constants_against_variables(self):
        text = "width 3\nmode leak\nrandom a\nobserve o := a + 5 >= 6\n"
        for a in range(8):
            assert _observed(text, {"a": a}) == int((a + 5) % 8 >= 6)

    def test_range_constraint_prunes_models(self):
        problem, bitmap = encode(parse_program("width 3\nmode leak\nrandom z in 1..6\ninput x\nobserve o := z >= x\n"))
        for z in (0, 7):
            assumptions = [v if z >> i & 1 else -v for i, v in enumerate(bitmap.bits["z"])]
            assert Engine(problem.cnf.num_vars, problem.cnf.clauses).solve(assumptions) is None

    def test_assume_is_a_hard_conjunct(self):
        text = "width 2\nmode reach\nrandom a\nassume a >= 2\ninput x\nwin x == a\n"
        problem, bitmap = encode(parse_program(text))
        for a in (0, 1):
            assumptions = [v if a >> i & 1 else -v for i, v in enumerate(bitmap.bits["a"])]
            assert Engine(problem.cnf.num_vars, problem.cnf.clauses).solve(assumptions) is None


@st.composite
def _constants(draw, w: int, depth: int):
    """Width-w arithmetic over constants alone, as nested tuples."""
    if depth == 0 or draw(st.booleans()):
        return ("const", draw(st.integers(0, (1 << w) - 1)))
    return (draw(st.sampled_from(["add", "sub"])),
            draw(_constants(w, depth - 1)), draw(_constants(w, depth - 1)))


@st.composite
def _expressions(draw, width: int, w: int, depth: int):
    """A width-w expression, at most depth operators deep, that is not constants alone.

    a and b are the program's width-bit names, p a 1-bit name. A comparison
    compares operands of either width; one side, or both, may be constants
    alone, and then both take the program width.
    """
    names = (["a", "b"] if w == width else []) + (["p"] if w == 1 else [])
    shapes = ["name"]
    if depth > 0:
        shapes += ["arith"] + (["compare", "connective", "not"] if w == 1 else [])
    shape = draw(st.sampled_from(shapes))
    d = depth - 1
    if shape == "name":
        return ("var", draw(st.sampled_from(names)))
    if shape == "arith":
        x = draw(_expressions(width, w, d))
        y = draw(st.one_of(_expressions(width, w, d), _constants(w, d)))
        if draw(st.booleans()):
            x, y = y, x
        return (draw(st.sampled_from(["add", "sub"])), x, y)
    if shape == "compare":
        sides = draw(st.sampled_from(["names", "left", "right", "constants"]))
        ow = width if sides == "constants" else draw(st.sampled_from([width, 1]))
        x = draw(_constants(ow, d) if sides in ("left", "constants") else _expressions(width, ow, d))
        y = draw(_constants(ow, d) if sides in ("right", "constants") else _expressions(width, ow, d))
        return (draw(st.sampled_from(["eq", "ge", "le"])), ow, x, y)
    bit = st.one_of(_expressions(width, 1, d), st.integers(0, 1).map(lambda v: ("const", v)))
    if shape == "not":
        return ("not", draw(bit))
    return (draw(st.sampled_from(["and", "or"])), draw(bit), draw(bit))


_SYMBOL = {"add": "+", "sub": "-", "eq": "==", "ge": ">=", "le": "<=", "and": "&&", "or": "||"}


def _render(e) -> str:
    if e[0] == "var":
        return e[1]
    if e[0] == "const":
        return str(e[1])
    if e[0] == "not":
        return f"!{_render(e[1])}"
    x, y = e[-2:]
    return f"({_render(x)} {_SYMBOL[e[0]]} {_render(y)})"


def _evaluate(e, w: int, env: dict[str, int]) -> int:
    """Value of a width-w expression: unsigned, wrapping around at w bits."""
    op = e[0]
    if op == "var":
        return env[e[1]]
    if op == "const":
        return e[1]
    if op in ("add", "sub"):
        x, y = _evaluate(e[1], w, env), _evaluate(e[2], w, env)
        return (x + y if op == "add" else x - y) % (1 << w)
    if op in ("eq", "ge", "le"):
        x, y = _evaluate(e[2], e[1], env), _evaluate(e[3], e[1], env)
        return int(x == y if op == "eq" else x >= y if op == "ge" else x <= y)
    if op == "not":
        return 1 - _evaluate(e[1], 1, env)
    x, y = _evaluate(e[1], 1, env), _evaluate(e[2], 1, env)
    return x & y if op == "and" else x | y


@st.composite
def _width_cases(draw):
    width = draw(st.integers(1, 3))
    w = draw(st.sampled_from([width, 1]))
    a, b = (draw(st.integers(0, (1 << width) - 1)) for _ in range(2))
    return width, w, draw(_expressions(width, w, 4)), {"a": a, "b": b, "p": int(a >= b)}


@settings(max_examples=200, deadline=None)
@given(case=_width_cases())
def test_observation_follows_the_width_rule(case):
    width, w, expr, env = case
    text = (f"width {width}\nmode leak\nrandom a\nrandom b\nobserve p := a >= b\n"
            f"observe o := {_render(expr)}\n")
    _, bitmap = encode(parse_program(text))
    assert len(bitmap.bits["o"]) == w
    assert _observed(text, {"a": env["a"], "b": env["b"]}) == _evaluate(expr, w, env)


class TestEncodeRoles:
    def test_reach_roles_and_shapes(self):
        problem, bitmap = encode(parse_program(SUM_GAME))
        assert len(problem.max_vars) == 3
        assert len(problem.count_vars) == 6
        y_bits = set(bitmap.bits["y1"]) | set(bitmap.bits["y2"])
        assert problem.count_vars == frozenset(y_bits)
        assert set(bitmap.bits["s"]) <= problem.exist_vars
        for x_bit in problem.max_vars:
            assert problem.deps[x_bit] == frozenset(bitmap.bits["s"])

    def test_leak_roles_and_shapes(self):
        problem, bitmap = encode(parse_program(PROBE_GAME))
        assert len(problem.max_vars) == 9
        assert problem.count_vars == frozenset(
            bitmap.bits["y1"] + bitmap.bits["y2"] + bitmap.bits["y3"]
        )
        assert set(bitmap.bits["z"]) <= problem.exist_vars

    def test_leak_dependencies_are_nested(self):
        problem, bitmap = encode(parse_program(PROBE_GAME))
        hs = []
        for name in bitmap.input_names():
            per_bit = {problem.deps[v] for v in bitmap.bits[name]}
            assert len(per_bit) == 1  # all bits of one input share a history
            hs.append(per_bit.pop())
        assert hs[0] == frozenset()
        assert hs[0] < hs[1] < hs[2]
        assert hs[1] == frozenset(bitmap.bits["y1"])
        assert hs[2] == frozenset(bitmap.bits["y1"] + bitmap.bits["y2"])

    def test_declared_bits_precede_gate_bits(self):
        problem, bitmap = encode(parse_program(PROBE_GAME))
        declared = [v for name in bitmap.order for v in bitmap.bits[name]]
        assert declared == list(range(1, bitmap.aux_start))
        assert bitmap.num_vars >= bitmap.aux_start
        assert problem.cnf.num_vars == bitmap.num_vars

    def test_observation_width_follows_its_expression(self):
        _, bitmap = encode(parse_program("width 3\nmode leak\nrandom a\nobserve o := a >= 4\n"))
        assert len(bitmap.bits["o"]) == 1
        _, bitmap = encode(parse_program("width 3\nmode leak\nrandom a\nobserve o := a + 1\n"))
        assert len(bitmap.bits["o"]) == 3


BENCH = resources.files("dqmaxsat").joinpath("bench")


def _encoding_digest(text: str) -> str:
    """sha256 of everything encode produces: the CNF, the roles, the bit map."""
    problem, bitmap = encode(parse_program(text))
    record = (
        problem.cnf.num_vars,
        problem.cnf.clauses,
        problem.max_vars,
        sorted(problem.count_vars),
        sorted(problem.exist_vars),
        sorted((x, sorted(h)) for x, h in problem.deps.items()),
        list(bitmap.bits.items()),
        sorted(bitmap.labels.items()),
        bitmap.aux_start,
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


# the bundled programs and SEED's first instances of each .atk workload,
# taken when asserted comparisons became majority carry chains (capacity.atk's
# since before each expression's width was worked out at parse time: it has
# no sum and no asserted comparison, and every gate of it is used in both
# polarities; guessbits.atk's since sums became full adders: it asserts
# only an equality)
ENCODINGS = {
    ("capacity.atk", None):
        "4fac1b3ba3644ff7bb23acd850551e8da9b6b087ab165ee403df16fde2c52fed",
    ("capacity6.atk", None):
        "8bf2edd1288d7bebf31dc27e22d7383d114bcf51802a74d559221767e97dd331",
    ("guessbits.atk", None):
        "3c2a0ffc64b40005a65c70fd5188fb08d64415caaa68d679663d28a1369c6d3a",
    ("sum_reach_3.atk", None):
        "494e4cc886083e6c3d0aa131ee2132545084311065e43e2feb7986862232d369",
    ("sum_reach_4.atk", None):
        "ae189f6d246ab1b839ab7c5be9b7130f2c2ca2bd3de298b9211ec470538db2da",
    ("local-reach", 0):
        "d096bdf335c468146e00c8f648a2e692cc6f91f622ce7d1cbfaf1548dc5958f6",
    ("local-reach", 1):
        "00cd22db8c98c2bf593c1adbf5e8780026474e29691345f0728232a0d8c7afc4",
    ("local-reach", 2):
        "30e9af5fe75ef84c10a9995c48487c636de83a8cc28f879620c572e8c615c3ff",
    ("local-reach", 3):
        "e504015fe974e8c55ccd1208284608f9418eb34a33cd3684e3240bafbb289577",
    ("incremental-probes", 0):
        "5f64069ed7da0861dee3159c16038082a9c5ae30fcb5785246d65a5f96f7d1a3",
    ("incremental-probes", 1):
        "191847e882a5e4e9833da714aa51d25c4f2f09189b7fb2372899f899633cf639",
    ("incremental-probes", 2):
        "d6a6de27a80721b5c0678abd2088cc255a157f11cf578daf2c93b426dda74826",
    ("incremental-probes", 3):
        "a6b07e82e6936302a05b0c0ac907e2f0999f941ce832a154b980b7d4171dd133",
}


def _case_text(case) -> str:
    source, index = case
    if index is None:
        return BENCH.joinpath(source).read_text()
    return workloads.make_instance(source, SEED, index).text


def _case_id(case) -> str:
    return case[0] if case[1] is None else f"{case[0]}-{case[1]}"


@pytest.mark.parametrize("case", sorted(ENCODINGS), ids=_case_id)
def test_encoding_matches_pinned_digest(case):
    assert _encoding_digest(_case_text(case)) == ENCODINGS[case]


def _declared_cells(text: str, full: bool = False) -> list:
    """The cells of the encoding over every declared bit, or of the full Tseitin one."""
    prog = parse_program(text)
    with mock.patch.object(bitvec, "_Lowerer", FullTseitinLowerer) if full else contextlib.nullcontext():
        problem, bm = encode(prog)
    cells = []
    enumerate_projected(problem.cnf, range(1, bm.aux_start), visit=cells.append)
    return cells


# adders and comparisons whose operands fold: constants, a repeated operand,
# a negated one, connectives over asserted and negated conditions, and a sum
# whose only user folds to true, which leaves its gates undemanded
FOLDING = {
    "constant_addend": "width 3\nmode leak\nrandom a\nobserve s := a + 5\n",
    "constant_minuend": "width 3\nmode leak\nrandom a\nobserve s := 6 - a\n",
    "doubled": "width 3\nmode leak\nrandom a\nobserve s := a + a\n",
    "three_terms": ("width 3\nmode reach\nrandom a\nrandom b\ninput x\n"
                    "assume !(a + b == x)\nwin a + b + x >= 5 || a - x == b\n"),
    "one_bit": "width 1\nmode leak\nrandom a\nrandom b\nobserve s := a + b + 1\nassume !(s <= a)\n",
    "unused_sum": "width 2\nmode leak\nrandom a\nrandom b\nassume a + b >= a + b\n",
}


@pytest.mark.parametrize("case", sorted(ENCODINGS) + [(name, "folding") for name in sorted(FOLDING)],
                         ids=_case_id)
def test_encoding_projects_like_full_tseitin(case):
    # the cells over the randoms, inputs and observations are those of every
    # gate fully defined, in the same order, and every gate is in a clause
    text = FOLDING[case[0]] if case[1] == "folding" else _case_text(case)
    assert _declared_cells(text) == _declared_cells(text, full=True)
    problem, bm = encode(parse_program(text))
    used = {abs(lit) for c in problem.cnf.clauses for lit in c}
    assert used.issuperset(range(bm.aux_start, bm.num_vars + 1))


@st.composite
def _root_comparisons(draw, width: int):
    """An asserted >= or <= of two width-bit operands, at most one of them a constant."""
    x = draw(_expressions(width, width, 2))
    y = draw(st.one_of(_expressions(width, width, 2),
                       st.integers(0, (1 << width) - 1).map(lambda v: ("const", v))))
    if draw(st.booleans()):
        x, y = y, x
    return (draw(st.sampled_from(["ge", "le"])), width, x, y)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_asserted_and_tied_expressions_project_like_full_tseitin(data):
    width = data.draw(st.integers(1, 3))
    lo, hi = sorted(data.draw(st.integers(0, (1 << width) - 1)) for _ in range(2))
    ranged = data.draw(st.sampled_from(["", f" in {lo}..{hi}"]))
    observed = data.draw(_expressions(width, data.draw(st.sampled_from([width, 1])), 4))
    condition = st.one_of(_expressions(width, 1, 3), _root_comparisons(width))
    assumed, won = (data.draw(condition) for _ in range(2))
    text = (f"width {width}\nmode reach\nrandom a{ranged}\ninput b\nobserve p := a >= b\n"
            f"observe o := {_render(observed)}\nassume {_render(assumed)}\nwin {_render(won)}\n")
    assert _declared_cells(text) == _declared_cells(text, full=True)


@pytest.mark.parametrize("width", range(1, 6))
def test_a_sum_builds_a_full_adder_per_bit_and_no_carry_out(width):
    lower = bitvec._Lowerer(2 * width + 1)
    xs, ys = range(1, width + 1), range(width + 1, 2 * width + 1)
    out = lower.ripple_add(xs, ys)
    ops = [op for op, _ in lower._defs]
    # bit 0 has no carry in, so its sum is an XOR and its carry an AND; the
    # top bit has a sum and no carry: 2 * width - 1 gates
    if width == 1:
        assert ops == ["xor"]
    else:
        assert ops == ["xor", "and"] + ["xor3", "maj"] * (width - 2) + ["xor3"]
    assert out == [g for g, op in enumerate(ops, 2 * width + 1) if op.startswith("xor")]


@pytest.mark.parametrize("width", range(1, 5))
def test_an_asserted_comparison_builds_one_sided_majority_carries(width):
    lower = bitvec._Lowerer(2 * width + 1)
    lower.assert_ge(range(1, width + 1), range(width + 1, 2 * width + 1))
    clauses = lower.clauses()
    # bit 0's carry in is true, so its majority folds to an OR; every carry
    # is used only positively, so each gate gets the clauses of half 1 alone
    assert [op for op, _ in lower._defs] == ["or"] + ["maj"] * (width - 1)
    assert lower._need == [1] * width
    assert len(clauses) == 1 + 3 * (width - 1) + 1
    assert clauses[-1] == (lower.next_var - 1,)


@pytest.mark.parametrize("width", range(1, 5))
def test_a_comparison_keeps_its_and_or_xor_carry_chain(width):
    lower = bitvec._Lowerer(2 * width + 1)
    lower.unsigned_ge(range(1, width + 1), range(width + 1, 2 * width + 1))
    assert {op for op, _ in lower._defs} == {"and", "or", "xor"}


class TestEndToEnd:
    def test_single_threshold_probe(self):
        text = "width 1\nmode leak\nrandom z\ninput x\nobserve y := z >= x\n"
        problem, _ = encode(parse_program(text))
        s = run_incremental(problem)
        assert s.achieved_count == 2  # x=1 tells the two secrets apart

    def test_two_probes_three_secrets(self):
        text = (
            "width 2\nmode leak\nrandom z in 1..3\n"
            "input x1\nobserve y1 := z >= x1\n"
            "input x2\nobserve y2 := z >= x2\n"
        )
        problem, _ = encode(parse_program(text))
        best = split_tree_capacity(frozenset({1, 2, 3}), range(4), 2)
        assert best == 3
        s = run_incremental(problem)
        assert s.achieved_count == best

    def test_one_guess_after_one_probe(self):
        text = (
            "width 2\nmode reach\nrandom y\n"
            "input x1\nobserve h := x1 >= y\n"
            "input x2\nwin x2 == y\n"
        )
        problem, _ = encode(parse_program(text))
        s = run_incremental(problem)
        assert s.achieved_count == 2  # halve, then name one secret per half

    def test_sum_game_matches_interval_oracle(self):
        problem, _ = encode(parse_program(SUM_GAME))
        s = solve_local(problem)
        assert s.achieved_count == best_interval_hits(3) == 26
        assert s.total == 64

    def test_methods_agree_on_tiny_leak_program(self):
        text = "width 1\nmode leak\nrandom z\ninput x\nobserve y := z >= x\n"
        problem, _ = encode(parse_program(text))
        assert solve_global(problem).achieved_count == run_incremental(problem).achieved_count


class TestMinimize:
    def test_pair_collapses_to_single_literal(self):
        assert minimize_minterms((4, 5), [(4, 5), (4, -5)]) == ((4,),)

    def test_full_set_is_constant_true(self):
        assert minimize_minterms((4, 5), [(4, 5), (4, -5), (-4, 5), (-4, -5)]) == ((),)

    def test_empty_set_is_constant_false(self):
        assert minimize_minterms((4, 5), []) == ()

    def test_xor_stays_two_terms(self):
        cover = minimize_minterms((4, 5), [(4, -5), (-4, 5)])
        assert len(cover) == 2
        assert all(len(imp) == 2 for imp in cover)

    def test_petrick_picks_a_minimum_cover(self):
        # the classic cyclic cover: no essential primes, minimum needs 3
        minterms = [0b000, 0b001, 0b011, 0b111, 0b110, 0b100]
        support = (1, 2, 3)
        terms = [
            tuple((support[j] if m >> j & 1 else -support[j]) for j in range(3))
            for m in minterms
        ]
        cover = minimize_minterms(support, terms)
        assert len(cover) == 3

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_exhaustive_equivalence(self, k):
        support = tuple(range(11, 11 + k))
        points = list(range(1 << k))
        for selector in range(1 << (1 << k)):
            chosen = [p for p in points if selector >> p & 1]
            terms = [
                tuple((support[j] if p >> j & 1 else -support[j]) for j in range(k))
                for p in chosen
            ]
            cover = minimize_minterms(support, terms)
            for p in points:
                point = {support[j]: bool(p >> j & 1) for j in range(k)}
                assert evaluate_cover(cover, point) == (p in chosen)


class TestLift:
    def _probe_setup(self):
        problem, bitmap = encode(parse_program(PROBE_GAME))
        y1, = bitmap.bits["y1"]
        y2, = bitmap.bits["y2"]
        x1, x2, x3 = (bitmap.bits[n] for n in ("x1", "x2", "x3"))
        functions = {
            x1[0]: MintermFunction.constant(False),
            x1[1]: MintermFunction.constant(False),
            x1[2]: MintermFunction.constant(True),
            x2[0]: MintermFunction.of((y1,), []),
            x2[1]: MintermFunction.of((y1,), [(y1,), (-y1,)]),
            x2[2]: MintermFunction.of((y1,), [(y1,)]),
            x3[0]: MintermFunction.of((y1, y2), [(y1, y2), (y1, -y2), (-y1, y2), (-y1, -y2)]),
            x3[1]: MintermFunction.of((y1, y2), [(y1, y2), (-y1, y2)]),
            x3[2]: MintermFunction.of((y1, y2), [(y1, y2), (y1, -y2)]),
        }
        return Solution(functions), bitmap

    def test_threshold_strategy_renders_readably(self):
        solution, bitmap = self._probe_setup()
        lifted = lift(solution, bitmap)
        assert [f.rendered for f in lifted] == [
            "x1 = 1 0 0",
            "x2 = y1 1 0",
            "x3 = y1 y2 1",
        ]

    def test_bit_order_is_most_significant_first(self):
        solution, bitmap = self._probe_setup()
        lifted = {f.name: f for f in lift(solution, bitmap)}
        assert lifted["x1"].bit_texts == ("1", "0", "0")
        assert lifted["x2"].bit_covers[0] == ((bitmap.bits["y1"][0],),)

    def test_multibit_observation_labels(self):
        text = "width 2\nmode reach\nrandom y\nobserve s := y + 1\ninput x\nwin x <= y\n"
        problem, bitmap = encode(parse_program(text))
        s0, s1 = bitmap.bits["s"]
        x = bitmap.bits["x"]
        functions = {
            x[0]: MintermFunction.of((s1,), [(s1,)]),
            x[1]: MintermFunction.of((s0, s1), [(s0, -s1), (-s0, s1)]),
        }
        lifted = lift(Solution(functions), bitmap)
        assert lifted[0].bit_texts[1] == "s[1]"
        assert lifted[0].bit_texts[0] in ("(s[0] & !s[1] | !s[0] & s[1])", "(!s[0] & s[1] | s[0] & !s[1])")

    def test_negative_single_literal_is_parenthesized(self):
        solution, bitmap = self._probe_setup()
        y1, = bitmap.bits["y1"]
        x2 = bitmap.bits["x2"]
        functions = dict(solution.functions)
        functions[x2[2]] = MintermFunction.of((y1,), [(-y1,)])
        lifted = {f.name: f for f in lift(Solution(functions), bitmap)}
        assert lifted["x2"].bit_texts[0] == "(!y1)"
