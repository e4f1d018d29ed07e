"""Hand-written instances for the local paths no benchmark instance takes.

Plain texts: this module imports no ``dqmaxsat``, so that
``tests/test_golden.py``, which pins their digests, and ``tests/ab.py``,
which times them on two trees that each load their own package, share them.
Each maps a name to (suffix, text).

RESIDUAL holds local solves whose choosers keep a residual support after
the split: the helper instance of ``tests/instances.py``, whose full
support is not chain-shaped, so solve_local takes its eight leaves; and
two-input adaptive reach games, at widths 2 and 3, whose second input also
sees an observation of the first input. Their tables hold their rows, so
solve_local solves them whole. HAND_WRITTEN adds three choosers of a
constant each over two counted variables: their table holds no rows up
front, so solve_local takes the two leaves of its split.
"""


def _two_input_game(width: int, observed: str, won: str) -> tuple[str, str]:
    return (".atk", f"""\
width {width}
mode reach
random y1
random y2
observe s := {observed}
input x1
observe o := y1 >= x1
input x2
assume x1 <= y2
win {won}
""")


RESIDUAL = {
    "or_with_free_helper": (".dqm", """\
p dqmscnf 5 4
d 1 2 3 4 5 0
r 2 3 4 0
e 5 0
-1 2 5 0
1 -2 0
1 -5 0
-1 -4 3 0
"""),
    "sum_then_observed_window": _two_input_game(2, "y1 + y2", "x2 <= y1 && y1 <= x2 + 1"),
    "difference_then_observed_guess": _two_input_game(2, "y1 - y2", "x2 == y1"),
    "sum_then_observed_window_width3": _two_input_game(3, "y1 + y2", "x2 <= y1 && y1 <= x2 + 1"),
    "difference_then_observed_guess_width3": _two_input_game(3, "y1 - y2", "x2 == y1"),
}

HAND_WRITTEN = {
    **RESIDUAL,
    "three_constant_choosers": (".dqm", """\
p dqmscnf 6 6
d 1 4 0
d 2 4 0
d 3 4 0
r 4 5 0
e 6 0
4 -1 0
5 1 2 0
5 -4 0
-6 -5 0
-1 2 6 0
-5 -3 0
"""),
}
