"""The paper's games at their real size, for the in-process tools.

Plain texts: this module imports no ``dqmaxsat``, as ``tests/hand_written.py``
does not, so that ``tests/ab.py``, which times them on two trees that each
load their own package, and ``tests/golden.py``, which prints their
digests, share them. PAPER maps a name to (suffix, text). They are not
Tier-1 tests: the four-guess game and sum_reach_7 take about a minute
each, so both tools run them under a per-instance time limit.

- ``four_guess``: a hidden word y, three inputs each followed by the
  observation of whether it is at least y, then a fourth input that wins
  when it equals y;
- ``three_probe_leak``: a secret z in 1..13 leaked by the probes
  z >= x1, z <= x2 and z >= x3;
- ``sum_reach_5`` to ``sum_reach_7``: the bundled ``sum_reach_4.atk`` at
  widths 5 to 7.
"""


def _sum_reach(width: int) -> tuple[str, str]:
    return (".atk", f"""\
width {width}
mode reach
random y1
random y2
observe s := y1 + y2
input x
assume y1 <= x
win x <= y2
""")


PAPER = {
    "four_guess": (".atk", """\
width 4
mode reach
random y
input x1
observe h1 := x1 >= y
input x2
observe h2 := x2 >= y
input x3
observe h3 := x3 >= y
input x4
win x4 == y
"""),
    "three_probe_leak": (".atk", """\
width 4
mode leak
random z in 1..13
input x1
observe y1 := z >= x1
input x2
observe y2 := z <= x2
input x3
observe y3 := z >= x3
"""),
    **{f"sum_reach_{width}": _sum_reach(width) for width in (5, 6, 7)},
}
