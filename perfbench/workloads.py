"""Seeded generators for the benchmark's three instance families.

Every instance is built from a structure that the reference evaluator in
``reference.py`` reads directly; the program under test only ever sees the
rendered ``.atk``/``.dqm`` text. The same (workload, seed, index) always
yields the same instance, since each one draws from its own string-seeded
``random.Random``.

Parameter ranges were picked by timing shapes with ``dqms solve``/
``solve-program --json`` on a 2-core x86 box (Python 3.11), so that one
solve takes roughly 0.05-0.7 s. A run then completes well over the 100
solves its p90 needs, and no shape sits far out in the tail. Shapes that
were measured and left out are named next to the family that excludes them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

WORKLOADS = ("local-reach", "incremental-probes", "count-dqm")

# expressions: ("var", name) | ("const", k) | (op, lhs, rhs), op in add sub ge le
Expr = tuple


@dataclass(frozen=True)
class Game:
    """A bitvector attacker program: randoms first, then the steps in order.

    steps are ("input", name), ("observe", name, expr), ("assume", expr)
    and ("win", expr). Ranges are inclusive and always rendered.
    """

    width: int
    mode: str  # reach | leak
    randoms: tuple[tuple[str, int, int], ...]
    steps: tuple[tuple, ...]


@dataclass(frozen=True)
class Dqm:
    """A prefixed CNF instance; deps lists one dependency tuple per chooser."""

    num_vars: int
    choosers: tuple[int, ...]
    deps: tuple[tuple[int, ...], ...]
    counted: tuple[int, ...]
    exist: tuple[int, ...]
    clauses: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Instance:
    name: str
    suffix: str  # ".atk" or ".dqm"
    spec: Union[Game, Dqm]
    text: str


def _var(name: str) -> Expr:
    return ("var", name)


def _plus(e: Expr, k: int) -> Expr:
    return e if k == 0 else ("add", e, ("const", k))


_OP_TEXT = {"add": "+", "sub": "-", "ge": ">=", "le": "<="}


def render_expr(e: Expr) -> str:
    if e[0] == "var":
        return e[1]
    if e[0] == "const":
        return str(e[1])
    # only sums inside comparisons occur, so no parentheses are needed
    return f"{render_expr(e[1])} {_OP_TEXT[e[0]]} {render_expr(e[2])}"


def render_game(g: Game) -> str:
    lines = [f"width {g.width}", f"mode {g.mode}"]
    lines += [f"random {name} in {lo}..{hi}" for name, lo, hi in g.randoms]
    for step in g.steps:
        if step[0] == "input":
            lines.append(f"input {step[1]}")
        elif step[0] == "observe":
            lines.append(f"observe {step[1]} := {render_expr(step[2])}")
        else:
            lines.append(f"{step[0]} {render_expr(step[1])}")
    return "\n".join(lines) + "\n"


def render_dqm(d: Dqm) -> str:
    lines = [f"p dqmscnf {d.num_vars} {len(d.clauses)}"]
    lines += [" ".join(map(str, ("d", x, *h, 0))) for x, h in zip(d.choosers, d.deps)]
    lines.append(" ".join(map(str, ("r", *d.counted, 0))))
    if d.exist:
        lines.append(" ".join(map(str, ("e", *d.exist, 0))))
    lines += [" ".join(map(str, (*c, 0))) for c in d.clauses]
    return "\n".join(lines) + "\n"


def _range(rng: random.Random, width: int) -> tuple[int, int]:
    top = (1 << width) - 1
    return rng.randint(0, top // 4), rng.randint(top - top // 4, top)


def _balanced_ranges(seed: int, width: int, j: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two ranges of the j-th sum_reach game of this width in a run.

    A width-4 game's solve time grows with its ranges' spans (median 354 ms
    at span 9, 513 ms at span 14, 2-core x86 box), and a run meets only
    about 38 such games, so drawing the ranges freely spread the p90 by 9%
    (quartile distance over median) across ten seeds. Here each cycle of games uses every range ``_range`` can
    draw exactly once per word, in an order the seed shuffles: every run
    meets the same mix of spans, and the seed decides how they pair up.
    """
    top = (1 << width) - 1
    pairs = [(lo, hi) for lo in range(top // 4 + 1) for hi in range(top - top // 4, top + 1)]
    cycle, pos = divmod(j, len(pairs))
    rng = random.Random(f"local-reach/{seed}/ranges{width}/{cycle}")
    first, second = pairs[:], pairs[:]
    rng.shuffle(first)
    rng.shuffle(second)
    return first[pos], second[pos]


def sum_reach(rng: random.Random, width: int, ranges: tuple[tuple[int, int], tuple[int, int]]) -> Game:
    """Two ranged words, their sum or difference announced, one interval guess.

    The announced word s is a function of the counted randoms and visible to
    the only chooser, so ``auto`` always splits locally on its bits: 2^width
    leaves, each a constant guess solved by the global reduction. Width 3
    solves in about 0.07 s and width 4 in 0.3-0.6 s; ``make_instance`` keeps
    width 4 to one instance in four so the median stays on width 3 while
    the p90 lands inside the width-4 group.
    """
    (lo1, hi1), (lo2, hi2) = ranges
    low, high = rng.choice([("y1", "y2"), ("y2", "y1")])
    return Game(
        width,
        "reach",
        (("y1", lo1, hi1), ("y2", lo2, hi2)),
        (
            ("observe", "s", (rng.choice(["add", "sub"]), _var("y1"), _var("y2"))),
            ("input", "x"),
            ("assume", ("le", _var(low), _var("x"))),
            ("win", ("le", _var("x"), _var(high))),
        ),
    )


def threshold_leak(rng: random.Random, width: int) -> Game:
    """Two adaptive threshold probes against a ranged secret.

    The second probe sees the first answer, so ``auto`` finds no common
    split variable and runs ``incremental``: one base oracle call plus one
    per bit of the second probe. Width 3 solves in about 45 ms, width 4 in
    about 175 ms. Three probes took 33-215 s per solve and are left out.
    """
    lo, hi = _range(rng, width)
    ops = [rng.choice(["ge", "le"]) for _ in range(2)]
    return Game(
        width,
        "leak",
        (("z", lo, hi),),
        (
            ("input", "x1"),
            ("observe", "y1", (ops[0], _var("z"), _var("x1"))),
            ("input", "x2"),
            ("observe", "y2", (ops[1], _var("z"), _var("x2"))),
        ),
    )


def offset_guess(rng: random.Random) -> Game:
    """A blind offset x1, then a guess x2 that sees the 3-bit h = y + x1.

    |H| = 3 for every bit of x2, so ``incremental`` makes ten oracle calls
    with objectives of several hundred clauses. The win condition is one
    comparison of x2 against y with a small slack; an optional assume
    bounds x2 alone. Measured and left out: ``==`` wins (1-3 s), conditions
    that tie x2 to y from both sides, whether by ``&&`` (18 s) or by an
    assume on y (9 s).
    """
    lo, hi = _range(rng, 3)
    slack = rng.choice([0, 0, 1, 2])
    y, x2 = _var("y"), _var("x2")
    win = rng.choice([("ge", _plus(x2, slack), y), ("le", x2, _plus(y, slack))])
    steps = [
        ("input", "x1"),
        ("observe", "h", ("add", y, _var("x1"))),
        ("input", "x2"),
    ]
    if rng.random() < 0.5:
        bound = rng.randint(1, 6)
        steps.append(("assume", rng.choice([("ge", x2, ("const", bound)), ("le", x2, ("const", bound))])))
    steps.append(("win", win))
    return Game(3, "reach", (("y", lo, hi),), tuple(steps))


def random_dqm(rng: random.Random, index: int) -> Dqm:
    """Random 3-CNF with 10-11 counted variables and 2-3 choosers.

    On even indices every chooser sees nothing, which is plain maximum
    projected counting; on odd ones exactly one chooser sees one
    non-chooser variable, one step beyond. Letting every chooser observe a
    variable put single solves at 1.7 s. 16-19 variables at clause ratio
    2-2.5 leave 40-400 projected models, so ``count``, the recounts and the
    oracle's cell lists all enumerate many models while its search over at
    most 5 selectors stays shallow. Solve times still spread over 30-900
    ms, so the size parameters cycle with the index instead of being drawn:
    every run then meets the same mix of sizes and only the formulas
    differ between seeds. Roles are shuffled over the variable ids because
    the engine branches on the lowest id first.
    """
    n = 16 + index // 2 % 4
    n_counted = 10 + index // 8 % 2
    ratio = (2.0, 2.25, 2.5)[index // 16 % 3]
    n_choosers = rng.randint(2, 3)
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    choosers = ids[:n_choosers]
    counted = sorted(ids[n_choosers:n_choosers + n_counted])
    exist = sorted(ids[n_choosers + n_counted:])
    deps = [()] * n_choosers
    if index % 2:
        deps[rng.randrange(n_choosers)] = (rng.choice(counted + exist),)
    m = round(n * ratio)
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return Dqm(n, tuple(choosers), tuple(deps), tuple(counted), tuple(exist), tuple(clauses))


def make_instance(workload: str, seed: int, index: int) -> Instance:
    """The index-th instance of a workload; the shape mix is fixed by index."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    name = f"{workload}-{index:03d}"
    if workload == "local-reach":
        # index 4k+3 is the k-th width-4 game; the others are width 3 in order
        width, j = (4, index // 4) if index % 4 == 3 else (3, index - (index + 1) // 4)
        g = sum_reach(rng, width, _balanced_ranges(seed, width, j))
        return Instance(name, ".atk", g, render_game(g))
    if workload == "incremental-probes":
        # leak at width 3, offset, leak at width 4, offset: the slow width-4
        # quarter holds the p90 and the median falls among the fast shapes
        g = offset_guess(rng) if index % 2 else threshold_leak(rng, 3 + index // 2 % 2)
        return Instance(name, ".atk", g, render_game(g))
    if workload == "count-dqm":
        d = random_dqm(rng, index)
        return Instance(name, ".dqm", d, render_dqm(d))
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
