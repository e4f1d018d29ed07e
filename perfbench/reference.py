"""Independent reference answers, computed without the package under test.

Programs are evaluated as games directly on their structure: an input may
react to everything observed before it, so the optimum is a maximum over
input values below every observation split (for probe games this is the
adaptive split-tree capacity; for reach games the per-class maximum over
guesses). Prefixed-CNF instances are evaluated on bitsets over the counted
assignments, one set per valuation of the existential and chooser
variables, trying every strategy tuple. Both also score the strategies a
result document claims, so a solve is checked on its functions as well as
on its count.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from workloads import Dqm, Game, Instance

# one function per chooser bit: (support variables, minterms as literal tuples)
Function = tuple[tuple[int, ...], frozenset]


class Mismatch(Exception):
    """An output disagrees with the reference."""


@dataclass(frozen=True)
class Reference:
    optimum: int
    ceiling: int
    total: int


def _eval(e: tuple, env: Mapping[str, int], mask: int) -> int:
    op = e[0]
    if op == "var":
        return env[e[1]]
    if op == "const":
        return e[1]
    a, b = _eval(e[1], env, mask), _eval(e[2], env, mask)
    if op == "add":
        return (a + b) & mask
    if op == "sub":
        return (a - b) & mask
    if op == "ge":
        return int(a >= b)
    if op == "le":
        return int(a <= b)
    raise ValueError(f"unknown operator {op!r}")


def _conditions(g: Game) -> list[tuple]:
    return [s[1] for s in g.steps if s[0] in ("assume", "win")]


def _random_envs(g: Game) -> list[dict[str, int]]:
    ranges = [range(lo, hi + 1) for _, lo, hi in g.randoms]
    names = [name for name, _, _ in g.randoms]
    return [dict(zip(names, vals)) for vals in itertools.product(*ranges)]


def game_layout(g: Game) -> dict[str, tuple[int, ...]]:
    """CNF variables of each declared name, LSB first, in declaration order.

    This is the encoding the program documents; comparisons are one bit
    wide, everything else takes the program width.
    """
    layout: dict[str, tuple[int, ...]] = {}
    next_id = 1
    declared = [(name, g.width) for name, _, _ in g.randoms]
    for s in g.steps:
        if s[0] == "input":
            declared.append((s[1], g.width))
        elif s[0] == "observe":
            declared.append((s[1], 1 if s[2][0] in ("ge", "le") else g.width))
    for name, w in declared:
        layout[name] = tuple(range(next_id, next_id + w))
        next_id += w
    return layout


def _game_value(g: Game, step: int, live: list[dict[str, int]]) -> int:
    mask = (1 << g.width) - 1
    if not live:
        return 0
    if step == len(g.steps):
        conds = _conditions(g)
        good = sum(all(_eval(c, env, mask) for c in conds) for env in live)
        return good if g.mode == "reach" else int(good > 0)
    kind = g.steps[step][0]
    if kind == "input":
        name = g.steps[step][1]
        return max(
            _game_value(g, step + 1, [{**env, name: v} for env in live])
            for v in range(1 << g.width)
        )
    if kind == "observe":
        _, name, expr = g.steps[step]
        classes: dict[int, list[dict[str, int]]] = {}
        for env in live:
            value = _eval(expr, env, mask)
            classes.setdefault(value, []).append({**env, name: value})
        return sum(_game_value(g, step + 1, part) for part in classes.values())
    return _game_value(g, step + 1, live)


def _observations(g: Game, env: dict[str, int], mask: int) -> tuple[int, ...]:
    for s in g.steps:
        if s[0] == "observe":
            env[s[1]] = _eval(s[2], env, mask)
    return tuple(env[s[1]] for s in g.steps if s[0] == "observe")


def game_reference(g: Game) -> Reference:
    mask = (1 << g.width) - 1
    inputs = [s[1] for s in g.steps if s[0] == "input"]
    conds = _conditions(g)
    reached_randoms = 0
    vectors = set()
    for env in _random_envs(g):
        won = False
        for values in itertools.product(range(1 << g.width), repeat=len(inputs)):
            full = {**env, **dict(zip(inputs, values))}
            obs = _observations(g, full, mask)
            if all(_eval(c, full, mask) for c in conds):
                won = True
                vectors.add(obs)
        reached_randoms += won
    layout = game_layout(g)
    if g.mode == "reach":
        ceiling = reached_randoms
        counted_bits = sum(len(layout[name]) for name, _, _ in g.randoms)
    else:
        ceiling = len(vectors)
        counted_bits = sum(len(layout[s[1]]) for s in g.steps if s[0] == "observe")
    return Reference(_game_value(g, 0, _random_envs(g)), ceiling, 1 << counted_bits)


def _holds(fn: Function, bits: Mapping[int, bool]) -> bool:
    return any(all(bits[abs(lit)] == (lit > 0) for lit in m) for m in fn[1])


def game_strategy_count(g: Game, functions: Mapping[int, Function]) -> int:
    """The count the given per-bit strategies actually achieve."""
    mask = (1 << g.width) - 1
    layout = game_layout(g)
    conds = _conditions(g)
    won = 0
    vectors = set()
    for env in _random_envs(g):
        bits: dict[int, bool] = {}
        for s in g.steps:
            if s[0] == "observe":
                env[s[1]] = _eval(s[2], env, mask)
                bits.update((v, bool(env[s[1]] >> i & 1)) for i, v in enumerate(layout[s[1]]))
            elif s[0] == "input":
                value = 0
                for i, v in enumerate(layout[s[1]]):
                    fn = functions[v]
                    if not set(fn[0]) <= set(bits):
                        raise Mismatch(f"bit {v} reads {sorted(set(fn[0]) - set(bits))}, not yet observed")
                    value |= _holds(fn, bits) << i
                env[s[1]] = value
        if all(_eval(c, env, mask) for c in conds):
            won += 1
            vectors.add(tuple(env[s[1]] for s in g.steps if s[0] == "observe"))
    return won if g.mode == "reach" else len(vectors)


class _DqmTables:
    """Counted-assignment bitsets of the formula, per existential/chooser valuation.

    Bit k of a set stands for the counted assignment whose j-th smallest
    variable equals bit j of k.
    """

    def __init__(self, d: Dqm):
        self.d = d
        cells = 1 << len(d.counted)
        self.full = (1 << cells) - 1
        self.lit_mask: dict[int, int] = {}
        for j, v in enumerate(d.counted):
            pattern = sum(1 << k for k in range(cells) if k >> j & 1)
            self.lit_mask[v] = pattern
            self.lit_mask[-v] = self.full & ~pattern
        counted = set(d.counted)
        split = []
        for c in d.clauses:
            ymask = 0
            for lit in c:
                if abs(lit) in counted:
                    ymask |= self.lit_mask[lit]
            split.append((ymask, [lit for lit in c if abs(lit) not in counted]))
        self.exist_vals = list(itertools.product((False, True), repeat=len(d.exist)))
        self.chooser_vals = list(itertools.product((False, True), repeat=len(d.choosers)))
        # sets[z][x]: counted assignments satisfying the formula under (z, x)
        self.sets: list[list[int]] = []
        for zv in self.exist_vals:
            row = []
            for xv in self.chooser_vals:
                fixed = dict(zip(d.exist, zv))
                fixed.update(zip(d.choosers, xv))
                acc = self.full
                for ymask, rest in split:
                    if not any(fixed[abs(lit)] == (lit > 0) for lit in rest):
                        acc &= ymask
                        if not acc:
                            break
                row.append(acc)
            self.sets.append(row)

    def function_mask(self, fn: Function, zv: Sequence[bool]) -> int:
        """Counted assignments on which fn is true, existentials fixed to zv."""
        fixed = dict(zip(self.d.exist, zv))
        out = 0
        for m in fn[1]:
            acc = self.full
            for lit in m:
                if abs(lit) in fixed:
                    if fixed[abs(lit)] != (lit > 0):
                        acc = 0
                else:
                    acc &= self.lit_mask[lit]
            out |= acc
        return out

    def strategy_count(self, functions: Mapping[int, Function]) -> int:
        for x, h in zip(self.d.choosers, self.d.deps):
            if not set(functions[x][0]) <= set(h):
                raise Mismatch(f"chooser {x} reads {sorted(set(functions[x][0]) - set(h))}")
        reach = 0
        for zv, row in zip(self.exist_vals, self.sets):
            masks = [self.function_mask(functions[x], zv) for x in self.d.choosers]
            for xv, acc in zip(self.chooser_vals, row):
                for value, m in zip(xv, masks):
                    acc &= m if value else ~m
                reach |= acc
        return bin(reach).count("1")


def _all_functions(support: tuple[int, ...]) -> list[Function]:
    points = list(itertools.product(*((v, -v) for v in support)))
    return [
        (support, frozenset(p for j, p in enumerate(points) if mask >> j & 1))
        for mask in range(1 << len(points))
    ]


def dqm_reference(d: Dqm) -> Reference:
    t = _DqmTables(d)
    ceiling = 0
    for row in t.sets:
        for acc in row:
            ceiling |= acc
    optimum = max(
        t.strategy_count(dict(zip(d.choosers, combo)))
        for combo in itertools.product(*(_all_functions(h) for h in d.deps))
    )
    return Reference(optimum, bin(ceiling).count("1"), 1 << len(d.counted))


def reference(inst: Instance) -> Reference:
    return game_reference(inst.spec) if isinstance(inst.spec, Game) else dqm_reference(inst.spec)


def document_functions(doc: dict) -> dict[int, Function]:
    return {
        int(k): (tuple(e["support"]), frozenset(tuple(m) for m in e["minterms"]))
        for k, e in doc["functions"].items()
    }


def strategy_count(inst: Instance, doc: dict) -> int:
    functions = document_functions(doc)
    if isinstance(inst.spec, Game):
        return game_strategy_count(inst.spec, functions)
    return _DqmTables(inst.spec).strategy_count(functions)


_COUNT_LINE = re.compile(r"^(\d+) of (\d+)$")
_CHECK_LINE = re.compile(r"^ok: (\d+) of (\d+) confirmed$")


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got}, reference {want}")


def check_solve(inst: Instance, ref: Reference, doc: dict) -> None:
    _expect("solve count", doc["count"], ref.optimum)
    _expect("solve total", doc["total"], ref.total)
    _expect("strategies in the document achieve", strategy_count(inst, doc), ref.optimum)


def check_count(ref: Reference, out: str) -> None:
    m = _COUNT_LINE.match(out.strip())
    if m is None:
        raise Mismatch(f"unreadable count output {out!r}")
    _expect("ceiling count", (int(m[1]), int(m[2])), (ref.ceiling, ref.total))


def check_check(ref: Reference, out: str) -> None:
    m = _CHECK_LINE.match(out.strip())
    if m is None:
        raise Mismatch(f"unreadable check output {out!r}")
    _expect("check count", (int(m[1]), int(m[2])), (ref.optimum, ref.total))
