"""Compile annotated bitvector programs into dependency-counting problems.

The input language is line oriented, one statement per line, with ``#``
starting a comment. A program opens with two header lines, ``width <n>``
and ``mode reach|leak`` (in either order, both before the first statement),
followed by statements:

    random <name> [in <lo>..<hi>]
    input <name>
    observe <name> := <expr>
    assume <expr>
    win <expr>

Expressions combine names and decimal constants with ``+ - == >= <= && ||
!`` and parentheses. Arithmetic is unsigned with wraparound and the
connectives demand one-bit operands. Every name is assigned exactly once
(by ``random``, ``input`` or ``observe``) and used only on later lines.
``reach`` programs contain exactly one ``win`` statement, ``leak`` programs
none.

Widths: ``random`` and ``input`` names have the declared width, and an
observation is as wide as its expression. Both operands of an operator have
one width, a comparison yields one bit, and a constant takes its partner's
width (the declared width when nothing else fixes it, as when both sides of
a comparison are constant) and must fit in it.

Encoding: each declared name takes one CNF variable per bit, least
significant bit first, in statement order; gate variables introduced by the
arithmetic come after all declared bits. A sum is a chain of full adders,
one XOR3 gate for each bit's sum and one majority gate for each carry but
the last, which is dropped. An ``assume`` or ``win`` that is a ``>=`` or
``<=``, and each bound of a ranged ``random``, asserts a carry chain of
majority gates; other comparisons and connectives use AND, OR and XOR
gates. Each gate gets the Tseitin clauses of the polarities in which the
formula uses it (Plaisted & Greenbaum, J. Symb. Comput. 1986), so the
formula projects onto the declared bits exactly as the full Tseitin
encoding does and has fewer clauses. In ``reach`` mode the random bits
are counted, the input bits are maximized, and everything else is
existential; the objective conjoins the observation definitions, the range
constraints, the ``assume`` conditions and the ``win`` condition. In
``leak`` mode the observation bits are counted instead, the randoms move
under the existential block, and there is no ``win`` conjunct. In both
modes an input may depend on exactly the observation bits of the
observations that precede it in the program text.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .dimacs import shown
from .formula import Cnf, MintermFunction, Problem, Solution


class ProgramError(ValueError):
    """A diagnostic tied to a position in the program text."""

    def __init__(self, message: str, line: int, col: Optional[int] = None):
        self.line = line
        self.col = col
        where = f"line {line}" if col is None else f"line {line}, column {col}"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class BvExpr:
    """An expression tree node.

    op is one of const, var, add, sub, eq, ge, le, and, or, not; args holds
    the children, value the constant payload, name the variable payload.
    width is the node's bit width, 0 until parse_program resolves it.
    """

    op: str
    args: tuple["BvExpr", ...] = ()
    value: Optional[int] = None
    name: Optional[str] = None
    line: int = 0
    col: int = 0
    width: int = 0


@dataclass(frozen=True)
class Statement:
    kind: str  # random | input | observe | assume | win
    line: int
    name: Optional[str] = None
    expr: Optional[BvExpr] = None
    lo: Optional[int] = None
    hi: Optional[int] = None


@dataclass(frozen=True)
class BvProgram:
    width: int
    mode: str  # reach | leak
    statements: tuple[Statement, ...]
    widths: dict[str, int]  # bit width of each declared name, in statement order


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_]\w*)|(==|>=|<=|&&|\|\||:=|\.\.|[-+!()])")

_KEYWORDS = ("width", "mode", "random", "input", "observe", "assume", "win")


def _tokenize(src: str, line: int) -> list[tuple[str, object, int]]:
    toks = []
    i = 0
    while i < len(src):
        if src[i] in " \t":
            i += 1
            continue
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ProgramError(f"unexpected character {src[i]!r}", line, i + 1)
        if m.group(1) is not None:
            digits = m.group(1)
            try:
                value = int(digits)
            except ValueError:  # more digits than int() converts
                raise ProgramError(f"integer too long: {shown(digits)}", line, i + 1) from None
            toks.append(("num", value, i + 1))
        elif m.group(2) is not None:
            toks.append(("name", m.group(2), i + 1))
        else:
            toks.append((m.group(3), m.group(3), i + 1))
        i = m.end()
    return toks


# deepest '(' and '!' nesting, and deepest expression tree, that a program
# may use: the parser and the passes over the tree recurse on every level
MAX_EXPR_DEPTH = 100

# widest word a program may declare: the encoding has dozens of clauses per
# bit of every name, so a width of 10^5 runs out of memory in encode
MAX_WIDTH = 64


_ARITH = ("add", "sub")
_COMPARE = ("eq", "ge", "le")


class _ExprParser:
    """Recursive descent over one statement's token tail, typing as it builds.

    Grammar, loosest first:  or := and ('||' and)*
                             and := cmp ('&&' cmp)*
                             cmp := sum (('=='|'>='|'<=') sum)?
                             sum := unary (('+'|'-') unary)*
                             unary := '!' unary | NAME | NUM | '(' or ')'
    Comparisons do not chain. Nesting and tree depth are capped at
    MAX_EXPR_DEPTH.

    Each node takes its width from its operands as it is built; a
    constant-only subtree keeps width 0 until _sized gives it one. Typing
    errors wait until the line has parsed, so that syntax errors come first.
    """

    def __init__(self, toks, line: int, end_col: int, widths: Mapping[str, int]):
        self.toks = toks
        self.line = line
        self.end_col = end_col
        self.widths = widths
        self.pos = 0
        self.nesting = 0
        self.error: Optional[ProgramError] = None

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _take(self, kind: Optional[str] = None):
        t = self._peek()
        if t is None:
            raise ProgramError("unexpected end of line", self.line, self.end_col)
        if kind is not None and t[0] != kind:
            raise ProgramError(f"expected {kind!r}, found {shown(t[1])}", self.line, t[2])
        self.pos += 1
        return t

    def _type_error(self, message: str, col: int) -> None:
        if self.error is None:
            self.error = ProgramError(message, self.line, col)

    def _bit(self, e: BvExpr) -> BvExpr:
        """A connective's operand, which must be one bit wide."""
        if e.width > 1:
            self._type_error(f"expected a 1-bit operand, found {e.width} bits", e.col)
        return e

    def _binary(self, op: str, a: BvExpr, b: BvExpr, col: int) -> BvExpr:
        if a.width and b.width and a.width != b.width:
            self._type_error(f"width mismatch: {a.width}-bit and {b.width}-bit operands", col)
        w = (a.width or b.width) if op in _ARITH else 1
        return BvExpr(op, (a, b), None, None, self.line, col, w)

    def parse(self) -> BvExpr:
        e = self._or()
        t = self._peek()
        if t is not None:
            raise ProgramError(f"unexpected {shown(t[1])} after expression", self.line, t[2])
        # operator chains build deep trees without nesting; walk without recursion
        stack = [(e, 1)]
        while stack:
            node, depth = stack.pop()
            if depth > MAX_EXPR_DEPTH:
                raise ProgramError("expression nested too deeply", node.line, node.col)
            stack.extend((child, depth + 1) for child in node.args)
        if self.error is not None:
            raise self.error
        return e

    def _or(self) -> BvExpr:
        e = self._and()
        while (t := self._peek()) is not None and t[0] == "||":
            self._take()
            e = BvExpr("or", (self._bit(e), self._bit(self._and())), None, None, self.line, t[2], 1)
        return e

    def _and(self) -> BvExpr:
        e = self._cmp()
        while (t := self._peek()) is not None and t[0] == "&&":
            self._take()
            e = BvExpr("and", (self._bit(e), self._bit(self._cmp())), None, None, self.line, t[2], 1)
        return e

    _CMP_OPS = {"==": "eq", ">=": "ge", "<=": "le"}

    def _cmp(self) -> BvExpr:
        e = self._sum()
        t = self._peek()
        if t is not None and t[0] in self._CMP_OPS:
            self._take()
            e = self._binary(self._CMP_OPS[t[0]], e, self._sum(), t[2])
            nxt = self._peek()
            if nxt is not None and nxt[0] in self._CMP_OPS:
                raise ProgramError("comparisons do not chain", self.line, nxt[2])
        return e

    def _sum(self) -> BvExpr:
        e = self._unary()
        while (t := self._peek()) is not None and t[0] in ("+", "-"):
            self._take()
            e = self._binary("add" if t[0] == "+" else "sub", e, self._unary(), t[2])
        return e

    def _unary(self) -> BvExpr:
        t = self._take()
        if t[0] == "num":
            return BvExpr("const", (), t[1], None, self.line, t[2])
        if t[0] == "name":
            w = self.widths.get(t[1], 0)
            if not w:
                self._type_error(f"name {shown(t[1])} is not assigned yet", t[2])
            return BvExpr("var", (), None, t[1], self.line, t[2], w)
        if t[0] in ("!", "("):
            self.nesting += 1
            if self.nesting > MAX_EXPR_DEPTH:
                raise ProgramError("expression nested too deeply", self.line, t[2])
            if t[0] == "!":
                e = BvExpr("not", (self._bit(self._unary()),), None, None, self.line, t[2], 1)
            else:
                e = self._or()
                self._take(")")
            self.nesting -= 1
            return e
        raise ProgramError(f"expected a name, number, '!' or '(', found {shown(t[1])}", self.line, t[2])


def _sized(e: BvExpr, demand: int, default: int) -> BvExpr:
    """Give every constant the width its position demands, top down.

    Constant-only arithmetic takes demand; comparison operands take their
    partner's width, or default when both are constant-only. Raises on a
    constant that does not fit; returns e itself when no constant is below.
    """
    if e.op == "const":
        if e.value >> demand:
            raise ProgramError(f"constant {shown(e.value)} does not fit in {demand} bit(s)", e.line, e.col)
        return BvExpr("const", (), e.value, None, e.line, e.col, demand)
    w = e.width or demand
    if e.op in _COMPARE:
        inner = e.args[0].width or e.args[1].width or default
    else:
        inner = w if e.op in _ARITH else 1
    args = tuple([c if c.op == "var" else _sized(c, inner, default) for c in e.args])
    if w == e.width and all(map(operator.is_, args, e.args)):
        return e
    return BvExpr(e.op, args, None, None, e.line, e.col, w)


def parse_program(text: str) -> BvProgram:
    """Parse and validate a program, or raise ProgramError with a position."""
    width: Optional[int] = None
    mode: Optional[str] = None
    statements: list[Statement] = []
    widths: dict[str, int] = {}
    win_line: Optional[int] = None
    last_line = 0

    def need_headers(ln: int) -> int:
        if width is None:
            raise ProgramError("width must be declared before any statement", ln)
        if mode is None:
            raise ProgramError("mode must be declared before any statement", ln)
        return width

    def fresh_name(tok, ln: int) -> str:
        if tok[0] != "name":
            raise ProgramError(f"expected a name, found {shown(tok[1])}", ln, tok[2])
        if tok[1] in _KEYWORDS:
            raise ProgramError(f"{shown(tok[1])} is a keyword", ln, tok[2])
        if tok[1] in widths:
            raise ProgramError(f"name {shown(tok[1])} is assigned twice", ln, tok[2])
        return tok[1]

    for ln, raw in enumerate(text.splitlines(), start=1):
        src = raw.split("#", 1)[0]
        if not src.strip():
            continue
        last_line = ln
        toks = _tokenize(src, ln)
        head = toks[0]
        if head[0] != "name":
            raise ProgramError(f"expected a statement keyword, found {shown(head[1])}", ln, head[2])
        kw = head[1]

        if kw == "width":
            if statements:
                raise ProgramError("width must precede all statements", ln)
            if width is not None:
                raise ProgramError("width is declared twice", ln)
            if len(toks) != 2 or toks[1][0] != "num" or toks[1][1] < 1:
                raise ProgramError("width takes one positive number", ln)
            if toks[1][1] > MAX_WIDTH:
                raise ProgramError(f"width {shown(toks[1][1])} exceeds the limit of {MAX_WIDTH} bits", ln)
            width = toks[1][1]
        elif kw == "mode":
            if statements:
                raise ProgramError("mode must precede all statements", ln)
            if mode is not None:
                raise ProgramError("mode is declared twice", ln)
            if len(toks) != 2 or toks[1][0] != "name" or toks[1][1] not in ("reach", "leak"):
                raise ProgramError("mode is either 'reach' or 'leak'", ln)
            mode = toks[1][1]
        elif kw == "random":
            w = need_headers(ln)
            if len(toks) < 2:
                raise ProgramError("random takes a name", ln)
            name = fresh_name(toks[1], ln)
            lo = hi = None
            if len(toks) > 2:
                shape = [t[0] for t in toks[2:]]
                if shape != ["name", "num", "..", "num"] or toks[2][1] != "in":
                    raise ProgramError("range syntax is: in <lo>..<hi>", ln, toks[2][2])
                lo, hi = toks[3][1], toks[5][1]
                if lo > hi:
                    raise ProgramError(f"empty range {shown(lo)}..{shown(hi)}", ln, toks[3][2])
                if hi >> w:
                    raise ProgramError(f"range bound {shown(hi)} does not fit in {w} bit(s)", ln, toks[5][2])
            widths[name] = w
            statements.append(Statement("random", ln, name=name, lo=lo, hi=hi))
        elif kw == "input":
            w = need_headers(ln)
            if len(toks) != 2:
                raise ProgramError("input takes exactly one name", ln)
            name = fresh_name(toks[1], ln)
            widths[name] = w
            statements.append(Statement("input", ln, name=name))
        elif kw == "observe":
            w = need_headers(ln)
            if len(toks) < 3 or toks[2][0] != ":=":
                raise ProgramError("observe syntax is: observe <name> := <expr>", ln)
            name = fresh_name(toks[1], ln)
            expr = _sized(_ExprParser(toks[3:], ln, len(src) + 1, widths).parse(), w, w)
            widths[name] = expr.width
            statements.append(Statement("observe", ln, name=name, expr=expr))
        elif kw in ("assume", "win"):
            w = need_headers(ln)
            expr = _ExprParser(toks[1:], ln, len(src) + 1, widths).parse()
            if expr.width > 1:
                raise ProgramError(f"{kw} needs a 1-bit condition, found {expr.width} bits", ln, expr.col)
            expr = _sized(expr, 1, w)
            if kw == "win":
                if mode == "leak":
                    raise ProgramError("win is not allowed in leak mode", ln)
                if win_line is not None:
                    raise ProgramError(f"a second win statement (first on line {win_line})", ln)
                win_line = ln
            statements.append(Statement(kw, ln, expr=expr))
        else:
            raise ProgramError(f"unknown statement {shown(kw)}", ln, head[2])

    if width is None:
        raise ProgramError("missing width declaration", max(last_line, 1))
    if mode is None:
        raise ProgramError("missing mode declaration", max(last_line, 1))
    if not statements:
        raise ProgramError("program has no statements", max(last_line, 1))
    if mode == "reach" and win_line is None:
        raise ProgramError("reach mode needs exactly one win statement", last_line)
    return BvProgram(width, mode, tuple(statements), widths)


# ---------------------------------------------------------------------------
# bitblasting

Bit = Union[bool, int]  # a constant, or a signed CNF literal


def _const_bits(value: int, w: int) -> list[Bit]:
    return [bool(value >> i & 1) for i in range(w)]


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if abs(a) < abs(b) else (b, a)


# a literal's demand on its gate when the literal is negated: the other half
_FLIP = (0, 2, 1, 3)
# gates whose inputs a use of either half demands both halves of
_PARITY = ("xor", "xor3")


def _definition(op: str, inputs: tuple[int, ...], g: int, need: int) -> list[tuple[int, ...]]:
    """Gate g's clauses for the halves in need, in definition order.

    Half 1 holds the clauses with -g, which say that g implies op of its
    inputs; half 2 those with g, which say the converse.
    """
    if op == "and":
        a, b = inputs
        pos = [(a, -g), (b, -g)] if need & 1 else []
        return pos + [(*_pair(-a, -b), g)] if need & 2 else pos
    if op == "or":
        a, b = inputs
        neg = [(-a, g), (-b, g)] if need & 2 else []
        return neg + [(*_pair(a, b), -g)] if need & 1 else neg
    if op == "xor":
        a, b = inputs
        pos = [(*_pair(a, b), -g), (*_pair(-a, -b), -g)] if need & 1 else []
        return pos + [(*_pair(-a, b), g), (*_pair(a, -b), g)] if need & 2 else pos
    p, q, r = sorted(inputs, key=abs)
    if op == "xor3":  # g holds exactly when an odd number of inputs do
        pos = [(p, q, r, -g), (p, -q, -r, -g), (-p, q, -r, -g), (-p, -q, r, -g)] if need & 1 else []
        return pos + [(-p, q, r, g), (p, -q, r, g), (p, q, -r, g), (-p, -q, -r, g)] if need & 2 else pos
    # maj: g holds exactly when two inputs do
    pos = [(p, q, -g), (p, r, -g), (q, r, -g)] if need & 1 else []
    return pos + [(-p, -q, g), (-p, -r, g), (-q, -r, g)] if need & 2 else pos


class _Lowerer:
    """Gate emitter with constant folding, structural sharing and polarity-aware clauses.

    A gate takes the next variable id when it is first built, so every gate
    comes after its inputs, and its definition takes its place in the
    clause order then; root clauses (assert_bit, assert_ge, tie_equal) take
    theirs as they come. A definition has two halves: the clauses with -g
    say that g implies its function (half 1), those with g the converse
    (half 2).
    clauses() emits each gate's halves only where a use demands them
    (Plaisted & Greenbaum, J. Symb. Comput. 1986). A literal in an emitted
    clause demands the half that its being true implies: half 1 of its gate
    for a positive literal, half 2 for a negative one. So an asserted bit
    demands half 1, a tied bit both, a negation swaps the halves it
    demands, and an XOR demands both halves of its inputs; so assert_ge's
    majority carries get half 1 alone, 3 clauses per bit. Setting every
    demanded gate to its function's value, and every other false,
    satisfies this encoding, and in every model of it the emitted halves
    keep each root clause true of the functions' values, so both encodings
    project onto the declared bits alike. Literals in variable order.
    """

    def __init__(self, first_gate_var: int):
        self.first_gate_var = first_gate_var
        self.next_var = first_gate_var
        self._cache: dict[tuple, int] = {}
        self._defs: list[tuple[str, tuple[int, ...]]] = []  # per gate: op, input literals
        self._need: list[int] = []  # per gate: the halves root clauses demand, 1 | 2
        self._slots: list[Union[int, tuple[int, ...]]] = []  # gate ids and root clauses, in order

    def g_not(self, a: Bit) -> Bit:
        return (not a) if isinstance(a, bool) else -a

    def _gate(self, op: str, *inputs: int) -> int:
        """The shared gate variable for op over its input literals, defined on first use."""
        key = (op, *sorted(inputs))
        g = self._cache.get(key)
        if g is None:
            g = self._cache[key] = self.next_var
            self.next_var += 1
            self._defs.append((op, inputs))
            self._need.append(0)
            self._slots.append(g)
        return g

    def g_and(self, a: Bit, b: Bit) -> Bit:
        if a is False or b is False:
            return False
        if a is True:
            return b
        if b is True:
            return a
        if a == b:
            return a
        if a == -b:
            return False
        return self._gate("and", a, b)

    def g_or(self, a: Bit, b: Bit) -> Bit:
        if a is True or b is True:
            return True
        if a is False:
            return b
        if b is False:
            return a
        if a == b:
            return a
        if a == -b:
            return True
        return self._gate("or", a, b)

    def g_xor(self, a: Bit, b: Bit) -> Bit:
        if isinstance(a, bool):
            return self.g_not(b) if a else b
        if isinstance(b, bool):
            return self.g_not(a) if b else a
        if a == b:
            return False
        if a == -b:
            return True
        return self._gate("xor", a, b)

    def g_xor3(self, a: Bit, b: Bit, c: Bit) -> Bit:
        """a xor b xor c; two-input XOR when an input is constant or two cancel."""
        if isinstance(a, bool) or isinstance(b, bool) or isinstance(c, bool):
            return self.g_xor(self.g_xor(a, b), c)
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if x == y:
                return z
            if x == -y:
                return -z
        return self._gate("xor3", a, b, c)

    def g_maj(self, a: Bit, b: Bit, c: Bit) -> Bit:
        """The majority of a, b, c; two-input AND or OR when an input is constant."""
        for k, x, y in ((c, a, b), (a, b, c), (b, a, c)):
            if isinstance(k, bool):
                return self.g_or(x, y) if k else self.g_and(x, y)
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if x == y:
                return x
            if x == -y:
                return z
        return self._gate("maj", a, b, c)

    def ripple_add(self, xs: Sequence[Bit], ys: Sequence[Bit], carry: Bit = False) -> list[Bit]:
        """Wraparound sum by full adders, least significant bit first.

        Each bit's sum is XOR3 of its inputs and the carry in, its carry out
        their majority; no gate is built for the final carry, which is
        dropped.
        """
        out = []
        last = len(xs) - 1
        for i, (a, b) in enumerate(zip(xs, ys)):
            out.append(self.g_xor3(a, b, carry))
            if i < last:
                carry = self.g_maj(a, b, carry)
        return out

    def subtract(self, xs: Sequence[Bit], ys: Sequence[Bit]) -> list[Bit]:
        return self.ripple_add(xs, [self.g_not(b) for b in ys], True)

    def unsigned_ge(self, xs: Sequence[Bit], ys: Sequence[Bit]) -> Bit:
        # xs >= ys iff xs + ~ys + 1 carries out of the top bit. A value's
        # carries stay AND/OR/XOR gates: majority gates solve faster here
        # too, but the benchmark's memory metric grows with the rounds they
        # win (ROADMAP item 7)
        carry: Bit = True
        for a, b in zip(xs, [self.g_not(y) for y in ys]):
            axb = self.g_xor(a, b)
            carry = self.g_or(self.g_and(a, b), self.g_and(carry, axb))
        return carry

    def assert_ge(self, xs: Sequence[Bit], ys: Sequence[Bit]) -> None:
        """Assert xs >= ys: the carry out of xs + ~ys + 1, by majority gates.

        Asserted, each carry demands only half 1 of its gate.
        """
        carry: Bit = True
        for a, b in zip(xs, ys):
            carry = self.g_maj(a, self.g_not(b), carry)
        self.assert_bit(carry)

    def equal(self, xs: Sequence[Bit], ys: Sequence[Bit]) -> Bit:
        acc: Bit = True
        for a, b in zip(xs, ys):
            acc = self.g_and(acc, self.g_not(self.g_xor(a, b)))
        return acc

    def _root(self, b: int, need: int) -> None:
        """Note that a root clause demands need of b's gate, if b is a gate's literal."""
        if (i := abs(b) - self.first_gate_var) >= 0:
            self._need[i] |= need if b > 0 else _FLIP[need]

    def assert_bit(self, b: Bit) -> None:
        if b is True:
            return
        if b is False:
            self._slots.append(())
        else:
            self._root(b, 1)
            self._slots.append((b,))

    def tie_equal(self, vars_: Sequence[int], bits: Sequence[Bit]) -> None:
        """Constrain pre-allocated variables to equal computed bits."""
        for v, b in zip(vars_, bits):
            if b is True:
                self._slots.append((v,))
            elif b is False:
                self._slots.append((-v,))
            else:
                self._root(b, 3)
                self._slots += [_pair(-v, b), _pair(v, -b)]

    def clauses(self) -> list[tuple[int, ...]]:
        """Every root clause, and each gate's halves that some emitted clause demands, in order."""
        first = self.first_gate_var
        need = self._need
        # every user of a gate comes after it: highest first sees all demands
        for i in range(len(need) - 1, -1, -1):
            if m := need[i]:
                op, inputs = self._defs[i]
                if op in _PARITY:
                    m = 3
                for lit in inputs:
                    if (j := abs(lit) - first) >= 0:
                        need[j] |= m if lit > 0 else _FLIP[m]
        out = []
        for slot in self._slots:
            if type(slot) is tuple:
                out.append(slot)
            else:  # a gate nothing demands gets no half: fix it false
                out += _definition(*self._defs[slot - first], slot, need[slot - first]) or [(-slot,)]
        return out

    def bits_of(self, e: BvExpr, env: Mapping[str, tuple[int, ...]]) -> list[Bit]:
        """Lower a typed expression to its e.width bits, LSB first."""
        if e.op == "const":
            return _const_bits(e.value, e.width)
        if e.op == "var":
            return list(env[e.name])
        if e.op == "not":
            return [self.g_not(self.bits_of(e.args[0], env)[0])]
        xs = self.bits_of(e.args[0], env)
        ys = self.bits_of(e.args[1], env)
        if e.op == "add":
            return self.ripple_add(xs, ys)
        if e.op == "sub":
            return self.subtract(xs, ys)
        if e.op == "eq":
            return [self.equal(xs, ys)]
        if e.op == "ge":
            return [self.unsigned_ge(xs, ys)]
        if e.op == "le":
            return [self.unsigned_ge(ys, xs)]
        return [self.g_and(xs[0], ys[0]) if e.op == "and" else self.g_or(xs[0], ys[0])]


@dataclass(frozen=True)
class BitMap:
    """Correspondence between program names and CNF variables."""

    order: tuple[str, ...]  # declared names in statement order
    kind: dict[str, str]  # random | input | observe
    bits: dict[str, tuple[int, ...]]  # LSB first
    labels: dict[int, str]  # declared bit var -> rendering label
    aux_start: int  # first gate variable id
    num_vars: int

    def bit_label(self, var: int) -> str:
        return self.labels.get(var, str(var))

    def input_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.order if self.kind[n] == "input")


def encode(prog: BvProgram) -> tuple[Problem, BitMap]:
    """Bitblast a program into a Problem plus the name-to-bit correspondence."""
    order = tuple(prog.widths)
    kind = {st.name: st.kind for st in prog.statements if st.name is not None}
    bits: dict[str, tuple[int, ...]] = {}
    labels: dict[int, str] = {}
    next_id = 1
    for name, w in prog.widths.items():
        span = tuple(range(next_id, next_id + w))
        next_id += w
        bits[name] = span
        for i, v in enumerate(span):
            labels[v] = name if w == 1 else f"{name}[{i}]"

    aux_start = next_id
    lower = _Lowerer(next_id)
    deps_of: dict[str, tuple[str, ...]] = {}
    seen_observations: list[str] = []
    for st in prog.statements:
        if st.kind == "random":
            if st.lo is not None:
                span = bits[st.name]
                lower.assert_ge(span, _const_bits(st.lo, len(span)))
                lower.assert_ge(_const_bits(st.hi, len(span)), span)
        elif st.kind == "input":
            deps_of[st.name] = tuple(seen_observations)
        elif st.kind == "observe":
            lower.tie_equal(bits[st.name], lower.bits_of(st.expr, bits))
            seen_observations.append(st.name)
        elif st.expr.op in ("ge", "le"):  # assume | win of a comparison
            xs, ys = (lower.bits_of(arg, bits) for arg in st.expr.args)
            lower.assert_ge(*((xs, ys) if st.expr.op == "ge" else (ys, xs)))
        else:  # any other assume | win
            lower.assert_bit(lower.bits_of(st.expr, bits)[0])

    num_vars = lower.next_var - 1
    input_bits = [v for n in order if kind[n] == "input" for v in bits[n]]
    random_bits = {v for n in order if kind[n] == "random" for v in bits[n]}
    observe_bits = {v for n in order if kind[n] == "observe" for v in bits[n]}
    aux = set(range(aux_start, lower.next_var))
    if prog.mode == "reach":
        count_vars = random_bits
        exist_vars = observe_bits | aux
    else:
        count_vars = observe_bits
        exist_vars = random_bits | aux
    deps = {}
    for name in order:
        if kind[name] != "input":
            continue
        h = frozenset(v for obs in deps_of[name] for v in bits[obs])
        for v in bits[name]:
            deps[v] = h
    problem = Problem.of(Cnf.build(num_vars, lower.clauses()), input_bits, count_vars, exist_vars, deps)
    bitmap = BitMap(order, kind, bits, labels, aux_start, num_vars)
    return problem, bitmap


# ---------------------------------------------------------------------------
# lifting solved bit functions back to readable equations

def minimize_minterms(
    support: Sequence[int], minterms: Iterable[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Exact two-level minimization of a minterm set over its support.

    Classic prime-implicant construction, essential primes first, then a
    Petrick-style product-of-sums expansion for the leftovers; the winning
    cover has the fewest implicants, then the fewest literals, then the
    lexicographically least implicant list. Returns the implicants as
    tuples of signed support variables, () meaning the constant-true
    product; the empty cover is the constant false. Verified pointwise
    against the input before returning.
    """
    vs = tuple(sorted(support))
    k = len(vs)
    index = {v: j for j, v in enumerate(vs)}
    values = {sum(1 << index[lit] for lit in m if lit > 0) for m in minterms}
    full = (1 << k) - 1

    def covers(imp: tuple[int, int], m: int) -> bool:
        return m & imp[0] == imp[1]

    def implicant_key(imp: tuple[int, int]):
        return (bin(imp[0]).count("1"), imp[0], imp[1])

    chosen: list[tuple[int, int]] = []
    if values:
        current = {(full, v) for v in values}
        primes: set[tuple[int, int]] = set()
        while current:
            survivors = set(current)
            nxt = set()
            for mask, val in current:
                for j in range(k):
                    bit = 1 << j
                    if mask & bit and not val & bit and (mask, val | bit) in current:
                        nxt.add((mask & ~bit, val))
                        survivors.discard((mask, val))
                        survivors.discard((mask, val | bit))
            primes |= survivors
            current = nxt

        remaining = set(values)
        while remaining:
            essential = None
            for m in sorted(remaining):
                covering = [p for p in primes if covers(p, m)]
                if len(covering) == 1:
                    essential = covering[0]
                    break
            if essential is None:
                break
            chosen.append(essential)
            remaining = {m for m in remaining if not covers(essential, m)}
        if remaining:
            options: set[frozenset] = {frozenset()}
            for m in sorted(remaining):
                grown = {c | {p} for c in options for p in primes if covers(p, m)}
                options = {c for c in grown if not any(o < c for o in grown)}
            best = min(
                options,
                key=lambda c: (
                    len(c),
                    sum(bin(p[0]).count("1") for p in c),
                    sorted(implicant_key(p) for p in c),
                ),
            )
            chosen.extend(sorted(best, key=implicant_key))

    cover = tuple(
        tuple((vs[j] if val >> j & 1 else -vs[j]) for j in range(k) if mask >> j & 1)
        for mask, val in sorted(set((m, v & m) for m, v in chosen), key=implicant_key)
    )
    for point in range(1 << k):
        got = any(all((point >> index[abs(l)] & 1) == (l > 0) for l in imp) for imp in cover)
        assert got == (point in values), "minimized cover drifted from the raw function"
    return cover


def evaluate_cover(cover: Iterable[Sequence[int]], assignment: Mapping[int, bool]) -> bool:
    return any(all(assignment[abs(l)] == (l > 0) for l in imp) for imp in cover)


@dataclass(frozen=True)
class LiftedFunction:
    """One input variable's synthesized strategy in readable per-bit form.

    bit_covers and bit_texts run most significant bit first; rendered is
    the full equation line, bits separated by spaces.
    """

    name: str
    bit_covers: tuple[tuple[tuple[int, ...], ...], ...]
    bit_texts: tuple[str, ...]
    rendered: str


def _render_bit(cover: tuple[tuple[int, ...], ...], bitmap: BitMap) -> str:
    if cover == ():
        return "0"
    if cover == ((),):
        return "1"
    if len(cover) == 1 and len(cover[0]) == 1 and cover[0][0] > 0:
        return bitmap.bit_label(cover[0][0])
    terms = []
    for imp in cover:
        lits = [("!" if lit < 0 else "") + bitmap.bit_label(abs(lit)) for lit in imp]
        terms.append(" & ".join(lits) if lits else "1")
    return "(" + " | ".join(terms) + ")"


def lift(solution: Solution, bitmap: BitMap) -> tuple[LiftedFunction, ...]:
    """Minimize and render every input's bit functions, inputs in program order."""
    out = []
    for name in bitmap.input_names():
        covers = []
        texts = []
        for v in reversed(bitmap.bits[name]):
            fn: MintermFunction = solution.functions[v]
            cover = minimize_minterms(fn.support, fn.minterms)
            covers.append(cover)
            texts.append(_render_bit(cover, bitmap))
        out.append(
            LiftedFunction(name, tuple(covers), tuple(texts), f"{name} = " + " ".join(texts))
        )
    return tuple(out)
