"""Strict line-oriented text format for maximization instances.

The format follows DIMACS CNF conventions with a quantifier prefix:

    c optional comment lines
    p dqmscnf <num_vars> <num_clauses>
    d <x> <h1> ... <hk> 0        one line per maximizing variable, in order
    r <y1> ... <ym> 0            counting variables (at least one line)
    e <z1> ... <zj> 0            existential variables (optional)
    <lit> ... <lit> 0            exactly <num_clauses> clause lines

Prefix lines must appear in d, r, e order.  Every variable from 1 to
num_vars belongs to exactly one prefix line, each `d` dependency must be
declared on an `r` or `e` line, and clause literals may only mention
declared variables.  Parsing is strict: anything out of order, duplicated,
missing, or trailing is rejected with the offending line number.
"""

from __future__ import annotations

import itertools
import re

from .formula import Cnf, Problem


class ParseError(ValueError):
    """Raised on malformed instance text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def shown(token: object) -> str:
    """A token as a diagnostic echoes it: text quoted, anything else bare, cut past 20 characters."""
    text = str(token)
    head = repr(text[:20]) if isinstance(token, str) else text[:20]
    return head if len(text) <= 20 else f"{head}... ({len(text)} characters)"


def _ints(tokens: list[str], line_no: int) -> list[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            if re.fullmatch(r"[+-]?\d+", tok):  # more digits than int() converts
                raise ParseError(f"integer too long: {shown(tok)}", line_no) from None
            raise ParseError(f"expected an integer, got {shown(tok)}", line_no) from None
    return out


def _terminated(tokens: list[str], line_no: int) -> list[int]:
    vals = _ints(tokens, line_no)
    if not vals or vals[-1] != 0:
        raise ParseError("line must end with 0", line_no)
    body = vals[:-1]
    if any(v == 0 for v in body):
        raise ParseError("0 may only appear as the line terminator", line_no)
    return body


def _undeclared(declared: dict[int, int], num_vars: int, listed: int = 5) -> str:
    """The first few variables of 1..num_vars not in declared, and how many.

    Walks only as far as the listed ones, so a header claiming a huge
    num_vars costs no more than the declarations the text actually has.
    """
    missing = num_vars - len(declared)
    first = list(itertools.islice((v for v in range(1, num_vars + 1) if v not in declared), listed))
    if missing <= listed:
        return str(first)
    return f"{str(first)[:-1]}, ...] ({shown(missing)} in all)"


# prefix sections must appear in this order; clauses come last
_STAGES = {"d": 0, "r": 1, "e": 2, "clause": 3}


def parse_instance(text: str) -> Problem:
    """Parse instance text into a :class:`Problem`.

    Raises :class:`ParseError` with a line diagnostic on any deviation
    from the format.
    """
    num_vars = num_clauses = None
    max_vars: list[int] = []
    deps: dict[int, list[int]] = {}
    dep_lines: dict[int, int] = {}
    count_vars: list[int] = []
    exist_vars: list[int] = []
    clauses: list[list[int]] = []
    declared: dict[int, int] = {}  # var -> line declaring it
    stage = -1

    def declare(v: int, line_no: int) -> None:
        if not 1 <= v <= num_vars:
            raise ParseError(f"variable {shown(v)} is outside 1..{shown(num_vars)}", line_no)
        if v in declared:
            raise ParseError(
                f"variable {shown(v)} already declared on line {declared[v]}", line_no
            )
        declared[v] = line_no

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if tokens[0] == "p":
            if num_vars is not None:
                raise ParseError("duplicate header", line_no)
            if len(tokens) != 4 or tokens[1] != "dqmscnf":
                raise ParseError("header must be `p dqmscnf <vars> <clauses>`", line_no)
            counts = _ints(tokens[2:], line_no)
            if counts[0] < 0 or counts[1] < 0:
                raise ParseError("header counts must be non-negative", line_no)
            num_vars, num_clauses = counts
            continue
        if num_vars is None:
            raise ParseError("header must come before any other line", line_no)

        kind = tokens[0] if tokens[0] in ("d", "r", "e") else "clause"
        if _STAGES[kind] < stage:
            raise ParseError(
                f"`{tokens[0]}` line out of order (sections go d, r, e, clauses)",
                line_no,
            )
        stage = _STAGES[kind]

        if kind == "d":
            body = _terminated(tokens[1:], line_no)
            if not body:
                raise ParseError("`d` line needs a variable", line_no)
            x, h = body[0], body[1:]
            if any(v <= 0 for v in body):
                raise ParseError("`d` line entries must be positive variables", line_no)
            if len(set(h)) != len(h) or x in h:
                raise ParseError(f"duplicate entry on `d` line for {shown(x)}", line_no)
            declare(x, line_no)
            for v in h:
                if not 1 <= v <= num_vars:
                    raise ParseError(f"variable {shown(v)} is outside 1..{shown(num_vars)}", line_no)
            max_vars.append(x)
            deps[x] = h
            dep_lines[x] = line_no
        elif kind in ("r", "e"):
            body = _terminated(tokens[1:], line_no)
            if any(v <= 0 for v in body):
                raise ParseError(f"`{kind}` line entries must be positive variables", line_no)
            for v in body:
                declare(v, line_no)
            (count_vars if kind == "r" else exist_vars).extend(body)
        else:
            if len(declared) != num_vars:
                raise ParseError(
                    f"clause appears before every variable is declared "
                    f"(missing {_undeclared(declared, num_vars)})",
                    line_no,
                )
            if len(clauses) == num_clauses:
                raise ParseError(f"more than {shown(num_clauses)} clauses", line_no)
            lits = _terminated(tokens, line_no)
            for lit in lits:
                if abs(lit) not in declared:
                    raise ParseError(f"literal {shown(lit)} mentions an undeclared variable", line_no)
            clauses.append(lits)

    last = len(text.splitlines()) or 1
    if num_vars is None:
        raise ParseError("missing `p dqmscnf` header", last)
    if len(declared) != num_vars:
        raise ParseError(f"variables {_undeclared(declared, num_vars)} never declared in the prefix", last)
    if not count_vars:
        raise ParseError("at least one `r` line is required", last)
    if len(clauses) != num_clauses:
        raise ParseError(
            f"expected {shown(num_clauses)} clauses, found {len(clauses)}", last
        )
    roles = set(count_vars) | set(exist_vars)
    for x in max_vars:
        stray = [v for v in deps[x] if v not in roles]
        if stray:
            raise ParseError(
                f"dependencies {stray} of {x} are not on any `r` or `e` line",
                dep_lines[x],
            )
    return Problem.of(Cnf.build(num_vars, clauses), max_vars, count_vars, exist_vars, deps)


def render_instance(problem: Problem) -> str:
    """Serialize a problem; ``parse_instance`` inverts this exactly.

    The format requires every variable to hold a role and at least one
    counting variable, so problems outside that shape are rejected.
    """
    n = problem.cnf.num_vars
    if not problem.count_vars:
        raise ValueError("the format requires at least one counting variable")
    covered = set(problem.max_vars) | problem.count_vars | problem.exist_vars
    if covered != set(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - covered)
        raise ValueError(f"variables {missing} have no role; cannot serialize")

    lines = [f"p dqmscnf {n} {len(problem.cnf.clauses)}"]
    for x in problem.max_vars:
        entries = " ".join(str(v) for v in (x, *sorted(problem.deps[x])))
        lines.append(f"d {entries} 0")
    lines.append("r " + " ".join(str(v) for v in sorted(problem.count_vars)) + " 0")
    if problem.exist_vars:
        lines.append("e " + " ".join(str(v) for v in sorted(problem.exist_vars)) + " 0")
    for clause in problem.cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"
