"""Command line front end.

Subcommands:

    solve          solve a prefixed-CNF instance file
    solve-program  bitblast and solve an attacker program
    check          recount a result document and compare its other claims
    count          ceiling count: counted assignments reachable at all
    bench          run the bundled instance suite and print a table

``solve`` and ``solve-program`` print a human-readable summary by default
and a machine-readable result document with ``--json``.  Every emitted
result is recounted from scratch first, on the problem as loaded rather
than the reduced one a local or global solve runs on (``run_method``); a
result that fails its own verification never reaches stdout.

``solve`` and ``solve-program`` take the same options: ``--method``
(``auto`` by default, else ``global``, ``incremental`` or ``local``),
``--budget``, which caps the selectors of ``global`` or the iterations of
``incremental`` and which the ``local`` method refuses, ``--json`` and
``--trace``. ``bench`` takes ``--json`` only.

Exit codes: 0 success, 1 solver or verification failure, 2 usage or
input-format error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

from .bitvec import BitMap, LiftedFunction, ProgramError, encode, lift, parse_program
from .counting import VerificationMismatch, check_solution, count_projected
from .dimacs import ParseError, parse_instance, shown
from .formula import DependencyViolation, MintermFunction, Problem, Solution, eliminate_unseen
from .incremental import run as run_incremental
from .local import NoEligibleVariable, plan_split, shared_variables, solve_local
from .oracle import ChainTable, row_bounded
from .reduction import BudgetExceeded, solve_global

_METHODS = ("global", "incremental", "local")

_SUITE = (
    "copy_or_and.dqm",
    "two_implications.dqm",
    "copy_or.dqm",
    "sum_reach_3.atk",
    "sum_reach_4.atk",
    "capacity6.atk",
    "guessbits.atk",
    "capacity.atk",
)


class DocumentError(ValueError):
    """A result document is structurally unusable, or an input file is not text."""


class UsageError(ValueError):
    """An option was given to a method that does not take it."""


def load_instance_text(text: str, assume: Optional[str] = None) -> tuple[Problem, Optional[BitMap]]:
    """Build a problem from either input dialect.

    assume forces a dialect ("dqmscnf" or "program"); otherwise the text is
    sniffed: a `p` header means prefixed CNF, anything else is a program.
    """
    if assume is None:
        assume = "program"
        for line in text.splitlines():
            tokens = line.split()
            if not tokens or tokens[0] in ("c", "#"):
                continue
            if tokens[0] == "p":
                assume = "dqmscnf"
            break
    if assume == "dqmscnf":
        return parse_instance(text), None
    return encode(parse_program(text))


def _read_text(path: str) -> str:
    """The file's text without a leading byte-order mark; DocumentError when not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_path(path: str, assume: Optional[str] = None) -> tuple[Problem, Optional[BitMap]]:
    if assume is None:
        if path.endswith(".dqm"):
            assume = "dqmscnf"
        elif path.endswith(".atk"):
            assume = "program"
    return load_instance_text(_read_text(path), assume)


def choose_method(problem: Problem, table: Optional[ChainTable] = None) -> str:
    """Pick the cheapest applicable method: local when a split exists (read off table, if given)."""
    try:
        plan_split(problem, table)
        return "local"
    except NoEligibleVariable:
        return "incremental"


def run_method(
    problem: Problem,
    method: str = "auto",
    budget: Optional[int] = None,
    on_iteration: Optional[Callable] = None,
) -> tuple[Solution, str, Optional[list]]:
    """Dispatch one solve; returns (solution, method used, iteration records).

    The local and global methods solve eliminate_unseen(problem), reduced
    once here, before an auto solve chooses; the functions read only
    dependency variables, which it keeps, and callers recount them on
    problem as given, so a fault in it cannot reach a printed answer.
    Within the row bound (oracle.row_bounded) an auto or local solve's one
    ChainTable is built here too, whose selectors fit the default budget:
    its rows answer the choice's dependence checks and the solve's. The
    incremental method, and an auto solve whose choosers share no variable,
    solve problem as given (ROADMAP item 7 says why). budget caps the
    selectors of global or the iterations of incremental; local takes none
    and raises UsageError when given one, also when auto picked it.
    """
    reducible = method in ("global", "local") or (method == "auto" and shared_variables(problem))
    reduced = eliminate_unseen(problem) if reducible else problem
    table = ChainTable(reduced) if reducible and method != "global" and row_bounded(reduced) else None
    if method == "auto":
        method = choose_method(reduced, table)
    if method == "local" and budget is not None:
        raise UsageError("--budget applies to the global and incremental methods, not to local")
    iterations = None
    if method == "global":
        solution = solve_global(reduced) if budget is None else solve_global(reduced, budget)
    elif method == "incremental":
        iterations = []

        def note(rec):
            iterations.append(rec)
            if on_iteration is not None:
                on_iteration(rec)

        solution = run_incremental(problem, budget=budget, on_iteration=note)
    elif method == "local":
        solution = solve_local(table or reduced)
    else:
        raise ValueError(f"unknown method {method!r}")
    return solution, method, iterations


def _bit_texts(problem: Problem, bitmap: Optional[BitMap],
               lifted: Optional[tuple[LiftedFunction, ...]]) -> dict[int, dict[str, str]]:
    """Per chooser, the label and lifted text of its document entry; none without a bitmap."""
    texts = {x: {} if bitmap is None else {"label": bitmap.bit_label(x)} for x in problem.max_vars}
    for fn in lifted or ():
        for var, text in zip(reversed(bitmap.bits[fn.name]), fn.bit_texts):
            texts[var]["lifted"] = text
    return texts


def result_document(
    problem: Problem,
    solution: Solution,
    method: str,
    wall_ms: float,
    iterations: Optional[list] = None,
    bitmap: Optional[BitMap] = None,
    lifted: Optional[tuple[LiftedFunction, ...]] = None,
) -> dict:
    """Self-contained record of one solve, the unit `check` consumes.

    For a program, bitmap labels the bits and lifted is
    lift(solution, bitmap), which the caller computes once for the
    document and the text summary alike.
    """
    texts = _bit_texts(problem, bitmap, lifted)
    functions = {}
    for x in problem.max_vars:
        f = solution.functions[x]
        functions[str(x)] = {
            "support": [int(v) for v in f.support],
            "minterms": sorted(sorted(m, key=abs) for m in f.minterms),
            **texts[x],
        }
    doc = {
        "count": solution.achieved_count,
        "total": solution.total,
        "ratio": solution.achieved_count / solution.total,
        "method": method,
        "wall_ms": round(wall_ms, 3),
        "functions": functions,
    }
    if iterations is not None:
        doc["iterations"] = [rec.as_dict() for rec in iterations]
    return doc


def _integer(value: object) -> int:
    """A JSON integer of a result document: bools and floats are not."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {type(value).__name__}")
    return value


def solution_from_document(doc: dict) -> Solution:
    """Rebuild the claimed solution; raises DocumentError when unusable."""
    try:
        functions = {}
        for key, entry in doc["functions"].items():
            var = int(key)
            if key != str(var):
                raise ValueError(f"function key {shown(key)} is not a variable number")
            minterms = [[_integer(lit) for lit in m] for m in entry["minterms"]]
            functions[var] = MintermFunction.of([_integer(v) for v in entry["support"]], minterms)
            if len(functions[var].minterms) != len(minterms):
                raise ValueError(f"function {key} repeats a minterm")
        return Solution(functions, _integer(doc["count"]), _integer(doc["total"]))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DocumentError(f"unusable result document: {exc}") from exc


def _emit(doc: dict, problem: Problem, solution: Solution,
          lifted: Optional[tuple[LiftedFunction, ...]], as_json: bool) -> None:
    """Print the document, or a summary; lifted is None unless the input was a program."""
    if as_json:
        print(json.dumps(doc, indent=2))
        return
    print(f"count {doc['count']} of {doc['total']} (ratio {doc['ratio']:.6g})")
    print(f"method {doc['method']}, {doc['wall_ms']:.1f} ms")
    if lifted is not None:
        for fn in lifted:
            print(fn.rendered)
    else:
        for x in problem.max_vars:
            f = solution.functions[x]
            if not f.support:
                body = "true" if f.minterms else "false"
            elif not f.minterms:
                body = "false"
            else:
                body = " | ".join(
                    "(" + " ".join(str(lit) for lit in m) + ")"
                    for m in sorted(f.minterms)
                )
            print(f"{x} over {tuple(f.support)}: {body}")


def _trace_printer(rec) -> None:
    d = rec.as_dict()
    what = "base solve" if d["expanded_var"] is None else f"split {d['expanded_var']} on {d['expanded_on']}"
    print(
        f"  iteration {d['iteration']}: {what}, count {d['count']}, {d['elapsed_ms']:.1f} ms",
        file=sys.stderr,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    assume = "program" if args.command == "solve-program" else "dqmscnf"
    problem, bitmap = _load_path(args.file, assume)
    t0 = time.perf_counter()
    solution, method, iterations = run_method(
        problem,
        method=args.method,
        budget=args.budget,
        on_iteration=_trace_printer if args.trace else None,
    )
    wall_ms = (time.perf_counter() - t0) * 1000.0
    check_solution(problem, solution)
    lifted = None if bitmap is None else lift(solution, bitmap)
    doc = result_document(problem, solution, method, wall_ms, iterations, bitmap, lifted)
    _emit(doc, problem, solution, lifted, args.json)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    problem, bitmap = _load_path(args.instance)
    text = _read_text(args.result)  # outside the try: DocumentError is a ValueError
    try:
        doc = json.loads(text)
    except RecursionError:
        raise DocumentError("result document is nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # json's own, for more digits than int() converts
        raise DocumentError("result document has an integer too long to read") from None
    solution = solution_from_document(doc)
    keys, choosers = set(solution.functions), set(problem.max_vars)
    if keys != choosers:
        raise DocumentError(
            "document functions do not match the instance's choosers: "
            f"extra {sorted(keys - choosers)}, missing {sorted(choosers - keys)}"
        )
    if doc.get("method") not in _METHODS:
        raise DocumentError(f"result document names no method of {', '.join(_METHODS)}")
    count = check_solution(problem, solution)
    ratio = count / problem.total
    if doc.get("ratio") != ratio:
        raise VerificationMismatch(f"claimed ratio {shown(doc.get('ratio'))}, recount gives {ratio}")
    texts = _bit_texts(problem, bitmap, None if bitmap is None else lift(solution, bitmap))
    for x in problem.max_vars:
        entry = doc["functions"][str(x)]
        for field in ("label", "lifted"):
            if entry.get(field) != texts[x].get(field):
                raise VerificationMismatch(
                    f"function {x}: {field} {shown(entry.get(field))} is not the recounted function's")
    print(f"ok: {count} of {problem.total} confirmed")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    problem, _ = _load_path(args.file)
    n = count_projected(problem.cnf, problem.count_vars)
    print(f"{n} of {problem.total}")
    return 0


def bench_rows(on_row: Optional[Callable[[dict], None]] = None) -> list[dict]:
    """Solve every bundled instance with the auto method; verify each result.

    Rows carry the instance shape (inputs, counted, existential, clauses),
    the verified count, the method used, and the wall time.
    """
    rows = []
    base = resources.files("dqmaxsat").joinpath("bench")
    for fname in _SUITE:
        text = base.joinpath(fname).read_text()
        assume = "dqmscnf" if fname.endswith(".dqm") else "program"
        problem, _ = load_instance_text(text, assume)
        t0 = time.perf_counter()
        solution, method, _ = run_method(problem, method="auto")
        wall_ms = (time.perf_counter() - t0) * 1000.0
        check_solution(problem, solution)
        row = {
            "name": fname.rsplit(".", 1)[0],
            "num_inputs": len(problem.max_vars),
            "num_counted": len(problem.count_vars),
            "num_exist": len(problem.exist_vars),
            "num_clauses": len(problem.cnf.clauses),
            "count": solution.achieved_count,
            "total": solution.total,
            "method": method,
            "wall_ms": round(wall_ms, 1),
        }
        rows.append(row)
        if on_row is not None:
            on_row(row)
    return rows


_BENCH_HEADER = f"{'instance':<18} {'|X|':>4} {'|Y|':>4} {'|Z|':>4} {'|phi|':>6} {'count':>12} {'method':<12} {'ms':>9}"


def _format_row(row: dict) -> str:
    frac = f"{row['count']}/{row['total']}"
    return (
        f"{row['name']:<18} {row['num_inputs']:>4} {row['num_counted']:>4} "
        f"{row['num_exist']:>4} {row['num_clauses']:>6} {frac:>12} "
        f"{row['method']:<12} {row['wall_ms']:>9.1f}"
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.json:
        rows = bench_rows()
        print(json.dumps(rows, indent=2))
        return 0
    print(_BENCH_HEADER)

    def show(row: dict) -> None:
        print(_format_row(row), flush=True)

    rows = bench_rows(on_row=show)
    print(f"{len(rows)} instances, {sum(r['wall_ms'] for r in rows) / 1000.0:.1f} s total")
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and reused by main."""
    ap = argparse.ArgumentParser(
        prog="dqms",
        description="Synthesize per-variable strategies maximizing a projected model count.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, help_ in (("solve", "solve a prefixed-CNF instance (.dqm)"),
                        ("solve-program", "bitblast and solve an attacker program (.atk)")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("file")
        sp.add_argument("--method", choices=("auto",) + _METHODS, default="auto",
                        help="auto splits locally when possible, otherwise runs incremental")
        sp.add_argument("--budget", type=_positive_int, default=None,
                        help="selector budget (global) or iteration cap (incremental); local takes none")
        sp.add_argument("--json", action="store_true", help="emit a result document")
        sp.add_argument("--trace", action="store_true", help="log incremental iterations to stderr")
        sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("check", help="re-verify a result document against its instance")
    sp.add_argument("instance")
    sp.add_argument("result")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("count", help="counted assignments reachable with every variable free")
    sp.add_argument("file")
    sp.set_defaults(fn=_cmd_count)

    sp = sub.add_parser("bench", help="solve the bundled suite and print a table")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_bench)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (ParseError, ProgramError, DocumentError, UsageError, json.JSONDecodeError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (VerificationMismatch, DependencyViolation, BudgetExceeded,
            NoEligibleVariable, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
