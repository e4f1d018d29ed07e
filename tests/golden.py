"""Digests of the count, solve and check outputs of one instance.

``digest`` runs ``count``, ``solve``/``solve-program --json`` and
``check`` through ``cli.main`` and returns the sha256 of the three outputs.
The timings ``wall_ms`` and each iteration's ``elapsed_ms`` are zeroed
before hashing; everything else counts, key order and layout included.
``tests/test_golden.py`` pins such digests.

Run as a script, it prints one sha256 per benchmark workload, over the
digests of the first COUNT instances that ``perfbench/workloads.py``
generates at SEED. Two trees whose programs print the same bytes print the
same lines:

    PYTHONPATH=src python3 tests/golden.py --seed 4711 --count 40

With ``--cells`` it prints one sha256 per workload over every projected
enumeration that count, solve and check run on those instances instead:
for each call of ``enumerate_projected`` as ``oracle`` and ``counting``
import it, the sorted projection, the count and the cells in the order
visited. Two trees that enumerate the same cells in the same order print
the same lines:

    PYTHONPATH=src python3 tests/golden.py --seed 4711 --count 40 --cells

With ``--bundled`` it prints one sha256 over the digests of the bundled
instances that ``dqms bench`` solves (``cli._SUITE``) instead. That takes
about 1.5 s, most of it in capacity6 and capacity:

    PYTHONPATH=src python3 tests/golden.py --bundled

With ``--paper`` it prints one sha256 per game of ``tests/paper_games.py``
(the paper's games at their real size), each the digest of its outputs,
or that it timed out: each game gets ``--timeout`` seconds (60 by
default) for its count, solve and check together. ``--game NAME``,
repeated for more, prints only the games named:

    PYTHONPATH=src python3 tests/golden.py --paper --timeout 120
    PYTHONPATH=src python3 tests/golden.py --paper --game three_probe_leak

With ``--formula`` it prints no digest but the size of each workload's
formulas: the median number of variables, clauses and clauses of two or
more literals over the first COUNT instances, as loaded and after
``formula.eliminate_unseen``:

    PYTHONPATH=src python3 tests/golden.py --seed 4711 --count 40 --formula
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
from importlib import resources
from pathlib import Path
from unittest import mock

from ab import TimedOut, time_limit
from dqmaxsat import cli, counting, oracle
from dqmaxsat.formula import eliminate_unseen
from paper_games import PAPER

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    """perfbench/workloads.py, imported as it is rather than copied."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {code}")
    return out.getvalue()


def _masked(document: str) -> str:
    doc = json.loads(document)
    doc["wall_ms"] = 0
    for record in doc.get("iterations", ()):
        record["elapsed_ms"] = 0
    return json.dumps(doc, indent=2)


def digest(directory: Path, name: str, suffix: str, text: str) -> str:
    """The sha256 of one instance's outputs; its files go into `directory`."""
    path = directory / (name + suffix)
    path.write_text(text)
    solve = "solve-program" if suffix == ".atk" else "solve"
    counted = _run(["count", str(path)])
    document = _run([solve, str(path), "--json"])
    doc_path = directory / (name + ".json")
    doc_path.write_text(document)
    checked = _run(["check", str(path), str(doc_path)])
    return hashlib.sha256("\n".join([counted, _masked(document), checked]).encode()).hexdigest()


@contextlib.contextmanager
def recorded_enumerations():
    """Every enumerate_projected call that oracle and counting make, in order.

    Yields a list that gets (sorted projection, count, cells in visit
    order) for each call.
    """
    calls = []
    real = oracle.enumerate_projected

    def recording(f, proj, visit=None):
        cells = []

        def seen(cell):
            cells.append(cell)
            if visit is not None:
                visit(cell)

        count = real(f, proj, visit=seen)
        calls.append((sorted(set(proj)), count, cells))
        return count

    with mock.patch.object(oracle, "enumerate_projected", recording), \
            mock.patch.object(counting, "enumerate_projected", recording):
        yield calls


def bundled_digest() -> str:
    """One sha256 over the digests of the bundled instances, in suite order."""
    base = resources.files("dqmaxsat").joinpath("bench")
    with tempfile.TemporaryDirectory() as d:
        digests = [digest(Path(d), Path(fname).stem, Path(fname).suffix,
                          base.joinpath(fname).read_text())
                   for fname in cli._SUITE]
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def formula_sizes(problems) -> str:
    """Median variables, clauses and non-unit clauses, as loaded and reduced."""
    loaded = [p.cnf for p in problems]
    reduced = [eliminate_unseen(p).cnf for p in problems]

    def median(values) -> str:
        return f"{statistics.median(values):g}"

    def clauses(cnfs) -> str:
        return (f"{median([len(f.clauses) for f in cnfs])} clauses, "
                f"{median([sum(len(c) > 1 for c in f.clauses) for f in cnfs])} non-unit")

    return (f"{median([f.num_vars for f in loaded])} variables; "
            f"loaded {clauses(loaded)}; reduced {clauses(reduced)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Print one sha256 per benchmark workload over its first COUNT instances, "
                    "or over their projected enumerations with --cells, "
                    "or one over the bundled instances with --bundled, "
                    "or one per paper game with --paper; "
                    "or the median formula sizes per workload with --formula.")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--count", type=int)
    ap.add_argument("--cells", action="store_true")
    ap.add_argument("--bundled", action="store_true")
    ap.add_argument("--formula", action="store_true")
    ap.add_argument("--paper", action="store_true")
    ap.add_argument("--game", action="append", choices=list(PAPER),
                    help="with --paper, one game to print; repeat for more (default all)")
    ap.add_argument("--timeout", type=float, default=60.0,
                    help="seconds per game with --paper before it is stopped (default 60)")
    args = ap.parse_args(argv)
    if args.game and not args.paper:
        ap.error("--game applies to --paper")
    if args.bundled:
        print("bundled", bundled_digest())
        return 0
    if args.paper:
        for name in args.game or PAPER:
            suffix, text = PAPER[name]
            with tempfile.TemporaryDirectory() as d:
                try:
                    with time_limit(args.timeout):
                        shown = digest(Path(d), name, suffix, text)
                except TimedOut:
                    shown = f"timed out after {args.timeout:g} s"
            print(name, shown, flush=True)
        return 0
    if args.seed is None or args.count is None:
        ap.error("--seed and --count are required without --bundled or --paper")
    workloads = load_workloads()
    if args.formula:
        for workload in workloads.WORKLOADS:
            problems = [cli.load_instance_text(workloads.make_instance(workload, args.seed, i).text)[0]
                        for i in range(args.count)]
            print(workload, formula_sizes(problems))
        return 0
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as d, recorded_enumerations() as calls:
            digests = [digest(Path(d), inst.name, inst.suffix, inst.text)
                       for inst in (workloads.make_instance(workload, args.seed, i)
                                    for i in range(args.count))]
        text = repr(calls) if args.cells else "\n".join(digests)
        print(workload, hashlib.sha256(text.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
