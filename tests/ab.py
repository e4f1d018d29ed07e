"""In-process A/B of two source trees on the benchmark's instances.

Loads the ``dqmaxsat`` package of each tree under its own name, so both
run in one process on the same inputs. It takes COUNT of the instances
that ``perfbench/workloads.py`` generates at SEED: the first COUNT, or
with ``--start N --stride K`` those at indices N, N+K, ..., so that one
family of a workload that interleaves several is timed alone. Each tree
runs one command on each instance REPEAT times through its own
``cli.main``, as the benchmark runs it: ``solve`` (or ``solve-program``)
``--json`` by default, or ``count``, or ``check`` with ``--op``; repeat
``--op`` to time several commands on both trees loaded once. Before timing ``check``, each
tree solves the instance once, untimed, and both check the parent's
document. The trees take turns, and which one goes first alternates from
instance to instance. Their outputs must be identical once ``wall_ms`` and
each iteration's ``elapsed_ms`` are dropped from solve documents; the
script stops at the first that differs. A tree's time on an instance is
its fastest run. The script prints, per workload, the median and quartiles
of the per-instance ratios change / parent, so below 1 means the change is
faster, and the tail: the largest ratio, and the median ratio over the
quarter of the instances that the parent ran slowest, one line per
workload and command. A second line gives each tree's p50, p90 and total
over those fastest times, the pool's own figures, which is what the
benchmark's ``solve_ms.p90`` and ``solves_per_s`` read; a gain on a
tenth of the instances moves them while the median ratio stays near 1:

    python3 tests/ab.py PARENT CHANGE --seed 4711 --count 40
    python3 tests/ab.py PARENT CHANGE --seed 4711 --count 40 --op count --op check --op solve
    python3 tests/ab.py PARENT CHANGE --seed 4711 --count 20 --start 1 --stride 2 \
        --workload incremental-probes

With ``--bundled`` the trees run the bundled instances that ``dqms
bench`` solves (``cli._SUITE``, read from CHANGE) the same way instead,
and the script prints each one's fastest run per tree and their ratio:

    python3 tests/ab.py PARENT CHANGE --bundled --repeat 5

With ``--hand-written`` they run the hand-written instances that
``tests/test_golden.py`` pins (``tests/hand_written.py``: the local paths
no benchmark instance takes, the residual games at widths 2 and 3
included) the same way:

    python3 tests/ab.py PARENT CHANGE --hand-written --repeat 5

PARENT and CHANGE are checkouts, each holding ``src/dqmaxsat``; make the
parent's with ``git archive``. A tree against a copy of itself shows how
far the host's noise alone moves the ratios.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from hand_written import HAND_WRITTEN

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SOLVES = ("solve", "solve-program")


def load_workloads():
    """perfbench/workloads.py, imported as it is rather than copied.

    The same loader as golden.py's, which this script cannot import:
    golden imports dqmaxsat itself, and here only the two trees' copies load.
    """
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(root: Path, name: str):
    """The cli module of the package under root/src/dqmaxsat, imported as package `name`."""
    package = root / "src" / "dqmaxsat"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run(cli, argv: list[str]) -> tuple[float, str]:
    """Milliseconds of one command, and what it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = cli.main(argv)
        ms = (time.perf_counter() - t0) * 1000.0
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {code}")
    return ms, out.getvalue()


def masked(argv: list[str], text: str) -> object:
    """A solve's document without its timings; any other output as it is."""
    if argv[0] not in SOLVES:
        return text
    doc = json.loads(text)
    del doc["wall_ms"]
    for record in doc.get("iterations", ()):
        del record["elapsed_ms"]
    return doc


def compare(trees: dict, instances, directory: Path, repeat: int,
            op: str) -> list[tuple[float, float]]:
    """Per instance, the parent's fastest run of op in ms and the ratio change / parent of the fastest runs."""
    pairs = []
    for k, inst in enumerate(instances):
        path = directory / (inst.name + inst.suffix)
        path.write_text(inst.text)
        argv = ["solve-program" if inst.suffix == ".atk" else "solve", str(path), "--json"]
        if op == "count":
            argv = ["count", str(path)]
        elif op == "check":
            docs = {name: run(trees[name], argv)[1] for name in trees}
            if masked(argv, docs["parent"]) != masked(argv, docs["change"]):
                raise SystemExit(f"{inst.name}: the solve documents differ")
            doc_path = directory / (inst.name + ".json")
            doc_path.write_text(docs["parent"])
            argv = ["check", str(path), str(doc_path)]
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        best = {name: float("inf") for name in order}
        outputs = {}
        for _ in range(repeat):
            for name in order:
                ms, outputs[name] = run(trees[name], argv)
                best[name] = min(best[name], ms)
        if masked(argv, outputs["parent"]) != masked(argv, outputs["change"]):
            raise SystemExit(f"{inst.name}: the {op} outputs differ")
        pairs.append((best["parent"], best["change"] / best["parent"]))
    return pairs


def spread(times: list[float]) -> str:
    """p50, p90 and total of per-instance times in ms."""
    deciles = statistics.quantiles(times, n=10) if len(times) > 1 else times * 9
    return f"p50 {deciles[4]:.2f}, p90 {deciles[8]:.2f}, total {sum(times):.1f} ms"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run one command on the benchmark's instances with two source trees in "
                    "one process and print the per-instance time ratios change / parent per "
                    "workload, or each instance's ratio with --bundled or --hand-written.")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--count", type=int)
    ap.add_argument("--bundled", action="store_true",
                    help="time the bundled instances instead of the benchmark's")
    ap.add_argument("--hand-written", action="store_true",
                    help="time the hand-written instances instead of the benchmark's")
    ap.add_argument("--op", choices=("count", "solve", "check"), action="append",
                    help="a command to time; repeat for more (default solve)")
    ap.add_argument("--repeat", type=int, default=3, help="runs per tree and instance (default 3)")
    ap.add_argument("--workload", action="append", help="one workload; repeat for more (default all)")
    ap.add_argument("--start", type=int, default=0, help="index of the first instance (default 0)")
    ap.add_argument("--stride", type=int, default=1,
                    help="step between the indices of the instances timed (default 1)")
    args = ap.parse_args(argv)
    if args.bundled and args.hand_written:
        ap.error("--bundled and --hand-written exclude each other")
    if not (args.bundled or args.hand_written) and (args.seed is None or args.count is None):
        ap.error("--seed and --count are required without --bundled or --hand-written")
    if args.start < 0 or args.stride < 1:
        ap.error("--start must be at least 0 and --stride at least 1")
    ops = args.op or ["solve"]
    trees = {name: load_tree(root, f"ab_{name}")
             for name, root in (("parent", args.parent), ("change", args.change))}
    if args.bundled or args.hand_written:
        if args.bundled:
            base = args.change / "src" / "dqmaxsat" / "bench"
            listed = [SimpleNamespace(name=Path(fname).stem, suffix=Path(fname).suffix,
                                      text=(base / fname).read_text())
                      for fname in trees["change"]._SUITE]
        else:
            listed = [SimpleNamespace(name=name, suffix=suffix, text=text)
                      for name, (suffix, text) in HAND_WRITTEN.items()]
        for op in ops:
            with tempfile.TemporaryDirectory() as d:
                pairs = compare(trees, listed, Path(d), args.repeat, op)
            for inst, (parent_ms, ratio) in zip(listed, pairs):
                print(f"{inst.name} {op}: parent {parent_ms:.1f} ms, "
                      f"change {parent_ms * ratio:.1f} ms, ratio {ratio:.3f}")
        return 0
    workloads = load_workloads()
    for workload in args.workload or workloads.WORKLOADS:
        indices = range(args.start, args.start + args.count * args.stride, args.stride)
        instances = [workloads.make_instance(workload, args.seed, i) for i in indices]
        for op in ops:
            with tempfile.TemporaryDirectory() as d:
                pairs = compare(trees, instances, Path(d), args.repeat, op)
            ratios = [ratio for _, ratio in pairs]
            q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
            slowest = sorted(pairs, reverse=True)[:max(1, len(pairs) // 4)]
            tail = statistics.median(ratio for _, ratio in slowest)
            print(f"{workload} {op}: median {median:.3f} [{q1:.3f}, {q3:.3f}], "
                  f"max {max(ratios):.3f}, slowest quarter {tail:.3f} over {len(ratios)} instances")
            print(f"  parent {spread([ms for ms, _ in pairs])}; "
                  f"change {spread([ms * ratio for ms, ratio in pairs])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
