"""In-process A/B of two source trees on the benchmark's instances.

Loads the ``dqmaxsat`` package of each tree under its own name, so both
run in one process on the same inputs. For each of the first COUNT
instances that ``perfbench/workloads.py`` generates at SEED, each tree
solves it REPEAT times through its own ``cli.main`` (``solve`` or
``solve-program --json``, as the benchmark runs it). The trees take turns,
and which one goes first alternates from instance to instance. Their
documents must be identical once ``wall_ms`` and each iteration's
``elapsed_ms`` are dropped; the script stops at the first that differs. A
tree's time on an instance is its fastest solve. The script prints, per
workload, the median and quartiles of the per-instance ratios change /
parent, so below 1 means the change is faster, and the tail: the largest
ratio, and the median ratio over the quarter of the instances that the
parent solved slowest:

    python3 tests/ab.py PARENT CHANGE --seed 4711 --count 40

With ``--bundled`` the trees solve the bundled instances that ``dqms
bench`` solves (``cli._SUITE``, read from CHANGE) the same way instead,
and the script prints each one's fastest solve per tree and their ratio:

    python3 tests/ab.py PARENT CHANGE --bundled --repeat 5

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

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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


def solve(cli, argv: list[str]) -> tuple[float, dict]:
    """Milliseconds of one solve command, and its document without the timings."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        code = cli.main(argv)
        ms = (time.perf_counter() - t0) * 1000.0
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {code}")
    doc = json.loads(out.getvalue())
    del doc["wall_ms"]
    for record in doc.get("iterations", ()):
        del record["elapsed_ms"]
    return ms, doc


def compare(trees: dict, instances, directory: Path, repeat: int) -> list[tuple[float, float]]:
    """Per instance, the parent's fastest solve in ms and the ratio change / parent of the fastest solves."""
    pairs = []
    for k, inst in enumerate(instances):
        path = directory / (inst.name + inst.suffix)
        path.write_text(inst.text)
        argv = ["solve-program" if inst.suffix == ".atk" else "solve", str(path), "--json"]
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        best = {name: float("inf") for name in order}
        docs = {}
        for _ in range(repeat):
            for name in order:
                ms, docs[name] = solve(trees[name], argv)
                best[name] = min(best[name], ms)
        if docs["parent"] != docs["change"]:
            raise SystemExit(f"{inst.name}: the documents differ")
        pairs.append((best["parent"], best["change"] / best["parent"]))
    return pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Solve the benchmark's instances with two source trees in one process "
                    "and print the per-instance time ratios change / parent per workload, "
                    "or each bundled instance's ratio with --bundled.")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--count", type=int)
    ap.add_argument("--bundled", action="store_true",
                    help="time the bundled instances instead of the benchmark's")
    ap.add_argument("--repeat", type=int, default=3, help="solves per tree and instance (default 3)")
    ap.add_argument("--workload", action="append", help="one workload; repeat for more (default all)")
    args = ap.parse_args(argv)
    if not args.bundled and (args.seed is None or args.count is None):
        ap.error("--seed and --count are required without --bundled")
    trees = {name: load_tree(root, f"ab_{name}")
             for name, root in (("parent", args.parent), ("change", args.change))}
    if args.bundled:
        base = args.change / "src" / "dqmaxsat" / "bench"
        bundled = [SimpleNamespace(name=Path(fname).stem, suffix=Path(fname).suffix,
                                   text=(base / fname).read_text())
                   for fname in trees["change"]._SUITE]
        with tempfile.TemporaryDirectory() as d:
            pairs = compare(trees, bundled, Path(d), args.repeat)
        for inst, (parent_ms, ratio) in zip(bundled, pairs):
            print(f"{inst.name}: parent {parent_ms:.1f} ms, change {parent_ms * ratio:.1f} ms, "
                  f"ratio {ratio:.3f}")
        return 0
    workloads = load_workloads()
    for workload in args.workload or workloads.WORKLOADS:
        instances = [workloads.make_instance(workload, args.seed, i) for i in range(args.count)]
        with tempfile.TemporaryDirectory() as d:
            pairs = compare(trees, instances, Path(d), args.repeat)
        ratios = [ratio for _, ratio in pairs]
        q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        slowest = sorted(pairs, reverse=True)[:max(1, len(pairs) // 4)]
        tail = statistics.median(ratio for _, ratio in slowest)
        print(f"{workload}: median {median:.3f} [{q1:.3f}, {q3:.3f}], max {max(ratios):.3f}, "
              f"slowest quarter {tail:.3f} over {len(ratios)} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
