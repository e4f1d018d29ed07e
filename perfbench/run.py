"""Benchmark: time to a verified answer from the ``dqms`` command line.

Usage, from the root of a checkout (no build step; the package is imported
from ``src``):

    python3 perfbench/run.py --workload local-reach --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One process, one client, closed loop: the benchmark calls
``dqmaxsat.cli.main`` in-process on files it wrote during set-up and
starts the next call when the previous one has returned. Each instance gets
``count``, then ``solve``/``solve-program --json``, then ``check`` on the
document the solve printed. The workloads, all generated from ``--seed``
(see ``workloads.py``):

    local-reach         sum/difference reach games; ``auto`` picks local,
                        whose leaf pool runs one worker (see ``main``)
    incremental-probes  threshold-probe leak games and offset-guess reach
                        games; ``auto`` picks incremental
    count-dqm           random prefixed CNF with 2-3 choosers seeing 0-1
                        variables

Every output is checked after the timed loop against the independent
references of ``reference.py``, so their cost stays out of every metric.

With ``--trace 0`` the last line reports the end-to-end metrics: solve time
per call (p50, p90), verified solves per second of loop time, count and
check time per call (p50), peak resident memory, and set-up time (median of
several set-ups, each a fresh import of the package plus generating all
inputs; writing them out follows, untimed). With ``--trace 1`` the loop
runs untraced for part of the time, then the same instances again with
spans recorded around the package's layers (``spans.py``); the last line
reports per-layer metrics
per instance (one count, one solve and one check) and the tracing overhead.
A run writes its full report, with the shape and digest of every instance
it used, under ``.perfbench/``, and a traced run also every span.

Every reported time is scaled to a nominal host speed by the calibration
kernel of ``calibrate.py``, timed every half second between rounds and
after each set-up, on the same CPU: each round's and each set-up's time
by the kernel's median over the five timings nearest it, and per-layer
times by the loop's median factor. The report keeps the raw metrics and the
factors. The process is pinned to one CPU, so the kernel measures the CPU
the program ran on.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import reference  # noqa: E402
from spans import Tracer, analyze  # noqa: E402
from workloads import WORKLOADS, make_instance  # noqa: E402

SETUP_REPEATS = 15
# instances written per run: more than a run gets through, so none repeats
POOL = 300
# share of a traced run spent untraced; the traced replay takes the rest
UNTRACED_SHARE = 0.45
# loop time between two timings of the calibration kernel
CALIBRATE_EVERY_S = 0.5
OPS = ("count", "solve", "check")

END_TO_END = {
    "solve_ms.p50": "ms",
    "solve_ms.p90": "ms",
    "solves_per_s": "1/s",
    "count_ms.p50": "ms",
    "check_ms.p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per instance unless named a ratio or a maximum
PER_LAYER = {
    "dimacs.parse_instance.ms": "ms",
    "bitvec.encode.ms": "ms",
    "cli.choose_method.ms": "ms",
    "local.plan_split.calls": "count",
    "local.plan_split.ms": "ms",
    "local.functionally_dependent.calls": "count",
    "local.functionally_dependent.ms": "ms",
    "local.leaves": "count",
    "local.leaf_cpu_over_wall": "ratio",
    "local.pool_union_ms": "ms",
    "local.pool_thread_ms": "ms",
    "reduction.build_reduction.ms": "ms",
    "reduction.selectors.max": "count",
    "incremental.expand.calls": "count",
    "incremental.expand.ms": "ms",
    "incremental.objective_clauses.max": "count",
    "incremental.filter_clauses.max": "count",
    "oracle.max_count.calls": "count",
    "oracle.max_count.ms": "ms",
    "oracle.max_count.self_ms": "ms",
    "oracle.satisfiable_per_max_count": "ratio",
    "engine.satisfiable.calls": "count",
    "engine.satisfiable.ms": "ms",
    "engine.satisfiable.sat_ratio": "ratio",
    "engine.enumerate_projected.calls": "count",
    "engine.enumerate_projected.ms": "ms",
    "engine.enumerate_projected.models": "count",
    "engine.solve.calls": "count",
    "counting.check_solution.calls": "count",
    "counting.check_solution.ms": "ms",
    "bitvec.lift.ms": "ms",
    "cli.result_document.ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}


def setup(workload: str, seed: int):
    """Import the package afresh and generate the inputs: the timed set-up.

    Returns the imported modules by short name and the instances; the last
    instance is the warm-up, solved before timing starts.
    """
    for name in [m for m in sys.modules if m == "dqmaxsat" or m.startswith("dqmaxsat.")]:
        del sys.modules[name]
    importlib.import_module("dqmaxsat")
    modules = {
        short: sys.modules[f"dqmaxsat.{short}"]
        for short in ("cli", "local", "reduction", "incremental", "oracle", "counting", "engine")
    }
    return modules, [make_instance(workload, seed, index) for index in range(POOL + 1)]


def write_inputs(instances, workdir: Path) -> list[tuple]:
    """Write every instance into a fresh `workdir`; returns (instance, path) pairs.

    Not part of the timed set-up: on a 2-vCPU VM, writing the 301 files
    went from 10 to 200 ms over five minutes of rewriting them, while the
    import and the generators kept a steady ratio to the calibration kernel.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pairs = []
    for inst in instances:
        path = workdir / (inst.name + inst.suffix)
        path.write_text(inst.text)
        pairs.append((inst, path))
    return pairs


def _call(main, argv: list[str]) -> tuple[object, float, str, str]:
    """Run one command; returns (exit code or error text, ms, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # the loop must go on; the round is counted as failed
            code = "raised"
            err.write(traceback.format_exc())
        ms = (time.perf_counter() - t0) * 1000.0
    return code, ms, out.getvalue(), err.getvalue()


def run_round(mains: dict, inst, path: Path) -> list[tuple]:
    """count, solve, check on one instance; one (op, code, ms, out, err) per command.

    mains maps each of the three operations to the entry point to call.
    """
    solve = "solve-program" if inst.suffix == ".atk" else "solve"
    doc_path = path.with_suffix(".json")
    count = ("count",) + _call(mains["count"], ["count", str(path)])
    solved = ("solve",) + _call(mains["solve"], [solve, str(path), "--json"])
    doc_path.write_text(solved[3])
    check = ("check",) + _call(mains["check"], ["check", str(path), str(doc_path)])
    return [count, solved, check]


def timed_loop(mains, pairs, seconds: float, calibration: list[float],
               rounds: Optional[int] = None) -> tuple[list, list[tuple[float, int]]]:
    """Rounds over the pool, at least one, until `seconds` have passed or `rounds` are done.

    Times the calibration kernel after a round whenever CALIBRATE_EVERY_S
    have passed since the last timing, appending to `calibration`; the
    kernel's time does not count towards `seconds`. Returns the records and,
    per record, its wall time in seconds and the number of kernel timings
    in `calibration` before it.
    """
    records, timing = [], []
    loop_s = 0.0
    last = time.perf_counter()
    while True:
        if rounds is not None:
            if len(records) == rounds:
                break
        elif records and loop_s >= seconds:
            break
        index = len(records) % POOL
        t0 = time.perf_counter()
        records.append((index, run_round(mains, *pairs[index])))
        round_s = time.perf_counter() - t0
        loop_s += round_s
        timing.append((round_s, len(calibration)))
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            calibration.append(calibrate.sample())
            last = time.perf_counter()
    return records, timing


def local_factors(timing: list[tuple[float, int]], samples: list[float]) -> list[float]:
    """Per round, the nominal kernel time over the median of the kernel timings nearest it.

    Host speed changes in phases of many seconds, so the five timings
    around a round (about a second either side) read the speed it ran at.
    """
    factors = []
    for _, position in timing:
        lo = min(max(position - 2, 0), max(len(samples) - 5, 0))
        factors.append(calibrate.NOMINAL_MS / statistics.median(samples[lo:lo + 5]))
    return factors


def verify(pairs, records, refs: dict) -> tuple[int, int, int, list[str]]:
    """Check every output; returns (attempted, failed, verified solves, messages)."""
    attempted = failed = solved = 0
    messages = []
    for index, ops in records:
        inst = pairs[index][0]
        if index not in refs:
            refs[index] = reference.reference(inst)
        ref = refs[index]
        doc = None
        for op, code, _, out, err in ops:
            attempted += 1
            try:
                if code != 0:
                    raise reference.Mismatch(f"exit {code}: {err.strip()[-300:]}")
                if op == "count":
                    reference.check_count(ref, out)
                elif op == "solve":
                    doc = json.loads(out)
                    reference.check_solve(inst, ref, doc)
                    solved += 1
                else:
                    if doc is None:
                        raise reference.Mismatch("no verified document to check")
                    reference.check_check(ref, out)
            except (reference.Mismatch, ValueError, KeyError, TypeError) as exc:
                failed += 1
                messages.append(f"{inst.name} {op}: {exc}")
    return attempted, failed, solved, messages


def _ms(records, factors: list[float], op: str) -> list[float]:
    return [ms * f for (_, ops), f in zip(records, factors) for (o, _, ms, _, _) in ops if o == op]


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _shape(modules, inst, ops) -> dict:
    """Instance shape as the package reads it, plus its first timed round."""
    kind = "program" if inst.suffix == ".atk" else "dqmscnf"
    problem, _ = modules["cli"].load_instance_text(inst.text, kind)
    method = None
    with contextlib.suppress(ValueError, KeyError):
        method = json.loads(ops[1][3])["method"]
    return {
        "name": inst.name,
        "sha256": hashlib.sha256(inst.text.encode()).hexdigest()[:16],
        "vars": problem.cnf.num_vars,
        "clauses": len(problem.cnf.clauses),
        "max_h": max((len(h) for h in problem.deps.values()), default=0),
        "counted": len(problem.count_vars),
        "method": method,
        "ms": {op: ms for op, _, ms, _, _ in ops},
    }


def layer_metrics(split, rounds: int, untraced_s: float, traced_s: float) -> dict[str, float]:
    layers = split.layers

    def calls(name):
        return layers[name].calls if name in layers else 0

    def ms(name):
        return layers[name].incl_s * 1000.0 / rounds if name in layers else 0.0

    def values(name):
        return layers[name].values if name in layers else []

    expand = values("incremental.expand")
    sat = values("engine.satisfiable")
    pool_wall = layers["local.solve_local"].incl_s if "local.solve_local" in layers else 0.0
    oracle = layers.get("oracle.max_count")
    return {
        "dimacs.parse_instance.ms": ms("dimacs.parse_instance"),
        "bitvec.encode.ms": ms("bitvec.encode"),
        "cli.choose_method.ms": ms("cli.choose_method"),
        "local.plan_split.calls": calls("local.plan_split") / rounds,
        "local.plan_split.ms": ms("local.plan_split"),
        "local.functionally_dependent.calls": calls("local.functionally_dependent") / rounds,
        "local.functionally_dependent.ms": ms("local.functionally_dependent"),
        "local.leaves": calls("local.leaf") / rounds,
        "local.leaf_cpu_over_wall": sum(values("local.leaf")) / pool_wall if pool_wall else 0.0,
        "local.pool_union_ms": split.pool_union_s * 1000.0 / rounds,
        "local.pool_thread_ms": ms("local.leaf"),
        "reduction.build_reduction.ms": ms("reduction.build_reduction"),
        "reduction.selectors.max": max(values("reduction.build_reduction"), default=0),
        "incremental.expand.calls": calls("incremental.expand") / rounds,
        "incremental.expand.ms": ms("incremental.expand"),
        "incremental.objective_clauses.max": max((v[0] for v in expand), default=0),
        "incremental.filter_clauses.max": max((v[1] for v in expand), default=0),
        "oracle.max_count.calls": calls("oracle.max_count") / rounds,
        "oracle.max_count.ms": ms("oracle.max_count"),
        "oracle.max_count.self_ms": (oracle.self_main_s + oracle.self_pool_s) * 1000.0 / rounds if oracle else 0.0,
        "oracle.satisfiable_per_max_count": split.satisfiable_in_max_count / oracle.calls if oracle else 0.0,
        "engine.satisfiable.calls": len(sat) / rounds,
        "engine.satisfiable.ms": ms("engine.satisfiable"),
        "engine.satisfiable.sat_ratio": sum(sat) / len(sat) if sat else 0.0,
        "engine.enumerate_projected.calls": calls("engine.enumerate_projected") / rounds,
        "engine.enumerate_projected.ms": ms("engine.enumerate_projected"),
        "engine.enumerate_projected.models": sum(values("engine.enumerate_projected")) / rounds,
        "engine.solve.calls": calls("engine.solve") / rounds,
        "counting.check_solution.calls": calls("counting.check_solution") / rounds,
        "counting.check_solution.ms": ms("counting.check_solution"),
        "bitvec.lift.ms": ms("bitvec.lift"),
        "cli.result_document.ms": ms("cli.result_document"),
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "trace.accounted_ratio": split.accounted_s / traced_s,
    }


def trace_report(split, rounds: int, untraced_s: float, traced_s: float) -> dict:
    """The layer table and the time accounting, for the report file.

    Consistent when the self times, with pool time counted once, account
    for the untraced operation time within the tracing overhead (plus 5%
    slack for the wrappers' own bookkeeping). Summing the pool threads'
    self times instead counts overlapping leaves twice.
    """
    overhead = traced_s - untraced_s
    gap = abs(split.accounted_s - untraced_s)
    table = {
        name: {
            "calls": layer.calls,
            "incl_ms": layer.incl_s * 1000.0,
            "self_ms": layer.self_main_s * 1000.0,
            "pool_self_ms": layer.self_pool_s * 1000.0,
        }
        for name, layer in sorted(split.layers.items(), key=lambda kv: -(kv[1].self_main_s + kv[1].self_pool_s))
    }
    return {
        "rounds": rounds,
        "untraced_ops_s": untraced_s,
        "traced_ops_s": traced_s,
        "overhead_s": overhead,
        "root_spans_s": split.roots_s,
        "main_self_s": split.main_self_s,
        "pool_union_s": split.pool_union_s,
        "pool_self_s": split.pool_self_s,
        "accounted_s": split.accounted_s,
        "consistent": gap <= abs(overhead) + 0.05 * untraced_s,
        "layers": table,
        "calls_per_op": {
            root: {name: n / rounds for name, n in sorted(calls.items())}
            for root, calls in sorted(split.calls_by_root.items())
        },
    }


def _op_seconds(records) -> float:
    return sum(ms for _, ops in records for (_, _, ms, _, _) in ops) / 1000.0


def end_to_end(records, timing, factors: list[float], solved: int, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics, each round's times scaled by its factor."""
    solve_ms = _ms(records, factors, "solve")
    return {
        "solve_ms.p50": statistics.median(solve_ms),
        "solve_ms.p90": _p90(solve_ms),
        "solves_per_s": solved / sum(round_s * f for (round_s, _), f in zip(timing, factors)),
        "count_ms.p50": statistics.median(_ms(records, factors, "count")),
        "check_ms.p50": statistics.median(_ms(records, factors, "check")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def scaled(metrics: dict[str, float], units: dict[str, str], factor: float) -> dict[str, float]:
    """Metrics at nominal host speed: those in milliseconds times `factor`."""
    return {name: value * factor if units[name] == "ms" else value for name, value in metrics.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full report)."""
    workdir = OUT / f"work-{workload}-{seed}-{trace:d}"
    setups, setup_calibration, calibration = [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        modules, instances = setup(workload, seed)
        setups.append(time.perf_counter() - t0)
        setup_calibration.append(calibrate.sample())
    pairs = write_inputs(instances, workdir)
    mains = dict.fromkeys(OPS, modules["cli"].main)
    refs: dict = {}
    _, _, _, messages = verify(pairs, [(POOL, run_round(mains, *pairs[POOL]))], refs)
    records, timing = timed_loop(mains, pairs, seconds * (UNTRACED_SHARE if trace else 1.0), calibration)
    rounds = len(records)
    # a run too short to time the kernel in its loop uses the set-up timings
    factors = local_factors(timing, calibration or setup_calibration)
    # set-up i is followed by kernel timing i
    setup_factors = local_factors([(s, i) for i, s in enumerate(setups)], setup_calibration)
    setup_s = statistics.median(s * f for s, f in zip(setups, setup_factors))
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        tracer = Tracer(modules)
        tracer.install()
        try:
            traced = {op: tracer.wrapped(main, f"op.{op}") for op, main in mains.items()}
            traced_records, _ = timed_loop(traced, pairs, 0, calibration, rounds=rounds)
        finally:
            tracer.uninstall()
        split = analyze(tracer.spans, tracer.main_thread)
        report["spans_file"] = str(_write_spans(workload, seed, tracer))
        untraced_s, traced_s = _op_seconds(records), _op_seconds(traced_records)
        report["spans"] = trace_report(split, rounds, untraced_s, traced_s)
        if not report["spans"]["consistent"]:
            messages.append("trace self times do not account for the operation time")
        raw, units = layer_metrics(split, rounds, untraced_s, traced_s), PER_LAYER
        metrics = scaled(raw, units, statistics.median(factors))
        records = records + traced_records
    attempted, failed, solved, found = verify(pairs, records, refs)
    messages += found
    if not trace:
        raw = end_to_end(records, timing, [1.0] * rounds, solved, statistics.median(setups))
        metrics = end_to_end(records, timing, factors, solved, setup_s)
        units = END_TO_END
    used = sorted({index for index, _ in records})
    seen = {}
    for index, ops in records[:rounds]:
        seen.setdefault(index, ops)
    report["instances"] = [_shape(modules, pairs[i][0], seen[i]) for i in used]
    report["inputs_sha256"] = hashlib.sha256("".join(pairs[i][0].text for i in used).encode()).hexdigest()
    report["rounds"] = rounds
    report["loop_s"] = sum(round_s for round_s, _ in timing)
    report["setup_s"] = setups
    report["failed_ratio"] = failed / attempted
    report["calibration"] = {
        "nominal_ms": calibrate.NOMINAL_MS,
        "factor": statistics.median(factors),
        "setup_factors": setup_factors,
        "samples_ms": calibration,
        "setup_samples_ms": setup_calibration,
    }
    report["raw_metrics"] = raw
    report["failures"] = messages[:50]
    shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report["result"] = result
    return result, report


def _write_spans(workload: str, seed: int, tracer: Tracer) -> Path:
    """Every span, one tab-separated line each, times in seconds from the first start."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-spans.tsv"
    t0 = min((s[2] for s in tracer.spans), default=0.0)
    with path.open("w") as fh:
        fh.write("id\tname\tstart_s\tend_s\tparent\tpool_thread\tvalue\n")
        for sid, name, start, end, parent, thread, value in sorted(tracer.spans):
            pool = int(thread != tracer.main_thread)
            fh.write(f"{sid}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\t{pool}\t{value}\n")
    return path


def _write_report(report: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{report['workload']}-seed{report['seed']}-trace{report['trace']:d}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    return path


def _summary(result: dict, report: dict, path: Path) -> str:
    lines = [
        f"{report['workload']} seed {report['seed']}: {report['rounds']} rounds in "
        f"{report['loop_s']:.1f} s, {result['failed']} of {result['attempted']} operations failed",
    ]
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    lines.append(f"  host factor {report['calibration']['factor']:.4f} (median over rounds; raw times are in the report)")
    if "spans" in report:
        t = report["spans"]
        lines.append(
            f"  accounted {t['accounted_s']:.3f} s of {t['traced_ops_s']:.3f} s traced, "
            f"{t['untraced_ops_s']:.3f} s untraced; pool threads {t['pool_self_s']:.3f} s, "
            f"{t['pool_union_s']:.3f} s of it counted; consistent: {t['consistent']}"
        )
        per_solve = t["calls_per_op"].get("op.solve", {})
        lines.append("  per solve: " + ", ".join(
            f"{name} {per_solve.get(name, 0):g}" for name in ("local.plan_split", "counting.check_solution")))
        for name, row in list(t["layers"].items())[:6]:
            lines.append(f"  self {name}: {row['self_ms'] + row['pool_self_ms']:.1f} ms over {row['calls']} calls")
    lines += [f"  FAILED {msg}" for msg in report["failures"][:10]]
    lines.append(f"  report: {path}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one instance per workload, untraced and traced; one JSON line each")
    args = ap.parse_args(argv)
    if not (SRC / "dqmaxsat" / "cli.py").is_file():
        print(f"error: no dqmaxsat package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The local method's leaf pool defaults to one thread per core. Two
    # GIL-bound threads made local-reach solves 40% slower than one and
    # spread them by 15-20% from run to run on a 2-core host, so the pool
    # runs one worker: the same on any host, and steady.
    os.environ["DQMAXSAT_WORKERS"] = "1"
    # One CPU for the process and every thread it starts: the main thread
    # and the leaf pool's worker hand work over without waking another CPU,
    # and the calibration kernel runs on the CPU whose speed it stands for.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                result, report = run(workload, args.seed, 0, trace)
                ok = ok and result["correct"] and not result["failed"]
                line = {"workload": workload, "trace": int(trace), "failed_ratio": report["failed_ratio"],
                        "result": result}
                if trace:
                    line["spans"] = {k: report["spans"][k] for k in ("consistent", "calls_per_op")}
                print(json.dumps(line), flush=True)
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(_summary(result, report, _write_report(report)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
