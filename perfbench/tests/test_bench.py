"""Tests of the benchmark itself: contract, smoke run, references, spans.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spans import POOL_ROOT, Tracer, analyze  # noqa: E402
from workloads import WORKLOADS, Game, make_instance, render_game  # noqa: E402

from dqmaxsat.cli import load_instance_text  # noqa: E402
from dqmaxsat.counting import count_projected  # noqa: E402
from dqmaxsat.oracle import brute_force_dqmaxsat  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return {(line["workload"], line["trace"]): line for line in lines}


def test_benchmark_json_names_what_the_runner_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_smoke_emits_every_metric_with_its_unit(smoke):
    for workload in WORKLOADS:
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            line = smoke[(workload, trace)]
            result = line["result"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
            assert line["failed_ratio"] == 0
            assert {name: m["unit"] for name, m in result["metrics"].items()} == {
                m["name"]: m["unit"] for m in listed
            }
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_smoke_trace_accounts_for_the_time_and_records_todays_call_counts(smoke):
    for workload in WORKLOADS:
        assert smoke[(workload, 1)]["spans"]["consistent"]
    per_solve = smoke[("local-reach", 1)]["spans"]["calls_per_op"]["op.solve"]
    # plan_split runs once in choose_method and again in solve_local, and the
    # local method recounts before the command line recounts again
    assert per_solve["local.plan_split"] == 2
    assert per_solve["counting.check_solution"] == 2
    assert "incremental.expand" not in per_solve
    assert smoke[("incremental-probes", 1)]["spans"]["calls_per_op"]["op.solve"]["incremental.expand"] > 0


def test_each_round_is_scaled_by_the_kernel_timings_around_it():
    nominal = calibrate.NOMINAL_MS
    samples = [nominal] * 5 + [2 * nominal] * 5
    # rounds before the first, between two, and after the last kernel timing
    factors = run.local_factors([(0.1, 0), (0.1, 2), (0.1, 8), (0.1, 10)], samples)
    assert factors == [1.0, 1.0, 0.5, 0.5]
    records = [(0, [("count", 0, 4.0, "", ""), ("solve", 0, 10.0, "", ""), ("check", 0, 2.0, "", "")])] * 4
    metrics = run.end_to_end(records, [(0.1, 0)] * 4, factors, 4, 1.0)
    assert metrics["solve_ms.p50"] == 7.5 and metrics["count_ms.p50"] == 3.0
    assert metrics["solves_per_s"] == pytest.approx(4 / 0.3)
    units = {"a.ms": "ms", "a.calls": "count"}
    assert run.scaled({"a.ms": 10.0, "a.calls": 10.0}, units, 0.5) == {"a.ms": 5.0, "a.calls": 10.0}


def test_calibration_kernel_is_fixed_work():
    # the same formula on every host and seed: its model count never changes
    assert calibrate.kernel() == 2094
    assert calibrate.sample() > 0


def test_inputs_are_a_function_of_the_seed():
    for workload in WORKLOADS:
        assert make_instance(workload, 7, 5).text == make_instance(workload, 7, 5).text
        assert make_instance(workload, 7, 5).text != make_instance(workload, 8, 5).text


@pytest.mark.parametrize("index", [0, 2, 5])
def test_dqm_reference_agrees_with_exhaustive_search_and_enumeration(index):
    inst = make_instance("count-dqm", 3, index)
    problem, _ = load_instance_text(inst.text, "dqmscnf")
    ref = reference.reference(inst)
    assert ref.optimum == brute_force_dqmaxsat(problem).achieved_count
    free = problem.exist_vars | frozenset(problem.max_vars)
    assert ref.ceiling == count_projected(problem.cnf, problem.count_vars, free)
    assert ref.total == problem.total


def _game(width, mode, randoms, steps):
    return Game(width, mode, tuple(randoms), tuple(steps))


def test_game_reference_on_known_games():
    v = lambda n: ("var", n)  # noqa: E731
    # the bundled sum_reach_3 game: 26 of 64 pairs, 36 winnable at all
    sum_reach_3 = _game(3, "reach", [("y1", 0, 7), ("y2", 0, 7)], [
        ("observe", "s", ("add", v("y1"), v("y2"))),
        ("input", "x"),
        ("assume", ("le", v("y1"), v("x"))),
        ("win", ("le", v("x"), v("y2"))),
    ])
    assert reference.game_reference(sum_reach_3) == reference.Reference(26, 36, 64)
    # two adaptive threshold probes split a die roll into four outcomes
    die = _game(3, "leak", [("z", 1, 6)], [
        ("input", "x1"), ("observe", "y1", ("ge", v("z"), v("x1"))),
        ("input", "x2"), ("observe", "y2", ("ge", v("z"), v("x2"))),
    ])
    assert reference.game_reference(die) == reference.Reference(4, 4, 4)
    # h = y + x1 reveals y, so the guess always wins
    offset = _game(3, "reach", [("y", 0, 7)], [
        ("input", "x1"), ("observe", "h", ("add", v("y"), v("x1"))),
        ("input", "x2"), ("win", ("ge", v("x2"), v("y"))),
    ])
    assert reference.game_reference(offset) == reference.Reference(8, 8, 8)
    assert "random y in 0..7" in render_game(offset)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_document_is_scored_on_its_functions_not_its_claim(workload):
    inst = make_instance(workload, 4, 1)
    ref = reference.reference(inst)
    problem, _ = load_instance_text(inst.text, "program" if inst.suffix == ".atk" else "dqmscnf")
    # every chooser constant false, with the optimum claimed anyway
    doc = {
        "count": ref.optimum,
        "total": ref.total,
        "functions": {str(x): {"support": [], "minterms": []} for x in problem.max_vars},
    }
    if reference.strategy_count(inst, doc) != ref.optimum:
        with pytest.raises(reference.Mismatch):
            reference.check_solve(inst, ref, doc)
    doc["functions"] = {str(x): {"support": [max(problem.count_vars | problem.exist_vars) + 99], "minterms": []}
                        for x in problem.max_vars}
    with pytest.raises(reference.Mismatch):
        reference.strategy_count(inst, doc)


def test_pool_time_is_counted_once():
    tracer = Tracer({})

    def leaf(seconds):
        time.sleep(seconds)

    traced_leaf = tracer.wrapped(leaf, "local.leaf", cpu=True)

    def pool_solve():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(traced_leaf, [0.05, 0.05]))

    tracer.wrapped(tracer.wrapped(pool_solve, POOL_ROOT), "op")()
    split = analyze(tracer.spans, threading.get_ident())
    assert split.layers["local.leaf"].calls == 2
    assert split.pool_self_s > 1.6 * split.pool_union_s
    assert split.accounted_s == pytest.approx(split.roots_s, rel=1e-9)
    assert split.main_self_s + split.pool_self_s > 1.3 * split.roots_s


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local-reach", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
