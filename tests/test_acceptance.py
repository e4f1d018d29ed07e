"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints its measured values; run with -v for one pass/fail line
per guarantee. Slow solves (the probe games, the bundled suite) run once
per session via fixtures.
"""

import json
import random
import time
from importlib import resources

import pytest

import instances
from naive import split_tree_capacity
from dqmaxsat.cli import bench_rows, load_instance_text, run_method
from dqmaxsat.cli import main as cli_main
from dqmaxsat.counting import check_solution
from dqmaxsat.formula import Cnf, MintermFunction, Problem, Solution
from dqmaxsat.incremental import run as run_incremental
from dqmaxsat.local import NoEligibleVariable, leaf_problems, plan_split, solve_local
from dqmaxsat.oracle import brute_force_dqmaxsat
from dqmaxsat.reduction import solve_dqbf, solve_global


def _bench_text(fname: str) -> str:
    return resources.files("dqmaxsat").joinpath("bench").joinpath(fname).read_text()


def _bench_problem(fname: str):
    kind = "dqmscnf" if fname.endswith(".dqm") else "program"
    return load_instance_text(_bench_text(fname), kind)


@pytest.fixture(scope="module")
def suite_rows():
    return bench_rows()


def _tt_equal(f: MintermFunction, g: MintermFunction, cells) -> bool:
    return all(f.evaluate(a) == g.evaluate(a) for a in cells)


def _cells(support):
    support = sorted(support)
    for bits in range(1 << len(support)):
        yield {v: bool((bits >> i) & 1) for i, v in enumerate(support)}


class TestSingleChooserSeesOrAnd:
    """A blind copyist shown only or/and of two hidden bits gets 3 of 4."""

    def test_01_all_three_methods_reach_three_of_four(self):
        problem, _ = _bench_problem("copy_or_and.dqm")
        z1 = MintermFunction.of((4, 5), [(4, -5), (4, 5)])
        z2 = MintermFunction.of((4, 5), [(-4, 5), (4, 5)])
        both = MintermFunction.of((4, 5), [(4, 5)])
        either = MintermFunction.of((4, 5), [(4, -5), (-4, 5), (4, 5)])
        candidates = (z1, z2, either, both)
        cells = list(_cells((4, 5)))
        for method in ("global", "incremental", "local"):
            t0 = time.perf_counter()
            solution, used, _ = run_method(problem, method=method)
            elapsed = time.perf_counter() - t0
            assert used == method
            assert solution.achieved_count == 3 and solution.total == 4
            assert check_solution(problem, solution) == 3
            synthesized = solution.functions[1]
            assert any(_tt_equal(synthesized, c, cells) for c in candidates)
            assert elapsed < 1.0
            print(f"method {method}: 3 of 4 in {elapsed * 1000:.1f} ms")


class TestTwoBlindChoosers:
    """Chained implications cap two isolated choosers at 3 of 4."""

    def test_02_optimum_is_three_and_four_is_unattainable(self):
        problem, _ = _bench_problem("two_implications.dqm")
        t0 = time.perf_counter()
        for method in ("global", "incremental"):
            solution, _, _ = run_method(problem, method=method)
            assert solution.achieved_count == 3
            assert check_solution(problem, solution) == 3
        exact = brute_force_dqmaxsat(problem)
        elapsed = time.perf_counter() - t0
        assert exact.achieved_count == 3
        assert exact.achieved_count < problem.total == 4
        assert elapsed < 1.0
        print(f"optimum 3 of 4 confirmed exhaustively in {elapsed * 1000:.1f} ms")


class TestCopyThroughOr:
    """Copying the or of the hidden bits is optimal; ignoring it scores 2."""

    def test_03_identity_on_the_observation_is_optimal(self):
        problem, _ = _bench_problem("copy_or.dqm")
        t0 = time.perf_counter()
        solution = solve_global(problem)
        elapsed = time.perf_counter() - t0
        assert solution.achieved_count == 3
        identity = MintermFunction.of((4,), [(4,)])
        assert _tt_equal(solution.functions[1], identity, list(_cells((4,))))
        bottom = Solution({1: MintermFunction.constant(False)})
        assert check_solution(problem, bottom) == 2
        assert elapsed < 1.0
        print(f"identity strategy 3 of 4, constant-false 2 of 4, {elapsed * 1000:.1f} ms")


class TestIncrementalTrace:
    """One base call plus one call per dependency bit, counts never drop."""

    def test_04_three_calls_with_counts_2_3_3(self):
        problem, _ = _bench_problem("copy_or_and.dqm")
        records = []
        solution = run_incremental(problem, on_iteration=records.append)
        assert solution.achieved_count == 3
        assert len(records) == 3  # 1 + |dependency set|
        assert [r.count for r in records] == [2, 3, 3]
        print("calls", [(r.iteration, r.count) for r in records])

    def test_04_budget_one_is_a_valid_anytime_answer(self):
        problem, _ = _bench_problem("copy_or_and.dqm")
        solution = run_incremental(problem, budget=1)
        assert solution.achieved_count == 2
        assert solution.functions[1].constant_value() is not None
        assert check_solution(problem, solution) == 2
        print("budget 1: constant strategy scoring 2 of 4")


class TestLocalResolution:
    """Case-splitting on the observed signals matches the one-shot answer."""

    def test_05_four_leaves_recombine_to_the_global_optimum(self):
        problem, _ = _bench_problem("copy_or_and.dqm")
        leaves = leaf_problems(problem, plan_split(problem))
        assert len(leaves) == 4
        leaf_solutions = [solve_global(leaf) for leaf in leaves]
        assert leaf_solutions[0].functions[1].constant_value() is True
        assert leaf_solutions[3].functions[1].constant_value() is False
        combined = solve_local(problem)
        reference = solve_global(problem)
        assert combined.achieved_count == reference.achieved_count == 3
        assert check_solution(problem, combined) == 3
        print("leaf counts", [s.achieved_count for s in leaf_solutions],
              "recombined", combined.achieved_count)


def _random_dqbf(rng: random.Random) -> Problem:
    nx = rng.randint(1, 2)
    ny = rng.randint(1, 4)
    n = nx + ny
    count = list(range(nx + 1, n + 1))
    deps = {x: rng.sample(count, rng.randint(0, min(3, ny))) for x in range(1, nx + 1)}
    clauses = []
    for _ in range(rng.randint(1, n + 2)):
        width = rng.randint(1, min(3, n))
        vs = rng.sample(range(1, n + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return Problem.of(Cnf.build(n, clauses), list(range(1, nx + 1)), count, [], deps)


class TestHenkinSatisfiability:
    """The yes/no specialization agrees with exhaustive search on both answers."""

    def test_06_twenty_random_instances_with_both_outcomes(self):
        verdicts = []
        for i in range(20):
            problem = _random_dqbf(random.Random(1234 * 1000 + i))
            flag, witness = solve_dqbf(problem)
            exact = brute_force_dqmaxsat(problem).achieved_count
            assert flag == (exact == problem.total), f"instance {i}"
            if flag:
                assert check_solution(problem, witness) == problem.total
            verdicts.append(flag)
        assert any(verdicts) and not all(verdicts)
        print(f"{sum(verdicts)} satisfiable, {20 - sum(verdicts)} not, all confirmed")


class TestCrossValidation:
    """All methods agree with exhaustive search on a broad random sample."""

    def test_07_two_hundred_random_instances_under_a_minute(self):
        rng = random.Random(20240817)
        t0 = time.perf_counter()
        split_applicable = 0
        for i in range(200):
            problem = instances.random_problem(rng, num_vars=rng.randint(4, 8))
            expected = brute_force_dqmaxsat(problem).achieved_count
            got = solve_global(problem).achieved_count
            assert got == expected, f"instance {i}: global {got} != exact {expected}"
            inc = run_incremental(problem).achieved_count
            assert inc == expected, f"instance {i}: incremental {inc} != exact {expected}"
            try:
                plan_split(problem)
            except NoEligibleVariable:
                continue
            split_applicable += 1
            local = solve_local(problem).achieved_count
            assert local == expected, f"instance {i}: local {local} != exact {expected}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        print(f"200 instances, {split_applicable} split-eligible, {elapsed:.1f} s")


def _simulate_probe_strategy(x1, x2_of, x3_of, secrets):
    outcomes = set()
    for z in secrets:
        y1 = z >= x1
        y2 = z >= x2_of(y1)
        y3 = z >= x3_of(y1, y2)
        outcomes.add((y1, y2, y3))
    return len(outcomes)


class TestDieProbeGame:
    """Three adaptive threshold probes split a die roll six ways."""

    def test_08_synthesized_probes_match_the_tree_optimum(self):
        problem, bitmap = _bench_problem("capacity6.atk")
        t0 = time.perf_counter()
        solution, method, _ = run_method(problem, method="auto")
        elapsed = time.perf_counter() - t0
        assert method == "incremental"
        assert elapsed < 120.0

        tree_best = split_tree_capacity(frozenset(range(1, 7)), range(8), 3)
        assert solution.achieved_count == 6 == tree_best
        assert check_solution(problem, solution) == 6

        y1v, = bitmap.bits["y1"]
        y2v, = bitmap.bits["y2"]

        def int_value(name: str, y1: bool, y2: bool) -> int:
            cell = {y1v: y1, y2v: y2}
            return sum(
                1 << i
                for i, var in enumerate(bitmap.bits[name])
                if solution.functions[var].evaluate(cell)
            )

        grid = [(False, False), (False, True), (True, False), (True, True)]
        # first probe is blind: the constant 4 on every cell
        assert all(int_value("x1", *c) == 4 for c in grid)
        # second probe reads only the first answer: 2 below, 6 above
        assert all(int_value("x2", y1, y2) == (6 if y1 else 2) for y1, y2 in grid)
        # third probe is forced on the two cells every optimal strategy hits
        assert int_value("x3", False, True) == 3
        assert int_value("x3", True, False) == 5

        displayed = _simulate_probe_strategy(
            4,
            lambda y1: 6 if y1 else 2,
            lambda y1, y2: (4 if y1 else 0) + (2 if y2 else 0) + 1,
            range(1, 7),
        )
        assert displayed == 6

        free_cells = {
            (y1, y2): int_value("x3", y1, y2)
            for y1, y2 in ((False, False), (True, True))
        }
        reference = {(False, False): 1, (True, True): 7}
        print(
            f"count 6 of 8 in {elapsed:.1f} s; probes (4, 2/6, 3/5); "
            f"unconstrained third-probe cells {free_cells}"
            + (" coincide with" if free_cells == reference else " differ from")
            + " the reference fill (both optimal)"
        )


class TestBundledSuite:
    """Every bundled instance solves, verifies, and has the published shape."""

    def test_09_shapes_and_counts(self, suite_rows):
        rows = suite_rows
        assert [r["name"] for r in rows] == [
            "copy_or_and", "two_implications", "copy_or",
            "sum_reach_3", "sum_reach_4", "capacity6", "guessbits", "capacity",
        ]
        plain = [
            (r["num_inputs"], r["num_counted"], r["num_exist"], r["num_clauses"])
            for r in rows[:3]
        ]
        assert plain == [(1, 2, 2, 7), (2, 2, 2, 7), (1, 2, 1, 5)]
        bitblasted = [(r["num_inputs"], r["num_counted"]) for r in rows[3:]]
        assert bitblasted == [(3, 6), (4, 8), (9, 3), (9, 3), (9, 3)]
        assert [r["count"] for r in rows] == [3, 3, 3, 26, 100, 6, 4, 8]
        for r in rows:
            print(
                f"{r['name']:<18} |X|={r['num_inputs']:>2} |Y|={r['num_counted']:>2} "
                f"|Z|={r['num_exist']:>3} clauses={r['num_clauses']:>4} "
                f"{r['count']}/{r['total']} {r['method']} {r['wall_ms']:.0f} ms"
            )


class TestResultDocuments:
    """Emitted documents re-verify; tampered ones are rejected."""

    def _solve_to_file(self, capsys, tmp_path, fname, sub):
        src = tmp_path / fname
        src.write_text(_bench_text(fname))
        assert cli_main([sub, str(src), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        out = tmp_path / (fname + ".json")
        out.write_text(json.dumps(doc))
        return src, out, doc

    def test_10_every_document_passes_check(self, capsys, tmp_path):
        cases = [
            ("copy_or_and.dqm", "solve"),
            ("two_implications.dqm", "solve"),
            ("copy_or.dqm", "solve"),
            ("sum_reach_3.atk", "solve-program"),
        ]
        for fname, sub in cases:
            src, out, _ = self._solve_to_file(capsys, tmp_path, fname, sub)
            assert cli_main(["check", str(src), str(out)]) == 0, fname
            capsys.readouterr()
        print(f"{len(cases)} documents emitted and re-verified")

    def test_10_count_mutations_are_rejected(self, capsys, tmp_path):
        src, out, doc = self._solve_to_file(capsys, tmp_path, "copy_or_and.dqm", "solve")
        for delta in (1, -1):
            bad = dict(doc, count=doc["count"] + delta)
            out.write_text(json.dumps(bad))
            assert cli_main(["check", str(src), str(out)]) == 1
            capsys.readouterr()
        print("count +1 and -1 both rejected")

    def test_10_flipped_minterm_is_rejected(self, capsys, tmp_path):
        src, out, doc = self._solve_to_file(capsys, tmp_path, "copy_or.dqm", "solve")
        entry = doc["functions"]["1"]
        assert entry["minterms"] == [[4]]
        entry["minterms"] = [[-4]]
        out.write_text(json.dumps(doc))
        assert cli_main(["check", str(src), str(out)]) == 1
        capsys.readouterr()
        print("sign-flipped minterm rejected")
