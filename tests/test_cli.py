"""Command line behavior: outputs, round-trips, exit codes."""

import codecs
import dataclasses
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from importlib import resources

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import dqmaxsat
from dqmaxsat import cli, incremental, oracle
from dqmaxsat.bitvec import ProgramError, parse_program
from dqmaxsat.dimacs import ParseError, parse_instance
from dqmaxsat.engine import Engine
from dqmaxsat.formula import Cnf, Problem, apply_substitution, eliminate_unseen, minterms_of
from dqmaxsat.reduction import BudgetExceeded, solve_global

COPY_OR_AND = """\
p dqmscnf 5 7
d 1 4 5 0
r 2 3 0
e 4 5 0
-1 4 0
1 -2 0
-4 2 3 0
4 -3 0
-5 2 0
-5 3 0
5 -1 -3 0
"""

TINY_PROGRAM = """\
width 1
mode leak
random z
input x
observe y := z >= x
"""


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.dqm"
    path.write_text(COPY_OR_AND)
    return str(path)


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "probe.atk"
    path.write_text(TINY_PROGRAM)
    return str(path)


def load_bundled(name):
    return cli.load_instance_text(resources.files("dqmaxsat").joinpath("bench", name).read_text())[0]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_text_output(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "solve", instance_file)
        assert code == 0
        assert "count 3 of 4" in out

    @pytest.mark.parametrize("method", ["global", "incremental", "local"])
    def test_methods_agree(self, capsys, instance_file, method):
        code, out, _ = run_cli(capsys, "solve", instance_file, "--method", method, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 3 and doc["total"] == 4
        assert doc["method"] == method

    def test_json_document_shape(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "solve", instance_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"count", "total", "ratio", "method", "functions", "wall_ms"}
        assert doc["ratio"] == 0.75
        entry = doc["functions"]["1"]
        assert sorted(entry) >= ["minterms", "support"]
        assert entry["support"] == [4, 5]

    def test_incremental_iterations_recorded(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "solve", instance_file, "--method", "incremental", "--json")
        doc = json.loads(out)
        assert code == 0
        # one base call plus one per dependency bit
        assert len(doc["iterations"]) == 3
        assert [r["count"] for r in doc["iterations"]] == [2, 3, 3]

    def test_trace_goes_to_stderr(self, capsys, instance_file):
        code, out, err = run_cli(capsys, "solve", instance_file, "--method", "incremental", "--trace")
        assert code == 0
        assert err.count("iteration") == 3
        assert "base solve" in err

    @pytest.mark.parametrize("method", ["global", "local"])
    def test_trace_logs_incremental_iterations_only(self, capsys, instance_file, method):
        code, _, err = run_cli(capsys, "solve", instance_file, "--method", method, "--trace")
        assert code == 0
        assert err == ""

    def test_budget_limits_iterations(self, capsys, instance_file):
        code, out, _ = run_cli(
            capsys, "solve", instance_file, "--method", "incremental", "--budget", "1", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["iterations"]) == 1
        assert doc["count"] == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", str(tmp_path / "nope.dqm"))
        assert code == 2
        assert "error" in err

    def test_malformed_instance(self, capsys, tmp_path):
        path = tmp_path / "bad.dqm"
        path.write_text("p dqmscnf 1 1\n1 0\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 2
        assert "line 2" in err


class TestSolveProgram:
    def test_leak_count(self, capsys, program_file):
        code, out, _ = run_cli(capsys, "solve-program", program_file, "--json")
        assert code == 0
        doc = json.loads(out)
        # one threshold answer splits {0,1} into singletons
        assert doc["count"] == 2 and doc["total"] == 2
        entry = doc["functions"][next(iter(doc["functions"]))]
        assert "label" in entry and "lifted" in entry

    def test_lifted_lines_in_text_mode(self, capsys, program_file):
        code, out, _ = run_cli(capsys, "solve-program", program_file)
        assert code == 0
        assert "x = " in out

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_lifts_once_per_solve(self, capsys, monkeypatch, program_file, flags):
        # through cli.lift, the name the benchmark's tracer wraps
        calls = []
        lift = cli.lift

        def counting_lift(solution, bitmap):
            calls.append(solution)
            return lift(solution, bitmap)

        monkeypatch.setattr(cli, "lift", counting_lift)
        code, _, _ = run_cli(capsys, "solve-program", program_file, *flags)
        assert code == 0
        assert len(calls) == 1

    def test_program_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.atk"
        path.write_text("width 1\nmode leak\nrandom z\nwin z == 1\n")
        code, _, err = run_cli(capsys, "solve-program", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("win", [
        "(" * 3000 + "z == 1" + ")" * 3000,
        "!" * 3000 + "(z == 1)",
        " || ".join(["z == 1"] * 3000),
    ], ids=["parentheses", "negations", "operator-chain"])
    def test_deep_expression_exits_2(self, capsys, tmp_path, win):
        path = tmp_path / "deep.atk"
        path.write_text(f"width 1\nmode reach\nrandom z\ninput x\nwin {win}\n")
        code, _, err = run_cli(capsys, "solve-program", str(path))
        assert code == 2
        assert "line 5, column" in err and "nested too deeply" in err

    def test_dqm_text_rejected_as_program(self, capsys, instance_file):
        code, _, err = run_cli(capsys, "solve-program", instance_file)
        assert code == 2


class TestCheck:
    def _solved(self, capsys, path, *flags):
        code, out, _ = run_cli(capsys, "solve", path, "--json", *flags)
        assert code == 0
        return json.loads(out)

    def test_round_trip_passes(self, capsys, tmp_path, instance_file):
        doc = self._solved(capsys, instance_file)
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "check", instance_file, str(result))
        assert code == 0
        assert "ok: 3 of 4" in out

    def test_program_round_trip_passes(self, capsys, tmp_path, program_file):
        code, out, _ = run_cli(capsys, "solve-program", program_file, "--json")
        doc = json.loads(out)
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "check", program_file, str(result))
        assert code == 0

    def test_overclaimed_count_rejected(self, capsys, tmp_path, instance_file):
        doc = self._solved(capsys, instance_file)
        doc["count"] += 1
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "check", instance_file, str(result))
        assert code == 1
        assert "recount" in err

    def test_underclaimed_count_rejected(self, capsys, tmp_path, instance_file):
        doc = self._solved(capsys, instance_file)
        doc["count"] -= 1
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "check", instance_file, str(result))
        assert code == 1

    def test_tampered_total_rejected(self, capsys, tmp_path, instance_file):
        doc = self._solved(capsys, instance_file)
        doc["total"] = 8
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "check", instance_file, str(result))
        assert code == 1

    def test_mutated_function_rejected(self, capsys, tmp_path, instance_file):
        doc = self._solved(capsys, instance_file)
        # toggle the function's value on the reachable all-positive cell
        entry = doc["functions"]["1"]
        top = [abs(l) for l in entry["minterms"][0]]
        top_cell = sorted(top)
        present = [m for m in entry["minterms"] if all(l > 0 for l in m)]
        if present:
            entry["minterms"] = [m for m in entry["minterms"] if m not in present]
        else:
            entry["minterms"] = entry["minterms"] + [top_cell]
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "check", instance_file, str(result))
        assert code == 1

    def test_dependency_violation_rejected(self, capsys, tmp_path, instance_file):
        doc = self._solved(capsys, instance_file)
        doc["functions"]["1"] = {"support": [2], "minterms": [[2]]}
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "check", instance_file, str(result))
        assert code == 1

    def test_function_for_a_non_chooser_exits_2(self, capsys, tmp_path, instance_file):
        doc = self._solved(capsys, instance_file)
        doc["functions"]["99999999999999999999999"] = {"support": [], "minterms": []}
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", instance_file, str(result))
        assert code == 2
        assert "ok" not in out
        assert "extra [99999999999999999999999]" in err

    def test_missing_chooser_exits_2(self, capsys, tmp_path, instance_file):
        doc = self._solved(capsys, instance_file)
        del doc["functions"]["1"]
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "check", instance_file, str(result))
        assert code == 2
        assert "missing [1]" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path, instance_file):
        result = tmp_path / "r.json"
        result.write_text("{not json")
        code, _, _ = run_cli(capsys, "check", instance_file, str(result))
        assert code == 2

    def test_missing_fields_exit_2(self, capsys, tmp_path, instance_file):
        result = tmp_path / "r.json"
        result.write_text(json.dumps({"count": 3}))
        code, _, _ = run_cli(capsys, "check", instance_file, str(result))
        assert code == 2

    def test_incomplete_minterm_exits_2(self, capsys, tmp_path, instance_file):
        doc = self._solved(capsys, instance_file)
        doc["functions"]["1"]["minterms"] = [[4]]
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "check", instance_file, str(result))
        assert code == 2

    def test_infinite_count_exits_2(self, capsys, tmp_path, instance_file):
        doc = self._solved(capsys, instance_file)
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc).replace(f'"count": {doc["count"]}', '"count": 1e999'))
        code, _, err = run_cli(capsys, "check", instance_file, str(result))
        assert code == 2
        assert "unusable" in err

    @pytest.mark.parametrize("edit", [
        {"count": 4.7},
        {"total": 4.9},
        {"functions": {"3": {"support": [True], "minterms": [[True]]}}},
        {"functions": {"3": {"support": [1], "minterms": [[True]]}}},
        {"functions": {"0_3": {"support": [1], "minterms": []}}},
    ], ids=["float-count", "float-total", "bool-support", "bool-literal", "key-not-a-number"])
    def test_non_integer_number_exits_2(self, capsys, tmp_path, edit):
        # int() would read each of these as a number the recount confirms
        path = tmp_path / "taut.dqm"
        path.write_text("p dqmscnf 3 1\nd 3 1 0\nr 1 2 0\n1 -1 3 0\n")
        doc = self._solved(capsys, str(path))
        assert doc["count"] == doc["total"] == 4
        doc.update(edit)
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(path), str(result))
        assert code == 2
        assert "ok" not in out
        assert "unusable" in err

    @pytest.mark.parametrize("entry, message", [
        ({"support": [1, 1], "minterms": [[1]]}, "duplicate variables"),
        ({"support": [1], "minterms": [[1], [1]]}, "repeats a minterm"),
    ], ids=["repeated-support-variable", "repeated-minterm"])
    def test_repeated_entry_exits_2(self, capsys, tmp_path, entry, message):
        path = tmp_path / "taut.dqm"
        path.write_text("p dqmscnf 3 1\nd 3 1 0\nr 1 2 0\n1 -1 3 0\n")
        doc = self._solved(capsys, str(path))
        doc["functions"]["3"] = entry
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(path), str(result))
        assert code == 2
        assert "ok" not in out
        assert "unusable" in err and message in err

    @pytest.mark.parametrize("field, value", [
        ("ratio", 0.01), ("ratio", "0.25"), ("label", "bogus"), ("lifted", "bogus"),
    ], ids=["ratio", "ratio-as-text", "label", "lifted"])
    def test_tampered_claims_exit_1(self, capsys, tmp_path, field, value):
        path = tmp_path / "guess.atk"
        path.write_text("width 2\nmode reach\nrandom z\ninput x\nwin z == x\n")
        code, out, _ = run_cli(capsys, "solve-program", str(path), "--json")
        doc = json.loads(out)
        assert (doc["count"], doc["ratio"]) == (1, 0.25)
        if field == "ratio":
            doc["ratio"] = value
        else:
            for entry in doc["functions"].values():
                entry[field] = value
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(path), str(result))
        assert code == 1
        assert "ok" not in out
        assert field in err and "Traceback" not in err

    def test_dqm_entries_carry_no_label(self, capsys, tmp_path, instance_file):
        doc = self._solved(capsys, instance_file)
        doc["functions"]["1"]["label"] = "x"
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "check", instance_file, str(result))
        assert code == 1
        assert "label 'x'" in err

    @pytest.mark.parametrize("method", ["nonsense", None, ["local"]], ids=["nonsense", "missing", "list"])
    def test_unknown_method_exits_2(self, capsys, tmp_path, instance_file, method):
        doc = self._solved(capsys, instance_file)
        if method is None:
            del doc["method"]
        else:
            doc["method"] = method
        result = tmp_path / "r.json"
        result.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", instance_file, str(result))
        assert code == 2
        assert "ok" not in out
        assert "no method" in err

    def test_overlong_integer_exits_2(self, capsys, tmp_path, instance_file):
        doc = self._solved(capsys, instance_file)
        result = tmp_path / "r.json"
        # past int()'s default limit of 4300 digits, which json enforces too
        result.write_text(json.dumps(doc).replace(f'"count": {doc["count"]}', '"count": ' + "9" * 5000))
        code, _, err = run_cli(capsys, "check", instance_file, str(result))
        assert code == 2
        assert "too long" in err

    def test_deeply_nested_document_exits_2(self, capsys, tmp_path, instance_file):
        result = tmp_path / "r.json"
        result.write_text("[" * 100000)
        code, _, err = run_cli(capsys, "check", instance_file, str(result))
        assert code == 2
        assert "nested too deeply" in err


# COPY_OR_AND's clauses with their literals reordered, some repeated, and two
# tautologies added
COPY_OR_AND_RAW = """\
p dqmscnf 5 9
d 1 4 5 0
r 2 3 0
e 4 5 0
4 -1 4 0
-2 1 0
3 2 -4 2 0
-3 4 0
2 -5 0
3 -5 3 0
-1 -3 5 0
1 -1 2 0
5 3 -5 0
"""


class TestRecountOnTheLoadedFormula:
    """The printed answer is recounted on the formula as loaded, not on the one the solve ran on."""

    @staticmethod
    def _lossy(monkeypatch):
        # the reduction also drops its first clause, so the solve runs on a
        # formula with more models than the loaded one
        def eliminate(problem):
            q = eliminate_unseen(problem)
            return dataclasses.replace(q, cnf=Cnf(q.cnf.num_vars, q.cnf.clauses[1:]))

        monkeypatch.setattr(cli, "eliminate_unseen", eliminate)

    def test_a_lossy_reduction_is_caught(self, capsys, monkeypatch):
        path = resources.files("dqmaxsat").joinpath("bench", "sum_reach_3.atk")
        self._lossy(monkeypatch)
        code, out, err = run_cli(capsys, "solve-program", str(path), "--json")
        assert (code, out) == (1, "")
        assert "error: claimed 28 models, recount found 25" in err

    def test_check_takes_no_reduction(self, capsys, monkeypatch, tmp_path):
        path = resources.files("dqmaxsat").joinpath("bench", "sum_reach_3.atk")
        code, out, _ = run_cli(capsys, "solve-program", str(path), "--json")
        assert code == 0
        doc = tmp_path / "doc.json"
        doc.write_text(out)
        self._lossy(monkeypatch)
        assert run_cli(capsys, "check", str(path), str(doc))[:2] == (0, "ok: 26 of 64 confirmed\n")


class TestWhichSolvesAreReduced:
    """Local and global solves run on the reduced problem; incremental ones on the loaded one."""

    @pytest.fixture
    def reductions(self, monkeypatch):
        calls = []

        def eliminate(problem):
            calls.append(problem)
            return eliminate_unseen(problem)

        monkeypatch.setattr(cli, "eliminate_unseen", eliminate)
        return calls

    def test_an_auto_local_solve_is_reduced_once(self, reductions):
        p = load_bundled("sum_reach_3.atk")
        assert cli.run_method(p)[1] == "local"
        assert reductions == [p]

    @pytest.mark.parametrize("method,reduced", [("global", 1), ("local", 1), ("incremental", 0)])
    def test_a_forced_method(self, reductions, copy_or_and, method, reduced):
        assert cli.run_method(copy_or_and, method=method)[0].achieved_count == 3
        assert len(reductions) == reduced

    def test_choosers_that_share_nothing_go_incremental_unreduced(self, reductions, two_implications):
        assert cli.run_method(two_implications)[1] == "incremental"
        assert reductions == []


class TestChainShapedCalls:
    """Runs whose oracle calls the row table answers, where the B&B took minutes."""

    # the iterations of the B&B on every call, from a full run of it (about
    # 410 s on a 2-vCPU x86 host), each dumped by json.dumps with its
    # elapsed_ms zeroed
    SUM_REACH_3_ITERATIONS = "0a41bb6bad29364be5804d777fcf00b84ebb92171564f3fbb385a0a29d864887"

    def test_sum_reach_3_incremental(self, capsys):
        path = resources.files("dqmaxsat").joinpath("bench", "sum_reach_3.atk")
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, "solve-program", str(path), "--method", "incremental",
                               "--json")
        elapsed = time.perf_counter() - t0
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "incremental" and doc["count"] == 26
        iterations = doc["iterations"]
        assert [(r["expanded_var"], r["expanded_on"], r["count"]) for r in iterations] == [
            (None, None, 20), (10, 7, 20), (11, 7, 20), (12, 7, 20), (10, 8, 20),
            (11, 8, 20), (12, 8, 20), (10, 9, 23), (11, 9, 23), (12, 9, 26)]
        for r in iterations:
            r["elapsed_ms"] = 0
        digest = hashlib.sha256(json.dumps(iterations).encode()).hexdigest()
        assert digest == self.SUM_REACH_3_ITERATIONS
        # tens of milliseconds; the B&B alone takes minutes
        assert elapsed < 10

    def test_copy_chooser_of_eight_counters_under_global(self):
        # one chooser x <-> y1 that sees all eight counters: 256 selectors,
        # and the B&B grew about 20x per counter (over 300 s at eight)
        ys = list(range(2, 10))
        p = Problem.of(Cnf.build(9, [[-1, 2], [1, -2]]), max_vars=[1], count_vars=ys,
                       exist_vars=[], deps={1: ys})
        t0 = time.perf_counter()
        s = solve_global(p)
        assert time.perf_counter() - t0 < 10
        assert s.achieved_count == 256
        assert s.functions[1].minterms == {m for m in minterms_of(ys) if m[0] > 0}


    def test_capacity_spends_one_probe_budget_per_solve(self, capsys, monkeypatch):
        # 8 cells and 9 choosers: Tb = 8 * 2^9 = 4,096 probes for the whole
        # incremental run. Once they pass it, the table answers every later
        # call; budgeted per call instead, the run probed 14,297 times
        inside, probes = [], []
        satisfiable, max_count = Engine.satisfiable, incremental.max_count

        def counting(self, assumptions=()):
            probes.append(bool(inside))
            return satisfiable(self, assumptions)

        def bnb(*args):
            inside.append(1)
            try:
                return max_count(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(Engine, "satisfiable", counting)
        monkeypatch.setattr(incremental, "max_count", bnb)
        path = resources.files("dqmaxsat").joinpath("bench", "capacity.atk")
        code, out, _ = run_cli(capsys, "solve-program", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["method"], doc["count"]) == ("incremental", 8)
        assert sum(probes) <= 4096 + 8 + 1


class TestWideSupport:
    """A one-minterm function over k existentials recounts in about k clauses."""

    @staticmethod
    def _instance_and_document(k):
        zs = " ".join(str(v) for v in range(3, k + 3))
        text = f"p dqmscnf {k + 2} 1\nd 1 {zs} 0\nr 2 0\ne {zs} 0\n1 2 0\n"
        doc = {"count": 2, "total": 2, "ratio": 1.0, "method": "global", "wall_ms": 0.0,
               "functions": {"1": {"support": list(range(3, k + 3)),
                                   "minterms": [list(range(3, k + 3))]}}}
        return text, doc

    def test_function_clauses_grow_with_the_support_not_its_space(self):
        k = 16
        text, doc = self._instance_and_document(k)
        problem = parse_instance(text)
        composed = apply_substitution(problem, cli.solution_from_document(doc))
        assert len(composed.clauses) - len(problem.cnf.clauses) <= 2 * k + 1

    def test_check_confirms_twenty_variables_quickly(self, capsys, tmp_path):
        text, doc = self._instance_and_document(20)
        instance, result = tmp_path / "wide.dqm", tmp_path / "wide.json"
        instance.write_text(text)
        result.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        outcome = run_cli(capsys, "check", str(instance), str(result))
        assert time.perf_counter() - t0 < 2.0
        assert outcome == (0, "ok: 2 of 2 confirmed\n", "")


class TestClausesAsWritten:
    """The engine cleans what the parser keeps: a raw twin prints the same."""

    def _outputs(self, capsys, tmp_path, text, method):
        path = tmp_path / "inst.dqm"
        path.write_text(text)
        count = run_cli(capsys, "count", str(path))
        code, out, err = run_cli(capsys, "solve", str(path), "--json", "--method", method)
        doc = json.loads(out)
        result = tmp_path / "r.json"
        result.write_text(out)
        check = run_cli(capsys, "check", str(path), str(result))
        doc["wall_ms"] = None
        for rec in doc.get("iterations", ()):
            rec["elapsed_ms"] = None
        return count, (code, doc, err), check

    @pytest.mark.parametrize("method", ["auto", "global", "incremental"])
    def test_raw_clauses_print_what_clean_ones_do(self, capsys, tmp_path, method):
        raw = self._outputs(capsys, tmp_path, COPY_OR_AND_RAW, method)
        clean = self._outputs(capsys, tmp_path, COPY_OR_AND, method)
        assert raw == clean
        assert raw[0] == (0, "4 of 4\n", "")
        assert raw[2] == (0, "ok: 3 of 4 confirmed\n", "")


class TestNotUtf8:
    @pytest.mark.parametrize("argv", [
        ("solve", "{bin}"), ("solve-program", "{bin}"), ("count", "{bin}"),
        ("check", "{bin}", "{doc}"), ("check", "{dqm}", "{bin}"),
    ], ids=["solve", "solve-program", "count", "check-instance", "check-document"])
    def test_exits_2_naming_the_file(self, capsys, tmp_path, instance_file, argv):
        binary = tmp_path / "bin.dqm"
        binary.write_bytes(b"\xff\xfe\x00")
        doc = tmp_path / "r.json"
        doc.write_text(run_cli(capsys, "solve", instance_file, "--json")[1])
        names = {"bin": str(binary), "doc": str(doc), "dqm": instance_file}
        code, out, err = run_cli(capsys, *(a.format(**names) for a in argv))
        assert code == 2
        assert out == ""
        assert f"{binary} is not UTF-8 text" in err


class TestByteOrderMark:
    def test_marked_files_print_what_the_plain_ones_print(self, capsys, tmp_path):
        text = resources.files("dqmaxsat").joinpath("bench", "copy_or_and.dqm").read_bytes()

        def outputs(name, mark):
            path = tmp_path / f"{name}.dqm"
            path.write_bytes(mark + text)
            count = run_cli(capsys, "count", str(path))
            code, doc, err = run_cli(capsys, "solve", str(path), "--json")
            doc_path = tmp_path / f"{name}.json"
            doc_path.write_bytes(mark + doc.encode())
            check = run_cli(capsys, "check", str(path), str(doc_path))
            # the wall time is the one part of the document that may differ
            solve = (code, re.sub(r'"wall_ms": [0-9.e+-]+', '"wall_ms": 0', doc), err)
            return count, solve, check

        plain = outputs("plain", b"")
        assert plain[0] == (0, "4 of 4\n", "")
        assert plain[1][0] == 0 and json.loads(plain[1][1])["count"] == 3
        assert plain[2] == (0, "ok: 3 of 4 confirmed\n", "")
        assert outputs("marked", codecs.BOM_UTF8) == plain


class TestModuleEntry:
    def test_python_m_dqmaxsat_runs_the_command_line(self, instance_file):
        src = os.path.dirname(os.path.dirname(dqmaxsat.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "dqmaxsat", "count", instance_file],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": path})
        assert (done.returncode, done.stdout, done.stderr) == (0, "4 of 4\n", "")


class TestCount:
    def test_ceiling_count(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "count", instance_file)
        assert code == 0
        assert out.strip() == "4 of 4"

    def test_program_ceiling(self, capsys, program_file):
        code, out, _ = run_cli(capsys, "count", program_file)
        assert code == 0
        assert out.strip() == "2 of 2"

    def test_counted_variables_no_clause_mentions_double_the_count(self, capsys, tmp_path):
        # one clause over 2 of the 40 counted variables: the other 38 are
        # multiplied out, not enumerated
        path = tmp_path / "wide.dqm"
        path.write_text(f"p dqmscnf 41 1\nd 41 1 0\nr {' '.join(map(str, range(1, 41)))} 0\n1 2 41 0\n")
        t0 = time.perf_counter()
        assert run_cli(capsys, "count", str(path)) == (0, "1099511627776 of 1099511627776\n", "")
        assert time.perf_counter() - t0 < 1


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys, *[])[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "explode")[0] == 2

    def test_unknown_method_rejected_by_parser(self, capsys, instance_file):
        assert run_cli(capsys, "solve", instance_file, "--method", "psychic")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_forced_local_on_ineligible_instance(self, capsys, tmp_path):
        # both choosers blind: no shared dependency variable to split on
        path = tmp_path / "blind.dqm"
        path.write_text("p dqmscnf 2 1\nd 1 0\nr 2 0\n1 2 0\n")
        code, _, err = run_cli(capsys, "solve", str(path), "--method", "local")
        assert code == 1
        assert "error" in err


# the message argparse gives for each budget flag: --budget checks its value,
# --leaf-budget is deleted (the split is capped by local.MAX_SPLIT_VARS), so
# any use of it is refused as an unknown flag
_BUDGET_USAGE_ERROR = {
    "--budget": "argument --budget",
    "--leaf-budget": "unrecognized arguments: --leaf-budget",
}


class TestSolverBudgets:
    @pytest.mark.parametrize("flag, value", [
        ("--budget", "0"), ("--budget", "-3"), ("--budget", "two"),
        ("--leaf-budget", "0"), ("--leaf-budget", "-1"),
    ])
    @pytest.mark.parametrize("method", ["auto", "global", "incremental", "local"])
    def test_budget_below_one_is_a_usage_error(self, capsys, instance_file, flag, value, method):
        code, out, err = run_cli(capsys, "solve", instance_file, "--method", method, flag, value)
        assert code == 2
        assert out == ""
        assert _BUDGET_USAGE_ERROR[flag] in err
        assert "Traceback" not in err

    def test_global_budget_is_applied(self, capsys, instance_file):
        # copy_or_and needs 4 selectors: a budget of 3 is refused, not ignored
        code, _, err = run_cli(capsys, "solve", instance_file, "--method", "global", "--budget", "3")
        assert code == 1
        assert "exceed the budget of 3" in err
        assert run_cli(capsys, "solve", instance_file, "--method", "global", "--budget", "4")[0] == 0

    def test_an_over_budget_global_solve_enumerates_nothing(self, capsys, monkeypatch, instance_file):
        # the selectors are counted before the row table enumerates anything
        enumerated = []
        monkeypatch.setattr(oracle, "enumerate_projected",
                            lambda *args, real=oracle.enumerate_projected, **kwargs:
                            enumerated.append(args[1]) or real(*args, **kwargs))
        code, _, err = run_cli(capsys, "solve", instance_file, "--method", "global", "--budget", "3")
        assert code == 1 and "exceed the budget of 3" in err
        assert enumerated == []

    @pytest.mark.parametrize("method", ["incremental", "auto"])
    def test_incremental_counts_the_selectors_it_will_reach(self, capsys, tmp_path, method):
        # two choosers, each seeing its own 22 existential variables: a full
        # run grows to 2 * 2^22 selectors, past the global reduction's budget,
        # and is refused before its first iteration; auto finds no split
        first, second = range(5, 27), range(27, 49)
        path = tmp_path / "wide.dqm"
        path.write_text("p dqmscnf 48 4\n"
                        f"d 1 {' '.join(map(str, first))} 0\n"
                        f"d 2 {' '.join(map(str, second))} 0\n"
                        "r 3 4 0\n"
                        f"e {' '.join(map(str, [*first, *second]))} 0\n"
                        "-1 3 0\n1 -3 0\n-2 4 0\n2 -4 0\n")
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "solve", str(path), "--method", method)
        assert time.perf_counter() - t0 < 5
        assert (code, out) == (1, "")
        assert "8388608 selectors exceed the budget of 1048576" in err
        # three iterations grow each support to one variable: 4 selectors
        assert run_cli(capsys, "solve", str(path), "--method", method, "--budget", "3")[0] == 0

    @pytest.mark.parametrize("method", ["auto", "global", "incremental", "local"])
    def test_every_method_refuses_a_chooser_past_the_selector_budget(self, capsys, tmp_path, method):
        # one chooser seeing 25 counted variables needs 2^25 selectors; the
        # local method's leaves would need as many in all, so it refuses up
        # front too, before it splits
        seen = " ".join(map(str, range(1, 26)))
        path = tmp_path / "wide.dqm"
        path.write_text(f"p dqmscnf 26 1\nd 26 {seen} 0\nr {seen} 0\n1 2 26 0\n")
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "solve", str(path), "--method", method)
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (1, "")
        assert "33554432 selectors exceed the budget of 1048576" in err

    def test_run_method_applies_a_zero_budget(self):
        problem, _ = cli.load_instance_text(COPY_OR_AND)
        with pytest.raises(BudgetExceeded):
            cli.run_method(problem, method="global", budget=0)

    @pytest.mark.parametrize("method", ["auto", "local"])
    def test_budget_is_refused_by_the_local_method(self, capsys, instance_file, method):
        # auto picks local on copy_or_and: the budget must not pass unnoticed
        code, out, err = run_cli(capsys, "solve", instance_file, "--method", method, "--budget", "1")
        assert code == 2
        assert out == ""
        assert "--budget" in err and "not to local" in err
        assert "Traceback" not in err

    def test_a_refused_local_solve_enumerates_nothing(self, capsys, monkeypatch, tmp_path):
        # an explicit --method local is refused before the row table is built
        enumerated = []
        monkeypatch.setattr(oracle, "enumerate_projected",
                            lambda *args, real=oracle.enumerate_projected, **kwargs:
                            enumerated.append(args[1]) or real(*args, **kwargs))
        path = tmp_path / "sum_reach_3.atk"
        path.write_text(BUNDLED["sum_reach_3.atk"])
        code, out, err = run_cli(capsys, "solve-program", str(path), "--method", "local", "--budget", "3")
        assert (code, out) == (2, "")
        assert "--budget applies to the global and incremental methods, not to local" in err
        assert enumerated == []

    def test_run_method_refuses_a_budget_for_local(self):
        problem, _ = cli.load_instance_text(COPY_OR_AND)
        with pytest.raises(cli.UsageError):
            cli.run_method(problem, budget=1)


def _option_strings(parser):
    return {flag for action in parser._actions for flag in action.option_strings}


class TestParser:
    def test_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_each_subcommand_has_exactly_its_options(self):
        parser = cli._build_parser()
        (subcommands,) = [a.choices for a in parser._actions if a.choices and a.dest == "command"]
        help_ = {"-h", "--help"}
        solver = help_ | {"--method", "--budget", "--json", "--trace"}
        assert _option_strings(parser) == help_
        assert {name: _option_strings(sp) for name, sp in subcommands.items()} == {
            "solve": solver,
            "solve-program": solver,
            "check": help_,
            "count": help_,
            "bench": help_ | {"--json"},
        }

    @pytest.mark.parametrize("flag, argv", [
        ("--seed", ("--seed=11", "solve", "{file}")),
        ("--policy", ("solve", "{file}", "--policy", "fixed-order")),
        ("--leaf-solver", ("solve", "{file}", "--leaf-solver", "incremental")),
        ("--suite", ("bench", "--suite", "default")),
        ("--leaf-budget", ("solve", "{file}", "--leaf-budget", "64")),
    ], ids=["seed", "policy", "leaf-solver", "suite", "leaf-budget"])
    def test_removed_flags_exit_2(self, capsys, instance_file, flag, argv):
        code, out, err = run_cli(capsys, *(a.format(file=instance_file) for a in argv))
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag}" in err

    def test_no_option_carries_over_between_calls(self, capsys, instance_file):
        argv = ("solve", instance_file, "--method", "incremental", "--json")
        capped = json.loads(run_cli(capsys, *argv, "--budget", "1")[1])
        full = json.loads(run_cli(capsys, *argv)[1])
        assert (len(capped["iterations"]), len(full["iterations"])) == (1, 3)
        assert run_cli(capsys, "count", instance_file)[1].strip() == "4 of 4"


class TestBenchPlumbing:
    def test_light_rows_have_expected_shape(self, capsys):
        # run the three cheap prefixed-CNF rows through the real loader
        rows = []
        from importlib import resources

        base = resources.files("dqmaxsat").joinpath("bench")
        for fname in cli._SUITE[:3]:
            text = base.joinpath(fname).read_text()
            problem, bitmap = cli.load_instance_text(text)
            assert bitmap is None
            solution, method, _ = cli.run_method(problem)
            rows.append((problem, solution))
        assert [s.achieved_count for _, s in rows] == [3, 3, 3]

    def test_suite_files_all_load(self):
        from importlib import resources

        base = resources.files("dqmaxsat").joinpath("bench")
        for fname in cli._SUITE:
            problem, bitmap = cli.load_instance_text(
                base.joinpath(fname).read_text()
            )
            assert problem.total >= 2
            assert (bitmap is None) == fname.endswith(".dqm")


_BENCH = resources.files("dqmaxsat").joinpath("bench")
BUNDLED = {name: _BENCH.joinpath(name).read_text() for name in cli._SUITE}
DQM_NAMES = sorted(n for n in BUNDLED if n.endswith(".dqm"))
ATK_NAMES = sorted(n for n in BUNDLED if n.endswith(".atk"))


class TestOversizeInput:
    def test_huge_undeclared_variable_range_exits_2_fast(self, capsys, tmp_path):
        # the header claims 10^8 variables and the text declares one
        path = tmp_path / "huge.dqm"
        path.write_text("p dqmscnf 99999999 1\nr 1 0\n1 0\n")
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "count", str(path))
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert "missing [2, 3, 4, 5, 6, ...] (99999998 in all)" in err

    def test_width_over_the_cap_exits_2(self, capsys, tmp_path):
        text = BUNDLED["sum_reach_3.atk"].replace("width 3", "width 99999")
        path = tmp_path / "wide.atk"
        path.write_text(text)
        code, _, err = run_cli(capsys, "solve-program", str(path))
        assert code == 2
        assert "line 3" in err and "exceeds the limit" in err


_LONG = "9" * 4000  # under int()'s limit of 4300 digits
_ATK = "width 4\nmode reach\nrandom r\n"


@pytest.mark.parametrize("parse,text,line,token", [
    (parse_program, f"width {_LONG}\nmode reach\n", 1, None),
    (parse_program, f"width 4\nmode reach\nrandom r in 0..{_LONG}\n", 3, _LONG),
    (parse_program, f"width 4\nmode reach\nrandom r in {_LONG}..1\n", 3, _LONG),
    (parse_program, f"{_ATK}win r == {_LONG}\n", 4, _LONG),
    (parse_program, f"{_ATK}win r == {'9' * 5000}\n", 4, "9" * 5000),
    (parse_program, f"{_ATK}win {'a' * 5000} == r\n", 4, "a" * 5000),
    (parse_program, f"{'a' * 5000} r\n", 1, "a" * 5000),
    (parse_instance, f"p dqmscnf 3 1\nr 1 2 3 0\n{'x' * 5000} 0\n", 3, None),
    (parse_instance, f"p dqmscnf 3 1\nr 1 2 3 0\n{'9' * 5000} 0\n", 3, None),
    (parse_instance, f"p dqmscnf {_LONG} 0\nr 1 0\n", 2, None),
    (parse_instance, f"p dqmscnf {_LONG} 1\nr 1 0\n1 0\n", 3, None),
    (parse_instance, f"p dqmscnf 1 1\nr 1 0\n{_LONG} 0\n", 3, None),
    (parse_instance, f"p dqmscnf 1 {_LONG}\nr 1 0\n1 0\n", 3, None),
    (parse_instance, f"p dqmscnf 1 0\nr {_LONG} 0\n", 2, None),
    (parse_instance, f"p dqmscnf 1 0\nd {_LONG} {_LONG} 0\n", 2, None),
], ids=["atk-width", "atk-range-bound", "atk-empty-range", "atk-constant", "atk-integer-too-long",
        "atk-unassigned-name", "atk-unknown-statement", "dqm-not-an-integer", "dqm-integer-too-long",
        "dqm-undeclared-in-all", "dqm-missing-before-clause", "dqm-literal", "dqm-clause-count",
        "dqm-variable-range", "dqm-d-line-duplicate"])
def test_diagnostics_cut_oversize_tokens_short(parse, text, line, token):
    # each token is echoed whole up to 20 characters, else cut to 20 and
    # its length; the position stays
    with pytest.raises((ProgramError, ParseError)) as err:
        parse(text)
    assert len(str(err.value)) < 200
    assert err.value.line == line
    if token is not None:
        assert err.value.col == text.splitlines()[line - 1].index(token) + 1


# ---------------------------------------------------------------------------
# fuzzing: mangled inputs exit 0, 1 or 2 and never raise out of main

_DQM_TOKENS = ["0", "1", "-1", "5", "-7", "99999999", "p", "d", "r", "e", "c", "dqmscnf",
               " ", "\n", "-", "x"]
_ATK_TOKENS = ["0", "1", "99999", "width", "mode", "reach", "leak", "random", "input",
               "observe", "assume", "win", ":=", "in", "..", "(", ")", "!", "+", "-", "==",
               ">=", "<=", "&&", "||", "#", " ", "\n"]
_JSON_TOKENS = ['"', "{", "}", "[", "]", ",", ":", "0", "-1", "99999999", "1e999", "null",
                "true", '"x"', '"count"', '"functions"', '"support"', '"minterms"']


@st.composite
def mangled(draw, texts, tokens):
    """A text with 1-4 spans replaced by a token, a short string or nothing."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        j = draw(st.integers(min_value=i, max_value=min(len(text), i + 12)))
        piece = draw(st.sampled_from(tokens) | st.text(max_size=3) | st.just(""))
        text = text[:i] + piece + text[j:]
    return text


def _run_fuzzed(capsys, *argv):
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    return code


@functools.cache
def _document(name):
    """The solve document of a bundled instance, without its timings."""
    problem, _ = cli.load_instance_text(BUNDLED[name])
    solution, method, _ = cli.run_method(problem)
    return json.dumps(cli.result_document(problem, solution, method, 0.0), indent=2)


_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzz:
    @_FUZZ
    @given(text=mangled([BUNDLED[n] for n in DQM_NAMES], _DQM_TOKENS))
    @example(text="p dqmscnf 99999999 1\nr 1 0\n1 0\n")
    @example(text="p dqmscnf 99999999 1\nr 1 0\n")
    def test_mangled_instances(self, capsys, tmp_path, text):
        path = tmp_path / "fuzz.dqm"
        path.write_text(text)
        _run_fuzzed(capsys, "count", str(path))
        _run_fuzzed(capsys, "solve", str(path), "--json")

    @_FUZZ
    @given(text=mangled([BUNDLED[n] for n in ATK_NAMES], _ATK_TOKENS))
    @example(text=BUNDLED["sum_reach_3.atk"].replace("width 3", "width 99999"))
    # a literal past int()'s default limit of 4300 digits
    @example(text="width 3\nmode leak\nrandom a in 0.." + "9" * 5000 + "\n")
    def test_mangled_programs(self, capsys, tmp_path, text):
        # only programs that no longer parse: a valid one may take long to solve
        try:
            parse_program(text)
        except ProgramError:
            pass
        else:
            assume(False)
        path = tmp_path / "fuzz.atk"
        path.write_text(text)
        _run_fuzzed(capsys, "count", str(path))
        assert _run_fuzzed(capsys, "solve-program", str(path)) == 2

    @_FUZZ
    @given(case=st.sampled_from(DQM_NAMES).flatmap(
        lambda name: st.tuples(st.just(name), mangled([_document(name)], _JSON_TOKENS))))
    # a function for a variable that is no chooser
    @example(case=("copy_or_and.dqm", _document("copy_or_and.dqm").replace(
        '"functions": {', '"functions": {"99999999999999999999999": {"support": [], "minterms": []}, ')))
    def test_mangled_documents(self, capsys, tmp_path, case):
        name, text = case
        instance = tmp_path / name
        instance.write_text(BUNDLED[name])
        result = tmp_path / "r.json"
        result.write_text(text)
        _run_fuzzed(capsys, "check", str(instance), str(result))
