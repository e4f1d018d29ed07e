"""Command line behavior: outputs, round-trips, exit codes."""

import json

import pytest

from dqmaxsat import cli

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

    def test_budget_limits_iterations(self, capsys, instance_file):
        code, out, _ = run_cli(
            capsys, "solve", instance_file, "--method", "incremental", "--budget", "1", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["iterations"]) == 1
        assert doc["count"] == 2

    def test_seed_accepted(self, capsys, instance_file):
        code, _, _ = run_cli(capsys, "--seed", "11", "solve", instance_file)
        assert code == 0

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


class TestCount:
    def test_ceiling_count(self, capsys, instance_file):
        code, out, _ = run_cli(capsys, "count", instance_file)
        assert code == 0
        assert out.strip() == "4 of 4"

    def test_program_ceiling(self, capsys, program_file):
        code, out, _ = run_cli(capsys, "count", program_file)
        assert code == 0
        assert out.strip() == "2 of 2"


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


class TestBenchPlumbing:
    def test_unknown_suite_via_api(self):
        with pytest.raises(cli.DocumentError):
            cli.bench_rows("nope")

    def test_light_rows_have_expected_shape(self, capsys):
        # run the three cheap prefixed-CNF rows through the real loader
        rows = []
        from importlib import resources

        base = resources.files("dqmaxsat").joinpath("bench")
        for fname in cli._SUITES["default"][:3]:
            text = base.joinpath(fname).read_text()
            problem, bitmap = cli.load_instance_text(text)
            assert bitmap is None
            solution, method, _ = cli.run_method(problem)
            rows.append((problem, solution))
        assert [s.achieved_count for _, s in rows] == [3, 3, 3]

    def test_suite_files_all_load(self):
        from importlib import resources

        base = resources.files("dqmaxsat").joinpath("bench")
        for fname in cli._SUITES["default"]:
            problem, bitmap = cli.load_instance_text(
                base.joinpath(fname).read_text()
            )
            assert problem.total >= 2
            assert (bitmap is None) == fname.endswith(".dqm")
