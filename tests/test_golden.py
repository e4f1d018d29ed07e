"""Golden outputs: count, solve and check print the same bytes as before.

Speed-ups must not change a count, a function or a result document. Each
case is one instance: a benchmark instance generated with
perfbench/workloads.py, or a hand-written text (tests/hand_written.py) for
a path no benchmark instance takes. Its digest (``golden.digest``: the
sha256 of the three outputs, timings zeroed) must equal the pinned one.

A digest changes only when an output does. If a change is meant to alter
outputs, say so and re-pin; a perf change never should.
"""

from importlib import resources

import pytest

from dqmaxsat import cli, local, oracle, reduction
from dqmaxsat.formula import eliminate_unseen
from dqmaxsat.local import plan_split

from golden import digest, formula_sizes, load_workloads, main
from hand_written import HAND_WRITTEN, RESIDUAL

SEED = 1

workloads = load_workloads()


# taken at SEED before projection-first enumeration landed
GOLDEN = {
    ("local-reach", 0):
        "185dd5d254b11be82ee4052b9eda62c7418dedc8c4b5c0e1ae0eb7f576bd871f",
    ("local-reach", 1):
        "7a7d1fc17dcae757cdca7c789e1773920ea8275572317f7c5541197ebc1a0c6c",
    ("local-reach", 2):
        "7e416c4f22c072b59627a65311c37ad480859cc93177e8cc4d95c6c8ce977e2e",
    ("local-reach", 3):
        "01d01be1413fe4fc645587252e82ec72f4e126df20997dcdab37ffc27ca22405",
    ("incremental-probes", 0):
        "3ceba3572e7d145f145fa7e4b1d4bc8488db9bc81dd09b3b8a8b69777c1dbf3a",
    ("incremental-probes", 1):
        "ebf862774c4ec9acf59c39e2e5f35a1f08114108f407a919861f36136c39207c",
    ("incremental-probes", 2):
        "2c9bea3efc58d3856c9c3f55801827783230e308f9594c1d2d3950d9ee474019",
    ("incremental-probes", 3):
        "58e3655d7de0ff1fd493f4a46aee460ef4d6c271350e89fbc8fd059e584d2999",
    ("count-dqm", 0):
        "c72719113dfa2ba05ca92e477b75924d018abdad7951ea51148eb38c4af059a1",
    ("count-dqm", 1):
        "f68b57af0fe2ded0d76a630bbdd0f7302ccec26f07c862af081c567b245f78b1",
    ("count-dqm", 2):
        "a43ec9ec59bbbf577e9e96a836ebff0783bc8d06fd8a13bbf989ef51b18733a4",
    ("count-dqm", 3):
        "2c88e9012901e8272e115041d5f8c7b0b5dde5fa310832cf3084e29e2aad8f2e",
    # full supports not chain-shaped; taken before such calls probed rows
    ("count-dqm", 5):
        "f7c15670b4cfe15ea000151c68a9229b17db2d70ae1a941208fad77ad2bc34ac",
}


# taken for the helper and the width-2 games before residual leaves went
# through solve_global, and for the others before local solved whole
# wherever oracle.holds_rows holds
HAND_WRITTEN_GOLDEN = {
    "or_with_free_helper":
        "6e86843daccacc5f9a13a1e23739f30d954a27306f9564aa182c2b9e7b49df14",
    "sum_then_observed_window":
        "5d175f906691be0a40057a72757f341023c1ef7285f66e3a7e4c14adacfc862a",
    "difference_then_observed_guess":
        "7202be5f951cc340a73415b495fb0b9f0a2fc3d971d68d9dbebed30bcccca01b",
    "sum_then_observed_window_width3":
        "6d9fcc972215bc02ac5dc27ab0f06fd049a39ab8828afeef3016e8e4c2adf508",
    "difference_then_observed_guess_width3":
        "c735219eca36209835695c60479f90676f31cf568fc39ac1dcf482dda44d7907",
    "three_constant_choosers":
        "c5f29d9b25dee1610c2a70bf21dbbe81a71181b882356afb57401fb91b341a96",
}

# the leaves solve_local takes; every other case is solved whole by one
# global reduction, since its table holds its rows
LEAVES = {"or_with_free_helper": 8, "three_constant_choosers": 2}


@pytest.mark.parametrize("workload, index", sorted(GOLDEN))
def test_outputs_match_pinned_digest(workload, index, tmp_path):
    inst = workloads.make_instance(workload, SEED, index)
    assert digest(tmp_path, inst.name, inst.suffix, inst.text) == GOLDEN[workload, index]


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_outputs_match_pinned_digest(name, tmp_path):
    suffix, text = HAND_WRITTEN[name]
    assert digest(tmp_path, name, suffix, text) == HAND_WRITTEN_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_cases_solve_whole_exactly_where_the_table_holds_its_rows(name, monkeypatch):
    problem = cli.load_instance_text(HAND_WRITTEN[name][1])[0]
    leaves, reductions = [], []
    solve_leaf = local.LEAF_SOLVERS["global"]
    monkeypatch.setitem(local.LEAF_SOLVERS, "global",
                        lambda leaf: leaves.append(leaf) or solve_leaf(leaf))
    monkeypatch.setattr(reduction, "build_reduction",
                        lambda *args, real=reduction.build_reduction: reductions.append(args) or real(*args))
    method = cli.run_method(problem)[1]
    assert method == "local"
    want = LEAVES.get(name, 0)
    assert (len(leaves), len(reductions)) == (want, max(want, 1))
    assert oracle.holds_rows(eliminate_unseen(problem)) == (want == 0)


@pytest.mark.parametrize("name", sorted(RESIDUAL))
def test_hand_written_cases_keep_a_residual_support(name):
    # they pin local solves whose choosers are not all constant on a leaf:
    # some chooser sees more than the split variables
    problem = cli.load_instance_text(HAND_WRITTEN[name][1])[0]
    split = plan_split(problem)
    assert any(problem.deps[x] != set(split) for x in problem.max_vars)


def test_formula_sizes_are_printed_per_workload(capsys):
    assert main(["--seed", str(SEED), "--count", "2", "--formula"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(workloads.WORKLOADS)
    text = resources.files("dqmaxsat").joinpath("bench", "sum_reach_3.atk").read_text()
    problem = cli.load_instance_text(text)[0]
    assert formula_sizes([problem]) == \
        "39 variables; loaded 75 clauses, 73 non-unit; reduced 70 clauses, 47 non-unit"
