"""Golden outputs: count, solve and check print the same bytes as before.

Speed-ups must not change a count, a function or a result document. Each
case is one instance: a benchmark instance generated with
perfbench/workloads.py, or a hand-written text for a path no benchmark
instance takes. Its digest (``golden.digest``: the sha256 of the three
outputs, timings zeroed) must equal the pinned one.

A digest changes only when an output does. If a change is meant to alter
outputs, say so and re-pin; a perf change never should.
"""

import pytest

from dqmaxsat import cli
from dqmaxsat.local import plan_split

from golden import digest, load_workloads

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
}


# local solves whose choosers keep a residual support after the split, so
# their leaves are not constant: the helper instance of tests/instances.py,
# and two-input adaptive reach games whose second input also sees an
# observation of the first input; taken before those leaves went through
# solve_global
HAND_WRITTEN = {
    "or_with_free_helper": (".dqm", """\
p dqmscnf 5 4
d 1 2 3 4 5 0
r 2 3 4 0
e 5 0
-1 2 5 0
1 -2 0
1 -5 0
-1 -4 3 0
"""),
    "sum_then_observed_window": (".atk", """\
width 2
mode reach
random y1
random y2
observe s := y1 + y2
input x1
observe o := y1 >= x1
input x2
assume x1 <= y2
win x2 <= y1 && y1 <= x2 + 1
"""),
    "difference_then_observed_guess": (".atk", """\
width 2
mode reach
random y1
random y2
observe s := y1 - y2
input x1
observe o := y1 >= x1
input x2
assume x1 <= y2
win x2 == y1
"""),
}

HAND_WRITTEN_GOLDEN = {
    "or_with_free_helper":
        "6e86843daccacc5f9a13a1e23739f30d954a27306f9564aa182c2b9e7b49df14",
    "sum_then_observed_window":
        "5d175f906691be0a40057a72757f341023c1ef7285f66e3a7e4c14adacfc862a",
    "difference_then_observed_guess":
        "7202be5f951cc340a73415b495fb0b9f0a2fc3d971d68d9dbebed30bcccca01b",
}


@pytest.mark.parametrize("workload, index", sorted(GOLDEN))
def test_outputs_match_pinned_digest(workload, index, tmp_path):
    inst = workloads.make_instance(workload, SEED, index)
    assert digest(tmp_path, inst.name, inst.suffix, inst.text) == GOLDEN[workload, index]


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_outputs_match_pinned_digest(name, tmp_path):
    suffix, text = HAND_WRITTEN[name]
    assert digest(tmp_path, name, suffix, text) == HAND_WRITTEN_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_cases_keep_a_residual_support(name):
    # they pin local leaves that are not constant: some chooser sees more
    # than the split variables
    problem = cli.load_instance_text(HAND_WRITTEN[name][1])[0]
    split = plan_split(problem)
    assert any(problem.deps[x] != set(split) for x in problem.max_vars)
