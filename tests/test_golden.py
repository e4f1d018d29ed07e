"""Golden outputs: count, solve and check print the same bytes as before.

Speed-ups must not change a count, a function or a result document. Each
case generates one benchmark instance with perfbench/workloads.py (imported
as it is, not copied), runs ``count``, ``solve``/``solve-program --json``
and ``check`` through ``cli.main``, and compares the sha256 of the three
outputs with a pinned digest. The timings ``wall_ms`` and each iteration's
``elapsed_ms`` are zeroed before hashing; everything else counts, key order
and layout included.

A digest changes only when an output does. If a change is meant to alter
outputs, say so and re-pin; a perf change never should.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dqmaxsat import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 1


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


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


def _run(capsys, argv: list[str]) -> str:
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def _masked(document: str) -> str:
    doc = json.loads(document)
    doc["wall_ms"] = 0
    for record in doc.get("iterations", ()):
        record["elapsed_ms"] = 0
    return json.dumps(doc, indent=2)


@pytest.mark.parametrize("workload, index", sorted(GOLDEN))
def test_outputs_match_pinned_digest(workload, index, tmp_path, capsys):
    inst = workloads.make_instance(workload, SEED, index)
    path = tmp_path / (inst.name + inst.suffix)
    path.write_text(inst.text)
    solve = "solve-program" if inst.suffix == ".atk" else "solve"
    counted = _run(capsys, ["count", str(path)])
    document = _run(capsys, [solve, str(path), "--json"])
    doc_path = tmp_path / (inst.name + ".json")
    doc_path.write_text(document)
    checked = _run(capsys, ["check", str(path), str(doc_path)])
    digest = hashlib.sha256("\n".join([counted, _masked(document), checked]).encode()).hexdigest()
    assert digest == GOLDEN[workload, index]
