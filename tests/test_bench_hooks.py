"""The names the benchmark's tracer wraps stay where it looks for them.

The benchmark (perfbench/spans.py) replaces attributes of the package's
modules by timing wrappers, at fixed names: ``cli.plan_split`` next to
``local.plan_split``, ``Engine.solve`` in the class dict, the values of
``local.LEAF_SOLVERS``, and it reads ``IncrementalState.filter`` off every
``expand``; its encode span needs ``cli.encode`` to stay the name that
solve-program calls. No solver path needs some of them, so only this guard
keeps them from being removed while the benchmark still wraps them. It loads
spans.py as it is, installs its tracer, runs two local solves (one with
constant leaves, one whose leaves still go through ``local.LEAF_SOLVERS``)
and one incremental solve through the command line, and uninstalls.

``IncrementalState.objective`` is built on first read, so the tracer's read
of it off each expanded state builds it. That read comes after the
``expand`` span has ended, so under ``--trace 1`` the build's time goes to
the enclosing span instead of ``incremental.expand``; only the per-layer
split moves, and the oracle call that follows reuses the built objective.
"""

import importlib.util
import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from dqmaxsat import cli, counting, engine, incremental, local, oracle, reduction
from dqmaxsat.dimacs import render_instance

import instances

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
BENCH = resources.files("dqmaxsat").joinpath("bench")
MODULES = {"cli": cli, "local": local, "reduction": reduction, "incremental": incremental,
           "oracle": oracle, "counting": counting, "engine": engine}


def _spans_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _solve(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_tracer_wraps_a_local_and_an_incremental_solve(capsys, monkeypatch, tmp_path):
    spans = _spans_module(monkeypatch)
    originals = {name: getattr(module, name) for name, module in
                 (("plan_split", cli), ("expand", incremental), ("max_count", reduction))}
    solve_method = engine.Engine.__dict__["solve"]
    helper = tmp_path / "helper.dqm"
    helper.write_text(render_instance(instances.or_with_free_helper()))
    tracer = spans.Tracer(MODULES)
    tracer.install()
    try:
        local_doc = _solve(capsys, "solve-program", str(BENCH / "sum_reach_3.atk"), "--json")
        local_spans = len(tracer.spans)
        helper_doc = _solve(capsys, "solve", str(helper), "--json")
        helper_spans = len(tracer.spans)
        incremental_doc = _solve(capsys, "solve", str(BENCH / "copy_or_and.dqm"),
                                 "--method", "incremental", "--json")
        assert engine.Engine(2, [[1, 2]]).solve() == {1: False, 2: True}
    finally:
        tracer.uninstall()
    assert local_doc["method"] == helper_doc["method"] == "local"
    assert incremental_doc["method"] == "incremental"
    assert local_doc["count"] == 26 and helper_doc["count"] == 7 and incremental_doc["count"] == 3

    # the local solve alone, as the benchmark counts per local-reach solve
    local_layers = spans.analyze(tracer.spans[:local_spans], tracer.main_thread).layers
    # choose_method plans through cli.plan_split, solve_local through local's,
    # and the local method recounts before the command line recounts again
    assert local_layers["local.plan_split"].calls == 2
    assert local_layers["counting.check_solution"].calls == 2
    # every chooser bit of sum_reach_3 sees exactly its three split bits:
    # the constant leaves come from one enumeration, with no leaf solver
    # and no oracle call
    assert spans.LEAF not in local_layers
    assert "oracle.max_count" not in local_layers
    assert "reduction.build_reduction" not in local_layers

    # the helper's chooser keeps a residual support, so solve_local looks its
    # leaf solver up in the table the tracer wrapped: one leaf span per
    # cofactor of its three split variables, and each leaf is one global
    # reduction and one oracle call, through the names
    # reduction.build_reduction and reduction.max_count
    helper_layers = spans.analyze(tracer.spans[local_spans:helper_spans], tracer.main_thread).layers
    assert list(local.LEAF_SOLVERS) == ["global"]
    assert helper_layers["local.plan_split"].calls == 2
    assert helper_layers[spans.LEAF].calls == 8
    assert helper_layers["reduction.build_reduction"].calls == 8
    assert helper_layers["oracle.max_count"].calls == 8

    split = spans.analyze(tracer.spans, tracer.main_thread)
    layers = split.layers
    # solve-program bitblasts once, through the name cli.encode the tracer wraps
    assert layers["bitvec.encode"].calls == 1
    expand = layers["incremental.expand"]
    assert expand.calls == 2
    # (objective clauses, filter clauses) off each expanded state
    assert [len(v) for v in expand.values] == [2, 2]
    assert all(clauses > 0 and filtered == 0 for clauses, filtered in expand.values)
    assert layers["engine.solve"].calls == 1
    assert layers["engine.satisfiable"].calls > 0
    assert split.accounted_s == pytest.approx(split.roots_s, rel=1e-9)

    for name, module in (("plan_split", cli), ("expand", incremental), ("max_count", reduction)):
        assert getattr(module, name) is originals[name]
    assert engine.Engine.__dict__["solve"] is solve_method
