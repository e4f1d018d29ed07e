"""Spans recorded from outside the program, around calls into its layers.

``Tracer.install`` replaces module attributes of ``dqmaxsat`` by timing
wrappers, at the names the code actually calls them through (``cli``
imports ``check_solution`` into its own namespace, ``local`` keeps its leaf
solvers in a dict, and so on), and ``uninstall`` puts the originals back.
Each call becomes one span: name, start, end, parent span, thread, and one
value read off the call (a result or a size) for the per-layer counts.

The local method solves its leaves on pool threads. A span opened on a
thread with nothing open becomes a child of the ``local.solve_local`` span
that started the pool, so leaves stay inside the solve that caused them,
but their time is kept apart: the leaves of one solve overlap each other,
and only the union of their intervals is time that the solve spent.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# span fields: id, name, start, end, parent id (0 for none), thread, value
Span = tuple


def _result(args, result):
    return result


def _expand_sizes(args, state):
    return len(state.objective.clauses), len(state.filter.clauses)


def _selector_count(args, result):
    return len(result[1].owner)


# (module, attribute, span name, value read off the call)
TARGETS = (
    ("cli", "parse_instance", "dimacs.parse_instance", None),
    ("cli", "encode", "bitvec.encode", None),
    ("cli", "choose_method", "cli.choose_method", None),
    ("cli", "plan_split", "local.plan_split", None),
    ("local", "plan_split", "local.plan_split", None),
    ("local", "functionally_dependent", "local.functionally_dependent", None),
    ("cli", "solve_local", "local.solve_local", None),
    ("reduction", "build_reduction", "reduction.build_reduction", _selector_count),
    ("reduction", "max_count", "oracle.max_count", None),
    ("incremental", "max_count", "oracle.max_count", None),
    ("cli", "run_incremental", "incremental.run", None),
    ("incremental", "expand", "incremental.expand", _expand_sizes),
    ("oracle", "enumerate_projected", "engine.enumerate_projected", _result),
    ("counting", "enumerate_projected", "engine.enumerate_projected", _result),
    ("cli", "check_solution", "counting.check_solution", None),
    ("local", "check_solution", "counting.check_solution", None),
    ("cli", "lift", "bitvec.lift", None),
    ("cli", "result_document", "cli.result_document", None),
    ("engine", "Engine.satisfiable", "engine.satisfiable", _result),
    ("engine", "Engine.solve", "engine.solve", None),
)
LEAF = "local.leaf"
POOL_ROOT = "local.solve_local"


class Tracer:
    def __init__(self, package: dict[str, Any]):
        """package maps module short names (cli, local, ...) to the imported modules."""
        self.package = package
        self.spans: list[Span] = []
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1).__next__
        self._local = threading.local()
        self._pool_parent = 0
        self._undo: list[Callable[[], None]] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrapped(self, fn: Callable, name: str, value: Optional[Callable] = None,
                cpu: bool = False) -> Callable:
        """fn with every call recorded as a span."""
        clock = time.perf_counter
        thread_clock = time.thread_time
        get_ident = threading.get_ident
        record = self.spans.append
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            thread = get_ident()
            if stack:
                parent = stack[-1]
            else:
                parent = 0 if thread == tracer.main_thread else tracer._pool_parent
            sid = tracer._ids()
            stack.append(sid)
            if name == POOL_ROOT:
                outer, tracer._pool_parent = tracer._pool_parent, sid
            cpu0 = thread_clock() if cpu else 0.0
            start = clock()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                # calls that raise are spans too (plan_split does when
                # nothing qualifies), just without a value
                end = clock()
                stack.pop()
                if name == POOL_ROOT:
                    tracer._pool_parent = outer
                if cpu:
                    extra = thread_clock() - cpu0
                else:
                    extra = value(args, result) if value and returned else None
                record((sid, name, start, end, parent, thread, extra))

        return traced

    def install(self) -> None:
        for module, attr, name, value in TARGETS:
            owner = self.package[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self.wrapped(original, name, value))
            self._undo.append(lambda o=owner, a=attr, f=original: setattr(o, a, f))
        leaves = self.package["local"].LEAF_SOLVERS
        saved = dict(leaves)
        for key, fn in saved.items():
            leaves[key] = self.wrapped(fn, LEAF, cpu=True)
        self._undo.append(lambda: leaves.update(saved))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class Layer:
    calls: int = 0
    incl_s: float = 0.0
    self_main_s: float = 0.0
    self_pool_s: float = 0.0
    values: list = field(default_factory=list)


@dataclass
class Split:
    """Where the traced time went; see ``analyze``."""

    layers: dict[str, Layer]
    roots_s: float  # summed duration of the per-operation root spans
    main_self_s: float  # self time of every span on the calling thread
    pool_union_s: float  # per pool, the union of its leaf intervals
    pool_self_s: float  # self time of every span on pool threads
    satisfiable_in_max_count: int
    calls_by_root: dict[str, dict[str, int]]  # root span name -> layer -> calls

    @property
    def accounted_s(self) -> float:
        return self.main_self_s + self.pool_union_s


def analyze(spans: list[Span], main_thread: int) -> Split:
    """Per-layer calls, inclusive and self time, and the time accounting.

    A span's self time is its duration minus the union of its children's
    intervals. On the calling thread children never overlap, so the self
    times there add up to the root spans exactly, except for the pool:
    ``local.solve_local`` loses the union of its leaf intervals, which
    ``pool_union_s`` adds back once. ``pool_self_s`` sums the leaves' own
    self times, which counts overlapping leaves twice.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s[4]:
            children[s[4]].append(s)
    layers: dict[str, Layer] = defaultdict(Layer)
    roots = main_self = pool_union = pool_self = 0.0
    sat_in_oracle = 0
    root_of: dict[int, str] = {}
    calls_by_root: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def root_name(s: Span) -> str:
        chain = []
        while s[4] and s[0] not in root_of:
            chain.append(s[0])
            s = by_id[s[4]]
        name = root_of.get(s[0], s[1])
        for sid in chain:
            root_of[sid] = name
        return name

    for s in spans:
        sid, name, start, end, parent, thread, extra = s
        kids = children.get(sid, [])
        own = (end - start) - _union([(max(k[2], start), min(k[3], end)) for k in kids if k[3] > k[2]])
        layer = layers[name]
        layer.calls += 1
        layer.incl_s += end - start
        if extra is not None:
            layer.values.append(extra)
        if thread == main_thread:
            layer.self_main_s += own
            main_self += own
        else:
            layer.self_pool_s += own
            pool_self += own
        if parent:
            calls_by_root[root_name(s)][name] += 1
        else:
            roots += end - start
        if name == POOL_ROOT:
            pool_union += _union([(k[2], k[3]) for k in kids if k[5] != main_thread])
        if name == "engine.satisfiable":
            up = by_id.get(parent)
            while up is not None and up[1] != "oracle.max_count":
                up = by_id.get(up[4])
            sat_in_oracle += up is not None
    return Split(dict(layers), roots, main_self, pool_union, pool_self, sat_in_oracle,
                 {root: dict(calls) for root, calls in calls_by_root.items()})
