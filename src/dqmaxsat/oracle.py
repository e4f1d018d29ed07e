"""Max#SAT oracle: pick choice-variable values maximizing a projected count.

max_count answers requests of the form "which assignment of the choice
variables leaves the most count-variable cells reachable", always comparing
against a caller-supplied incumbent. The caller also supplies the cells
reachable with every choice free, from reachable_cells, so a solve
enumerates them once however many calls it makes.
brute_force_dqmaxsat is the function-space reference oracle: it enumerates
whole strategy tuples over truth tables and is intended for small instances
and for cross-checking the real solvers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .engine import Engine, enumerate_projected
from .formula import Cnf, MintermFunction, Problem, Solution, minterms_of


class MalformedRequest(ValueError):
    """The request breaks the oracle's input contract."""


class InstanceTooLarge(ValueError):
    """The instance exceeds a hard enumeration guard."""


@dataclass(frozen=True)
class OracleRequest:
    """One maximization query.

    The choice variables are the incumbent's keys. cells are the
    count-cells the objective reaches with them free, as reachable_cells
    gives them: one literal per count variable, in ascending order. Other
    variables of the objective are existential.
    """

    objective: Cnf
    incumbent: Mapping[int, bool]
    cells: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class OracleResult:
    best: Mapping[int, bool]
    best_count: int


def reachable_cells(f: Cnf, count_vars: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The count-cells that some model of f reaches.

    A cell has one literal per count variable, in ascending variable order,
    and cells come in lexicographic order, false first.
    A selector objective reaches the same cells as the problem's own CNF:
    the selector of each point's active monomial can take the chooser's
    value there. So the cells of p.cnf serve every request over p.
    """
    cells: list[tuple[int, ...]] = []
    enumerate_projected(f, count_vars, visit=cells.append)
    return tuple(cells)


def max_count(req: OracleRequest) -> OracleResult:
    """Best assignment of the choice variables, incumbent included.

    The count variables are read off the first cell; a request whose cells
    are not all over them, in ascending order, is malformed.

    Depth-first branch and bound over the choice variables in ascending id
    order, false branch first, accepting only strict improvements; the
    first optimum found is therefore the lexicographically least one, and
    the incumbent wins all ties. Each node keeps the list of count-cells
    still individually reachable below it; the list only shrinks along a
    branch, bounding every completion from above.

    Whether a cell stays reachable at a child node is settled in one of
    three ways. A cell carries the last model the engine found for it; if
    that model agrees with the child's new literal, it is a model of the
    child's query too, and the cell is kept. A cell also keeps the
    assumption cores of its failed probes; if one lies inside the child's
    literals, the cell is dropped. Otherwise the engine is asked. Each way
    gives the answer an engine call would, so the search accepts the same
    strict improvements in the same order as one that asks every time, and
    the result is still the lexicographically least optimum.

    One engine serves a call, and it only probes: the root's cells come
    with the request. The incumbent is counted on it, one probe per root
    cell under the incumbent's literals, and those probes' witnesses and
    cores are what the root's cells start with.
    """
    ms = sorted(req.incumbent)
    incumbent = {v: bool(req.incumbent[v]) for v in ms}
    root_cells = req.cells
    ys = [abs(lit) for lit in root_cells[0]] if root_cells else []
    if ys != sorted(set(ys)) or any(list(map(abs, cell)) != ys for cell in root_cells):
        raise MalformedRequest("the cells are not over one ascending set of variables")
    nv = max([req.objective.num_vars] + ms + ys, default=0)

    # a cell entry: the cell, its last witness (None until probed), its cores
    Entry = tuple[tuple[int, ...], Optional[list[int]], list[frozenset[int]]]

    # the incumbent's count: each root cell probed under the incumbent's
    # literals, which come first so every probe keeps their levels; the
    # witnesses and cores found here seed the root entries
    probe = Engine(nv, req.objective.clauses)
    inc_lits = [v if incumbent[v] else -v for v in ms]
    roots: list[Entry] = []
    for cell in root_cells:
        if probe.satisfiable([*inc_lits, *cell]):
            roots.append((cell, probe.witness, []))
        else:
            roots.append((cell, None, [frozenset(probe.core).difference(cell)]))
    best_count = sum(wit is not None for _, wit, _ in roots)
    best = incumbent
    if len(root_cells) <= best_count:
        return OracleResult(best, best_count)

    assumed: list[int] = []
    here: set[int] = set()  # the literals of assumed

    def refine(cells: list[Entry], lit: int) -> Optional[list[Entry]]:
        # None = this branch provably cannot strictly beat best_count
        v, value = abs(lit), (1 if lit > 0 else -1)
        surviving: list[Entry] = []
        remaining = len(cells)
        for entry in cells:
            remaining -= 1
            cell, wit, cores = entry
            if wit is not None and wit[v] == value:
                surviving.append(entry)
            elif not any(core <= here for core in cores):
                # the shared B&B prefix first: the engine keeps its levels between probes
                if probe.satisfiable([*assumed, *cell]):
                    surviving.append((cell, probe.witness, cores))
                else:
                    cores.append(frozenset(probe.core).difference(cell))
            if len(surviving) + remaining <= best_count:
                return None
        return surviving

    # explicit DFS stack, one frame per node on the current branch: the
    # node's cells and how many of its two branches have been tried
    stack: list[list] = [[roots, 0]]
    while stack:
        frame = stack[-1]
        cells, tried = frame
        if len(cells) > best_count and len(assumed) == len(ms):
            best_count = len(cells)
            best = {v: lit > 0 for v, lit in zip(ms, assumed)}
        if tried == 2 or len(cells) <= best_count:
            stack.pop()
            if assumed:
                here.discard(assumed.pop())
            continue
        frame[1] = tried + 1
        v = ms[len(assumed)]
        lit = v if tried else -v
        assumed.append(lit)
        here.add(lit)
        narrowed = refine(cells, lit)
        if narrowed is not None:
            stack.append([narrowed, 0])
            continue
        here.discard(assumed.pop())

    return OracleResult(best, best_count)


def _var_mask(v: int, num_vars: int) -> int:
    half = 1 << (v - 1)
    period = half << 1
    rows = 1 << num_vars
    block = ((1 << half) - 1) << half
    return ((1 << rows) - 1) // ((1 << period) - 1) * block


def brute_force_dqmaxsat(p: Problem) -> Solution:
    """Exact optimum by exhausting every strategy tuple on truth tables.

    Candidate tuples are visited with each variable's minterm subsets in
    ascending bitmask order (mask bit j selects the j-th canonical minterm)
    and the last prefix variable cycling fastest; the first strict maximum
    is kept, which fixes the tie-break.
    """
    work = sum(1 << len(p.deps[x]) for x in p.max_vars)
    if work > 20:
        raise InstanceTooLarge(f"{work} selector positions exceed the guard of 20")
    if p.cnf.num_vars > 24:
        raise InstanceTooLarge(f"{p.cnf.num_vars} variables exceed the truth-table guard of 24")

    nv = p.cnf.num_vars
    full = (1 << (1 << nv)) - 1
    masks = {0: 0}  # literal -> truth-table mask; 0 sentinel unused
    for v in range(1, nv + 1):
        masks[v] = _var_mask(v, nv)
        masks[-v] = ~masks[v] & full

    phi = full
    for clause in p.cnf.clauses:
        cm = 0
        for lit in clause:
            cm |= masks[lit]
        phi &= cm

    def monomial_mask(m: tuple[int, ...]) -> int:
        acc = full
        for lit in m:
            acc &= masks[lit]
        return acc

    per_var_terms = [[monomial_mask(m) for m in minterms_of(sorted(p.deps[x]))] for x in p.max_vars]
    ys = sorted(p.count_vars)
    cell_masks = []
    for k in range(1 << len(ys)):
        acc = full
        for j, y in enumerate(ys):
            acc &= masks[y] if k >> j & 1 else masks[-y]
        cell_masks.append(acc)

    best_count = -1
    best_masks: tuple[int, ...] = ()
    for combo in itertools.product(*(range(1 << len(t)) for t in per_var_terms)):
        m = phi
        for x_ix, subset in enumerate(combo):
            f_mask = 0
            for j, term in enumerate(per_var_terms[x_ix]):
                if subset >> j & 1:
                    f_mask |= term
            m &= ~(masks[p.max_vars[x_ix]] ^ f_mask) & full
            if not m:
                break
        count = sum(1 for cm in cell_masks if m & cm) if m else 0
        if count > best_count:
            best_count = count
            best_masks = combo

    functions = {}
    for x, subset in zip(p.max_vars, best_masks):
        support = sorted(p.deps[x])
        terms = minterms_of(support)
        functions[x] = MintermFunction.of(
            support, [terms[j] for j in range(len(terms)) if subset >> j & 1]
        )
    return Solution(functions=functions, achieved_count=best_count, total=p.total)
