"""Max#SAT oracle: pick choice-variable values maximizing a projected count.

Requests ask "which assignment of the choice variables leaves the most
count-variable cells reachable", always comparing against a caller-supplied
incumbent. The cells reachable with every choice free come with the
request; the solve's ChainTable gives them, so a solve enumerates them once
however many calls it makes. Two answers give the same result, the
incumbent on a tie and otherwise the lexicographically least optimum:

- max_count, a branch and bound (B&B) over the selectors that probes cells
  on a SAT engine and keeps each cell's last model, for any request;
- ChainTable.solve, a dynamic program over one table of rows per solve, for
  chain-shaped calls of a problem whose full supports are chain-shaped:
  the choosers' supports are nested, and every newly observed variable is
  counted or forced. Such a call is an exist/random game tree (Littman,
  Majercik & Pitassi, JAR 2001), a max over chooser tuples, then a sum
  over the observed values; Max#SAT over constant choices is its
  one-block case (Fremont, Rabe & Seshia, AAAI 2017), and this DP is the
  only code that solves it.

oracle_call asks the table first exactly when it holds its rows. Forcing
bounds them by Tb = |cells| · 2^|X| for |X| choosers, one row per cell and
chooser tuple. The table enumerates them at construction where a full
table is small (|X| <= |Y| and 2^(|X|+|Y|) <= ROW_GUARD) and projects the
cells off them, so such a solve enumerates once in all. Otherwise the B&B
runs with one budget of Tb probes for the whole solve: the table counts
the probes of all its calls. Once they pass Tb, the table enumerates its
rows, which the solve has then paid for in probes, and is asked first on
that call and every later one. A call it cannot answer goes on the B&B
without a budget, and so does every call of a problem whose full supports
are not chain-shaped.

brute_force_dqmaxsat is the function-space reference oracle: it enumerates
whole strategy tuples over truth tables and is intended for small instances
and for cross-checking the real solvers.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional

from .engine import Engine, enumerate_projected
from .formula import Cnf, MintermFunction, Problem, Solution, minterms_of

if TYPE_CHECKING:
    from .reduction import SelectorMap

# a table enumerates its rows at construction only where a full table of
# |cells| · 2^|X| rows, with every cell reachable, has at most this many
ROW_GUARD = 1 << 17


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


class DeferredRequest(OracleRequest):
    """A request whose objective is built on its first read.

    Only max_count reads it, so a call that the row table answers builds
    none.
    """

    def __init__(self, objective: Callable[[], Cnf], incumbent: Mapping[int, bool],
                 cells: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "_build", objective)
        object.__setattr__(self, "incumbent", incumbent)
        object.__setattr__(self, "cells", cells)

    @functools.cached_property
    def objective(self) -> Cnf:
        return self._build()


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


def max_count(req: OracleRequest,
              budget: Optional[Callable[[int], Optional[OracleResult]]] = None,
              ) -> OracleResult:
    """Best assignment of the choice variables, incumbent included.

    The count variables are read off the first cell; a request whose cells
    are not all over them, in ascending order, is malformed.

    Depth-first branch and bound over the choice variables in ascending id
    order, false branch first, accepting only strict improvements; the
    first optimum found is therefore the lexicographically least one, and
    the incumbent wins all ties. Each node keeps the list of count-cells
    still individually reachable below it; the list only shrinks along a
    branch, bounding every completion from above.

    A cell carries the last model the engine found for it. If that model
    agrees with a child's new literal, it is a model of the child's query
    too, and the cell is kept without a probe; otherwise the engine is
    asked. Either way gives the answer an engine call would, so the search
    accepts the same strict improvements in the same order as one that asks
    every time, and the result is still the lexicographically least optimum.

    One engine serves a call, and it only probes: the root's cells come
    with the request. The incumbent is counted on it, one probe per root
    cell under the incumbent's literals, and those probes' models are what
    the root's cells start with.

    budget, when given, is charged the probes as they are spent: once per
    node, the root's with the first node (a call whose incumbent reaches
    every cell searches nothing and charges nothing). An answer it returns
    is returned as it is; None lets the search go on.
    """
    ms = sorted(req.incumbent)
    incumbent = {v: bool(req.incumbent[v]) for v in ms}
    root_cells = req.cells
    ys = [abs(lit) for lit in root_cells[0]] if root_cells else []
    if ys != sorted(set(ys)) or any(list(map(abs, cell)) != ys for cell in root_cells):
        raise MalformedRequest("the cells are not over one ascending set of variables")
    nv = max([req.objective.num_vars] + ms + ys, default=0)

    # a cell entry: the cell and its last witness (None until one is found)
    Entry = tuple[tuple[int, ...], Optional[list[int]]]

    # the incumbent's count: each root cell probed under the incumbent's
    # literals, which come first so every probe keeps their levels; the
    # witnesses found here seed the root entries
    probe = Engine(nv, req.objective.clauses)
    inc_lits = [v if incumbent[v] else -v for v in ms]
    roots: list[Entry] = [
        (cell, probe.witness if probe.satisfiable([*inc_lits, *cell]) else None)
        for cell in root_cells
    ]
    best_count = sum(wit is not None for _, wit in roots)
    best = incumbent
    if len(root_cells) <= best_count:
        return OracleResult(best, best_count)

    assumed: list[int] = []
    spent = len(root_cells)  # probes not yet charged to the budget

    def refine(cells: list[Entry], lit: int) -> Optional[list[Entry]]:
        # None = this branch provably cannot strictly beat best_count
        nonlocal spent
        v, value = abs(lit), (1 if lit > 0 else -1)
        surviving: list[Entry] = []
        remaining = len(cells)
        for entry in cells:
            remaining -= 1
            cell, wit = entry
            if wit is not None and wit[v] == value:
                surviving.append(entry)
            else:
                # the shared B&B prefix first: the engine keeps its levels between probes
                spent += 1
                if probe.satisfiable([*assumed, *cell]):
                    surviving.append((cell, probe.witness))
            if len(surviving) + remaining <= best_count:
                return None
        return surviving

    # explicit DFS stack, one frame per node on the current branch: the
    # node's cells and how many of its two branches have been tried
    stack: list[list] = [[roots, 0]]
    while stack:
        if spent and budget is not None:
            res = budget(spent)
            if res is not None:
                return res
            spent = 0
        frame = stack[-1]
        cells, tried = frame
        if len(cells) > best_count and len(assumed) == len(ms):
            best_count = len(cells)
            best = {v: lit > 0 for v, lit in zip(ms, assumed)}
        if tried == 2 or len(cells) <= best_count:
            stack.pop()
            if assumed:
                assumed.pop()
            continue
        frame[1] = tried + 1
        v = ms[len(assumed)]
        lit = v if tried else -v
        assumed.append(lit)
        narrowed = refine(cells, lit)
        if narrowed is not None:
            stack.append([narrowed, 0])
            continue
        assumed.pop()

    return OracleResult(best, best_count)


class ChainTable:
    """The cells and rows of one solve, and the DP that answers its chain-shaped calls.

    The rows R are the models of the problem's CNF projected onto the
    counted variables, the choosers and every dependency variable; they
    serve every call of the solve, partial supports included. cells are
    the CNF's count-cells as reachable_cells gives them, which every
    request of the solve carries. The table answers only problems whose
    full supports are chain-shaped: then every dependency variable is
    forced by a cell and the choosers, so R has at most bound = Tb =
    |cells| · 2^|X| rows, one per cell and chooser tuple.

    Where |X| <= |Y| and 2^(|X|+|Y|) <= ROW_GUARD, the construction tests
    the full shape and, where it holds, enumerates the rows and takes the
    cells as their projection; otherwise the cells come first. _rows is
    the list of rows once enumerated, None before, and False when the full
    supports are not chain-shaped. spent counts the probes of every B&B
    call that oracle_call budgets against bound.
    """

    def __init__(self, p: Problem):
        self.problem = p
        xs, ys = len(p.max_vars), len(p.count_vars)
        order = sorted(p.count_vars.union(p.max_vars, *p.deps.values()))
        self._rows: list[tuple[int, ...]] | bool | None = None
        # each variable's column, and what reads a row's cell
        self._column = {v: i for i, v in enumerate(order)}
        self._cell = _columns([self._column[y] for y in sorted(p.count_vars)])
        if xs <= ys and 1 << (xs + ys) <= ROW_GUARD and self._enumerate():
            self.cells = tuple(sorted(set(map(self._cell, self._rows))))
        else:
            self.cells = reachable_cells(p.cnf, p.count_vars)
        self.bound = len(self.cells) << xs
        self.spent = 0

    def solve(self, sel: "SelectorMap", incumbent: Mapping[int, bool]) -> Optional[OracleResult]:
        """What max_count returns for this call, or None when the call is not chain-shaped.

        Also None when the full supports are not chain-shaped; otherwise
        the rows are enumerated first if they are not yet. The selectors
        are sel's, over its supports, and incumbent assigns every one of
        them. Each chooser's selector at a group's observation restricts
        its value there, and a group whose allowed tuples have no rows
        counts 0. The incumbent is returned when it ties the optimum.
        Otherwise each selector is fixed in ascending id false, or true if
        false drops the value below the optimum: the lexicographically
        least optimum, the first leaf max_count's false-first search
        accepts, with no SAT call. A selector's observation includes the
        first block's support values, so it lies under one root group, and
        fixing it re-evaluates only that group; a selector under none stays
        false.
        """
        if not self._enumerate():
            return None
        blocks = self._blocks(sel.supports)
        if blocks is None:
            return None
        if blocks == []:  # no choosers: every cell counts
            return OracleResult({}, len(self.cells))
        tree = self._tree(self._rows, blocks, sel, 0)
        optima = [_best(sels, children, {}) for sels, children in tree]
        best_count = sum(optima)
        current = {v: bool(incumbent[v]) for v in sorted(incumbent)}
        if sum([_best(sels, children, current) for sels, children in tree]) == best_count:
            return OracleResult(current, best_count)
        # each selector under its root group, by its literals on the first block's support
        first = set(blocks[0][0])
        under: dict[tuple[int, ...], list[int]] = {}
        for s in current:
            under.setdefault(tuple([lit for lit in sel.owner[s][1] if abs(lit) in first]), []).append(s)
        best = dict.fromkeys(current, False)
        for (sels, children), optimum in zip(tree, optima):
            fixed: dict[int, bool] = {}
            for s in under[sel.owner[sels[0]][1]]:
                fixed[s] = False
                if _best(sels, children, fixed) < optimum:
                    fixed[s] = True
            best.update(fixed)
        return OracleResult(best, best_count)

    def _blocks(self, supports: Mapping[int, tuple[int, ...]],
                ) -> Optional[list[tuple[tuple[int, ...], list[int], list[int]]]]:
        """The choosers grouped by support, smallest first, or None if the supports are not chain-shaped.

        supports gives each chooser's support in ascending order. A block
        is (its support, its choosers in prefix order, the support
        variables the earlier blocks did not see). The supports must be
        totally ordered by inclusion, and each newly seen variable counted
        or forced by the counted variables and the earlier blocks'
        choosers: then a cell and the earlier choices fix what a block
        sees, so the cells below different observations are disjoint and
        their counts add. Forcing is Padoa's method, whose verdicts
        local.functionally_dependent keeps; the table keeps none.
        """
        from . import local  # local imports this module

        p = self.problem
        by_support: dict[tuple[int, ...], list[int]] = {}
        for x in p.max_vars:
            by_support.setdefault(supports[x], []).append(x)
        blocks = []
        seen: frozenset[int] = frozenset()
        earlier: list[int] = []
        for support in sorted(by_support, key=len):
            if not seen <= set(support):
                return None
            new = sorted(set(support) - seen)
            if local.functionally_dependent(p.cnf, new, p.count_vars.union(earlier)) != set(new):
                return None
            blocks.append((support, by_support[support], new))
            seen = frozenset(support)
            earlier += by_support[support]
        return blocks

    def _enumerate(self) -> bool:
        """Enumerate the rows unless done already; False when the full supports are not chain-shaped."""
        if self._rows is None:
            p = self.problem
            if self._blocks({x: tuple(sorted(p.deps[x])) for x in p.max_vars}) is None:
                self._rows = False
            else:
                self._rows = []
                enumerate_projected(p.cnf, list(self._column), visit=self._rows.append)
        return self._rows is not False

    def _tree(self, rows: list[tuple[int, ...]], blocks, sel: "SelectorMap", k: int) -> list:
        """The DP's tree for block k over the given rows, which agree on what blocks < k saw and chose.

        A node lists the block's observation groups among the rows, each as
        the selectors of the block's choosers at that observation and the
        subtree under each chooser tuple that has rows. Under the last
        block a leaf is the number of distinct cells of its rows.
        """
        cell = self._cell
        support, xs, new = blocks[k]
        column = self._column
        width = len(new)
        # one pass over the rows, by observation and chooser tuple
        seen_and_chosen = _columns([column[v] for v in new + xs])
        below: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for row in rows:
            below.setdefault(seen_and_chosen(row), []).append(row)
        groups: dict[tuple[int, ...], list] = {}
        for key, group_rows in below.items():
            groups.setdefault(key[:width], []).append((key[width:], group_rows))
        observe = _columns([column[v] for v in support])
        last = k + 1 == len(blocks)
        node = []
        for group in groups.values():
            observed = observe(group[0][1][0])
            node.append(([sel.selectors[x][observed] for x in xs],
                         [(tuple([lit > 0 for lit in t]),
                           len(set(map(cell, tuple_rows))) if last else self._tree(tuple_rows, blocks, sel, k + 1))
                          for t, tuple_rows in group]))
        return node


def _columns(cols: list[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """What reads these columns off a row, as a tuple."""
    if len(cols) > 1:
        return itemgetter(*cols)
    return lambda row: tuple([row[c] for c in cols])


def _best(sels: list[int], children: list, fixed: Mapping[int, bool]) -> int:
    """A group's count with the fixed selectors imposed: a max over its allowed tuples of their subtrees."""
    best = 0
    for t, child in children:
        for s, b in zip(sels, t):
            if fixed.get(s, b) != b:
                break
        else:
            v = child if type(child) is int else sum([_best(*group, fixed) for group in child])
            if v > best:
                best = v
    return best


def oracle_call(table: ChainTable, sel: "SelectorMap", req: OracleRequest,
                bnb: Callable[..., OracleResult]) -> OracleResult:
    """max_count's answer to req, from the table where it holds its rows, otherwise from the B&B.

    bnb is max_count; callers pass it through their own module's name,
    which the benchmark's spans (perfbench/spans.py) wrap. A table that
    holds its rows is asked first, and a call it cannot answer goes to the
    B&B; so does every call where the full supports are not chain-shaped.
    Before the rows are enumerated, the B&B charges its probes to the
    solve's count, and once that passes table.bound the table enumerates
    its rows and is asked, on that call and first on every later one.
    """
    if table._rows is not None:
        res = table.solve(sel, req.incumbent)
        return res if res is not None else bnb(req)

    def budget(probes: int) -> Optional[OracleResult]:
        if table._rows is not None:  # asked already in this call
            return None
        table.spent += probes
        if table.spent <= table.bound:
            return None
        return table.solve(sel, req.incumbent)

    return bnb(req, budget)


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
