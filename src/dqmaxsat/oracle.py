"""Max#SAT oracle: pick choice-variable values maximizing a projected count.

Requests ask "which assignment of the choice variables leaves the most
count-variable cells reachable", always comparing against a caller-supplied
incumbent. The cells reachable with every choice free come with the
request; the solve's ChainTable gives them, so a solve enumerates them once
however many calls it makes. Two answers give the same result, the
incumbent on a tie and otherwise the lexicographically least optimum:

- max_count, a branch and bound (B&B) over the selectors that probes cells,
  on a SAT engine or the table's rows, and keeps each cell's last witness;
- ChainTable.solve, a dynamic program over one table of rows per solve, for
  chain-shaped calls: the choosers' supports are nested, and every newly
  observed variable is counted or forced. Such a call is an exist/random
  game tree (Littman, Majercik & Pitassi, JAR 2001), a max over chooser
  tuples, then a sum over the observed values; Max#SAT over constant
  choices is its one-block case (Fremont, Rabe & Seshia, AAAI 2017), and
  this DP is the only code that solves it.

oracle_call's rule. Whatever the supports, a cell is reachable under fixed
selectors exactly when one of its rows agrees with them at its
observations. Within the row guard (|X| ≤ |Y| and 2^(|X|+|Y|) ≤ ROW_GUARD,
for |X| choosers and |Y| counted variables) the table enumerates its rows
at construction where they are few: forcing bounds them by Tb = |cells| ·
2^|X| where the full supports are chain-shaped, and otherwise 2^|columns|
≤ ROW_GUARD must (the row bound: they answer forcing too). Each call then
goes to the DP if chain-shaped, else to the B&B probing rows: none builds
an engine or an objective. Past the guard the engine B&B has one budget
of Tb probes per solve; once its calls pass it, the table enumerates its
rows, if chain-shaped, and is asked first on that call and every later.

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
# |cells| · 2^|X| rows fits this many, and 2^|columns| too unless chain-shaped
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

    Only max_count's engine probe reads it, so a call that the row table
    answers or probes builds none.
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


# assumed literals and a cell to a witness indexed by variable, or None
Probe = Callable[[list[int], tuple[int, ...]], Optional[list[int]]]


def max_count(req: OracleRequest,
              budget: Optional[Callable[[int], Optional[OracleResult]]] = None,
              probe: Optional[Probe] = None) -> OracleResult:
    """Best assignment of the choice variables, incumbent included.

    The count variables are read off the first cell; a request whose cells
    are not all over them, in ascending order, is malformed.

    Depth-first branch and bound over the choice variables in ascending id
    order, false branch first, accepting only strict improvements; the
    first optimum found is therefore the lexicographically least one, and
    the incumbent wins all ties. Each node keeps the list of count-cells
    still individually reachable below it; the list only shrinks along a
    branch, bounding every completion from above.

    A cell carries the last witness found for it. If the witness does not
    contradict a child's new literal, it witnesses the child's query too,
    and the cell is kept without a probe; otherwise the probe is asked.
    Either way gives the answer an engine call would, so the search
    accepts the same strict improvements in the same order as one that asks
    every time, and the result is still the lexicographically least optimum.

    probe, when given, answers the probes and the objective is never read
    (ChainTable.probe's witnesses leave 0 on selectors they do not fix);
    otherwise one engine on the objective does. The incumbent is counted
    first, one probe per root cell (they come with the request) under its
    literals, and those witnesses seed the root's cells.

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
    if probe is None:
        engine = Engine(max([req.objective.num_vars] + ms + ys, default=0), req.objective.clauses)

        def probe(lits: list[int], cell: tuple[int, ...]) -> Optional[list[int]]:
            # the shared B&B prefix first: the engine keeps its levels between probes
            return engine.witness if engine.satisfiable([*lits, *cell]) else None

    # a cell entry: the cell and its last witness (None until one is found)
    Entry = tuple[tuple[int, ...], Optional[list[int]]]

    # the incumbent's count: each root cell probed under the incumbent's
    # literals; the witnesses found here seed the root entries
    inc_lits = [v if incumbent[v] else -v for v in ms]
    roots: list[Entry] = [(cell, probe(inc_lits, cell)) for cell in root_cells]
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
            if wit is not None and wit[v] != -value:
                surviving.append(entry)
            else:
                spent += 1
                wit = probe(assumed, cell)
                if wit is not None:
                    surviving.append((cell, wit))
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


def holds_rows(p: Problem, table: Optional["ChainTable"] = None) -> bool:
    """Whether ChainTable(p) holds its rows up front and its DP answers (table's kept blocks, if given)."""
    return _within_guard(p) and (_blocks(p, p.deps) if table is None else table.blocks) is not None


def _within_guard(p: Problem) -> bool:
    xs, ys = len(p.max_vars), len(p.count_vars)
    return xs <= ys and 1 << (xs + ys) <= ROW_GUARD


def row_bounded(p: Problem) -> bool:
    """The row guard and 2^|columns| ≤ ROW_GUARD: ChainTable(p) enumerates its rows whatever their shape,
    and its |X| choosers need at most |X| · ROW_GUARD / 2^|X| ≤ ROW_GUARD / 2 selectors."""
    return _within_guard(p) and 1 << len(p.count_vars.union(p.max_vars, *p.deps.values())) <= ROW_GUARD


def _blocks(p: Problem, supports: Mapping[int, Iterable[int]], table: Optional["ChainTable"] = None,
            ) -> Optional[list[tuple[tuple[int, ...], list[int], list[int]]]]:
    """The choosers grouped by support, smallest first, or None if the supports are not chain-shaped.

    supports gives each chooser's support. A block is (its support in
    ascending order, its choosers in prefix order, the support
    variables the earlier blocks did not see). The supports must be
    totally ordered by inclusion, and each newly seen variable counted
    or forced by the counted variables and the earlier blocks'
    choosers: then a cell and the earlier choices fix what a block
    sees, so the cells below different observations are disjoint and
    their counts add. Forcing is local.functionally_dependent's verdict,
    which reads it off table, p's own, where that is bounded.
    """
    from . import local  # local imports this module

    by_support: dict[tuple[int, ...], list[int]] = {}
    for x in p.max_vars:
        by_support.setdefault(tuple(sorted(supports[x])), []).append(x)
    chain = sorted(by_support, key=len)
    if any(not set(a) <= set(b) for a, b in zip(chain, chain[1:])):
        return None  # not nested: no forcing test needed
    blocks = []
    seen: frozenset[int] = frozenset()
    earlier: list[int] = []
    for support in chain:
        new = sorted(set(support) - seen)
        if local.functionally_dependent(p.cnf, new, p.count_vars.union(earlier), table) != set(new):
            return None
        blocks.append((support, by_support[support], new))
        seen = frozenset(support)
        earlier += by_support[support]
    return blocks


class ChainTable:
    """The cells and rows of one solve, its DP and its row probe.

    The rows R are the models of the problem's CNF projected onto the
    counted variables, the choosers and every dependency variable (the
    columns); they serve every call of the solve, partial supports
    included. cells are the CNF's count-cells as reachable_cells gives
    them, which every request of the solve carries. Where the full
    supports are chain-shaped, every dependency variable is forced by a
    cell and the choosers, so R has at most bound = Tb = |cells| · 2^|X|
    rows, one per cell and chooser tuple.

    up_front: within the row guard, where 2^|columns| ≤ ROW_GUARD (bounded) or
    else the full supports are chain-shaped, the rows come first and the cells
    are their projection; bounded rows also answer forcing (forced), and a
    split's leaves take theirs off them (under). blocks is the full supports'
    shape. _rows is the list of rows once enumerated or given, None before,
    and False when not bounded. spent counts the B&B probes oracle_call budgets.
    """

    def __init__(self, p: Problem):
        self.problem = p
        order = sorted(p.count_vars.union(p.max_vars, *p.deps.values()))
        self._rows: list[tuple[int, ...]] | bool | None = None
        self._given = p.__dict__.get("_rows")
        # each variable's column, and what reads a row's cell
        self._column = {v: i for i, v in enumerate(order)}
        self._cell = _columns([self._column[y] for y in sorted(p.count_vars)])
        self.bounded = row_bounded(p)
        self.up_front = _within_guard(p) and self._enumerate()
        rows = self._rows if self.up_front else self._given
        self.cells = reachable_cells(p.cnf, p.count_vars) if rows is None else tuple(sorted(set(map(self._cell, rows))))
        self.bound = len(self.cells) << len(p.max_vars)
        self.spent = 0

    def solve(self, sel: "SelectorMap", incumbent: Mapping[int, bool]) -> Optional[OracleResult]:
        """What max_count returns for this call, or None when the call is not chain-shaped.

        Also None when the rows are not bounded; otherwise they are
        enumerated first if they are not yet. The selectors are sel's,
        over its supports (the full ones take the kept blocks), and
        incumbent assigns every one of them. Each chooser's selector at a
        group's observation restricts its value there, and a group whose
        allowed tuples have no rows counts 0. The incumbent is returned
        when it ties the optimum. Otherwise each selector is fixed in
        ascending id false, or true if false drops the value below the
        optimum: the lexicographically least optimum, the first leaf
        max_count's false-first search accepts, with no SAT call. A
        selector's observation includes the first block's support values,
        so it lies under one root group, and fixing it re-evaluates only
        that group; a selector under none stays false.
        """
        if not self._enumerate():
            return None
        full = all(len(support) == len(self.problem.deps[x]) for x, support in sel.supports.items())
        blocks = self.blocks if full else _blocks(self.problem, sel.supports, self)
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

    @functools.cached_property
    def blocks(self) -> Optional[list[tuple[tuple[int, ...], list[int], list[int]]]]:
        """_blocks of the full supports, computed once per table."""
        return _blocks(self.problem, self.problem.deps, self)

    def _enumerate(self) -> bool:
        """Enumerate the rows unless done; False when not bounded (by few columns or the chain shape)."""
        if self._rows is None:
            if not self.bounded and self.blocks is None:
                self._rows = False
            elif self._given is not None:
                self._rows = self._given
            else:
                self._rows = []
                enumerate_projected(self.problem.cnf, list(self._column), visit=self._rows.append)
        return self._rows is not False

    def under(self, monomial: Iterable[int]) -> list[tuple[int, ...]]:
        """The rows that agree with monomial, less its columns: the rows of p's cofactor under it."""
        at = {self._column[abs(lit)]: lit for lit in monomial}
        on, lits = _columns(list(at)), tuple(at.values())
        keep = _columns([i for i in range(len(self._column)) if i not in at])
        return [keep(row) for row in self._rows if on(row) == lits]

    def forced(self, candidates: Iterable[int], shared: Iterable[int]) -> frozenset[int]:
        """The candidates no two rows agreeing on shared differ on: Padoa's verdict, both sets being columns."""
        us = sorted(candidates)
        key, value = _columns([self._column[v] for v in shared]), _columns([self._column[u] for u in us])
        first, free = {}, set()  # each shared key's first candidate values; positions seen to differ
        for row in self._rows:
            if (w := first.setdefault(key(row), v := value(row))) != v:
                free.update(i for i, (a, b) in enumerate(zip(v, w)) if a != b)
                if len(free) == len(us):
                    break
        return frozenset(u for i, u in enumerate(us) if i not in free)

    def probe(self, sel: "SelectorMap") -> Probe:
        """max_count's probe for a call over sel's selectors, read off the rows.

        A row reaches its cell unless an assumed literal contradicts a
        chooser's value in it at its observation (an active selector). The
        witness signs such a row's active selectors, 0 elsewhere.
        """
        column, nv = self._column, sel.num_vars
        readers = [(_columns([column[v] for v in sel.supports[x]]), column[x], sel.selectors[x])
                   for x in self.problem.max_vars]
        # per cell, each distinct active-selector tuple of its rows, in row order
        active: dict[tuple[int, ...], dict[tuple[int, ...], None]] = {}
        for row in self._rows:
            lits = tuple([s if row[c] > 0 else -s for observe, c, table in readers
                          for s in (table[observe(row)],)])
            active.setdefault(self._cell(row), {})[lits] = None

        def probe(assumed: list[int], cell: tuple[int, ...]) -> Optional[list[int]]:
            for lits in active[cell]:
                if all(-lit not in assumed for lit in lits):
                    wit = [0] * (nv + 1)
                    for lit in lits:
                        wit[abs(lit)] = 1 if lit > 0 else -1
                    return wit
            return None
        return probe

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
    B&B, probing the rows where they came up front and otherwise the
    engine; so does every call where the rows are not bounded. Before the
    rows are enumerated, the B&B charges its probes to the solve's count,
    and once that passes table.bound the table enumerates its rows and is
    asked, on that call and first on every later one.
    """
    if table._rows is not None:
        res = table.solve(sel, req.incumbent)
        if res is None:
            res = bnb(req, probe=table.probe(sel)) if table.up_front else bnb(req)
        return res

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
