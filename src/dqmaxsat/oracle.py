"""Max#SAT oracle: pick choice-variable values maximizing a projected count.

Requests ask "which assignment of the choice variables leaves the most
count-variable cells reachable", always comparing against a caller-supplied
incumbent. The caller also supplies the cells reachable with every choice
free, from reachable_cells, so a solve enumerates them once however many
calls it makes. Two answers give the same result, the incumbent on a tie
and otherwise the lexicographically least optimum:

- max_count, a branch and bound (B&B) over the selectors that probes cells
  on a SAT engine, for any request;
- ChainTable.solve, a dynamic program over one table of rows per solve, for
  chain-shaped calls: the choosers' supports are nested, and every newly
  observed variable is counted or forced. Such a call is an exist/random
  game tree (Littman, Majercik & Pitassi, JAR 2001), a max over chooser
  tuples, then a sum over the observed values; Max#SAT is its one-block
  case (Fremont, Rabe & Seshia, AAAI 2017).

oracle_call picks between them by the table's size bound Tb = |cells| ·
2^|X| for |X| choosers. The DP answers up front when 2^|X| <= |cells| and
Tb <= ROW_GUARD. Otherwise the B&B runs with a budget of Tb probes; if it
runs out on a chain-shaped call, the DP answers that call and every later
one of the solve. The rows are enumerated once, and never past Tb rows;
past them the solve stays on the B&B. So the DP runs only where its table
is provably small, or where the B&B has spent as many probes as the table
can have rows.

brute_force_dqmaxsat is the function-space reference oracle: it enumerates
whole strategy tuples over truth tables and is intended for small instances
and for cross-checking the real solvers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional

from .engine import Engine, enumerate_projected
from .formula import Cnf, MintermFunction, Problem, Solution, minterms_of

if TYPE_CHECKING:
    from .reduction import SelectorMap

# the DP answers up front only when its table can have at most this many rows
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


def max_count(req: OracleRequest, budget: Optional[int] = None,
              escalate: Optional[Callable[[], Optional[OracleResult]]] = None,
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

    With a budget, once the engine has probed more than budget times,
    escalate() is asked once for the answer. An answer it gives is returned
    as it is; None lets the search go on without a budget.
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
    spent = len(root_cells)  # the probes so far
    limit = math.inf if budget is None else budget

    def refine(cells: list[Entry], lit: int) -> Optional[list[Entry]]:
        # None = this branch provably cannot strictly beat best_count
        nonlocal spent
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
                spent += 1
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
        if spent > limit:
            limit = math.inf
            res = escalate()
            if res is not None:
                return res
        if narrowed is not None:
            stack.append([narrowed, 0])
            continue
        here.discard(assumed.pop())

    return OracleResult(best, best_count)


class _PastBound(Exception):
    """The row enumeration went past the table's size bound."""


class ChainTable:
    """The rows of one solve, and the DP that answers its chain-shaped calls.

    The rows R are the models of the problem's CNF projected onto the
    counted variables, the choosers and every dependency variable. They
    come from one enumeration, on first use, and serve every call of the
    solve, partial supports included. bound is Tb = |cells| · 2^|X|: as
    many rows as the table has when every dependency variable is forced.
    The enumeration stops past it, and the table answers no call after.
    up_front says whether oracle_call asks the table before the B&B;
    oracle_call sets it once the table has answered an escalated call.
    """

    def __init__(self, p: Problem, cells: tuple[tuple[int, ...], ...]):
        self.problem = p
        tuples = 1 << len(p.max_vars)
        self.bound = len(cells) * tuples
        self.up_front = tuples <= len(cells) and self.bound <= ROW_GUARD
        # the rows, once enumerated (False past the bound), each row's cell,
        # and each variable's column
        self._rows: list[tuple[int, ...]] | bool | None = None
        self._cells: list[tuple[int, ...]] = []
        self._column: dict[int, int] = {}
        # Padoa verdicts by (candidates, shared variables)
        self._forced: dict[tuple[frozenset[int], frozenset[int]], frozenset[int]] = {}

    def solve(self, sel: "SelectorMap", incumbent: Mapping[int, bool]) -> Optional[OracleResult]:
        """What max_count returns for this call, or None when the call is not chain-shaped.

        Also None when the rows run past the bound. The selectors are sel's,
        over its supports, and incumbent assigns every one of them. Each
        chooser's selector at a group's observation restricts its value
        there, and a group whose allowed tuples have no rows counts 0. The
        answer then takes |selectors| + 2 evaluations of the tree and no
        SAT call: the optimum with nothing fixed; the incumbent's count,
        which is returned on a tie; otherwise each selector in ascending id
        is fixed false, or true if false drops the value below the optimum.
        That is the lexicographically least optimum, the first leaf
        max_count's false-first search accepts at the optimum count.
        """
        if self._rows is False:
            return None
        blocks = self._blocks(sel)
        if blocks is None or not self._enumerate():
            return None
        tree = self._tree(list(range(len(self._rows))), blocks, sel, 0)
        best_count = _value(tree, {})
        ms = sorted(incumbent)
        current = {v: bool(incumbent[v]) for v in ms}
        if _value(tree, current) == best_count:
            return OracleResult(current, best_count)
        fixed: dict[int, bool] = {}
        for s in ms:
            fixed[s] = False
            if _value(tree, fixed) < best_count:
                fixed[s] = True
        return OracleResult(fixed, best_count)

    def _blocks(self, sel: "SelectorMap") -> Optional[list[tuple[tuple[int, ...], list[int], list[int]]]]:
        """The choosers grouped by support, smallest first, or None if the call is not chain-shaped.

        A block is (its support, its choosers in prefix order, the support
        variables the earlier blocks did not see). The supports must be
        totally ordered by inclusion, and each newly seen variable counted
        or forced by the counted variables and the earlier blocks'
        choosers: then a cell and the earlier choices fix what a block
        sees, so the cells below different observations are disjoint and
        their counts add. Forcing is Padoa's method
        (local.functionally_dependent with those variables shared).
        """
        from . import local  # local imports this module

        p = self.problem
        by_support: dict[tuple[int, ...], list[int]] = {}
        for x in p.max_vars:
            by_support.setdefault(sel.supports[x], []).append(x)
        blocks = []
        seen: frozenset[int] = frozenset()
        earlier: list[int] = []
        for support in sorted(by_support, key=len):
            if not seen <= set(support):
                return None
            new = sorted(set(support) - seen)
            candidates = frozenset(new) - p.count_vars
            if candidates:
                key = (candidates, p.count_vars.union(earlier))
                if key not in self._forced:
                    self._forced[key] = local.functionally_dependent(p.cnf, *key)
                if self._forced[key] != candidates:
                    return None
            blocks.append((support, by_support[support], new))
            seen = frozenset(support)
            earlier += by_support[support]
        return blocks

    def _enumerate(self) -> bool:
        """Enumerate the rows unless done already; False when they run past the bound."""
        if self._rows is None:
            p = self.problem
            order = sorted(p.count_vars.union(p.max_vars, *p.deps.values()))
            rows: list[tuple[int, ...]] = []

            def keep(row: tuple[int, ...]) -> None:
                if len(rows) == self.bound:
                    raise _PastBound
                rows.append(row)

            try:
                enumerate_projected(p.cnf, order, visit=keep)
            except _PastBound:
                self._rows = False
                return False
            cell_columns = [i for i, v in enumerate(order) if v in p.count_vars]
            self._rows = rows
            self._cells = [tuple([row[c] for c in cell_columns]) for row in rows]
            self._column = {v: i for i, v in enumerate(order)}
        return self._rows is not False

    def _tree(self, members: list[int], blocks, sel: "SelectorMap", k: int) -> list | int:
        """The DP's tree for block k over the given rows, which agree on what blocks < k saw and chose.

        A node lists the block's observation groups among the rows, each as
        the selectors of the block's choosers at that observation and the
        subtree under each chooser tuple that has rows. Past the last block
        a leaf is the number of distinct cells of its rows.
        """
        if k == len(blocks):
            cells = self._cells
            return len({cells[i] for i in members})
        rows = self._rows
        support, xs, new = blocks[k]
        column = self._column
        new_cols = [column[v] for v in new]
        support_cols = [column[v] for v in support]
        x_cols = [column[x] for x in xs]
        groups: dict[tuple[int, ...], list[int]] = {}
        for i in members:
            groups.setdefault(tuple([rows[i][c] for c in new_cols]), []).append(i)
        node = []
        for group in groups.values():
            first = rows[group[0]]
            observed = tuple([first[c] for c in support_cols])
            by_tuple: dict[tuple[bool, ...], list[int]] = {}
            for i in group:
                by_tuple.setdefault(tuple([rows[i][c] > 0 for c in x_cols]), []).append(i)
            node.append(([sel.selectors[x][observed] for x in xs],
                         [(t, self._tree(below, blocks, sel, k + 1)) for t, below in by_tuple.items()]))
        return node


def _value(node: list | int, fixed: Mapping[int, bool]) -> int:
    """The tree's count with the fixed selectors' values imposed: a sum over groups of a max over tuples."""
    if type(node) is int:
        return node
    total = 0
    for sels, children in node:
        best = 0
        for t, child in children:
            for s, b in zip(sels, t):
                if fixed.get(s, b) != b:
                    break
            else:
                v = _value(child, fixed)
                if v > best:
                    best = v
        total += best
    return total


def oracle_call(table: ChainTable, sel: "SelectorMap", req: OracleRequest,
                bnb: Callable[..., OracleResult]) -> OracleResult:
    """max_count's answer to req, from the table or from the B&B by the size-bound rule.

    bnb is max_count; callers pass it through their own module's name,
    which the benchmark's spans (perfbench/spans.py) wrap. While the table
    answers up front, a call it cannot answer goes to the B&B unbudgeted.
    Otherwise the B&B gets a budget of table.bound probes, and when that
    runs out the table is asked; once it answers, it answers every later
    call of the solve up front.
    """
    if table.up_front:
        res = table.solve(sel, req.incumbent)
        return res if res is not None else bnb(req)

    def escalate() -> Optional[OracleResult]:
        res = table.solve(sel, req.incumbent)
        if res is not None:
            table.up_front = True
        return res

    return bnb(req, table.bound, escalate)


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
