"""A small complete SAT engine with assumptions and projected enumeration.

DPLL over two-watched-literal propagation, first-UIP clause learning and
non-chronological backjumping. Decisions always pick the lowest-id
unassigned variable and try false first, so runs are reproducible: every
model the engine returns is the lexicographically least model (false before
true, lowest id first) of the clauses and the assumptions, whatever the
engine learned or kept from earlier calls. Learned clauses are resolvents
of the clause database alone, which keeps them sound across calls with
different assumptions and across blocking clauses.

Assumptions are placed as the first decisions, in the order given. A call
keeps the decision levels of the previous call whose decision literal lies
in the common prefix of the two assumption lists, and backtracks only above
them (trail reuse, as in Hickey & Bacchus, "Trail Saving on Backtrack",
SAT 2020). Callers that probe many lists sharing a prefix should put that
prefix first.

The constructor is the only way clauses enter the database, and the
package's only clause cleaner. It loads its clause list in one pass: it
attaches every clause of two or more literals, queues the unit clauses,
and propagates once at the end. It checks every literal first: literal 0
or a variable above num_vars raises ValueError, even inside a tautology.
Then duplicate literals are dropped, tautologies are skipped, and an empty
clause or clashing units make the database unsatisfiable. satisfiable
checks its assumption literals the same way.

enumerate_projected decides the projection first: it renumbers the
projection variables to 1..k in ascending order, so the lowest-id rule
assigns all of them before it decides any other variable. The decisions
on projection variables then force the whole cell under the current
database, and the blocking clause negates only those decisions, not every
projection literal (Toda & Soh, "Implementing Efficient All Solutions SAT
Solvers", JEA 2016). Cells come in lexicographic order over the sorted
projection, false first, whatever the formula. Enumeration never
restarts: after each model it attaches the blocking clause as a permanent
clause, backjumps to the level where that clause asserts its deepest
literal, and continues the search there.

State is indexed by literal: value and watch lists have 2n+1 slots, so
`vals[lit]` is the value of the literal itself for negative literals too
(Python's negative indexing puts -v at slot 2n+1-v). Slot 0 is never used.

Propagation compacts each watch list it visits in place, as MiniSat does
(Eén & Sörensson, "An Extensible SAT-solver", SAT 2003): a clause that
keeps its watch moves down to the next kept slot, a clause that finds a
new watch goes to that literal's list, and the list is cut after its last
kept slot. On a conflict the watches not yet visited move down behind the
kept ones. Every list therefore keeps its order, and with it propagation
order, reasons and learned clauses.

After satisfiable() returns True, `witness` holds the model it found as a
value array (index = variable, 1 true, -1 false). After it returns False,
`core` holds a subset of the assumptions that the database alone refutes.
"""

from __future__ import annotations

from itertools import chain
from operator import neg
from typing import Collection, Iterable, Optional

from .formula import Cnf


class Engine:
    def __init__(self, num_vars: int, clauses: Iterable[Iterable[int]] = ()):
        self.num_vars = num_vars
        self.ok = True
        # literal-indexed: 1 true, -1 false, 0 unassigned
        self._vals = [0] * (2 * num_vars + 1)
        # variable-indexed
        self._level = [0] * (num_vars + 1)
        self._reason: list[Optional[list[int]]] = [None] * (num_vars + 1)
        self._trail: list[int] = []
        self._lim: list[int] = []
        self._qhead = 0
        # literal-indexed: clauses watching that literal
        self._watches: list[list[list[int]]] = [[] for _ in range(2 * num_vars + 1)]
        self._assumed: list[int] = []  # the previous call's assumptions
        self.witness: list[int] = []
        self.core: list[int] = []
        # one pass: check every literal, attach every clause, queue the
        # units, then propagate once
        cl = [list(c) for c in clauses]
        self._check_range(set(chain.from_iterable(cl)))
        watches = self._watches
        units: list[int] = []
        for c in cl:
            k = len(c)
            if k > 1 and len(set(map(abs, c))) < k:  # a repeated variable
                c = self._clause(c)
                if c is None:
                    continue
                k = len(c)
            if k > 1:
                watches[c[0]].append(c)
                watches[c[1]].append(c)
            elif k:
                units.append(c[0])
            else:
                self.ok = False
        vals = self._vals
        for lit in units:
            if vals[lit] == 0:
                self._enqueue(lit, None)
            elif vals[lit] == -1:
                self.ok = False
        if self.ok:
            self.ok = self._propagate() is None

    # -- clause database ----------------------------------------------------

    def _check_range(self, lits: Collection[int]) -> None:
        """Raise ValueError if a literal is 0 or names a variable above num_vars."""
        n = self.num_vars
        if lits and (0 in lits or max(lits) > n or min(lits) < -n):
            bad = min(lit for lit in lits if lit == 0 or abs(lit) > n)
            raise ValueError(f"literal {bad} out of range")

    @staticmethod
    def _clause(lits: Iterable[int]) -> Optional[list[int]]:
        """The distinct literals of a clause in order, or None for a tautology."""
        d = dict.fromkeys(lits)
        if not d.keys().isdisjoint(map(neg, d)):
            return None
        return list(d)

    def _attach(self, c: list[int]) -> None:
        self._watches[c[0]].append(c)
        self._watches[c[1]].append(c)

    # -- assignment primitives ----------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> None:
        """Make the unassigned literal `lit` true at the current level."""
        self._vals[lit] = 1
        self._vals[-lit] = -1
        v = lit if lit > 0 else -lit
        self._level[v] = len(self._lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation; returns a conflicting clause or None.

        Clauses keep their two watched literals at positions 0 and 1, and
        an implied literal at position 0 (conflict analysis relies on it).
        Slots ws[:j] hold the visited clauses that keep watching the
        falsified literal, ws[i:] those not yet visited.
        """
        vals = self._vals
        watches = self._watches
        trail = self._trail
        levels = self._level
        reasons = self._reason
        level = len(self._lim)
        qhead = self._qhead
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            ws = watches[falsified]
            if not ws:
                continue
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                # normalize: falsified literal at position 1
                first = c[0]
                if first == falsified:
                    first = c[1]
                    c[0] = first
                    c[1] = falsified
                if vals[first] == 1:
                    ws[j] = c
                    j += 1
                    continue
                for m in range(2, len(c)):
                    lit = c[m]
                    if vals[lit] != -1:
                        c[1] = lit
                        c[m] = falsified
                        watches[lit].append(c)
                        break
                else:  # no replacement watch: c is unit or conflicting
                    ws[j] = c
                    j += 1
                    if vals[first] == -1:
                        del ws[j:i]
                        self._qhead = qhead
                        return c
                    vals[first] = 1
                    vals[-first] = -1
                    v = first if first > 0 else -first
                    levels[v] = level
                    reasons[v] = c
                    trail.append(first)
            del ws[j:]
        self._qhead = qhead
        return None

    def _backtrack(self, level: int) -> None:
        if len(self._lim) <= level:
            return
        bound = self._lim[level]
        vals = self._vals
        for lit in self._trail[bound:]:
            vals[lit] = 0
            vals[-lit] = 0
        del self._trail[bound:]
        del self._lim[level:]
        self._qhead = bound

    # -- conflict analysis ----------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backjump to.

        Resolves the conflict clause against reasons of current-level
        literals until one current-level literal remains. Reason clauses
        keep their enqueued literal at index 0, so the slice skips it.
        """
        cur = len(self._lim)
        levels = self._level
        trail = self._trail
        seen = [False] * (self.num_vars + 1)
        learned: list[int] = []
        counter = 0
        reason_lits: list[int] = conflict
        idx = len(trail) - 1
        while True:
            for lit in reason_lits:
                v = abs(lit)
                if not seen[v] and levels[v] > 0:
                    seen[v] = True
                    if levels[v] == cur:
                        counter += 1
                    else:
                        learned.append(lit)
            while not seen[abs(trail[idx])]:
                idx -= 1
            pivot = trail[idx]
            seen[abs(pivot)] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            r = self._reason[abs(pivot)]
            reason_lits = r[1:] if r else []
        learned.sort(key=lambda lit: -levels[abs(lit)])
        learned.insert(0, -pivot)
        back = levels[abs(learned[1])] if len(learned) > 1 else 0
        return learned, back

    def _final(self, lit: int) -> list[int]:
        """Assumptions that force the pending assumption `lit` false.

        MiniSat's analyzeFinal: walk the trail back from the falsified
        assumption through reasons, collecting the reasonless literals above
        level 0. Those are decisions, and every decision on the trail here is
        an assumption, because pending assumptions are decided before any
        free variable and kept levels are decisions on assumptions.
        """
        core = [lit]
        if self._level[abs(lit)] == 0:
            return core
        seen = {abs(lit)}
        for t in reversed(self._trail[self._lim[0]:]):
            v = abs(t)
            if v not in seen:
                continue
            r = self._reason[v]
            if r is None:
                core.append(t)
            else:
                seen.update(abs(q) for q in r[1:] if self._level[abs(q)] > 0)
        return core

    # -- search ----------------------------------------------------------------

    def _reuse(self, assumptions: list[int]) -> None:
        """Backtrack to the deepest level that the new assumptions keep.

        Levels are opened by assumptions in list order, then by free
        decisions; a level survives while its decision literal lies in the
        prefix that this call's list shares with the previous call's.
        """
        old = self._assumed
        shared = 0
        for a, b in zip(old, assumptions):
            if a != b:
                break
            shared += 1
        keep = 0
        p = 0
        trail = self._trail
        for start in self._lim:
            d = trail[start]
            while p < shared and old[p] != d:
                p += 1
            if p == shared:
                break
            keep += 1
        self._backtrack(keep)
        self._assumed = assumptions

    def _search(self, assumptions: list[int]) -> Optional[list[int]]:
        """None when a model extends the assumptions, else an assumption core.

        Continues from the current trail, which must hold only decisions on
        a prefix of `assumptions` and then free decisions, each on the
        lowest variable unassigned at its time.
        """
        if not self.ok:
            return []
        vals = self._vals
        lim = self._lim
        trail = self._trail
        num_vars = self.num_vars
        cursor = 1
        pending = 0  # assumptions before this index are true
        while True:
            conflict = self._propagate()
            if conflict is not None:
                level = len(lim)
                if level == 0:
                    self.ok = False
                    return []
                learned, back = self._analyze(conflict)
                if back >= level:
                    back = level - 1
                self._backtrack(back)
                cursor = 1
                pending = 0
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    self._attach(learned)
                    self._enqueue(learned[0], learned)
                continue
            # extend: first any pending assumption, then lowest unassigned var
            lit = 0
            while pending < len(assumptions):
                a = assumptions[pending]
                val = vals[a]
                if val == -1:
                    return self._final(a)  # clashes with consequences of earlier choices
                pending += 1
                if val == 0:
                    lit = a
                    break
            if lit == 0:
                while cursor <= num_vars and vals[cursor] != 0:
                    cursor += 1
                if cursor > num_vars:
                    return None
                lit = -cursor  # false first
            lim.append(len(trail))
            self._enqueue(lit, None)

    def _block(self, depth: int) -> bool:
        """Attach a permanent clause negating the decisions of levels 1..depth.

        Backjumps to level depth - 1, where the clause asserts the negation
        of the deepest decision, and enqueues it. False when depth is 0: the
        clause would be empty, so nothing is left to find.
        """
        if depth == 0:
            self.ok = False
            return False
        trail = self._trail
        lim = self._lim
        c = [-trail[lim[level]] for level in range(depth - 1, -1, -1)]
        self._backtrack(depth - 1)
        if depth == 1:
            self._enqueue(c[0], None)
        else:
            self._attach(c)
            self._enqueue(c[0], c)
        return True

    def satisfiable(self, assumptions: Iterable[int] = ()) -> bool:
        """Whether a model extends the assumption literals; sets `witness` or `core`."""
        lits = list(assumptions)
        self._check_range(lits)
        self._reuse(lits)
        core = self._search(lits)
        if core is None:
            self.witness = self._vals[:self.num_vars + 1]
            return True
        self.core = core
        return False

    def solve(self, assumptions: Iterable[int] = ()) -> Optional[dict[int, bool]]:
        """A total model extending the assumption literals, or None."""
        if not self.satisfiable(assumptions):
            return None
        return {v: self.witness[v] > 0 for v in range(1, self.num_vars + 1)}


def solve(f: Cnf, assumptions: Iterable[int] = ()) -> Optional[dict[int, bool]]:
    """One-shot satisfiability check on a fresh engine."""
    return Engine(f.num_vars, f.clauses).solve(assumptions)


def enumerate_projected(f: Cnf, proj: Iterable[int], visit=None) -> int:
    """Visit every projection of a model onto `proj` exactly once.

    The count is the number of proj-assignments extendable to a model.
    visit gets each as a cell, one literal per projection variable in
    ascending order; cells come in lexicographic order, false first. The
    projection variables are renumbered to 1..k, so they are decided
    before any other variable, and each model is blocked by a
    clause over its projection decisions alone: those decisions and the
    clauses so far force the whole cell, so the clause removes exactly it.
    """
    proj_vars = sorted(set(proj))
    k = len(proj_vars)
    nv = max(f.num_vars, proj_vars[-1]) if proj_vars else f.num_vars
    # projection variables to 1..k, the others above them; a literal out of
    # range is left as it is, for the engine to reject
    in_proj = set(proj_vars)
    order = proj_vars + [v for v in range(1, nv + 1) if v not in in_proj]
    renumber = {}
    for new, old in enumerate(order, 1):
        renumber[old] = new
        renumber[-old] = -new
    eng = Engine(nv, [[renumber.get(lit, lit) for lit in c] for c in f.clauses])
    vals = eng._vals
    trail = eng._trail
    lim = eng._lim
    count = 0
    while eng._search([]) is None:
        count += 1
        if visit is not None:
            visit(tuple([v if vals[i] > 0 else -v for i, v in enumerate(proj_vars, 1)]))
        # the projection decisions open the first levels
        depth = 0
        while depth < len(lim) and abs(trail[lim[depth]]) <= k:
            depth += 1
        if not eng._block(depth):
            return count
    return count
