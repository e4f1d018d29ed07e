"""A small complete SAT engine with assumptions and projected enumeration.

DPLL over two-watched-literal propagation, first-UIP clause learning and
non-chronological backjumping. Decisions always pick the lowest-id
unassigned variable and try false first, so runs are reproducible: every
model the engine returns is the lexicographically least model (false before
true, lowest id first) of the clauses and the assumptions, whatever the
engine learned or kept from earlier calls. Learned clauses are resolvents
of the clause database alone, which keeps them sound across calls with
different assumptions and across the branches of an enumeration.

Every assumption opens its own decision level, in the order given, even
when it already holds (the level is then empty), as in MiniSat (Eén &
Sörensson, "An Extensible SAT-solver", SAT 2003). Level i therefore
belongs to assumption i-1, and free decisions open the levels above the
last assumption. A call keeps as many levels of the previous call as the
two assumption lists share a prefix, and backtracks only above them (trail
reuse, as in Hickey & Bacchus, "Trail Saving on Backtrack", SAT 2020).
Callers that probe many lists sharing a prefix should put that prefix
first.

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
assigns all of them before any other variable, and the projection
decisions force the whole cell. It walks them depth first in its own loop
over the engine's state and attaches no clause per model (Grumberg,
Schuster & Yadgar, SAT 2004; Toda & Soh, JEA 2016): after each model it
reopens the deepest projection decision still on its first branch on the
negated literal, inline. Decisions increase with the level, so that level
is found from the top of the stack, past the few levels above the
projection and then past the second branches. The reopened level becomes the floor, a
local of the loop: no backjump goes below it, and a conflict on it means
that no model is left below it. Every variable below a level's decision was
assigned before that level opened, so after a flip or a backjump the scan
for the next decision resumes at the decision of the first removed level
rather than at variable 1. Cells come in lexicographic order over the
sorted projection, false first, whatever the formula.

State is indexed by literal: value and watch lists have 2n+1 slots, so
`vals[lit]` is the value of the literal itself for negative literals too
(Python's negative indexing puts -v at slot 2n+1-v). Slot 0 is never used.

Propagation compacts each watch list it visits in place, as MiniSat does
(Eén & Sörensson, "An Extensible SAT-solver", SAT 2003): a clause that
keeps its watch moves down to the next kept slot, a clause that finds a
new watch goes to that literal's list, and the list is cut after its last
kept slot. On a conflict the watches not yet visited move down behind the
kept ones. Every list therefore keeps its order, and with it propagation
order, reasons and learned clauses. A clause whose other watch holds is
kept as it is; any other is normalized before it moves, implies or
conflicts, so reasons and conflicts keep the layout analysis reads.

After satisfiable() returns True, `witness` holds the model it found as a
value array (index = variable, 1 true, -1 false). A False answer carries
nothing more: the engine finds no assumption core.
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
        trail = self._trail
        for lit in units:  # at level 0, with no reason: the defaults
            if vals[lit] == 0:
                vals[lit] = 1
                vals[-lit] = -1
                trail.append(lit)
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

    # -- assignment primitives ----------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> None:
        """Make the unassigned literal `lit` true at the current level."""
        self._vals[lit] = 1
        self._vals[-lit] = -1
        v = lit if lit > 0 else -lit
        self._level[v] = len(self._lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _assert(self, c: list[int]) -> None:
        """Attach clause c unless it is a unit, and enqueue c[0] as its implication.

        Every other literal of c must be false, c[1] at the deepest level
        among them, so that the two watches hold.
        """
        if len(c) == 1:
            self._enqueue(c[0], None)
        else:
            self._watches[c[0]].append(c)
            self._watches[c[1]].append(c)
            self._enqueue(c[0], c)

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation; returns a conflicting clause or None.

        Clauses keep their two watched literals at positions 0 and 1, and
        an implied literal at position 0 (conflict analysis relies on it).
        Normalizing puts the falsified literal at position 1. Slots ws[:j]
        hold the visited clauses that keep watching the falsified literal,
        ws[i:] those not yet visited.

        qhead, the trail position where the next call starts, holds only
        after a None return, until the caller backtracks: a conflict leaves
        it where this call started. Every caller then either gives up the
        engine as unsatisfiable or backtracks below the conflict level,
        which sets it to the start of the first removed level.
        """
        vals = self._vals
        watches = self._watches
        trail = self._trail
        levels = self._level
        reasons = self._reason
        level = len(self._lim)
        lits = iter(trail)
        lits.__setstate__(self._qhead)  # a list iterator sees later appends
        for assigned in lits:
            falsified = -assigned
            ws = watches[falsified]
            if not ws:
                continue
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                first = c[0]
                if first == falsified:
                    first = c[1]
                    if vals[first] == 1:
                        ws[j] = c
                        j += 1
                        continue
                    c[0] = first
                    c[1] = falsified
                elif vals[first] == 1:
                    ws[j] = c
                    j += 1
                    continue
                m = 2
                end = len(c)
                while m < end:
                    lit = c[m]
                    if vals[lit] != -1:
                        c[1] = lit
                        c[m] = falsified
                        watches[lit].append(c)
                        break
                    m += 1
                else:  # no replacement watch: c is unit or conflicting
                    ws[j] = c
                    j += 1
                    if vals[first] == -1:
                        del ws[j:i]
                        return c
                    vals[first] = 1
                    vals[-first] = -1
                    v = first if first > 0 else -first
                    levels[v] = level
                    reasons[v] = c
                    trail.append(first)
            if j < n:
                del ws[j:]
        self._qhead = len(trail)
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
        keep their enqueued literal at index 0, so the slice skips it. The
        backjump level is below the current one: it is the level of a
        learned literal other than the first, and those were all assigned
        below it.
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

    # -- search ----------------------------------------------------------------

    def _reuse(self, assumptions: list[int]) -> None:
        """Keep the levels of the prefix this call's list shares with the last one's.

        Level i belongs to assumption i-1, so the kept levels hold exactly
        the shared assumptions and their consequences.
        """
        shared = 0
        for a, b in zip(self._assumed, assumptions):
            if a != b:
                break
            shared += 1
        self._backtrack(shared)
        self._assumed = assumptions

    def _search(self, assumptions: list[int]) -> bool:
        """Whether a model extends the assumptions.

        Continues from the current trail, whose levels must all belong to
        assumptions: level i to assumptions[i-1]. The next level goes to
        assumptions[len(lim)] while any is left, then to a free decision on
        the lowest unassigned variable. satisfiable is its only caller.
        """
        if not self.ok:
            return False
        vals = self._vals
        lim = self._lim
        trail = self._trail
        num_vars = self.num_vars
        cursor = 1
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not lim:
                    self.ok = False
                    return False
                learned, back = self._analyze(conflict)
                self._backtrack(back)
                self._assert(learned)
                cursor = 1
                continue
            level = len(lim)
            if level < len(assumptions):
                lit = assumptions[level]
                if vals[lit] == -1:
                    return False  # clashes with consequences of earlier choices
                lim.append(len(trail))
                if vals[lit] == 0:  # a level of its own, empty when lit holds
                    self._enqueue(lit, None)
                continue
            while cursor <= num_vars and vals[cursor] != 0:
                cursor += 1
            if cursor > num_vars:
                return True
            lim.append(len(trail))
            self._enqueue(-cursor, None)  # false first

    def satisfiable(self, assumptions: Iterable[int] = ()) -> bool:
        """Whether a model extends the assumption literals; sets `witness` if so."""
        lits = list(assumptions)
        self._check_range(lits)
        self._reuse(lits)
        if not self._search(lits):
            return False
        self.witness = self._vals[:self.num_vars + 1]
        return True

    def solve(self, assumptions: Iterable[int] = ()) -> Optional[dict[int, bool]]:
        """A total model extending the assumption literals, or None."""
        if not self.satisfiable(assumptions):
            return None
        return {v: self.witness[v] > 0 for v in range(1, self.num_vars + 1)}


def enumerate_projected(f: Cnf, proj: Iterable[int], visit=None) -> int:
    """Visit every projection of a model onto `proj` exactly once.

    The count is the number of proj-assignments extendable to a model.
    visit gets each as a cell, one literal per projection variable in
    ascending order; cells come in lexicographic order, false first. The
    projection variables are renumbered to 1..k, so they are decided
    before any other variable and force the whole cell. The walk is its
    own loop over the engine's state, with the decisions, learned clauses
    and backjumps of Engine._search: after each model, and when a conflict
    on the floor leaves no model below it, the deepest projection decision
    still on its first branch (false; the second is true) is flipped and
    becomes the floor, and no clause is attached.
    """
    proj_vars = sorted(set(proj))
    if proj_vars and proj_vars[0] < 1:
        raise ValueError(f"projection variable {proj_vars[0]} out of range")
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
    if not eng.ok:
        return 0
    vals, trail, lim = eng._vals, eng._trail, eng._lim
    levels, reasons = eng._level, eng._reason
    propagate = eng._propagate
    floor = 0  # the deepest second branch: no backjump goes below it
    cursor = 1  # no variable below it is unassigned
    count = 0
    while True:
        conflict = propagate()
        if conflict is None:
            while cursor <= nv and vals[cursor]:
                cursor += 1
            if cursor <= nv:  # decide the lowest unassigned variable, false first
                lim.append(len(trail))
                vals[-cursor] = 1
                vals[cursor] = -1
                levels[cursor] = len(lim)
                reasons[cursor] = None
                trail.append(-cursor)
                continue
            count += 1
            if visit is not None:
                visit(tuple([v if vals[i] > 0 else -v for i, v in enumerate(proj_vars, 1)]))
        elif len(lim) > floor:
            learned, back = eng._analyze(conflict)
            if back < floor:
                back = floor
            # every variable below the first removed level's decision stays assigned
            cursor = abs(trail[lim[back]])
            eng._backtrack(back)
            eng._assert(learned)
            continue
        # a model, or no model left below the floor: from the top, step
        # down past the levels above the projection and the second branches
        level = len(lim)
        while level and not -k <= trail[lim[level - 1]] < 0:
            level -= 1
        if not level:
            return count
        # reopen it on the second branch: its variable true at the same start
        cursor = -trail[lim[level - 1]]
        start = lim[level - 1]
        for lit in trail[start:]:
            vals[lit] = 0
            vals[-lit] = 0
        del trail[start:]
        del lim[level:]
        eng._qhead = start
        vals[cursor] = 1
        vals[-cursor] = -1
        levels[cursor] = level
        reasons[cursor] = None
        trail.append(cursor)
        floor = level
