"""A small complete SAT engine with assumptions and projected enumeration.

DPLL over two-watched-literal propagation, first-UIP clause learning and
non-chronological backjumping. Decisions always pick the lowest-id
unassigned variable and try false first, so runs are reproducible: every
model the engine returns is the lexicographically least model (false before
true, lowest id first) of the clauses and the assumptions, whatever the
engine learned or kept from earlier calls. Learned clauses are resolvents
of the clause database alone, which keeps them sound across calls with
different assumptions and across added clauses.

Assumptions are placed as the first decisions, in the order given. A call
keeps the decision levels of the previous call whose decision literal lies
in the common prefix of the two assumption lists, and backtracks only above
them (trail reuse, as in Hickey & Bacchus, "Trail Saving on Backtrack",
SAT 2020). Callers that probe many lists sharing a prefix should put that
prefix first. Adding a clause goes back to level 0.

enumerate_projected never restarts: after each model it attaches the
blocking clause as a permanent clause, backjumps to the level where that
clause asserts a literal (or, when its two deepest literals share a level,
to just below it), and continues the search there.

State is indexed by literal: value and watch lists have 2n+1 slots, so
`vals[lit]` is the value of the literal itself for negative literals too
(Python's negative indexing puts -v at slot 2n+1-v). Slot 0 is never used.

After satisfiable() returns True, `witness` holds the model it found as a
value array (index = variable, 1 true, -1 false). After it returns False,
`core` holds a subset of the assumptions that the database alone refutes.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

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
        for c in clauses:
            self.add_clause(c)

    @staticmethod
    def for_cnf(f: Cnf, extra_vars: int = 0) -> "Engine":
        return Engine(f.num_vars + extra_vars, f.clauses)

    # -- clause database ----------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Attach a clause, first going back to decision level 0.

        Returns False once the database is known unsatisfiable.
        """
        self._backtrack(0)
        seen: dict[int, int] = {}
        c: list[int] = []
        for lit in lits:
            v = abs(lit)
            if v > self.num_vars or v == 0:
                raise ValueError(f"literal {lit} out of range")
            prev = seen.get(v)
            if prev is None:
                seen[v] = lit
                c.append(lit)
            elif prev != lit:
                return self.ok  # tautology, always satisfied
        if not self.ok:
            return False
        # drop literals already false at level 0, stop if satisfied at level 0
        vals = self._vals
        if any(vals[lit] == 1 for lit in c):
            return True
        c = [lit for lit in c if vals[lit] == 0]
        if not c:
            self.ok = False
            return False
        if len(c) == 1:
            self._enqueue(c[0], None)
            self.ok = self._propagate() is None
            return self.ok
        self._attach(c)
        return True

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
            watches[falsified] = keep = []
            i = 0
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
                    keep.append(c)
                    continue
                for j in range(2, len(c)):
                    lit = c[j]
                    if vals[lit] != -1:
                        c[1] = lit
                        c[j] = falsified
                        watches[lit].append(c)
                        break
                else:
                    keep.append(c)
                    if vals[first] == -1:
                        keep.extend(ws[i:])
                        self._qhead = qhead
                        return c
                    vals[first] = 1
                    vals[-first] = -1
                    v = first if first > 0 else -first
                    levels[v] = level
                    reasons[v] = c
                    trail.append(first)
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

    def _block(self, lits: list[int]) -> bool:
        """Attach a permanent clause that the current total assignment falsifies.

        Backjumps to the level where the clause asserts a literal, or to just
        below its deepest level when its two deepest literals share it, and
        enqueues what it asserts. False when the clause is refuted at level 0.
        """
        levels = self._level
        c = sorted(lits, key=lambda lit: -levels[abs(lit)])
        top = levels[abs(c[0])]
        if top == 0:
            self.ok = False
            return False
        if len(c) == 1:
            self._backtrack(0)
            self._enqueue(c[0], None)
            return True
        second = levels[abs(c[1])]
        if second < top:
            self._backtrack(second)
            self._attach(c)
            self._enqueue(c[0], c)
        else:
            self._backtrack(top - 1)
            self._attach(c)
        return True

    def _start(self, lits: list[int]) -> Optional[list[int]]:
        """Search under the assumption literals; `_reuse` keeps the list."""
        if lits and (0 in lits or max(lits) > self.num_vars or min(lits) < -self.num_vars):
            bad = next(a for a in lits if a == 0 or abs(a) > self.num_vars)
            raise ValueError(f"assumption {bad} out of range")
        self._reuse(lits)
        return self._search(lits)

    def satisfiable(self, assumptions: Iterable[int] = ()) -> bool:
        """Whether a model extends the assumption literals; sets `witness` or `core`."""
        core = self._start(list(assumptions))
        if core is None:
            self.witness = self._vals[:self.num_vars + 1]
            return True
        self.core = core
        return False

    def solve(self, assumptions: "Iterable[int] | Mapping[int, bool]" = ()) -> Optional[dict[int, bool]]:
        """A total model extending the assumptions, or None.

        Assumptions are literals, or a mapping from variable to value.
        """
        if isinstance(assumptions, Mapping):
            assumptions = [v if b else -v for v, b in assumptions.items()]
        if self._start(list(assumptions)) is not None:
            return None
        vals = self._vals
        return {v: vals[v] > 0 for v in range(1, self.num_vars + 1)}


def solve(f: Cnf, assumptions: "Iterable[int] | Mapping[int, bool]" = ()) -> Optional[dict[int, bool]]:
    """One-shot satisfiability check on a fresh engine."""
    return Engine.for_cnf(f).solve(assumptions)


def enumerate_projected(f: Cnf, proj: Iterable[int], visit=None) -> int:
    """Visit every projection of a model onto `proj` exactly once.

    Enumeration blocks each found projection with a clause over the
    projection variables only, so the count is the number of proj-assignments
    extendable to a model. Projections come in the order of their least
    models, the same order as solving from scratch after each block.
    """
    proj_vars = sorted(set(proj))
    nv = max([f.num_vars] + proj_vars) if proj_vars else f.num_vars
    eng = Engine(nv, f.clauses)
    vals = eng._vals
    count = 0
    while eng._search([]) is None:
        count += 1
        if visit is not None:
            visit({v: vals[v] > 0 for v in proj_vars})
        if not proj_vars or not eng._block([-v if vals[v] > 0 else v for v in proj_vars]):
            return count
    return count
