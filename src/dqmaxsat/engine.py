"""A small complete SAT engine with assumptions and projected enumeration.

DPLL over two-watched-literal propagation, first-UIP clause learning and
non-chronological backjumping. Decisions always pick the lowest-id
unassigned variable and try false first, so runs are reproducible.
Assumptions are placed as the first decisions; learned clauses are
resolvents of the clause database alone, which keeps them sound across
solve() calls with different assumptions and across added clauses.

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
        # assignment state: 0 unassigned, 1 true, -1 false
        self._value = [0] * (num_vars + 1)
        self._level = [0] * (num_vars + 1)
        self._reason: list[Optional[list[int]]] = [None] * (num_vars + 1)
        self._trail: list[int] = []
        self._lim: list[int] = []
        self._qhead = 0
        # watch lists keyed by the watched literal
        self._watches: dict[int, list[list[int]]] = {}
        self._clauses: list[list[int]] = []
        self.witness: list[int] = []
        self.core: list[int] = []
        for c in clauses:
            self.add_clause(c)

    @staticmethod
    def for_cnf(f: Cnf, extra_vars: int = 0) -> "Engine":
        return Engine(f.num_vars + extra_vars, f.clauses)

    # -- clause database ----------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Attach a clause; only legal at decision level 0.

        Returns False once the database is known unsatisfiable.
        """
        assert not self._lim, "clauses may only be added at the root level"
        seen: dict[int, int] = {}
        c: list[int] = []
        for lit in lits:
            v = abs(lit)
            if v > self.num_vars:
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
        c2 = []
        for lit in c:
            val = self._lit_value(lit)
            if val == 1:
                return True
            if val == 0:
                c2.append(lit)
        if not c2:
            self.ok = False
            return False
        if len(c2) == 1:
            self._enqueue(c2[0], None)
            self.ok = self._propagate() is None
            return self.ok
        self._attach(c2)
        return True

    def _attach(self, c: list[int]) -> None:
        self._clauses.append(c)
        self._watches.setdefault(c[0], []).append(c)
        self._watches.setdefault(c[1], []).append(c)

    # -- assignment primitives ----------------------------------------------

    def _lit_value(self, lit: int) -> int:
        v = self._value[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> bool:
        val = self._lit_value(lit)
        if val != 0:
            return val > 0
        v = abs(lit)
        self._value[v] = 1 if lit > 0 else -1
        self._level[v] = len(self._lim)
        self._reason[v] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation; returns a conflicting clause or None."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            falsified = -lit
            ws = self._watches.get(falsified)
            if not ws:
                continue
            self._watches[falsified] = keep = []
            i = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                # normalize: falsified literal at position 1
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                if self._lit_value(first) == 1:
                    keep.append(c)
                    continue
                for j in range(2, len(c)):
                    if self._lit_value(c[j]) != -1:
                        c[1], c[j] = c[j], c[1]
                        self._watches.setdefault(c[1], []).append(c)
                        break
                else:
                    keep.append(c)
                    if not self._enqueue(first, c):
                        keep.extend(ws[i:])
                        return c
        return None

    def _decision_level(self) -> int:
        return len(self._lim)

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        bound = self._lim[level]
        for lit in reversed(self._trail[bound:]):
            v = abs(lit)
            self._value[v] = 0
            self._reason[v] = None
        del self._trail[bound:]
        del self._lim[level:]
        self._qhead = len(self._trail)

    # -- conflict analysis ----------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backjump to.

        Resolves the conflict clause against reasons of current-level
        literals until one current-level literal remains. Reason clauses
        keep their enqueued literal at index 0, so the slice skips it.
        """
        cur = self._decision_level()
        seen = [False] * (self.num_vars + 1)
        learned: list[int] = []
        counter = 0
        reason_lits: list[int] = conflict
        idx = len(self._trail) - 1
        while True:
            for lit in reason_lits:
                v = abs(lit)
                if not seen[v] and self._level[v] > 0:
                    seen[v] = True
                    if self._level[v] == cur:
                        counter += 1
                    else:
                        learned.append(lit)
            while not seen[abs(self._trail[idx])]:
                idx -= 1
            pivot = self._trail[idx]
            seen[abs(pivot)] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            r = self._reason[abs(pivot)]
            reason_lits = r[1:] if r else []
        learned.sort(key=lambda lit: -self._level[abs(lit)])
        learned.insert(0, -pivot)
        back = self._level[abs(learned[1])] if len(learned) > 1 else 0
        return learned, back

    # -- search ----------------------------------------------------------------

    def _final(self, lit: int) -> list[int]:
        """Assumptions that force the pending assumption `lit` false.

        MiniSat's analyzeFinal: walk the trail back from the falsified
        assumption through reasons, collecting the reasonless literals above
        level 0. Those are decisions, and every decision on the trail here is
        an assumption, because pending assumptions are decided before any
        free variable.
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

    def _search(self, assumptions: list[int]) -> Optional[list[int]]:
        """None when a model extends the assumptions, else an assumption core."""
        self._backtrack(0)
        if not self.ok:
            return []
        if self._propagate() is not None:
            self.ok = False
            return []
        cursor = 1
        while True:
            conflict = self._propagate()
            if conflict is not None:
                level = self._decision_level()
                if level == 0:
                    self.ok = False
                    return []
                learned, back = self._analyze(conflict)
                if back >= level:
                    back = level - 1
                self._backtrack(back)
                cursor = 1
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self.ok = False
                        return []
                else:
                    self._attach(learned)
                    self._enqueue(learned[0], learned)
                continue
            # extend: first any pending assumption, then lowest unassigned var
            lit = 0
            for a in assumptions:
                val = self._lit_value(a)
                if val == -1:
                    return self._final(a)  # clashes with consequences of earlier choices
                if val == 0:
                    lit = a
                    break
            if lit == 0:
                while cursor <= self.num_vars and self._value[cursor] != 0:
                    cursor += 1
                if cursor > self.num_vars:
                    return None
                lit = -cursor  # false first
            self._lim.append(len(self._trail))
            self._enqueue(lit, None)

    @staticmethod
    def _as_literals(assumptions: "Iterable[int] | Mapping[int, bool]") -> list[int]:
        if isinstance(assumptions, Mapping):
            lits = [v if b else -v for v, b in assumptions.items()]
        else:
            lits = list(assumptions)
        return sorted(lits, key=abs)

    def satisfiable(self, assumptions: "Iterable[int] | Mapping[int, bool]" = ()) -> bool:
        """Whether a model extends the assumptions; sets `witness` or `core`."""
        core = self._search(self._as_literals(assumptions))
        if core is None:
            self.witness = self._value[:]
        else:
            self.core = core
        self._backtrack(0)
        return core is None

    def solve(self, assumptions: "Iterable[int] | Mapping[int, bool]" = ()) -> Optional[dict[int, bool]]:
        """A total model extending the assumptions, or None."""
        if self._search(self._as_literals(assumptions)) is not None:
            self._backtrack(0)
            return None
        model = {v: self._value[v] > 0 for v in range(1, self.num_vars + 1)}
        self._backtrack(0)
        return model


def solve(f: Cnf, assumptions: "Iterable[int] | Mapping[int, bool]" = ()) -> Optional[dict[int, bool]]:
    """One-shot satisfiability check on a fresh engine."""
    return Engine.for_cnf(f).solve(assumptions)


def enumerate_projected(f: Cnf, proj: Iterable[int], visit=None) -> int:
    """Visit every projection of a model onto `proj` exactly once.

    Enumeration blocks each found projection with a clause over the
    projection variables only, so the count is the number of proj-assignments
    extendable to a model.
    """
    proj_vars = sorted(set(proj))
    nv = max([f.num_vars] + proj_vars) if proj_vars else f.num_vars
    eng = Engine(nv, f.clauses)
    count = 0
    while True:
        model = eng.solve()
        if model is None:
            return count
        count += 1
        if visit is not None:
            visit({v: model[v] for v in proj_vars})
        if not proj_vars:
            return count
        if not eng.add_clause([-v if model[v] else v for v in proj_vars]):
            return count
