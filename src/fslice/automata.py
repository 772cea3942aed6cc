"""A small nondeterministic finite automaton library.

States are dense integers; transitions are an adjacency map from state and
symbol to a set of successor states. Symbols are the demand-symbol strings
("0", "1", "0b", "1b", "2"); the empty string is the epsilon label. Nothing
here is specific to demands except the choice of symbol type, so the
operations read like any other NFA toolkit: closure, product, trimming,
determinization, minimization.

Construction is mutable (add_state / add); analyses treat built automata as
immutable and return fresh ones.
"""

from __future__ import annotations

from collections import deque

EPS = ""
# shared read-only answers for a state or symbol without moves, so lookups
# allocate nothing
_NO_MOVES: dict[str, set[int]] = {}
_NO_STATES: frozenset[int] = frozenset()


class Nfa:
    def __init__(self, n_states: int = 0, start: int = 0):
        self.n = n_states
        self.start = start
        self.finals: set[int] = set()
        self.trans: dict[int, dict[str, set[int]]] = {}

    # -- construction -------------------------------------------------------

    def add_state(self) -> int:
        self.n += 1
        return self.n - 1

    def add(self, src: int, sym: str, dst: int):
        self.trans.setdefault(src, {}).setdefault(sym, set()).add(dst)

    def edges(self):
        for src, by_sym in self.trans.items():
            for sym, dsts in by_sym.items():
                for dst in dsts:
                    yield src, sym, dst

    def symbols(self) -> set[str]:
        return {sym for _, by_sym in self.trans.items() for sym in by_sym
                if sym != EPS}

    def copy(self) -> "Nfa":
        m = Nfa(self.n, self.start)
        m.finals = set(self.finals)
        m.trans = {s: {sym: set(d) for sym, d in by.items()}
                   for s, by in self.trans.items()}
        return m

    # -- basic queries ------------------------------------------------------

    def succ(self, state: int, sym: str) -> set[int] | frozenset[int]:
        return self.trans.get(state, _NO_MOVES).get(sym, _NO_STATES)

    def eps_closure(self, states) -> frozenset[int]:
        seen = set(states)
        todo = list(states)
        trans = self.trans
        while todo:
            q = todo.pop()
            for r in trans.get(q, _NO_MOVES).get(EPS, _NO_STATES):
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        return frozenset(seen)

    def step(self, states: frozenset[int], sym: str) -> frozenset[int]:
        nxt = set()
        for q in states:
            nxt |= self.succ(q, sym)
        return self.eps_closure(nxt)

    def reachable(self) -> set[int]:
        seen = {self.start}
        todo = [self.start]
        while todo:
            q = todo.pop()
            for sym, dsts in self.trans.get(q, {}).items():
                for r in dsts:
                    if r not in seen:
                        seen.add(r)
                        todo.append(r)
        return seen

    def is_empty(self) -> bool:
        return not (self.reachable() & self.finals)

    # -- transformations ----------------------------------------------------

    def trim(self) -> "Nfa":
        """Keep only states on a path from the start to a final state.

        Only the reachable part is read, so trimming a view that shares a
        large automaton's ``trans`` costs the size of that part.
        """
        reach = self.reachable()
        back: dict[int, set[int]] = {}
        for src in reach:
            for dsts in self.trans.get(src, {}).values():
                for dst in dsts:
                    back.setdefault(dst, set()).add(src)
        live = self.finals & reach
        todo = list(live)
        while todo:
            for r in back.get(todo.pop(), ()):
                if r not in live:
                    live.add(r)
                    todo.append(r)
        if self.start not in live:
            return Nfa(1, 0)
        order = sorted(live)
        remap = {old: i for i, old in enumerate(order)}
        m = Nfa(len(order), remap[self.start])
        m.finals = {remap[q] for q in self.finals if q in live}
        for src in order:
            for sym, dsts in self.trans.get(src, {}).items():
                for dst in dsts:
                    if dst in live:
                        m.add(remap[src], sym, remap[dst])
        return m

    def renumbered(self) -> "Nfa":
        """Breadth-first canonical renumbering, for stable serialization."""
        order = [self.start]
        seen = {self.start}
        queue = deque([self.start])
        while queue:
            q = queue.popleft()
            for sym in sorted(self.trans.get(q, {})):
                for r in sorted(self.trans[q][sym]):
                    if r not in seen:
                        seen.add(r)
                        order.append(r)
                        queue.append(r)
        for q in range(self.n):
            if q not in seen:
                seen.add(q)
                order.append(q)
        remap = {old: i for i, old in enumerate(order)}
        m = Nfa(self.n, remap[self.start])
        m.finals = {remap[q] for q in self.finals}
        for src, sym, dst in self.edges():
            m.add(remap[src], sym, remap[dst])
        return m

    def determinize(self, alphabet) -> "Nfa":
        """Complete DFA over ``alphabet`` (as an Nfa with singleton moves)."""
        alphabet = sorted(alphabet)
        start = self.eps_closure({self.start})
        ids: dict[frozenset[int], int] = {start: 0}
        m = Nfa(1, 0)
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            cid = ids[cur]
            if any(q in self.finals for q in cur):
                m.finals.add(cid)
            for sym in alphabet:
                nxt = self.step(cur, sym)
                if nxt not in ids:
                    ids[nxt] = m.add_state()
                    queue.append(nxt)
                m.add(cid, sym, ids[nxt])
        return m

    def minimize(self) -> "Nfa":
        """Moore partition refinement of a deterministic automaton.

        Missing moves go to an implicit non-accepting sink, so the result is
        the minimal complete DFA; ``trim`` then drops its dead state.
        """
        alphabet = sorted(self.symbols())
        sink = self.n
        delta = []
        for q in range(self.n):
            row = []
            for sym in alphabet:
                dsts = self.succ(q, sym)
                if len(dsts) > 1 or self.succ(q, EPS):
                    raise ValueError("minimize needs a deterministic automaton")
                row.append(next(iter(dsts)) if dsts else sink)
            delta.append(row)
        delta.append([sink] * len(alphabet))
        block = [int(q in self.finals) for q in range(self.n)] + [0]
        count = len(set(block))
        while True:
            sigs: dict[tuple, int] = {}
            block = [sigs.setdefault((block[q], *(block[r] for r in row)),
                                     len(sigs))
                     for q, row in enumerate(delta)]
            if len(sigs) == count:
                break
            count = len(sigs)
        m = Nfa(count, block[self.start])
        m.finals = {block[q] for q in self.finals}
        for q, row in enumerate(delta):
            for sym, r in zip(alphabet, row):
                m.add(block[q], sym, block[r])
        return m


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------

def from_strings(strings) -> Nfa:
    """Trie automaton accepting exactly the given strings."""
    m = Nfa(1, 0)
    for s in strings:
        cur = m.start
        for sym in s:
            nxts = m.succ(cur, sym)
            if nxts:
                cur = next(iter(nxts))
            else:
                new = m.add_state()
                m.add(cur, sym, new)
                cur = new
        m.finals.add(cur)
    return m


def union(a: Nfa, b: Nfa) -> Nfa:
    m = Nfa(a.n + b.n + 1, a.n + b.n)
    off = a.n
    for src, sym, dst in a.edges():
        m.add(src, sym, dst)
    for src, sym, dst in b.edges():
        m.add(src + off, sym, dst + off)
    m.add(m.start, EPS, a.start)
    m.add(m.start, EPS, b.start + off)
    m.finals = set(a.finals) | {q + off for q in b.finals}
    return m


def concat(a: Nfa, b: Nfa) -> Nfa:
    m = Nfa(a.n + b.n, a.start)
    off = a.n
    for src, sym, dst in a.edges():
        m.add(src, sym, dst)
    for src, sym, dst in b.edges():
        m.add(src + off, sym, dst + off)
    for q in a.finals:
        m.add(q, EPS, b.start + off)
    m.finals = {q + off for q in b.finals}
    return m


def star(a: Nfa) -> Nfa:
    m = Nfa(a.n + 1, a.n)
    for src, sym, dst in a.edges():
        m.add(src, sym, dst)
    m.add(m.start, EPS, a.start)
    for q in a.finals:
        m.add(q, EPS, m.start)
    m.finals = {m.start}
    return m


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Product automaton for the intersection."""
    ids: dict[tuple[int, int], int] = {}
    m = Nfa(0, 0)

    def state(p: int, q: int) -> int:
        key = (p, q)
        if key not in ids:
            ids[key] = m.add_state()
        return ids[key]

    m.start = state(a.start, b.start)
    queue = deque([(a.start, b.start)])
    seen = {(a.start, b.start)}
    while queue:
        p, q = queue.popleft()
        src = state(p, q)
        if p in a.finals and q in b.finals:
            m.finals.add(src)
        moves = []
        for r in a.succ(p, EPS):
            moves.append(((r, q), EPS))
        for r in b.succ(q, EPS):
            moves.append(((p, r), EPS))
        for sym in a.trans.get(p, {}):
            if sym == EPS:
                continue
            for r1 in a.succ(p, sym):
                for r2 in b.succ(q, sym):
                    moves.append(((r1, r2), sym))
        for key, sym in moves:
            m.add(src, sym, state(*key))
            if key not in seen:
                seen.add(key)
                queue.append(key)
    return m


def intersect_nonempty(a: Nfa, b: Nfa) -> bool:
    """Whether the intersection accepts anything, without building it."""
    start = (a.eps_closure({a.start}), b.eps_closure({b.start}))
    seen = {start}
    queue = deque([start])
    while queue:
        pa, pb = queue.popleft()
        if (pa & a.finals) and (pb & b.finals):
            return True
        syms = set()
        for q in pa:
            syms.update(sym for sym in a.trans.get(q, {}) if sym != EPS)
        for sym in syms:
            nxt = (a.step(pa, sym), b.step(pb, sym))
            if nxt[0] and nxt[1] and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False
