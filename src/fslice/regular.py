"""Regular machinery over demand grammars and automata.

Pipeline pieces, in the order the slicer uses them:

* ``mn_transform`` rewrites the demand grammar so every strongly connected
  component of nonterminals is uniformly right-linear (or was already
  left-linear), using one auxiliary continuation nonterminal per member of
  a transformed component. Components that are already one-sided are kept,
  so the result is exact for them; only self-embedding components (in
  practice: summaries of recursive functions) are over-approximated.

* ``compile_grammar`` turns the strongly regular grammar into one shared
  NFA with a state per nonterminal and a single global final state.
  References in tail position become epsilon jumps into the shared
  automaton; a nonterminal referenced before the end of a body (or any
  member of a left-linear component) is spliced in as a fresh copy of a
  self-contained fragment. After the transform, such references always
  point into strictly lower components, so fragment construction is
  well-founded and the per-start languages are exact.

* ``cancel_pairs`` saturates an automaton with the Dyck-style cancellation
  relation: state pairs connected by some path whose labels erase under
  0̄0 -> ε and 1̄1 -> ε. The pairs act as extra epsilon edges. It is a
  worklist saturation in the style of Dyck/CFL reachability (Reps 1998):
  a new pair extends only the closures it can change, so no pass
  recomputes the closures that are already complete.

* ``tail_states`` finds the states from which the rest of a string can
  erase completely: over selector, epsilon and cancellation edges they
  reach acceptance, or a 2-edge into another such state. A point is kept
  exactly when its entry state tails.

* ``canonicalize_nfa`` lifts the string-level C to automata: with the
  cancellation pairs as epsilon edges, it intersects with the
  (0+1+2)*(0̄+1̄)* shape, leaving exactly the normal forms. Its
  simplification counterpart, ``simplify_nfa``, is a test oracle and lives
  in ``tests/oracles.py``.

The completing automata of the incremental pipeline (the reversed bar
suffixes of every point's canonical language, as plain selector strings)
are built in ``slicer.precompute`` from one subset construction shared by
all points, not per point from ``canonicalize_nfa``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automata import EPS, Nfa, intersect
from .demand import BAR0, BAR1, SEL0, SEL1, TWO
from .grammar import DemandGrammar, NonTerm, is_nonterm, production_key
from .lang import FsliceError

_SEL_FOR_BAR = {BAR0: SEL0, BAR1: SEL1}


class NotStronglyRegular(FsliceError):
    pass


# ---------------------------------------------------------------------------
# SCC analysis and the strongly-regular transform
# ---------------------------------------------------------------------------

def scc_partition(g: DemandGrammar):
    """Tarjan over the nonterminal reference graph, iterative.

    Returns (components, component-id per nonterminal); components come out
    dependencies-first, so they can be processed bottom-up in list order.
    """
    prods = sorted(g.productions, key=production_key)
    adj: dict[NonTerm, list[NonTerm]] = {}
    nodes: set[NonTerm] = set(g.declared)
    for lhs, body in prods:
        nodes.add(lhs)
        refs = [it for it in body if is_nonterm(it)]
        nodes.update(refs)
        adj.setdefault(lhs, []).extend(refs)

    index: dict[NonTerm, int] = {}
    low: dict[NonTerm, int] = {}
    on_stack: set[NonTerm] = set()
    stack: list[NonTerm] = []
    sccs: list[list[NonTerm]] = []
    scc_of: dict[NonTerm, int] = {}
    counter = 0

    for root in sorted(nodes):
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(adj.get(child, ()))))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    q = stack.pop()
                    on_stack.discard(q)
                    comp.append(q)
                    if q == node:
                        break
                cid = len(sccs)
                sccs.append(comp)
                for q in comp:
                    scc_of[q] = cid
    return sccs, scc_of


def _linearity(members: set[NonTerm], prods: list) -> str:
    """"right", "left", or "mixed" for one component's internal rules."""
    right = left = True
    for lhs, body in prods:
        positions = [i for i, it in enumerate(body)
                     if is_nonterm(it) and it in members]
        if not positions:
            continue
        if positions != [len(body) - 1]:
            right = False
        if positions != [0]:
            left = False
    if right:
        return "right"
    if left:
        return "left"
    return "mixed"


def _cont(nt: NonTerm) -> NonTerm:
    return ("Cont", nt)


def mn_transform(g: DemandGrammar) -> DemandGrammar:
    """Make every component one-sided; over-approximates mixed ones.

    For a mixed component, each production A -> w0 B1 w1 ... Bm wm (Bi the
    in-component references) is replaced by A -> w0 B1, Cont[Bi] -> wi
    B(i+1), Cont[Bm] -> wm Cont[A] (or A -> w0 Cont[A] when m = 0), with
    Cont[X] -> eps for every member. The component becomes right-linear and
    its language only grows, never shrinks.
    """
    prods = sorted(g.productions, key=production_key)
    sccs, scc_of = scc_partition(g)
    by_scc: dict[int, list] = {}
    for lhs, body in prods:
        by_scc.setdefault(scc_of[lhs], []).append((lhs, body))

    out = DemandGrammar(set(), set(g.declared))
    for cid, comp in enumerate(sccs):
        members = set(comp)
        cprods = by_scc.get(cid, [])
        if _linearity(members, cprods) != "mixed":
            for lhs, body in cprods:
                out.add(lhs, body)
            continue
        for m in comp:
            out.add(_cont(m), ())
        for lhs, body in cprods:
            chunks: list[list] = [[]]
            refs: list[NonTerm] = []
            for item in body:
                if is_nonterm(item) and item in members:
                    refs.append(item)
                    chunks.append([])
                else:
                    chunks[-1].append(item)
            if not refs:
                out.add(lhs, tuple(body) + (_cont(lhs),))
                continue
            out.add(lhs, tuple(chunks[0]) + (refs[0],))
            for i in range(1, len(refs)):
                out.add(_cont(refs[i - 1]), tuple(chunks[i]) + (refs[i],))
            out.add(_cont(refs[-1]), tuple(chunks[-1]) + (_cont(lhs),))
    return out


# ---------------------------------------------------------------------------
# Strongly-regular grammar -> one shared automaton
# ---------------------------------------------------------------------------

@dataclass
class _Fragment:
    nfa: Nfa
    entry: dict[NonTerm, int]
    exit: dict[NonTerm, int]


class CompiledGrammar:
    """NFA form of a strongly regular grammar.

    ``aut`` is the shared automaton: ``entry[nt]`` is the state whose
    language (to the single final state) is L(nt), for every nonterminal in
    a right-linear component. Left-linear members are reachable only via
    ``nfa``, which splices their fragment on demand.
    """

    def __init__(self, g: DemandGrammar):
        self._by_lhs: dict[NonTerm, list] = {}
        for lhs, body in sorted(g.productions, key=production_key):
            self._by_lhs.setdefault(lhs, []).append(body)
        self._sccs, self._scc_of = scc_partition(g)
        self._members = [set(c) for c in self._sccs]
        self._linear = []
        for cid, comp in enumerate(self._sccs):
            cprods = [(m, b) for m in comp for b in self._by_lhs.get(m, [])]
            kind = _linearity(self._members[cid], cprods)
            if kind == "mixed":
                raise NotStronglyRegular(
                    "grammar has a self-embedding component; run mn_transform")
            self._linear.append(kind)

        self._fragments: dict[int, _Fragment] = {}
        self._build_fragments(self._needed_fragments())

        self.aut = Nfa(1, 0)
        self.final = 0
        self.entry: dict[NonTerm, int] = {}
        for cid, comp in enumerate(self._sccs):
            if self._linear[cid] != "right":
                continue
            for m in comp:
                self.entry[m] = self.aut.add_state()
        for nt, state in self.entry.items():
            for body in self._by_lhs.get(nt, []):
                self._compile_body(self.aut, state, body, self.final,
                                   tail_jump=True)
        self.aut.finals = {self.final}

    # -- fragments -----------------------------------------------------------

    def _needed_fragments(self) -> set[int]:
        need: set[int] = set()
        for lhs, bodies in self._by_lhs.items():
            for body in bodies:
                for i, item in enumerate(body):
                    if not is_nonterm(item):
                        continue
                    cid = self._scc_of[item]
                    if i < len(body) - 1 or self._linear[cid] == "left":
                        need.add(cid)
        return self._fragment_closure(need)

    def _fragment_closure(self, need: set[int]) -> set[int]:
        # fragments are self-contained, so they need their references too
        todo = list(need)
        while todo:
            cid = todo.pop()
            for m in self._sccs[cid]:
                for body in self._by_lhs.get(m, []):
                    for item in body:
                        if is_nonterm(item):
                            sub = self._scc_of[item]
                            if sub != cid and sub not in need:
                                need.add(sub)
                                todo.append(sub)
        return need

    def _build_fragments(self, need: set[int]):
        for cid in sorted(need):  # dependencies-first order
            if cid in self._fragments:
                continue
            comp = sorted(self._sccs[cid])
            members = self._members[cid]
            m = Nfa(0, 0)
            if self._linear[cid] == "right":
                state = {nt: m.add_state() for nt in comp}
                f = m.add_state()
                frag = _Fragment(m, dict(state), {nt: f for nt in comp})
                m.start = f
                for nt in comp:
                    for body in self._by_lhs.get(nt, []):
                        self._compile_body(m, state[nt], body, f,
                                           tail_jump=False, local=state,
                                           local_members=members)
            else:
                init = m.add_state()
                state = {nt: m.add_state() for nt in comp}
                frag = _Fragment(m, {nt: init for nt in comp}, dict(state))
                for nt in comp:
                    for body in self._by_lhs.get(nt, []):
                        if body and is_nonterm(body[0]) and body[0] in members:
                            src, rest = state[body[0]], body[1:]
                        else:
                            src, rest = init, body
                        self._compile_body(m, src, rest, state[nt],
                                           tail_jump=False)
            self._fragments[cid] = frag

    def _splice(self, dst: Nfa, src_state: int, nt: NonTerm, tgt: int):
        frag = self._fragments[self._scc_of[nt]]
        off = dst.n
        dst.n += frag.nfa.n
        for s, sym, t in frag.nfa.edges():
            dst.add(s + off, sym, t + off)
        dst.add(src_state, EPS, frag.entry[nt] + off)
        dst.add(frag.exit[nt] + off, EPS, tgt)

    def _compile_body(self, m: Nfa, src: int, body, final: int, *,
                      tail_jump: bool, local: dict | None = None,
                      local_members: set | None = None):
        if not body:
            m.add(src, EPS, final)
            return
        cur = src
        for i, item in enumerate(body):
            last = i == len(body) - 1
            if not is_nonterm(item):
                tgt = final if last else m.add_state()
                m.add(cur, item, tgt)
                cur = tgt
                continue
            if last and local_members is not None and item in local_members:
                m.add(cur, EPS, local[item])
                return
            if last and tail_jump and item in self.entry:
                m.add(cur, EPS, self.entry[item])
                return
            tgt = final if last else m.add_state()
            self._splice(m, cur, item, tgt)
            cur = tgt

    # -- extraction -----------------------------------------------------------

    def nfa(self, nt: NonTerm) -> Nfa:
        """Standalone automaton for one nonterminal's language."""
        if nt in self.entry:
            return _trimmed_view(self.aut, self.entry[nt], self.final)
        if nt not in self._scc_of:
            raise KeyError(f"unknown nonterminal {nt!r}")
        cid = self._scc_of[nt]
        if cid not in self._fragments:
            # a left-linear member never referenced elsewhere: build lazily
            self._build_fragments(self._fragment_closure({cid}))
        frag = self._fragments[cid]
        return _trimmed_view(frag.nfa, frag.entry[nt], frag.exit[nt])


def _trimmed_view(m: Nfa, start: int, final: int) -> Nfa:
    """``m`` from ``start`` to ``final`` alone, trimmed; ``m`` is shared,
    not copied, since trimming only reads it."""
    view = Nfa(m.n, start)
    view.trans = m.trans
    view.finals = {final}
    return view.trim()


# ---------------------------------------------------------------------------
# Cancellation saturation
# ---------------------------------------------------------------------------

def cancel_pairs(m: Nfa) -> set[tuple[int, int]]:
    """Derived pairs (p, q): some p-to-q path erases under bar-selector
    cancellation. Reflexive and epsilon-implied pairs are left implicit;
    callers treat the result as extra epsilon edges, so plain reachability
    supplies transitivity.

    A pair comes from a bar edge p -b̄-> x, a state y that x reaches over
    epsilon and derived edges, and a matching selector edge y -b-> q. The
    saturation is a worklist, as in Dyck/CFL reachability (Reps, "Program
    Analysis via Graph Reachability", 1998): every bar-edge target x keeps
    the closure it has reached so far, and each bar source records the
    closures that contain it. A new derived pair (a, c) extends only the
    closures that contain a, so each (closure, state) step is taken once,
    instead of recomputing every closure per round until nothing changes.
    Closures skip states whose one move is an epsilon edge (most of a
    compiled grammar's states): such a state reaches what its chain's end
    reaches, and it neither reads a selector nor gains derived edges.
    """
    hop = _chain_ends(m)
    adj: dict[int, list[int]] = {}  # epsilon edges, then derived ones
    bars_into: dict[int, list[tuple[int, str]]] = {}
    watchers: dict[int, list[int]] = {}  # p -> the closures that reach p
    for p, sym, x in m.edges():
        if sym == EPS:
            if p not in hop:
                adj.setdefault(p, []).append(hop.get(x, x))
        elif sym in _SEL_FOR_BAR:
            bars_into.setdefault(x, []).append((p, _SEL_FOR_BAR[sym]))
            watchers[p] = []
    reached: dict[int, set[int]] = {x: set() for x in bars_into}
    pairs: set[tuple[int, int]] = set()
    todo = [(x, hop.get(x, x)) for x in bars_into]  # (closure, new state)
    while todo:
        x, y = todo.pop()
        seen = reached[x]
        if y in seen:
            continue
        seen.add(y)
        stack = [y]
        while stack:
            y = stack.pop()
            if y in watchers:
                watchers[y].append(x)
            for z in adj.get(y, ()):
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
            out = m.trans.get(y)
            if not out:
                continue
            for p, sel in bars_into[x]:
                for q in out.get(sel, ()):
                    if (p, q) not in pairs:
                        pairs.add((p, q))
                        q = hop.get(q, q)
                        adj.setdefault(p, []).append(q)
                        todo.extend((w, q) for w in watchers[p]
                                    if q not in reached[w])
    return pairs


def _chain_ends(m: Nfa) -> dict[int, int]:
    """Each state whose one move is an epsilon edge -> the first state down
    its chain of such states that has other moves, or none. On a cycle of
    such states, one member stands for the cycle: the others map to it, and
    it is left out."""
    nxt = {}
    for p, out in m.trans.items():
        if len(out) == 1 and len(out.get(EPS, ())) == 1:
            (nxt[p],) = out[EPS]
    ends: dict[int, int] = {}
    for p in nxt:
        path = []
        while p in nxt and p not in ends:
            ends[p] = p  # stands for the end if the chain comes back here
            path.append(p)
            p = nxt[p]
        end = ends.get(p, p)
        for q in path:
            ends[q] = end
    return {p: end for p, end in ends.items() if p != end}


def _with_cancel(m: Nfa) -> Nfa:
    out = m.copy()
    for p, q in cancel_pairs(m):
        if p != q:
            out.add(p, EPS, q)
    return out


# ---------------------------------------------------------------------------
# Simplification and canonicalization, lifted to automata
# ---------------------------------------------------------------------------

def tail_states(m: Nfa, eps_pairs=()) -> set[int]:
    """States from which the rest of the input can erase completely.

    A state tails if, moving only over selector and epsilon edges, it can
    reach acceptance or a 2-edge whose target tails again. These are the
    positions where a string may stop contributing demand: selectors read
    after them are absorbed by a following 2, per the 2-rules.
    ``eps_pairs`` are extra epsilon edges (p, q), such as the cancellation
    pairs of ``m``, so callers need not copy the automaton to add them.
    """
    back: dict[int, list[int]] = {}
    for p, sym, q in m.edges():
        if sym in (SEL0, SEL1, EPS):
            back.setdefault(q, []).append(p)
    for p, q in eps_pairs:
        back.setdefault(q, []).append(p)
    two_edges = [(p, q) for p, sym, q in m.edges() if sym == TWO]

    def back_closure(seed: set[int]) -> set[int]:
        seen = set(seed)
        todo = list(seed)
        while todo:
            q = todo.pop()
            for r in back.get(q, ()):
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        return seen

    tails = back_closure(set(m.finals))
    while True:
        fresh = {p for p, q in two_edges if q in tails and p not in tails}
        if not fresh:
            return tails
        tails = back_closure(tails | fresh)


_SHAPE = None


def _shape_nfa() -> Nfa:
    """Two-state acceptor of the canonical shape (0+1+2)*(0̄+1̄)*."""
    global _SHAPE
    if _SHAPE is None:
        k = Nfa(2, 0)
        for sym in (SEL0, SEL1, TWO):
            k.add(0, sym, 0)
        for sym in (BAR0, BAR1):
            k.add(0, sym, 1)
            k.add(1, sym, 1)
        k.finals = {0, 1}
        _SHAPE = k
    return _SHAPE


def canonicalize_nfa(m: Nfa) -> Nfa:
    """Automaton for C(L(m)): all bars pushed to string suffixes.

    With cancellation pairs as epsilon edges, every way of partially
    erasing a string is a path; intersecting with the canonical shape
    keeps exactly the fully-reconciled residuals, which are the normal
    forms under bar-selector cancellation.
    """
    return intersect(_with_cancel(m), _shape_nfa()).trim()
