"""Regular machinery over demand grammars and automata.

Pipeline pieces, in the order the slicer uses them:

* ``CompiledGrammar`` turns a demand grammar into one shared NFA with a
  state per nonterminal and a single global final state, after one
  component analysis (Tarjan, 1972). A component whose internal references
  are all in tail position (right-linear) or all first (left-linear) is
  compiled exactly. A mixed one, in practice the summary of a recursive
  function, is first widened in place (Mohri & Nederhof, 2001), with one
  continuation nonterminal per member, into a right-linear group that
  over-approximates it. Bodies compile last item first, so each item's edge
  leads straight to the state where the rest of the body starts. A
  reference in tail position is the referenced state itself; a nonterminal
  referenced before the end of a body (or any member of a left-linear
  group) is spliced in as a fresh copy of its group's self-contained
  fragment, ending at that state. Such references always point into
  strictly lower components, so fragment construction is well-founded.
  ``mn_transform`` prints the widened grammar.

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

from dataclasses import dataclass

from .automata import EPS, Nfa, intersect
from .demand import BAR0, BAR1, SEL0, SEL1, TWO
from .grammar import Body, DemandGrammar, NonTerm, is_nonterm

_SEL_FOR_BAR = {BAR0: SEL0, BAR1: SEL1}


# ---------------------------------------------------------------------------
# Component analysis and the Mohri-Nederhof widening
# ---------------------------------------------------------------------------

def _rules(g: DemandGrammar) -> dict[NonTerm, dict[Body, None]]:
    """Every nonterminal of ``g`` -> its bodies, as an ordered set, in the
    order the grammar first mentions them."""
    rules: dict[NonTerm, dict[Body, None]] = {nt: {} for nt in g.declared}
    for lhs, body in g.productions:
        rules.setdefault(lhs, {})[body] = None
        for item in body:
            if is_nonterm(item):
                rules.setdefault(item, {})
    return rules


def _tarjan(rules: dict[NonTerm, dict[Body, None]]) -> list[list[NonTerm]]:
    """Tarjan's algorithm (1972), iterative, over the references in
    ``rules``; roots are taken in the order of ``rules``."""
    index: dict[NonTerm, int] = {}
    low: dict[NonTerm, int] = {}
    depth: dict[NonTerm, int] = {}  # position on the stack
    done: set[NonTerm] = set()  # in an emitted component
    stack: list[NonTerm] = []
    work: list = []
    sccs: list[list[NonTerm]] = []

    def visit(nt: NonTerm):
        index[nt] = low[nt] = len(index)
        depth[nt] = len(stack)
        stack.append(nt)
        work.append((nt, (it for body in rules[nt] for it in body
                          if is_nonterm(it))))

    for root in rules:
        if root not in index:
            visit(root)
        while work:
            node, refs = work[-1]
            for child in refs:
                if child not in index:
                    visit(child)
                    break
                if child not in done:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = stack[depth[node]:]
                    del stack[depth[node]:]
                    done.update(comp)
                    sccs.append(comp)
    return sccs


def _linearity(comp: list[NonTerm], rules) -> str:
    """"right", "left", or "mixed" for one component's internal rules."""
    members = set(comp)
    right = left = True
    for lhs in comp:
        for body in rules[lhs]:
            positions = [i for i, it in enumerate(body) if it in members]
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


def _widen(comp: list[NonTerm], rules) -> list[NonTerm]:
    """Rewrite a mixed component's rules in ``rules`` to be right-linear,
    over-approximating its language; returns the widened group.

    Each production A -> w0 B1 w1 ... Bm wm (Bi the in-component
    references) becomes A -> w0 B1, Cont[Bi] -> wi B(i+1), Cont[Bm] -> wm
    Cont[A] (or A -> w0 Cont[A] when m = 0), with Cont[X] -> eps for every
    member X (Mohri & Nederhof, 2001). Every reference between the group's
    members is then in tail position, and every other one points into a
    strictly lower component.
    """
    members = set(comp)
    new = {nt: {} for nt in comp}
    new.update({_cont(nt): {(): None} for nt in comp})
    for lhs in comp:
        for body in rules[lhs]:
            head, chunk = lhs, []
            for item in body:
                if item in members:
                    new[head][(*chunk, item)] = None
                    head, chunk = _cont(item), []
                else:
                    chunk.append(item)
            new[head][(*chunk, _cont(lhs))] = None
    rules.update(new)
    return list(new)


def _groups(g: DemandGrammar):
    """The one component analysis of ``g``.

    Returns the rules by left-hand side and the groups that compile as
    units, dependencies first, each as (members, left-linear?). A group is a
    one-sided component, or a mixed one widened in place together with its
    Cont[...] nonterminals.
    """
    rules = _rules(g)
    groups = []
    for comp in _tarjan(rules):
        kind = _linearity(comp, rules)
        if kind == "mixed":
            comp = _widen(comp, rules)
        groups.append((comp, kind == "left"))
    return rules, groups


def mn_transform(g: DemandGrammar) -> DemandGrammar:
    """The grammar ``CompiledGrammar`` compiles, as a printable grammar:
    every mixed component widened (``_widen``), the rest kept as they are,
    so the result is exact except on self-embedding components (in
    practice: summaries of recursive functions)."""
    rules, _ = _groups(g)
    out = DemandGrammar(declared=dict(g.declared))
    for lhs, bodies in rules.items():
        for body in bodies:
            out.add(lhs, body)
    return out


# ---------------------------------------------------------------------------
# Demand grammar -> one shared automaton
# ---------------------------------------------------------------------------

@dataclass
class _Fragment:
    nfa: Nfa
    entry: dict[NonTerm, int]
    exit: dict[NonTerm, int] | None  # None: right-linear, every exit is 0


class CompiledGrammar:
    """NFA form of a demand grammar, widened where it is not regular.

    ``aut`` is the shared automaton: ``entry[nt]`` is the state whose
    language (to the single final state 0) is L(nt), for every nonterminal
    of a right-linear or widened group. It is built like any right-linear
    fragment, from all those groups at once. Left-linear members are
    reachable only via ``nfa``, which splices their fragment on demand.
    """

    def __init__(self, g: DemandGrammar):
        self._rules, self._groups = _groups(g)
        self._group_of = {nt: gid for gid, (members, _) in
                          enumerate(self._groups) for nt in members}
        self._fragments: dict[int, _Fragment] = {}
        self.aut, self.entry = self._right_linear(
            [nt for members, left in self._groups if not left
             for nt in members])
        self.final = 0
        self.aut.finals = {self.final}

    # -- fragments -----------------------------------------------------------

    def _fragment(self, gid: int) -> _Fragment:
        """The self-contained automaton of one group, built on first use.

        The groups it splices are built first, lowest first, so building
        never recurses once per level of nesting.
        """
        if gid not in self._fragments:
            need, todo = {gid}, [gid]
            while todo:
                for nt in self._groups[todo.pop()][0]:
                    for body in self._rules[nt]:
                        for item in body:
                            if not is_nonterm(item):
                                continue
                            sub = self._group_of[item]
                            if sub not in need and sub not in self._fragments:
                                need.add(sub)
                                todo.append(sub)
            for sub in sorted(need):  # dependencies-first order
                self._fragments[sub] = self._build(sub)
        return self._fragments[gid]

    def _right_linear(self, members) -> tuple[Nfa, dict[NonTerm, int]]:
        """The automaton of right-linear ``members`` and their entry states:
        each member's language leads to state 0, which has no moves."""
        m = Nfa(1, 0)
        state = {nt: m.add_state() for nt in members}
        for nt in members:
            for body in self._rules[nt]:
                self._compile_body(m, state[nt], body, 0, state)
        return m, state

    def _build(self, gid: int) -> _Fragment:
        """The fragment of one group. A right-linear one is built like
        ``aut``; a left-linear one starts at state 0, and each member's
        language leads to the member's own state."""
        members, left = self._groups[gid]
        if not left:
            return _Fragment(*self._right_linear(members), None)
        m = Nfa(1, 0)
        state = {nt: m.add_state() for nt in members}
        for nt in members:
            for body in self._rules[nt]:
                if body and body[0] in state:
                    src, rest = state[body[0]], body[1:]
                else:
                    src, rest = 0, body
                self._compile_body(m, src, rest, state[nt], {})
        return _Fragment(m, dict.fromkeys(members, 0), state)

    def _splice(self, dst: Nfa, nt: NonTerm, tgt: int) -> int:
        """Copy ``nt``'s fragment into ``dst`` so that it ends at ``tgt``;
        returns the copy's entry. A right-linear fragment's exit has no
        moves, so the copy's exit is ``tgt`` itself; a left-linear one's
        gets an epsilon edge to ``tgt``."""
        frag = self._fragment(self._group_of[nt])
        left = frag.exit is not None
        off = dst.n if left else dst.n - 1  # a right-linear state 0 is tgt
        dst.n = off + frag.nfa.n
        for s, sym, t in frag.nfa.edges():
            dst.add(s + off, sym, t + off if t or left else tgt)
        if left:
            dst.add(frag.exit[nt] + off, EPS, tgt)
        return frag.entry[nt] + off

    def _compile_body(self, m: Nfa, src: int, body, final: int,
                      jump: dict[NonTerm, int]):
        """Compile ``src -body-> final``, last item first, so that every item
        gets an edge straight to the state where the rest of the body
        starts. A last nonterminal with a state in ``jump`` is that state;
        any other nonterminal is spliced. Only an empty body, a lone tail
        reference and a body that starts with a splice leave ``src`` by an
        epsilon edge (none if it would loop on ``src``)."""
        rest = final
        if body and body[-1] in jump:
            rest, body = jump[body[-1]], body[:-1]
        for i in range(len(body) - 1, -1, -1):
            if is_nonterm(body[i]):
                rest = self._splice(m, body[i], rest)
            else:
                start = src if i == 0 else m.add_state()
                m.add(start, body[i], rest)
                rest = start
        if rest != src:
            m.add(src, EPS, rest)

    # -- extraction -----------------------------------------------------------

    def nfa(self, nt: NonTerm) -> Nfa:
        """Standalone automaton for one nonterminal's language."""
        if nt in self.entry:
            return _trimmed_view(self.aut, self.entry[nt], self.final)
        if nt not in self._group_of:
            raise KeyError(f"unknown nonterminal {nt!r}")
        frag = self._fragment(self._group_of[nt])
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
    """
    adj: dict[int, list[int]] = {}  # epsilon edges, then derived ones
    bars_into: dict[int, list[tuple[int, str]]] = {}
    watchers: dict[int, list[int]] = {}  # p -> the closures that reach p
    for p, sym, x in m.edges():
        if sym == EPS:
            adj.setdefault(p, []).append(x)
        elif sym in _SEL_FOR_BAR:
            bars_into.setdefault(x, []).append((p, _SEL_FOR_BAR[sym]))
            watchers[p] = []
    reached: dict[int, set[int]] = {x: set() for x in bars_into}
    pairs: set[tuple[int, int]] = set()
    todo = [(x, x) for x in bars_into]  # (closure, new state)
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
                        adj.setdefault(p, []).append(q)
                        todo.extend((w, q) for w in watchers[p]
                                    if q not in reached[w])
    return pairs


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
