"""Reference implementations used as test oracles. Slow is fine; these
never ship.

* The rewrite oracle: simplification and canonicalization run as
  exhaustive string rewriting (any redex, breadth-first, with a confluence
  assertion), and language-level operations as plain set computations on
  bounded enumerations. It is derived straight from the rewrite rules.
* The string calculus: the same two maps as right-to-left folds over one
  string (``simplify_str``, ``canonicalize_str``), with the set, path and
  notation helpers the tests build on. The tests check it against the
  rewrite oracle, and the library's automata against it.
* Language-level queries the library does not need: acceptance, bounded
  enumeration, prefix closure, complement and equivalence of automata,
  and a grammar's nonterminals, rules by left-hand side and components.
* ``bounded_languages`` / ``eval_finite``: every short string a demand
  grammar derives, by a truncated fixpoint.
* ``simplify_nfa``: S lifted to automata, the counterpart of the library's
  ``regular.canonicalize_nfa``.
* ``cancel_pairs_by_rounds``: cancellation saturation as a plain fixpoint
  that recomputes every bar edge's closure per round, the reference for
  the worklist ``regular.cancel_pairs``.
* ``occurrences_of``: a variable's occurrences in one spine, by a direct
  scan, the reference for ``lang.use_index``.
* ``create_completing_automaton`` builds one point's completing automaton
  straight from that point's canonical automaton: the reference every
  automaton ``slicer.precompute`` stores must be equivalent to.
"""

from __future__ import annotations

from itertools import product

from fslice.automata import EPS, Nfa, intersect
from fslice.demand import ALPHABET, BAR0, BAR1, SEL0, SEL1, SEL_OF, SELECTORS, TWO
from fslice.grammar import DemandGrammar, NonTerm, is_nonterm, nt_d, production_key
from fslice.lang import Expr, FsliceError, If, Occ, Return, app_occs, iter_exprs
from fslice.regular import _rules, _tarjan, cancel_pairs, tail_states

# The end marker: the rewrite oracle appends it to every string it
# simplifies, and debug notation may write it.
END = "$"

DStr = tuple[str, ...]
DSet = set[DStr]

_PRETTY = {BAR0: "0̄", BAR1: "1̄"}

# Rewrite rules as (lhs pair, rhs tuple). Simplification sees the demand
# string with the end marker appended; canonicalization never looks at it.
_S_RULES = [
    ((BAR0, SEL0), ()),
    ((BAR1, SEL1), ()),
    ((TWO, END), (END,)),
    ((TWO, SEL0), (TWO,)),
    ((TWO, SEL1), (TWO,)),
]
_C_RULES = [
    ((BAR0, SEL0), ()),
    ((BAR1, SEL1), ()),
]


def _normal_forms(s: tuple, rules) -> set[tuple]:
    """All normal forms reachable by applying rules at any position."""
    seen = {s}
    frontier = [s]
    out: set[tuple] = set()
    while frontier:
        cur = frontier.pop()
        reduced = False
        for (a, b), rhs in rules:
            for i in range(len(cur) - 1):
                if cur[i] == a and cur[i + 1] == b:
                    nxt = cur[:i] + rhs + cur[i + 2:]
                    reduced = True
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        if not reduced:
            out.add(cur)
    return out


def simplify_string(s: tuple) -> tuple | None:
    """Simplify one demand string; None when it denotes no demand."""
    nfs = _normal_forms(tuple(s) + (END,), _S_RULES)
    assert len(nfs) == 1, f"simplification not confluent on {s}: {nfs}"
    nf = next(iter(nfs))
    assert nf and nf[-1] == END
    body = nf[:-1]
    if all(c in SELECTORS for c in body):
        return body
    return None


def canonicalize_string(s: tuple) -> tuple | None:
    """Cancellation normal form, or None when not canonically shaped."""
    nfs = _normal_forms(tuple(s), _C_RULES)
    assert len(nfs) == 1, f"canonicalization not confluent on {s}: {nfs}"
    nf = next(iter(nfs))
    tail = 0
    while tail < len(nf) and nf[len(nf) - 1 - tail] in (BAR0, BAR1):
        tail += 1
    if all(c not in (BAR0, BAR1) for c in nf[:len(nf) - tail]):
        return nf
    return None


def simplify_language(strings) -> set[tuple]:
    out = set()
    for s in strings:
        r = simplify_string(s)
        if r is not None:
            out.add(r)
    return out


def canonicalize_language(strings) -> set[tuple]:
    out = set()
    for s in strings:
        r = canonicalize_string(s)
        if r is not None:
            out.add(r)
    return out


def count_prefix_closed(alphabet_size: int, maxlen: int) -> int:
    """Number of prefix-closed languages (including the empty one) of
    strings up to ``maxlen``: t_0 = 2 and t_k = 1 + t_{k-1} ** alphabet."""
    t = 2
    for _ in range(maxlen):
        t = 1 + t ** alphabet_size
    return t


def enumerate_prefix_closed(maxlen: int):
    """Yield every prefix-closed set of selector strings up to ``maxlen``,
    the empty set included, without materializing the whole family."""
    if maxlen == 0:
        yield frozenset()
        yield frozenset({()})
        return
    subs = list(enumerate_prefix_closed(maxlen - 1))
    yield frozenset()
    for left in subs:
        left0 = frozenset((SEL0,) + s for s in left)
        for right in subs:
            yield frozenset({()}) | left0 | frozenset(
                (SEL1,) + s for s in right)


# ---------------------------------------------------------------------------
# The string calculus
# ---------------------------------------------------------------------------

def parse_dstr(text: str) -> DStr:
    """Parse debug notation, e.g. "1 2 0b" -> (SEL1, TWO, BAR0)."""
    syms = []
    for tok in text.split():
        if tok == "eps":
            continue
        if tok in ALPHABET or tok == END:
            syms.append(tok)
        elif tok in ("0̄", "1̄"):
            syms.append(BAR0 if tok[0] == "0" else BAR1)
        else:
            raise ValueError(f"unknown demand symbol {tok!r}")
    return tuple(syms)


def format_dstr(s: DStr, pretty: bool = False) -> str:
    if not s:
        return "eps"
    if pretty:
        return " ".join(_PRETTY.get(c, c) for c in s)
    return " ".join(s)


def format_dset(d: DSet) -> str:
    if not d:
        return "{}"
    inner = ", ".join(format_dstr(s) for s in sorted(d))
    return "{" + inner + "}"


def simplify_str(s: DStr) -> DStr | None:
    """Simplify one string, or None when it carries no demand.

    Folding from the right with the simplified suffix (always selector-only)
    as accumulator: selectors prepend; a bar must cancel the matching
    selector at the head of the suffix; a 2 discards the suffix entirely,
    because inspecting a value's spine demands the value at the point of
    inspection no matter what follows (at the very end of a string, "what
    follows" is the end marker, and the 2 still collapses to nothing).
    """
    acc: list[str] = []
    for c in reversed(s):
        if c in SELECTORS:
            acc.insert(0, c)
        elif c == TWO:
            acc.clear()
        elif c in SEL_OF:
            if acc and acc[0] == SEL_OF[c]:
                acc.pop(0)
            else:
                return None
        else:
            raise ValueError(f"unexpected symbol {c!r} in demand string")
    return tuple(acc)


def simplify(d: DSet) -> DSet:
    out = set()
    for s in d:
        r = simplify_str(s)
        if r is not None:
            out.add(r)
    return out


def canonicalize_str(s: DStr) -> DStr | None:
    """Canonicalize one string, or None when it is dead.

    Like simplify, but 2 is kept as an ordinary symbol and unmatched bars
    accumulate at the end instead of being errors. The accumulator is always
    of the canonical shape (0+1+2)*(0̄+1̄)*: plain symbols prepend; a bar
    either cancels a matching selector head, dies against a mismatched
    selector or a 2, or piles onto a bar-headed (or empty) suffix.
    """
    acc: list[str] = []
    for c in reversed(s):
        if c in (SEL0, SEL1, TWO):
            acc.insert(0, c)
        elif c in SEL_OF:
            if not acc or acc[0] in SEL_OF:
                acc.insert(0, c)
            elif acc[0] == SEL_OF[c]:
                acc.pop(0)
            else:
                return None
        else:
            raise ValueError(f"unexpected symbol {c!r} in demand string")
    return tuple(acc)


def canonicalize(d: DSet) -> DSet:
    out = set()
    for s in d:
        r = canonicalize_str(s)
        if r is not None:
            out.add(r)
    return out


def concat(d1: DSet, d2: DSet) -> DSet:
    return {a + b for a in d1 for b in d2}


def is_canonical_shape(s: DStr) -> bool:
    seen_bar = False
    for c in s:
        if c in SEL_OF:
            seen_bar = True
        elif seen_bar:
            return False
    return True


# ---------------------------------------------------------------------------
# Selector paths (criteria live here)
# ---------------------------------------------------------------------------

def to_path(s: DStr) -> tuple[int, ...]:
    """Selector-only demand string -> access path of 0/1 steps."""
    if any(c not in SELECTORS for c in s):
        raise ValueError(f"not a selector string: {format_dstr(s)}")
    return tuple(int(c) for c in s)


def from_path(path) -> DStr:
    return tuple(SEL1 if step else SEL0 for step in path)


def prefix_close(d: DSet) -> DSet:
    out: DSet = set()
    for s in d:
        for i in range(len(s) + 1):
            out.add(s[:i])
    return out


def is_prefix_closed(d: DSet) -> bool:
    return all(s[:i] in d for s in d for i in range(len(s)))


def all_strings_upto(alphabet, k: int) -> list[DStr]:
    """Every string over ``alphabet`` of length at most k."""
    out: list[DStr] = []
    for n in range(k + 1):
        out.extend(product(alphabet, repeat=n))
    return out


# ---------------------------------------------------------------------------
# Automata and grammars by their languages
# ---------------------------------------------------------------------------

def accepts(m: Nfa, s) -> bool:
    cur = m.eps_closure({m.start})
    for sym in s:
        cur = m.step(cur, sym)
        if not cur:
            return False
    return any(q in m.finals for q in cur)


def enumerate_upto(m: Nfa, k: int, cap: int = 1_000_000) -> set[tuple]:
    """All strings ``m`` accepts of length at most k (fails above ``cap``)."""
    out: set[tuple] = set()

    def go(cur: frozenset[int], prefix: tuple):
        if any(q in m.finals for q in cur):
            out.add(prefix)
            if len(out) > cap:
                raise ValueError("enumeration exceeds cap")
        if len(prefix) == k:
            return
        syms = {sym for q in cur for sym in m.trans.get(q, {}) if sym != EPS}
        for sym in sorted(syms):
            go(m.step(cur, sym), prefix + (sym,))

    go(m.eps_closure({m.start}), ())
    return out


def prefix_closed(m: Nfa) -> Nfa:
    """Automaton for all prefixes of the strings ``m`` accepts."""
    t = m.trim()
    t.finals = set(range(t.n)) if not t.is_empty() else set()
    return t


def complement(m: Nfa, alphabet) -> Nfa:
    d = m.determinize(alphabet)
    d.finals = set(range(d.n)) - d.finals
    return d


def equivalent(a: Nfa, b: Nfa, alphabet) -> bool:
    alphabet = sorted(set(alphabet) | a.symbols() | b.symbols())
    return (intersect(a, complement(b, alphabet)).is_empty()
            and intersect(b, complement(a, alphabet)).is_empty())


def nonterminals(g: DemandGrammar) -> set[NonTerm]:
    nts = set(g.declared)
    for lhs, body in g.productions:
        nts.add(lhs)
        nts.update(item for item in body if is_nonterm(item))
    return nts


def by_lhs(g: DemandGrammar) -> dict[NonTerm, list]:
    out: dict[NonTerm, list] = {}
    for lhs, body in g.productions:
        out.setdefault(lhs, []).append(body)
    return out


def scc_partition(g: DemandGrammar):
    """Strongly connected components of the nonterminal reference graph,
    dependencies first, and the component id of every nonterminal."""
    sccs = _tarjan(_rules(g))
    return sccs, {nt: cid for cid, comp in enumerate(sccs) for nt in comp}


# ---------------------------------------------------------------------------
# Bounded enumeration of demand grammars
# ---------------------------------------------------------------------------

def bounded_languages(g: DemandGrammar, maxlen: int,
                      cap: int = 2_000_000) -> dict[NonTerm, set]:
    """Every string of length <= maxlen derivable from each nonterminal.

    A truncated bottom-up fixpoint. Dropping over-length intermediate
    concatenations loses nothing, because partial concatenations are
    substrings of the final yield and so never longer than it.
    """
    lang: dict[NonTerm, set] = {nt: set() for nt in nonterminals(g)}
    prods = sorted(g.productions, key=production_key)
    total = 0
    changed = True
    while changed:
        changed = False
        for lhs, body in prods:
            acc = {()}
            for item in body:
                nxt = set()
                if is_nonterm(item):
                    for s in acc:
                        room = maxlen - len(s)
                        for t in lang[item]:
                            if len(t) <= room:
                                nxt.add(s + t)
                else:
                    for s in acc:
                        if len(s) < maxlen:
                            nxt.add(s + (item,))
                acc = nxt
                if not acc:
                    break
            fresh = acc - lang[lhs]
            if fresh:
                total += len(fresh)
                if total > cap:
                    raise FsliceError("bounded grammar enumeration too large")
                lang[lhs] |= fresh
                changed = True
    return lang


def eval_finite(g: DemandGrammar, pt: int, maxlen: int) -> set:
    """Bounded language of D[pt]; oracle for the regular pipeline."""
    if maxlen > 12:
        raise ValueError("maxlen above 12 is not supported")
    return set(bounded_languages(g, maxlen).get(nt_d(pt), set()))


# ---------------------------------------------------------------------------
# References for the use index and the cancellation worklist
# ---------------------------------------------------------------------------

def occurrences_of(var: str, e: Expr) -> list[Occ]:
    """All labeled occurrences of ``var`` within a spine."""
    out = []
    for sub in iter_exprs(e):
        if isinstance(sub, Return):
            cands = [sub.value]
        elif isinstance(sub, If):
            cands = [sub.guard]
        else:
            cands = app_occs(sub.rhs)
        out.extend(o for o in cands if o.name == var)
    return out


def cancel_pairs_by_rounds(m: Nfa) -> set[tuple[int, int]]:
    """The pairs of ``regular.cancel_pairs``, by rounds: each round
    recomputes every bar edge's closure over epsilon and derived edges,
    until a round derives nothing new."""
    bar_edges = [(p, sym, x) for p, sym, x in m.edges() if sym in SEL_OF]
    eps_adj: dict[int, set[int]] = {}
    for p, sym, x in m.edges():
        if sym == EPS:
            eps_adj.setdefault(p, set()).add(x)
    derived: dict[int, set[int]] = {}
    pairs: set[tuple[int, int]] = set()
    changed = True
    while changed:
        changed = False
        for p, bsym, x in bar_edges:
            sel = SEL_OF[bsym]
            seen = {x}
            todo = [x]
            while todo:
                y = todo.pop()
                for z in eps_adj.get(y, ()):
                    if z not in seen:
                        seen.add(z)
                        todo.append(z)
                for z in derived.get(y, ()):
                    if z not in seen:
                        seen.add(z)
                        todo.append(z)
            for y in seen:
                for q in m.succ(y, sel):
                    if (p, q) not in pairs:
                        pairs.add((p, q))
                        derived.setdefault(p, set()).add(q)
                        changed = True
    return pairs


# ---------------------------------------------------------------------------
# Simplification lifted to automata
# ---------------------------------------------------------------------------

def simplify_nfa(m: Nfa) -> Nfa:
    """Automaton for S(L(m)), over selectors only.

    Cancellation pairs become epsilon edges; bars are then dropped. A state
    with a 2-edge into a tailing state becomes accepting, since the 2
    swallows whatever the path read after it.
    """
    pairs = cancel_pairs(m)
    tails = tail_states(m, pairs)
    out = Nfa(m.n, m.start)
    out.finals = set(m.finals)
    for p, q in pairs:
        if p != q:
            out.add(p, EPS, q)
    for p, sym, q in m.edges():
        if sym in (SEL0, SEL1, EPS):
            out.add(p, sym, q)
        elif sym == TWO and q in tails:
            out.finals.add(p)
    return out.trim()


# ---------------------------------------------------------------------------
# Per-point completing automata
# ---------------------------------------------------------------------------

class NotCanonical(FsliceError):
    pass


def is_canonical_nfa(m: Nfa) -> bool:
    """Structural shape check: no selector or 2 edge after a bar edge."""
    t = m.trim()
    after_bar = {q for _, sym, q in t.edges() if sym in SEL_OF}
    todo = list(after_bar)
    while todo:
        q = todo.pop()
        for sym, dsts in t.trans.get(q, {}).items():
            if sym in (SEL0, SEL1, TWO):
                return False
            for r in dsts:
                if r not in after_bar:
                    after_bar.add(r)
                    todo.append(r)
    return True


def create_completing_automaton(a: Nfa) -> Nfa:
    """Selector automaton of the completions a canonical automaton demands.

    The frontier is every state reachable from the start without crossing a
    bar; those are the points where a canonical string's plain prefix ends.
    Bar edges are reversed and unbarred (a pending 0̄ is completed by
    reading 0), epsilon edges are reversed along with them, and a fresh
    start feeds the old finals. A criterion keeps the point alive exactly
    when it contains one of these completion strings.
    """
    a = a.trim()
    if not is_canonical_nfa(a):
        raise NotCanonical("completing automata need a canonical input")
    frontier = {a.start}
    todo = [a.start]
    while todo:
        q = todo.pop()
        for sym, dsts in a.trans.get(q, {}).items():
            if sym in (SEL0, SEL1, TWO, EPS):
                for r in dsts:
                    if r not in frontier:
                        frontier.add(r)
                        todo.append(r)
    c = Nfa(a.n + 1, a.n)
    for p, sym, q in a.edges():
        if sym in SEL_OF:
            c.add(q, SEL_OF[sym], p)
        elif sym == EPS:
            c.add(q, EPS, p)
    for f in a.finals:
        c.add(c.start, EPS, f)
    c.finals = frontier
    return c.trim()
