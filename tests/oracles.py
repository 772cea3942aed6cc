"""Independent reference implementations used as test oracles.

Everything here is derived straight from the rewrite rules, not from the
shipped code: simplification and canonicalization are run as exhaustive
string rewriting (any redex, breadth-first, with a confluence assertion),
and the language-level operations are plain set computations on bounded
enumerations. Slow is fine; these never ship.

``create_completing_automaton`` builds one point's completing automaton
straight from that point's canonical automaton: the reference every
automaton ``slicer.precompute`` stores must be equivalent to.
"""

from __future__ import annotations

from itertools import product

from fslice.automata import EPS, Nfa
from fslice.demand import BAR0, BAR1, END, SEL0, SEL1, TWO
from fslice.lang import FsliceError

SELECTORS = (SEL0, SEL1)
ALPHABET = (SEL0, SEL1, BAR0, BAR1, TWO)

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


def all_strings(alphabet, maxlen: int):
    for n in range(maxlen + 1):
        yield from product(alphabet, repeat=n)


def completions(canon_strings, maxlen: int) -> set[tuple]:
    """Selector strings s with a live simplification of some d + s."""
    out = set()
    for s in all_strings(SELECTORS, maxlen):
        if any(simplify_string(d + s) is not None for d in canon_strings):
            out.add(s)
    return out


def prefixes(strings) -> set[tuple]:
    out = set()
    for s in strings:
        for i in range(len(s) + 1):
            out.add(s[:i])
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
# Per-point completing automata
# ---------------------------------------------------------------------------

_SEL_FOR_BAR = {BAR0: SEL0, BAR1: SEL1}


class NotCanonical(FsliceError):
    pass


def is_canonical_nfa(m: Nfa) -> bool:
    """Structural shape check: no selector or 2 edge after a bar edge."""
    t = m.trim()
    after_bar = {q for _, sym, q in t.edges() if sym in _SEL_FOR_BAR}
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
        if sym in _SEL_FOR_BAR:
            c.add(q, _SEL_FOR_BAR[sym], p)
        elif sym == EPS:
            c.add(q, EPS, p)
    for f in a.finals:
        c.add(c.start, EPS, f)
    c.finals = frontier
    return c.trim()
