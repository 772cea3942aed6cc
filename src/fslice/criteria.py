"""Slicing-criterion expressions.

A criterion is written as a regular expression over the access-path
alphabet {0, 1}: ``eps``, ``0``, ``1``, alternation ``+``, Kleene ``*``,
parentheses, and juxtaposition for concatenation. ``eps + 1 + 11 + 110``
denotes {ε, 1, 11, 110}.

A parsed criterion is the minimal DFA of its language, without the dead
state. The theory needs prefix-closed criteria, and on that DFA a language
is prefix-closed exactly when every state is final, so one determinization
decides it. ``parse_criterion`` closes the parsed language by default (all
states final, minimized again) and reports when closing changed it; strict
mode rejects non-closed input instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .automata import Nfa, concat, from_strings, star, union
from .demand import SEL0, SEL1
from .lang import FsliceError

PATH_ALPHABET = (SEL0, SEL1)


class CriterionError(FsliceError):
    pass


# ---------------------------------------------------------------------------
# Regex AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Regex:
    pass


@dataclass(frozen=True)
class Eps(Regex):
    pass


@dataclass(frozen=True)
class Sym(Regex):
    sym: str


@dataclass(frozen=True)
class Alt(Regex):
    parts: tuple[Regex, ...]


@dataclass(frozen=True)
class Cat(Regex):
    parts: tuple[Regex, ...]


@dataclass(frozen=True)
class Star(Regex):
    inner: Regex


def regex_to_nfa(r: Regex) -> Nfa:
    if isinstance(r, Eps):
        return from_strings([()])
    if isinstance(r, Sym):
        return from_strings([(r.sym,)])
    if isinstance(r, Alt):
        out = regex_to_nfa(r.parts[0])
        for p in r.parts[1:]:
            out = union(out, regex_to_nfa(p))
        return out
    if isinstance(r, Cat):
        out = regex_to_nfa(r.parts[0])
        for p in r.parts[1:]:
            out = concat(out, regex_to_nfa(p))
        return out
    if isinstance(r, Star):
        return star(regex_to_nfa(r.inner))
    raise TypeError(f"not a regex node: {r!r}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _tokenize(text: str) -> list[str]:
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "01+*()":
            toks.append(c)
            i += 1
        elif text.startswith("eps", i):
            toks.append("eps")
            i += 3
        else:
            raise CriterionError(f"unexpected character {c!r} in criterion")
    return toks


def parse_regex(text: str) -> Regex:
    toks = _tokenize(text)
    if not toks:
        raise CriterionError("empty criterion")
    pos = 0

    def peek() -> str | None:
        return toks[pos] if pos < len(toks) else None

    def expect(t: str):
        nonlocal pos
        if peek() != t:
            raise CriterionError(f"expected {t!r} at token {pos}")
        pos += 1

    def atom() -> Regex:
        nonlocal pos
        t = peek()
        if t == "(":
            pos += 1
            r = alt()
            expect(")")
            return r
        if t in ("0", "1"):
            pos += 1
            return Sym(t)
        if t == "eps":
            pos += 1
            return Eps()
        raise CriterionError(f"unexpected token {t!r}")

    def factor() -> Regex:
        nonlocal pos
        r = atom()
        while peek() == "*":
            pos += 1
            r = Star(r)
        return r

    def cat() -> Regex:
        parts = [factor()]
        while peek() in ("0", "1", "eps", "("):
            parts.append(factor())
        return parts[0] if len(parts) == 1 else Cat(tuple(parts))

    def alt() -> Regex:
        nonlocal pos
        parts = [cat()]
        while peek() == "+":
            pos += 1
            parts.append(cat())
        return parts[0] if len(parts) == 1 else Alt(tuple(parts))

    r = alt()
    if pos != len(toks):
        raise CriterionError(f"trailing input at token {pos}")
    return r


# ---------------------------------------------------------------------------
# Criterion construction and validation
# ---------------------------------------------------------------------------

def _minimal(m: Nfa) -> Nfa:
    """The minimal DFA of L(m) over {0,1}, without its dead state.

    Each of its states is reached by a prefix of an accepted string, and a
    string reaches at most one state, so L(m) is prefix-closed exactly when
    every state is final.
    """
    return m.determinize(PATH_ALPHABET).minimize().trim()


def validate_criterion(crit: Nfa) -> None:
    """Reject criteria the theory does not cover.

    Must be nonempty, use only path selectors, and be prefix-closed.
    ``grammar.instantiate`` runs this on every criterion it is given.
    """
    if crit.is_empty():
        raise CriterionError("criterion denotes the empty language")
    bad = crit.trim().symbols() - {SEL0, SEL1, ""}
    if bad:
        raise CriterionError(f"criterion uses non-path symbols {sorted(bad)}")
    d = _minimal(crit)
    if len(d.finals) < d.n:
        raise CriterionError("criterion is not prefix-closed")


def parse_criterion(text: str, *, strict: bool = False,
                    notify: Callable[[str], None] | None = None) -> Nfa:
    """Parse a criterion regex into the minimal DFA (without its dead
    state) of a prefix-closed language over {0,1}.

    The result always passes ``validate_criterion``: the regex syntax has
    no empty language and no symbol but 0 and 1.
    """
    try:
        m = regex_to_nfa(parse_regex(text))
    except RecursionError:
        raise CriterionError("criterion nests too deeply") from None
    d = _minimal(m)
    if len(d.finals) == d.n:
        return d
    if strict:
        raise CriterionError("criterion is not prefix-closed (strict mode)")
    if notify is not None:
        notify("criterion was not prefix-closed; using its prefix closure")
    d.finals = set(range(d.n))
    return d.minimize().trim()
