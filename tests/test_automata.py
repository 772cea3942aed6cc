"""NFA toolkit tests against plain set semantics on bounded enumerations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fslice.automata import EPS, Nfa, concat, from_strings, intersect, union
from fslice.demand import SEL0, SEL1

from oracles import (
    accepts, complement, enumerate_upto, equivalent, prefix_closed,
)

AB = (SEL0, SEL1)

string_sets = st.frozensets(
    st.lists(st.sampled_from(AB), max_size=4).map(tuple), max_size=6)


def star_upto(strings, k: int) -> set[tuple]:
    """Bounded Kleene closure of a finite string set, by saturation."""
    out = {()}
    frontier = [()]
    while frontier:
        base = frontier.pop()
        for s in strings:
            nxt = base + s
            if len(nxt) <= k and nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return out


@given(string_sets)
def test_from_strings_accepts_exactly(strings):
    m = from_strings(strings)
    assert enumerate_upto(m, 5) == set(strings)
    for s in strings:
        assert accepts(m, s)
    assert accepts(m, (SEL0,) * 5) == ((SEL0,) * 5 in strings)


@given(string_sets, string_sets)
def test_union_concat_intersect_match_set_semantics(sa, sb):
    a, b = from_strings(sa), from_strings(sb)
    assert enumerate_upto(union(a, b), 5) == sa | sb
    assert enumerate_upto(intersect(a, b), 5) == sa & sb
    want = {x + y for x in sa for y in sb if len(x + y) <= 8}
    assert enumerate_upto(concat(a, b), 8) == want


@given(string_sets)
def test_star_matches_bounded_closure(strings):
    from fslice.automata import star
    m = star(from_strings(strings))
    assert enumerate_upto(m, 6) == star_upto(strings, 6)


@given(string_sets)
def test_trim_and_renumber_preserve_language(strings):
    m = from_strings(strings)
    dead = m.add_state()
    m.add(dead, SEL0, dead)
    t = m.trim()
    assert enumerate_upto(t, 5) == set(strings)
    r = t.renumbered()
    assert enumerate_upto(r, 5) == set(strings)
    assert r.n == len(r.reachable() | {r.start})


@given(string_sets)
def test_prefix_closed_language(strings):
    m = prefix_closed(from_strings(strings))
    want = {s[:i] for s in strings for i in range(len(s) + 1)}
    assert enumerate_upto(m, 5) == want


@given(string_sets)
def test_determinize_preserves_and_complement_flips(strings):
    m = from_strings(strings)
    d = m.determinize(AB)
    assert enumerate_upto(d, 5) == set(strings)
    c = complement(m, AB)
    universe = {s for s in star_upto({(SEL0,), (SEL1,)}, 5)}
    assert enumerate_upto(c, 5) == universe - set(strings)


@given(string_sets, string_sets)
def test_equivalence_decision(sa, sb):
    a, b = from_strings(sa), from_strings(sb)
    assert equivalent(a, union(a, a), AB)
    assert equivalent(union(a, b), union(b, a), AB)
    assert equivalent(a, b, AB) == (sa == sb)


def test_epsilon_machinery():
    m = Nfa(3, 0)
    m.add(0, EPS, 1)
    m.add(1, SEL0, 2)
    m.finals = {2}
    assert m.eps_closure({0}) == {0, 1}
    assert m.step(frozenset({0, 1}), SEL0) == {2}
    assert accepts(m, (SEL0,))
    assert not accepts(m, ())
    assert m.symbols() == {SEL0}
    assert not m.is_empty()
    assert sorted(m.edges()) == [(0, EPS, 1), (1, SEL0, 2)]


def test_empty_automaton_behavior():
    m = Nfa(1, 0)
    assert m.is_empty()
    assert enumerate_upto(m, 3) == set()
    assert m.trim().is_empty()
    e = from_strings([()])
    assert enumerate_upto(e, 3) == {()}


def test_copy_is_deep_enough():
    m = from_strings([(SEL0,)])
    c = m.copy()
    c.add(c.start, SEL1, next(iter(c.finals)))
    assert not accepts(m, (SEL1,))
    assert accepts(c, (SEL1,))


@given(string_sets)
def test_minimize_preserves_language_and_is_minimal(strings):
    dfa = from_strings(strings).determinize(AB)
    m = dfa.minimize()
    assert equivalent(m, dfa, AB)
    # a second pass finds nothing left to merge
    assert m.minimize().n == m.n
    # equal languages give the same trimmed, renumbered automaton
    other = union(from_strings(strings), from_strings(strings))
    n = other.determinize(AB).minimize().trim().renumbered()
    t = m.trim().renumbered()
    assert (n.n, n.start, n.finals, sorted(n.edges())) == \
        (t.n, t.start, t.finals, sorted(t.edges()))


def test_minimize_merges_equivalent_states_and_needs_a_dfa():
    m = Nfa(4, 0)
    m.add(0, SEL0, 1)
    m.add(0, SEL1, 2)
    m.add(1, SEL0, 3)
    m.add(2, SEL0, 3)
    m.finals = {3}
    assert m.minimize().trim().n == 3
    m.add(0, SEL0, 2)
    with pytest.raises(ValueError):
        m.minimize()
