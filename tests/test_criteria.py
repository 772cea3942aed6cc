"""Criterion language tests: parsing, closure behavior, printing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fslice.automata import EPS, from_strings
from fslice.criteria import (
    Alt, Cat, CriterionError, Eps, Star, Sym, parse_criterion, parse_regex,
    regex_to_nfa, validate_criterion,
)
from fslice.demand import SEL0, SEL1
from fslice.slicer import slice_noninc

from helpers import FINITE_CRITERIA, REGEX_CRITERIA, regex_to_text
from oracles import enumerate_upto, equivalent, prefix_close

AB = (SEL0, SEL1)


def lang(m, k=6):
    return enumerate_upto(m, k)


def regex_text(strings) -> str:
    return " + ".join("".join(s) if s else "eps" for s in sorted(strings))


def assert_minimal_closed_dfa(m):
    """Deterministic (no epsilon edge, at most one move per state and
    symbol), every state final, and minimal."""
    for q in range(m.n):
        moves = m.trans.get(q, {})
        assert EPS not in moves
        assert all(len(dsts) == 1 for dsts in moves.values())
    assert m.finals == set(range(m.n))
    assert m.minimize().trim().n == m.n


# The criteria pool of the slicer tests, as regex text.
POOL_TEXTS = REGEX_CRITERIA + [regex_text(s) for s in FINITE_CRITERIA]


@pytest.mark.parametrize("text", POOL_TEXTS)
def test_parsed_criteria_are_minimal_closed_dfas(text):
    assert_minimal_closed_dfa(parse_criterion(text))


@pytest.mark.parametrize("text,strings", [
    ("eps", {()}),
    ("eps + 0", {(), (SEL0,)}),
    ("eps + 1 + 11 + 110", {(), (SEL1,), (SEL1, SEL1), (SEL1, SEL1, SEL0)}),
    ("eps + 0 + 1", {(), (SEL0,), (SEL1,)}),
])
def test_finite_criteria_parse_exactly(text, strings):
    assert lang(parse_criterion(text)) == strings


def test_star_criteria():
    assert lang(parse_criterion("0*"), 3) == {(), (SEL0,), (SEL0,) * 2,
                                              (SEL0,) * 3}
    full = parse_criterion("(0+1)*")
    assert lang(full, 2) == {(), (SEL0,), (SEL1,), (SEL0, SEL0),
                             (SEL0, SEL1), (SEL1, SEL0), (SEL1, SEL1)}
    mixed = parse_criterion("0*1*")
    assert (SEL0, SEL1) in lang(mixed)
    assert (SEL1, SEL0) not in lang(mixed)


def test_closure_is_applied_and_reported():
    notes = []
    m = parse_criterion("10", notify=notes.append)
    assert lang(m) == {(), (SEL1,), (SEL1, SEL0)}
    assert notes == ["criterion was not prefix-closed; using its prefix "
                     "closure"]
    notes.clear()
    parse_criterion("eps + 0", notify=notes.append)
    assert notes == []


def test_long_suffix_criterion_closes_to_one_state(corpus):
    """``(0+1)*0`` followed by ten ``(0+1)``: its minimal DFA has 2^11
    states, and its prefix closure is all of (0+1)*."""
    notes = []
    m = parse_criterion("(0+1)*0" + "(0+1)" * 10, notify=notes.append)
    assert notes == ["criterion was not prefix-closed; using its prefix "
                     "closure"]
    assert m.n == 1
    assert_minimal_closed_dfa(m)
    p = corpus["lcc"]
    assert slice_noninc(p, m).keep == \
        slice_noninc(p, parse_criterion("(0+1)*")).keep


def test_strict_mode_rejects_non_closed():
    with pytest.raises(CriterionError, match="strict"):
        parse_criterion("10", strict=True)
    assert parse_criterion("eps + 1 + 10", strict=True) is not None


@pytest.mark.parametrize("text", ["", "()", "0 +", "2", "*0", "(0", "0)",
                                  "0 ** +"])
def test_parse_rejections(text):
    with pytest.raises(CriterionError):
        parse_criterion(text)


def test_validate_criterion():
    with pytest.raises(CriterionError, match="empty"):
        validate_criterion(from_strings([]))
    with pytest.raises(CriterionError, match="prefix-closed"):
        validate_criterion(from_strings([(SEL0,)]))
    with pytest.raises(CriterionError, match="non-path"):
        validate_criterion(from_strings([("2",)]))
    validate_criterion(from_strings([(), (SEL0,)]))


def test_regex_ast_and_printer():
    r = parse_regex("eps + 0(1 + 0)*")
    assert r == Alt((Eps(), Cat((Sym("0"), Star(Alt((Sym("1"), Sym("0"))))))))
    assert regex_to_text(r) == "eps + 0(1 + 0)*"


# Random regexes: printing then reparsing is a fixpoint and preserves the
# language.
regexes = st.recursive(
    st.sampled_from([Eps(), Sym(SEL0), Sym(SEL1)]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: Alt(t)),
        st.tuples(inner, inner).map(lambda t: Cat(t)),
        inner.map(Star),
    ),
    max_leaves=8)


@given(regexes)
def test_print_parse_round_trip(r):
    text = regex_to_text(r)
    again = parse_regex(text)
    assert regex_to_text(again) == text
    assert equivalent(regex_to_nfa(r), regex_to_nfa(again), AB)


@given(st.frozensets(st.lists(st.sampled_from(AB), max_size=4).map(tuple),
                     min_size=1, max_size=5))
def test_closure_matches_set_level_closure(strings):
    text = " + ".join("".join(s) if s else "eps" for s in sorted(strings))
    m = parse_criterion(text)
    assert lang(m, 4) == prefix_close(set(strings))
    assert_minimal_closed_dfa(m)
