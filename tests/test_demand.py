"""Demand string calculus, cross-checked against the rewrite-rule oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fslice.demand import ALPHABET, BAR0, BAR1, SEL0, SEL1, TWO
from oracles import (
    all_strings_upto, canonicalize, canonicalize_str, concat, format_dset,
    format_dstr, from_path, is_canonical_shape, is_prefix_closed, parse_dstr,
    prefix_close, simplify, simplify_str, to_path,
)

# One string exercised through both transforms, frozen symbol by symbol.
WORKED = (SEL1, TWO, BAR0, SEL0, SEL0, TWO, SEL0, BAR1, BAR1, SEL1, BAR0)
WORKED_CANONICAL = (SEL1, TWO, SEL0, TWO, SEL0, BAR1, BAR0)

demand_strings = st.lists(st.sampled_from(ALPHABET), max_size=8).map(tuple)
selector_strings = st.lists(st.sampled_from((SEL0, SEL1)), max_size=6).map(tuple)


def test_worked_string():
    assert canonicalize_str(WORKED) == WORKED_CANONICAL
    assert simplify_str(WORKED) is None
    assert canonicalize({WORKED}) == {WORKED_CANONICAL}
    assert simplify({WORKED}) == set()


@pytest.mark.parametrize("s,expect", [
    ((), ()),
    ((SEL0,), (SEL0,)),
    ((TWO,), ()),
    ((TWO, SEL0), ()),
    ((TWO, SEL0, SEL1), ()),
    ((BAR0, SEL0), ()),
    ((BAR0, SEL0, SEL1), (SEL1,)),
    ((BAR0, SEL1), None),
    ((BAR0,), None),
    ((SEL0, BAR0), None),
    ((BAR1, TWO), None),
    ((SEL1, BAR0, SEL0, SEL0), (SEL1, SEL0)),
    ((TWO, BAR0, SEL0), ()),
])
def test_simplify_cases(s, expect):
    assert simplify_str(s) == expect
    assert oracles.simplify_string(s) == expect


@pytest.mark.parametrize("s,expect", [
    ((), ()),
    ((TWO,), (TWO,)),
    ((BAR0,), (BAR0,)),
    ((BAR1, BAR0), (BAR1, BAR0)),
    ((SEL0, BAR0), (SEL0, BAR0)),
    ((BAR0, SEL0), ()),
    ((BAR0, SEL1), None),
    ((BAR0, TWO), None),
    ((TWO, BAR0, SEL0, SEL1), (TWO, SEL1)),
])
def test_canonicalize_cases(s, expect):
    assert canonicalize_str(s) == expect
    assert oracles.canonicalize_string(s) == expect


@given(demand_strings)
def test_simplify_matches_oracle(s):
    assert simplify_str(s) == oracles.simplify_string(s)


@given(demand_strings)
def test_canonicalize_matches_oracle(s):
    assert canonicalize_str(s) == oracles.canonicalize_string(s)


@given(demand_strings)
def test_simplify_output_is_selector_only(s):
    r = simplify_str(s)
    if r is not None:
        assert all(c in (SEL0, SEL1) for c in r)


@given(demand_strings)
def test_canonicalize_output_shape_and_idempotence(s):
    r = canonicalize_str(s)
    if r is not None:
        assert is_canonical_shape(r)
        assert canonicalize_str(r) == r


@given(demand_strings)
def test_simplify_factors_through_canonicalize(s):
    r = canonicalize_str(s)
    if r is None:
        assert simplify_str(s) is None
    else:
        assert simplify_str(r) == simplify_str(s)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(ALPHABET), max_size=6).map(tuple),
       st.lists(st.sampled_from(ALPHABET), max_size=6).map(tuple))
def test_canonicalize_respects_concatenation(d1, d2):
    lhs = simplify(concat(canonicalize({d1}), canonicalize({d2})))
    rhs = simplify(concat({d1}, {d2}))
    assert lhs == rhs


@given(selector_strings)
def test_simplify_is_identity_on_selector_strings(s):
    assert simplify_str(s) == s
    assert simplify(simplify({s})) == simplify({s})


def test_set_level_operations_drop_dead_strings():
    assert simplify({(BAR0,), (SEL1,)}) == {(SEL1,)}
    assert canonicalize({(BAR0, SEL1), (TWO,)}) == {(TWO,)}
    d = concat({(BAR0,)}, {(SEL0,), (SEL0, SEL1)})
    assert d == {(BAR0, SEL0), (BAR0, SEL0, SEL1)}
    assert simplify(d) == {(), (SEL1,)}


def test_paths_round_trip():
    assert to_path((SEL0, SEL1)) == (0, 1)
    assert from_path((0, 1)) == (SEL0, SEL1)
    assert to_path(from_path((1, 1, 0))) == (1, 1, 0)
    with pytest.raises(ValueError):
        to_path((BAR0,))


def test_prefix_closure():
    closed = prefix_close({(SEL1, SEL1, SEL0)})
    assert closed == {(), (SEL1,), (SEL1, SEL1), (SEL1, SEL1, SEL0)}
    assert is_prefix_closed(closed)
    assert not is_prefix_closed({(SEL1, SEL1)})
    assert is_prefix_closed(set())


def test_formatting():
    assert format_dstr(()) == "eps"
    assert format_dstr((SEL1, TWO, BAR0)) == "1 2 0b"
    assert format_dstr((BAR0, BAR1), pretty=True) == "0̄ 1̄"
    assert parse_dstr("1 2 0b") == (SEL1, TWO, BAR0)
    assert parse_dstr("0̄ 1̄") == (BAR0, BAR1)
    assert format_dset(set()) == "{}"
    assert format_dset({(), (SEL0,)}) == "{eps, 0}"
    with pytest.raises(ValueError):
        parse_dstr("3")


@given(demand_strings)
def test_parse_format_round_trip(s):
    assert parse_dstr(format_dstr(s)) == s


def test_all_strings_upto_counts():
    assert len(all_strings_upto(ALPHABET, 2)) == 1 + 5 + 25
    assert len(all_strings_upto((SEL0, SEL1), 3)) == 15
    assert all_strings_upto(ALPHABET, 0) == [()]
