"""Demand grammar tests: hand-derived languages and structural laws."""

import pytest

from fslice.automata import from_strings
from fslice.criteria import CriterionError
from fslice.demand import BAR0, BAR1, SEL0, SEL1, TWO
from fslice.grammar import (
    CRIT, format_nt, generate_equations, instantiate, nt_d, nt_fn, nt_sum,
)
from fslice.lang import all_labels, parse_program, validate

from helpers import criterion_nfa
from oracles import bounded_languages, by_lhs, eval_finite, nonterminals
from test_lang import deep_let_chain

EPS_CRIT = frozenset({()})
HEAD_CRIT = frozenset({(), (SEL0,)})

# Every node pinned, so the expected languages can name labels directly.
STRAIGHT = """
(define (main)
  pi10:(let x ← pi1:1 in
  pi11:(let p ← pi2:(cons pi3:x pi4:x) in
  pi12:(let h ← pi5:(car pi6:p) in
  pi13:(return pi7:h)))))
"""


@pytest.fixture(scope="module")
def straight():
    return validate(parse_program(STRAIGHT))


def test_straight_line_languages_under_eps(straight):
    g = generate_equations(straight)
    gi = instantiate(g, criterion_nfa(EPS_CRIT))
    assert eval_finite(gi, 13, 4) == {()}
    assert eval_finite(gi, 7, 4) == {()}
    assert eval_finite(gi, 5, 4) == {()}
    assert eval_finite(gi, 6, 4) == {(TWO,), (SEL0,)}
    assert eval_finite(gi, 2, 4) == {(TWO,), (SEL0,)}
    assert eval_finite(gi, 3, 4) == {(BAR0, TWO), (BAR0, SEL0)}
    assert eval_finite(gi, 4, 4) == {(BAR1, TWO), (BAR1, SEL0)}
    assert eval_finite(gi, 1, 4) == {(BAR0, TWO), (BAR0, SEL0),
                                     (BAR1, TWO), (BAR1, SEL0)}


def test_straight_line_languages_under_head(straight):
    g = generate_equations(straight)
    gi = instantiate(g, criterion_nfa(HEAD_CRIT))
    assert eval_finite(gi, 5, 4) == {(), (SEL0,)}
    assert eval_finite(gi, 6, 4) == {(TWO,), (TWO, SEL0),
                                     (SEL0,), (SEL0, SEL0)}


def test_lcc_parameter_summaries(corpus):
    g = generate_equations(corpus["lcc"])
    langs = bounded_languages(g, 4)
    lc = langs[nt_sum("linecharcount", 2)]
    assert lc == {(TWO,) * k + (BAR0,) for k in range(4)}
    cc = langs[nt_sum("linecharcount", 3)]
    assert cc == {(TWO,) * k + (BAR1,) for k in range(4)}


def test_lcc_pinned_point_language(corpus):
    g = generate_equations(corpus["lcc"])
    gi = instantiate(g, criterion_nfa(HEAD_CRIT))
    assert eval_finite(gi, 1, 3) == {
        (BAR0,), (BAR0, SEL0),
        (TWO, BAR0), (TWO, BAR0, SEL0),
        (TWO, TWO, BAR0),
    }


def test_unused_parameter_and_uncalled_function_have_empty_languages():
    src = ("(define (unused x) (let k ← 7 in (return k)))\n"
           "(define (ghost y) (return pi9:y))\n"
           "(define (main)\n"
           "  (let a ← pi4:3 in\n"
           "  (let r ← (unused pi5:a) in\n"
           "  (return r))))")
    p = validate(parse_program(src))
    g = generate_equations(p)
    gi = instantiate(g, criterion_nfa(HEAD_CRIT))
    assert eval_finite(gi, 5, 6) == set()
    assert eval_finite(gi, 4, 6) == set()
    assert eval_finite(gi, 9, 6) == set()


def test_criterion_acts_as_a_suffix(corpus):
    """Concatenating the criterion after the {eps}-criterion language gives
    the language under that criterion, point by point."""
    maxlen = 5
    for name in ("lcc", "append"):
        p = corpus[name]
        g = generate_equations(p)
        eps_langs = bounded_languages(
            instantiate(g, criterion_nfa(EPS_CRIT)), maxlen)
        for sigma in (HEAD_CRIT, frozenset({(), (SEL1,), (SEL1, SEL1)})):
            sig_langs = bounded_languages(
                instantiate(g, criterion_nfa(sigma)), maxlen)
            for lab in all_labels(p):
                want = {s + t for s in eps_langs[nt_d(lab)] for t in sigma
                        if len(s + t) <= maxlen}
                assert sig_langs[nt_d(lab)] == want, (name, lab, sigma)


def test_every_label_has_a_demand_nonterminal(corpus):
    for name, p in corpus.items():
        g = generate_equations(p)
        nts = nonterminals(g)
        by = by_lhs(g)
        for lab in all_labels(p):
            assert nt_d(lab) in nts, (name, lab)
            assert by[nt_d(lab)], (name, lab)
        for d in p.defs:
            assert nt_fn(d.name) in nts


@pytest.mark.parametrize("crit,msg", [
    (from_strings([]), "empty"),
    (from_strings([(SEL0,)]), "prefix-closed"),
    (from_strings([(TWO,)]), "non-path"),
])
def test_instantiate_rejects_bad_criteria(straight, crit, msg):
    g = generate_equations(straight)
    with pytest.raises(CriterionError, match=msg):
        instantiate(g, crit)


def test_eval_finite_caps_maxlen(straight):
    g = generate_equations(straight)
    gi = instantiate(g, criterion_nfa(EPS_CRIT))
    with pytest.raises(ValueError):
        eval_finite(gi, 1, 13)


def test_formatting_and_dump(straight):
    assert format_nt(nt_d(3)) == "D[pi3]"
    assert format_nt(nt_sum("f", 2)) == "Sum[f,2]"
    assert format_nt(nt_fn("f")) == "Fn[f]"
    assert format_nt(CRIT) == "Crit"
    g = generate_equations(straight)
    text = g.dump()
    assert "Fn[main] -> Crit" in text
    assert "D[pi7] -> Fn[main]" in text
    assert "P[pi7] -> eps" in text


def test_grammar_copy_is_independent(straight):
    g = generate_equations(straight)
    c = g.copy()
    c.add(("Fn", "extra"), ())
    assert ("Fn", "extra") not in nonterminals(g)
    assert ("Fn", "extra") in nonterminals(c)


def test_deep_let_chain_generates_without_recursion():
    p = deep_let_chain(5000)
    g = generate_equations(p)
    assert {nt_d(lab) for lab in all_labels(p)} <= nonterminals(g)
    first = p.main.body
    cons = first.body.rhs  # the uses of the first let's variable
    for occ in (cons.head, cons.tail):
        assert (nt_d(first.rhs.label), (nt_d(occ.label),)) in g.productions
