"""End-to-end acceptance gate.

One test per shipped guarantee, numbered; `pytest -v` prints one pass/fail
line for each. Budgets and tolerances are pinned in the assertions, not
configurable: golden slices under 5 s apiece, the differential sweep under
5 min, the exhaustive criterion sweep exact on all 458,330 prefix-closed
criteria, 10,000 seeded composition samples with zero failures, and a 10x
speedup floor for the precomputed pipeline.
"""

import random
import statistics
import time

from fslice.criteria import parse_criterion
from fslice.demand import ALPHABET, BAR0, BAR1, SEL0, SEL1, TWO
from fslice.automata import EPS, from_strings
from fslice.firstify import firstify, map_back
from fslice.gen import generate_program
from fslice.grammar import generate_equations, instantiate, nt_d
from fslice.lang import Cons, Let, all_labels, app_occs, iter_exprs, print_program
from fslice.regular import CompiledGrammar, canonicalize_nfa, mn_transform
from fslice.slicer import extract_residual, in_slice, precompute, slice_inc, slice_noninc

from conftest import golden
from helpers import (
    SEED, check_soundness, criteria_pool, criterion_nfa, median_ms,
    random_finite_criteria,
)
from oracles import (
    bounded_languages, canonicalize, canonicalize_str, concat,
    count_prefix_closed, enumerate_prefix_closed, enumerate_upto, format_dset,
    simplify,
    simplify_nfa, simplify_str,
)

WORKED = (SEL1, TWO, BAR0, SEL0, SEL0, TWO, SEL0, BAR1, BAR1, SEL1, BAR0)
WORKED_CANONICAL = (SEL1, TWO, SEL0, TWO, SEL0, BAR1, BAR0)


def test_criterion_01_golden_slices(corpus):
    """Head and tail criteria on the two-counter walkthrough program
    reproduce the expected hole placements, in under five seconds each."""
    for text, name in (("eps + 0", "lcc_head.golden"),
                       ("eps + 1", "lcc_tail.golden")):
        t0 = time.perf_counter()
        res = slice_noninc(corpus["lcc"], parse_criterion(text))
        elapsed = time.perf_counter() - t0
        assert print_program(res.residual) == golden(name), text
        assert elapsed < 5.0, (text, elapsed)


def test_criterion_02_point_decisions_and_exhaustive_criteria(corpus):
    """The pinned point answers head yes, tail no, root-only no; its stored
    automaton decides exactly like the one-string language {0} on every
    prefix-closed criterion of depth up to four, the empty one included."""
    art = precompute(corpus["lcc"])
    assert in_slice(art, 1, criterion_nfa({(), (SEL0,)})) is True
    assert in_slice(art, 1, criterion_nfa({(), (SEL1,)})) is False
    assert in_slice(art, 1, criterion_nfa({()})) is False
    total = mismatches = 0
    for sigma in enumerate_prefix_closed(4):
        got = in_slice(art, 1, from_strings(sorted(sigma)))
        if got is not ((SEL0,) in sigma):
            mismatches += 1
        total += 1
    assert total == count_prefix_closed(2, 4) == 458_330
    assert mismatches == 0


def test_criterion_03_incremental_agrees_with_from_scratch(corpus):
    """Answering from precomputed automata matches the from-scratch
    pipeline on every (program, criterion, label) triple, within budget."""
    assert len(corpus) >= 10
    assert {"lcc", "mapsq", "treesum", "deriv"} <= set(corpus)
    pool = criteria_pool() + [(format_dset(s), criterion_nfa(s))
                              for s in random_finite_criteria(8)]
    assert len(pool) >= 25
    t0 = time.perf_counter()
    triples = 0
    for name in sorted(corpus):
        p = corpus[name]
        art = precompute(p)
        for cname, crit in pool:
            noninc = slice_noninc(p, crit)
            inc = slice_inc(p, art, crit)
            assert noninc.keep == inc.keep, (name, cname)
            triples += len(noninc.keep)
    elapsed = time.perf_counter() - t0
    assert triples > 0
    assert elapsed < 300.0, elapsed


def test_criterion_04_criterion_acts_as_a_suffix(corpus):
    """Bounded to length 8, every point's demand language under a
    criterion equals its empty-criterion language concatenated with the
    criterion, for every corpus point and pool criterion."""
    maxlen = 8
    for name in sorted(corpus):
        p = corpus[name]
        g = generate_equations(p)
        eps_langs = bounded_languages(
            instantiate(g, criterion_nfa({()})), maxlen)
        for cname, crit in criteria_pool():
            sig_langs = bounded_languages(instantiate(g, crit), maxlen)
            sigma = enumerate_upto(crit, maxlen)
            for lab in all_labels(p):
                want = {a + s for a in eps_langs[nt_d(lab)] for s in sigma
                        if len(a) + len(s) <= maxlen}
                assert sig_langs[nt_d(lab)] == want, (name, cname, lab)


def _acceptor(m):
    step: dict[tuple[int, str], set[int]] = {}
    eps: dict[int, set[int]] = {}
    for src, sym, dst in m.edges():
        if sym == EPS:
            eps.setdefault(src, set()).add(dst)
        else:
            step.setdefault((src, sym), set()).add(dst)

    def close(states: set[int]) -> set[int]:
        todo = list(states)
        while todo:
            for nxt in eps.get(todo.pop(), ()):
                if nxt not in states:
                    states.add(nxt)
                    todo.append(nxt)
        return states

    def accepts(s) -> bool:
        cur = close({m.start})
        for c in s:
            cur = close(set().union(
                *(step.get((q, c), set()) for q in cur)) if cur else set())
            if not cur:
                return False
        return bool(cur & m.finals)

    return accepts


def test_criterion_05_nfa_transforms_agree_with_string_functions(corpus):
    """Automaton-level simplification and canonicalization agree with the
    string-level maps: exactly on the length-8 enumeration of every corpus
    point automaton, and the full automata accept every image. The worked
    string dies under simplification and canonicalizes to 1 2 0 2 0 1b 0b."""
    assert simplify_str(WORKED) is None
    assert canonicalize_str(WORKED) == WORKED_CANONICAL
    one = from_strings([WORKED])
    assert simplify_nfa(one).trim().is_empty()
    assert enumerate_upto(canonicalize_nfa(one), 11) == {WORKED_CANONICAL}

    for name in sorted(corpus):
        p = corpus[name]
        cg = CompiledGrammar(mn_transform(generate_equations(p)))
        for lab in sorted(all_labels(p)):
            m = cg.nfa(nt_d(lab))
            strings = enumerate_upto(m, 8)
            finite = from_strings(sorted(strings))
            s_want = simplify(strings)
            c_want = canonicalize(strings)
            assert enumerate_upto(simplify_nfa(finite), 8) == s_want, (name, lab)
            assert enumerate_upto(canonicalize_nfa(finite), 8) == c_want, (name, lab)
            simp_accepts = _acceptor(simplify_nfa(m))
            canon_accepts = _acceptor(canonicalize_nfa(m))
            assert all(simp_accepts(s) for s in s_want), (name, lab)
            assert all(canon_accepts(s) for s in c_want), (name, lab)


def test_criterion_06_simplification_respects_composition():
    """For 10,000 seeded random pairs of symbolic strings up to length 6,
    simplifying a concatenation equals simplifying the concatenation of
    the canonical forms. Zero failures tolerated."""
    rng = random.Random(SEED)
    for i in range(10_000):
        d1 = tuple(rng.choices(ALPHABET, k=rng.randrange(7)))
        d2 = tuple(rng.choices(ALPHABET, k=rng.randrange(7)))
        lhs = simplify(concat(canonicalize({d1}), canonicalize({d2})))
        rhs = simplify(concat({d1}, {d2}))
        assert lhs == rhs, (i, d1, d2)


def test_criterion_07_residuals_project_like_the_original(corpus):
    """Running original and residual and projecting both along every
    criterion path agrees everywhere; no hole is ever observed."""
    failures = []
    for name in sorted(corpus):
        p = corpus[name]
        for cname, crit in criteria_pool():
            res = slice_noninc(p, crit)
            bad = check_soundness(p, res.residual, crit)
            if bad:
                failures.append((name, cname, bad[:2]))
    assert failures == []


def test_criterion_08_third_element_keeps_the_whole_input_list(corpus):
    """The documented approximation loss: demanding only the third list
    element still keeps every cons cell and element of the input list."""
    p = corpus["mapsq"]
    crit = criterion_nfa({(), (SEL1,), (SEL1, SEL1), (SEL1, SEL1, SEL0)})
    res = slice_noninc(p, crit)
    cons_apps = [e.rhs for e in iter_exprs(p.main.body)
                 if isinstance(e, Let) and isinstance(e.rhs, Cons)]
    assert len(cons_apps) >= 5
    for a in cons_apps:
        assert res.keep[a.label], a.label
        assert all(res.keep[o.label] for o in app_occs(a)), a.label


def test_criterion_09_higher_order_goldens(ho_corpus):
    """Firstification reproduces the expected lowered program, and the
    head-criterion slice mapped back onto the original reproduces the
    expected hole placements."""
    p = ho_corpus["hof"]
    fo, lm = firstify(p)
    assert print_program(fo) == golden("hof_firstified.golden")
    res = slice_noninc(fo, criterion_nfa({(), (SEL0,)}))
    keep_src = map_back(res.keep, lm, p)
    assert print_program(extract_residual(p, keep_src)) == \
        golden("hof_mapped_back_head.golden")


def test_criterion_10_precomputed_queries_are_an_order_faster():
    """On a synthesized program of at least 500 points, answering every
    point from the artifact is at least 10x faster than one from-scratch
    slice per criterion, and building the artifact costs at most 10x one
    from-scratch slice. Medians over 5 runs."""
    p = generate_program()
    labels = sorted(all_labels(p))
    assert len(labels) >= 500
    precompute_ms = median_ms(lambda: precompute(p), runs=5)
    art = precompute(p)
    noninc = []
    for text in ("eps + 0", "eps + 1 + 11 + 110", "(0+1)*"):
        crit = parse_criterion(text)
        noninc_ms = median_ms(lambda: slice_noninc(p, crit), runs=5)
        inc_ms = median_ms(
            lambda: [in_slice(art, lab, crit) for lab in labels], runs=5)
        assert inc_ms <= noninc_ms / 10.0, (text, noninc_ms / inc_ms)
        noninc.append(noninc_ms)
    noninc_med = statistics.median(noninc)
    assert precompute_ms <= 10.0 * noninc_med, (precompute_ms, noninc_med)
