"""Firstifier tests: semantics preservation against a reference evaluator,
structural goldens, label maps, and the supported-fragment boundary."""

import pytest

from fslice.firstify import FirstifyUnsupported, firstify, map_back
from fslice.interp import observe, run, to_py
from fslice.lang import (
    Call, Hole, all_labels, parse_program, print_program, validate,
)
from fslice.slicer import extract_residual, slice_noninc

from conftest import golden
from helpers import check_soundness, criterion_nfa, fun, label_index
from ho_eval import ho_run

# Frozen results of the higher-order corpus, in nested Python form.
HO_RESULTS = {
    "hof": (3, 2),
    "mapadd": ((11, (12, None)), (1, (2, None))),
    "chain": 60,
}

HEAD = frozenset({(), ("0",)})
TAIL = frozenset({(), ("1",)})


def test_ho_results_cover_ho_corpus(ho_corpus):
    assert set(HO_RESULTS) == set(ho_corpus)


@pytest.mark.parametrize("name", sorted(HO_RESULTS))
def test_reference_evaluator_result(ho_corpus, name):
    res = ho_run(ho_corpus[name])
    assert to_py(res.value, res.heap) == HO_RESULTS[name]


@pytest.mark.parametrize("name", sorted(HO_RESULTS))
def test_firstified_program_computes_the_same_value(ho_corpus, name):
    fo, _ = firstify(ho_corpus[name])
    validate(fo)
    res = run(fo)
    assert to_py(res.value, res.heap) == HO_RESULTS[name]


def test_hof_firstified_golden(ho_corpus):
    fo, _ = firstify(ho_corpus["hof"])
    assert print_program(fo) == golden("hof_firstified.golden")


def test_chain_flattens_nested_partials(ho_corpus):
    fo, _ = firstify(ho_corpus["chain"])
    assert sorted(d.name for d in fo.defs) == ["add3", "main"]
    main = fun(fo, "main")
    calls = [n for _, (k, n) in label_index(fo).items()
             if k == "app" and isinstance(n, Call)]
    assert len(calls) == 1
    assert calls[0].fn == "add3"
    assert [o.name for o in calls[0].args] == ["x", "y", "z"]
    holes = [n for _, (k, n) in
             ((lab, kn) for lab, kn in label_index(fo).items())
             if k == "app" and isinstance(n, Hole)]
    assert len(holes) == 2
    assert main.params == []


def test_mapadd_threads_captures_through_recursion(ho_corpus):
    fo, _ = firstify(ho_corpus["mapadd"])
    assert sorted(d.name for d in fo.defs) == [
        "add", "main", "mapf_add", "mapf_car"]
    clone = fun(fo, "mapf_add")
    assert clone.params == ["l", "cap0"]
    rec = [n for _, (k, n) in label_index(fo).items()
           if k == "app" and isinstance(n, Call) and n.fn == "mapf_add"]
    args = sorted(tuple(o.name for o in c.args) for c in rec)
    assert ("rest", "cap0") in args


def test_label_map_points_into_the_source(ho_corpus):
    for name, p in ho_corpus.items():
        fo, lm = firstify(p)
        src_labels = set(all_labels(p))
        fo_labels = set(all_labels(fo))
        for lab, sources in lm.items():
            assert sources, (name, lab)
            assert set(sources) <= src_labels, (name, lab)
        for lab in fo_labels:
            assert lab in lm or lab in src_labels, (name, lab)


def test_map_back_under_full_keep_reaches_the_pinned_call(ho_corpus):
    p = ho_corpus["hof"]
    fo, lm = firstify(p)
    keep_src = map_back({lab: True for lab in all_labels(fo)}, lm, p)
    assert keep_src[1]
    assert set(keep_src) == set(all_labels(p))


def test_hof_head_slice_goldens(ho_corpus):
    p = ho_corpus["hof"]
    fo, lm = firstify(p)
    res = slice_noninc(fo, criterion_nfa(HEAD))
    assert print_program(res.residual) == golden("hof_firstified_head.golden")
    keep_src = map_back(res.keep, lm, p)
    residual_src = extract_residual(p, keep_src)
    assert print_program(residual_src) == golden(
        "hof_mapped_back_head.golden")


@pytest.mark.parametrize("name", sorted(HO_RESULTS))
@pytest.mark.parametrize("sigma", [HEAD, TAIL], ids=["head", "tail"])
def test_firstified_residuals_are_sound(ho_corpus, name, sigma):
    fo, _ = firstify(ho_corpus[name])
    crit = criterion_nfa(sigma)
    res = slice_noninc(fo, crit)
    assert check_soundness(fo, res.residual, crit) == []


@pytest.mark.parametrize("name", sorted(HO_RESULTS))
@pytest.mark.parametrize("sigma", [HEAD, TAIL], ids=["head", "tail"])
def test_mapped_back_residuals_are_sound(ho_corpus, name, sigma):
    """The sliced original (still higher-order) must agree with the full
    original on every demanded path, under the reference evaluator. This
    leans on the keep map marking every partial application a kept call
    consumes; otherwise the residual would call through a hole."""
    p = ho_corpus[name]
    fo, lm = firstify(p)
    crit = criterion_nfa(sigma)
    keep_src = map_back(slice_noninc(fo, crit).keep, lm, p)
    residual = extract_residual(p, keep_src)
    full = ho_run(p)
    cut = ho_run(residual)
    for s in sorted(sigma):
        path = tuple(int(c) for c in s)
        assert observe(full.value, full.heap, path) == \
            observe(cut.value, cut.heap, path), (name, path)


def test_hof_tail_mapped_back_marks_the_partial_constituents(ho_corpus):
    """A kept call through a partially applied function marks the partial
    application and the occurrences that fed it, while the branch the
    criterion ignores stays dead."""
    p = ho_corpus["hof"]
    fo, lm = firstify(p)
    keep_src = map_back(slice_noninc(fo, criterion_nfa(TAIL)).keep, lm, p)
    lets = {e.var: e for e in _lets(p.main.body)}
    assert keep_src[lets["r2"].rhs.label]
    assert not keep_src[lets["r1"].rhs.label]
    partial = lets["g"].rhs
    assert keep_src[partial.label]
    assert keep_src[partial.args[0].label]
    assert keep_src[partial.args[1].label]
    fun_apps = [e.rhs.label for e in _lets(fun(p, "fun").body)]
    assert all(keep_src[lab] for lab in fun_apps)


def test_hof_head_mapped_back_leaves_the_partial_dead(ho_corpus):
    """When every call consuming the partial application is dead, the
    partial and its captures stay out of the slice."""
    p = ho_corpus["hof"]
    fo, lm = firstify(p)
    keep_src = map_back(slice_noninc(fo, criterion_nfa(HEAD)).keep, lm, p)
    lets = {e.var: e for e in _lets(p.main.body)}
    partial = lets["g"].rhs
    assert not keep_src[partial.label]
    assert not keep_src[partial.args[0].label]
    assert not keep_src[partial.args[1].label]
    assert not keep_src[lets["z"].rhs.label]


def _lets(e):
    from fslice.lang import Let, iter_exprs
    return [sub for sub in iter_exprs(e) if isinstance(sub, Let)]


def test_first_order_programs_firstify_to_themselves(corpus):
    for name in ("lcc", "append"):
        p = corpus[name]
        fo, lm = firstify(p)
        assert {d.name for d in fo.defs} == {d.name for d in p.defs}
        for d in fo.defs:
            assert d == fun(p, d.name), (name, d.name)
        keep_src = map_back({lab: True for lab in all_labels(fo)}, lm, p)
        assert all(keep_src.values()), name


UNSUPPORTED = [
    # a function value escaping through a return
    ("(define (f a) (return a))\n"
     "(define (main) (return f))",
     "only call and argument positions"),
    # a function value stored in a pair
    ("(define (f a) (return a))\n"
     "(define (main) (let x ← 1 in (let p ← (cons f x) in (return p))))",
     "only call and argument positions"),
    # a function value fed to arithmetic
    ("(define (f a) (return a))\n"
     "(define (main) (let x ← 1 in (let s ← (+ f x) in (return s))))",
     "only call and argument positions"),
    # calling through a variable that never held a function
    ("(define (main) (let x ← 1 in (let r ← (x) in (return r))))",
     "holds no known function value"),
    # over-application through a partial
    ("(define (add2 a b) (let s ← (+ a b) in (return s)))\n"
     "(define (main)\n"
     "  (let x ← 1 in\n"
     "  (let g ← (add2 x) in\n"
     "  (let r ← (g x x x) in\n"
     "  (return r)))))",
     "applied to 4 arguments"),
    # a hole captured by a partial application
    ("(define (add2 a b) (let s ← (+ a b) in (return s)))\n"
     "(define (main)\n"
     "  (let g ← (add2 □) in\n"
     "  (let x ← 1 in\n"
     "  (let r ← (g x) in\n"
     "  (return r)))))",
     "hole cannot be captured"),
    # a function value reaching a builtin's argument
    ("(define (f a) (return a))\n"
     "(define (hof g x) (let r ← (g x) in (return r)))\n"
     "(define (main) (let r ← (hof car f) in (return r)))",
     "passed to builtin"),
]


@pytest.mark.parametrize("src,msg", UNSUPPORTED,
                         ids=[m for _, m in UNSUPPORTED])
def test_unsupported_shapes_are_rejected(src, msg):
    p = validate(parse_program(src), higher_order=True)
    with pytest.raises(FirstifyUnsupported, match=msg):
        firstify(p)


def test_specialization_budget():
    src = ("(define (wrap f x) (let r ← (f x) in (return r)))\n"
           "(define (grow f n)\n"
           "  (let g ← (wrap f) in\n"
           "  (let r ← (grow g n) in\n"
           "  (return r))))\n"
           "(define (main)\n"
           "  (let z ← 0 in\n"
           "  (let r ← (grow car z) in\n"
           "  (return r))))")
    p = validate(parse_program(src), higher_order=True)
    with pytest.raises(FirstifyUnsupported, match="specializations"):
        firstify(p, budget=16)
