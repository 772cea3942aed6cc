"""Interpreter tests: frozen corpus results and the hole discipline."""

import pytest

from fslice.interp import (
    NIL, FuelExhausted, HoleObserved, Loc, StuckError, observe, run, to_py,
)
from fslice.lang import parse_program

from helpers import project

# Results of every corpus program, frozen as nested Python data: pairs are
# 2-tuples and nil is None. Recomputing any of these by hand only needs the
# source file and a pencil.
CORPUS_RESULTS = {
    "altsum": (4, 6),
    "append": (1, (2, (3, (4, None)))),
    "deriv": (2, ((0, 1), (2, ((0, 1), (0, 0))))),
    "evenodd": (0, 3),
    "interleave": (1, (7, (2, (8, None)))),
    "lcc": (1, 3),
    "lookup": 20,
    "mapsq": (1, (4, (9, (16, (25, None))))),
    "nthtail": (5, (7, (9, None))),
    "revapp": (3, (2, (1, None))),
    "sumlist": (18, 3),
    "take": (9, (8, None)),
    "treesum": (10, ((1, 2), (3, 4))),
    "zippair": ((1, 7), ((2, 8), None)),
}


def test_corpus_results_cover_corpus(corpus):
    assert set(CORPUS_RESULTS) == set(corpus)


@pytest.mark.parametrize("name", sorted(CORPUS_RESULTS))
def test_corpus_result(corpus, name):
    res = run(corpus[name])
    assert to_py(res.value, res.heap) == CORPUS_RESULTS[name]


def run_src(src: str, **kw):
    return run(parse_program(src), **kw)


def test_steps_are_counted_and_fuel_is_enforced():
    src = ("(define (loop n)\n"
           "  (let r ← (loop n) in\n"
           "  (return r)))\n"
           "(define (main)\n"
           "  (let z ← 0 in\n"
           "  (let r ← (loop z) in\n"
           "  (return r))))")
    with pytest.raises(FuelExhausted):
        run_src(src, fuel=1000)


def test_trace_records_expression_labels_in_order():
    src = ("(define (main)\n"
           "  pi1:(let a ← 1 in\n"
           "  pi2:(let b ← 2 in\n"
           "  pi3:(let c ← (+ a b) in\n"
           "  pi4:(return c)))))")
    res = run_src(src, trace=True)
    assert res.trace == ["main pi1", "main pi2", "main pi3", "main pi4"]
    assert run_src(src).trace == []
    assert res.steps == 4


@pytest.mark.parametrize("src,exc", [
    # car of an integer
    ("(define (main) (let x ← 1 in (let y ← (car x) in (return y))))",
     StuckError),
    # arithmetic on nil
    ("(define (main) (let x ← nil in (let y ← (+ x x) in (return y))))",
     StuckError),
    # if guard must be an integer
    ("(define (main) (let x ← nil in (if x (return x) (return x))))",
     StuckError),
    # inspecting a hole is the HoleObserved signal slicing soundness uses
    ("(define (main) (let x ← □ in (let y ← (car x) in (return y))))",
     HoleObserved),
    ("(define (main) (let x ← □ in (if x (return x) (return x))))",
     HoleObserved),
    ("(define (main) (let x ← □ in (let y ← (null? x) in (return y))))",
     HoleObserved),
])
def test_stuck_and_hole_cases(src, exc):
    with pytest.raises(exc):
        run_src(src)


def test_hole_value_may_flow_unobserved():
    src = ("(define (main)\n"
           "  (let h ← □ in\n"
           "  (let one ← 1 in\n"
           "  (let p ← (cons h one) in\n"
           "  (return p)))))")
    res = run_src(src)
    assert to_py(res.value, res.heap) == ("hole", 1)


def test_eq_compares_integers():
    src = ("(define (main)\n"
           "  (let a ← 3 in\n"
           "  (let b ← 3 in\n"
           "  (let r ← (eq? a b) in\n"
           "  (return r)))))")
    assert run_src(src).value == 1


def test_null_is_integer_coded():
    src = ("(define (main)\n"
           "  (let l ← nil in\n"
           "  (let r ← (null? l) in\n"
           "  (return r))))")
    assert run_src(src).value == 1
    src2 = ("(define (main)\n"
            "  (let x ← 1 in\n"
            "  (let l ← nil in\n"
            "  (let p ← (cons x l) in\n"
            "  (let r ← (null? p) in\n"
            "  (return r))))))")
    assert run_src(src2).value == 0


def test_observe_and_project():
    src = ("(define (main)\n"
           "  (let one ← 1 in\n"
           "  (let l0 ← nil in\n"
           "  (let l1 ← (cons one l0) in\n"
           "  (let two ← 2 in\n"
           "  (let l2 ← (cons two l1) in\n"
           "  (return l2)))))))")
    res = run_src(src)
    assert isinstance(res.value, Loc)
    assert observe(res.value, res.heap, ()) == "pair"
    assert observe(res.value, res.heap, (0,)) == ("int", 2)
    assert observe(res.value, res.heap, (1, 0)) == ("int", 1)
    assert observe(res.value, res.heap, (1, 1)) == "nil"
    assert observe(res.value, res.heap, (0, 0)) == "undef"
    assert observe(res.value, res.heap, (1, 1, 0)) == "undef"
    got = project(res.value, res.heap, [(), (0,), (1, 1)])
    assert got == {(): "pair", (0,): ("int", 2), (1, 1): "nil"}
    assert to_py(res.value, res.heap) == (2, (1, None))
    assert to_py(NIL, res.heap) is None
