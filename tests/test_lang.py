"""Syntax tests: reader, label pins, printer, and validation."""

import pytest

from fslice.firstify import firstify
from fslice.gen import generate_program
from fslice.lang import (
    Cons, Const, FunDef, Hole, If, Let, Occ, ParseError, Program, Return,
    ValidateError, all_labels, app_occs, assign_labels, iter_exprs,
    iter_labeled, label_name, parse_label_name, parse_program,
    print_program, use_index, validate,
)

from conftest import corpus_paths, ho_paths, load
from helpers import fun, label_index
from oracles import occurrences_of

SMALL = """
(define (add2 a b)
  (let s ← pi7:(+ a b) in
  (return s)))

(define (main)
  (let x ← 1 in
  (let y ← 2 in
  (let z ← (add2 x y) in
  (return pi1:z)))))
"""


def test_pins_are_respected_and_gaps_filled():
    p = parse_program(SMALL)
    labels = all_labels(p)
    assert len(labels) == len(set(labels))
    idx = label_index(p)
    kind, node = idx[7]
    assert kind == "app"
    assert node.op == "+"
    kind, node = idx[1]
    assert kind == "occ"
    assert node.name == "z"


def test_labels_are_dense_from_one():
    p = parse_program(SMALL)
    labels = sorted(all_labels(p))
    assert labels == list(range(1, len(labels) + 1))


def test_pin_binds_to_following_list():
    p = parse_program(
        "(define (main)\n"
        "  (let l ← nil in\n"
        "  (let r ← pi3:(null? l) in\n"
        "  (return r))))")
    kind, node = label_index(p)[3]
    assert kind == "app"
    assert node.arg.name == "l"


def test_hole_tokens_parse_the_same():
    src = ("(define (main)\n"
           "  (let a ← □ in\n"
           "  (let b ← _ in\n"
           "  (return a))))")
    p = parse_program(src)
    apps = [n for _, k, n in iter_labeled(p) if k == "app"]
    assert all(isinstance(n, Hole) for n in apps)


def test_ascii_arrow_is_accepted():
    a = parse_program("(define (main) (let x ← 1 in (return x)))")
    b = parse_program("(define (main) (let x <- 1 in (return x)))")
    assert a == b


def test_comments_are_ignored():
    src = "; heading\n(define (main) ; trailing\n  (return □)) ; done\n"
    p = parse_program(src)
    assert p.main.body.value.name is None


def test_hole_parameter_parses_and_prints():
    src = ("(define (f □ b) (return b))\n"
           "(define (main)\n"
           "  (let x ← 1 in\n"
           "  (let y ← 2 in\n"
           "  (let r ← (f x y) in\n"
           "  (return r)))))")
    p = validate(parse_program(src))
    assert fun(p, "f").params == [None, "b"]
    assert "(f □ b)" in print_program(p)


@pytest.mark.parametrize(
    "path", corpus_paths() + ho_paths(), ids=lambda path: path.stem)
def test_print_parse_round_trip(path):
    p = load(path, higher_order=path.parent.name == "ho")
    annotated = print_program(p, annotate=True)
    q = parse_program(annotated)
    assert q == p
    assert print_program(q, annotate=True) == annotated
    plain = print_program(p)
    assert print_program(parse_program(plain)) == plain


def test_label_name_round_trip():
    assert label_name(12) == "pi12"
    assert parse_label_name("pi12") == 12
    assert parse_label_name("π3") == 3
    assert parse_label_name("7") == 7
    with pytest.raises(ParseError):
        parse_label_name("pix")


def _recursive_iter_labeled(p):
    """Reference: the pre-order walk of ``iter_labeled``, recursively."""
    def walk(e):
        yield (e.label, "expr", e)
        if isinstance(e, Return):
            yield (e.value.label, "occ", e.value)
        elif isinstance(e, If):
            yield (e.guard.label, "occ", e.guard)
            yield from walk(e.then)
            yield from walk(e.orelse)
        elif isinstance(e, Let):
            yield (e.rhs.label, "app", e.rhs)
            for occ in app_occs(e.rhs):
                yield (occ.label, "occ", occ)
            yield from walk(e.body)

    for d in p.defs:
        yield from walk(d.body)


def test_iter_labeled_keeps_the_recursive_pre_order(corpus, ho_corpus):
    programs = [*corpus.values(), *ho_corpus.values(), generate_program(500)]
    for p in programs:
        got = [(lab, kind, id(node)) for lab, kind, node in iter_labeled(p)]
        want = [(lab, kind, id(node))
                for lab, kind, node in _recursive_iter_labeled(p)]
        assert got == want


def test_iter_exprs_keeps_the_recursive_pre_order(corpus, ho_corpus):
    programs = [*corpus.values(), *ho_corpus.values(), generate_program(500)]
    for p in programs:
        got = [id(e) for d in p.defs for e in iter_exprs(d.body)]
        want = [id(node) for _, kind, node in _recursive_iter_labeled(p)
                if kind == "expr"]
        assert got == want


def _scoped_programs(corpus, ho_corpus):
    yield from corpus.items()
    for name, p in ho_corpus.items():
        yield f"firstified {name}", firstify(p)[0]
    yield "generated", generate_program()


def test_use_index_equals_the_scan_of_each_scope(corpus, ho_corpus):
    for name, p in _scoped_programs(corpus, ho_corpus):
        for d in p.defs:
            uses = use_index(d)
            scopes = [(prm, d.body) for prm in d.params if prm is not None]
            scopes += [(e.var, e.body) for e in iter_exprs(d.body)
                       if isinstance(e, Let)]
            for var, body in scopes:
                got = [id(o) for o in uses.get(var, ())]
                want = [id(o) for o in occurrences_of(var, body)]
                assert got == want, (name, d.name, var)


def deep_let_chain(depth: int) -> Program:
    """``main`` as ``depth`` nested lets, each using the one before, built
    as an AST because the reader recurses once per nesting level."""
    body = Return(Occ(f"x{depth - 1}"))
    for i in reversed(range(depth)):
        rhs = Const(i) if i == 0 else Cons(Occ(f"x{i - 1}"), Occ(f"x{i - 1}"))
        body = Let(f"x{i}", rhs, body)
    return assign_labels(Program([FunDef("main", [], body)]))


def test_deep_let_chain_walks_without_recursion():
    p = deep_let_chain(5000)
    validate(p)
    exprs = list(iter_exprs(p.main.body))
    assert len(exprs) == 5001
    uses = use_index(p.main)
    assert [len(uses[f"x{i}"]) for i in (0, 4998, 4999)] == [2, 2, 1]


def test_occurrences_of_collects_in_order():
    p = parse_program(SMALL)
    add2 = fun(p, "add2")
    assert [o.name for o in occurrences_of("a", add2.body)] == ["a"]
    assert [o.label for o in occurrences_of("s", add2.body)] != [None]


@pytest.mark.parametrize("src", [
    "",
    "(define (main) (return x)",
    "(define main (return x))",
    "(foo)",
    "(define (main) (let x ← (f (g y)) in (return x)))",
    "(define (main) (let x 1 in (return x)))",
    "(define (main) (return (car x)))",
    "(define (main) (if x (return x)))",
    "(define (main) (let if ← 1 in (return if)))",
    "(define (main) (let x ← pi0:1 in (return x)))",
])
def test_parse_errors(src):
    with pytest.raises(ParseError):
        parse_program(src)


def test_duplicate_pin_rejected():
    with pytest.raises(ValidateError, match="duplicate label"):
        parse_program("(define (main) (let x ← pi1:1 in (return pi1:x)))")


VALID_F = "(define (f a) (return a))\n"


@pytest.mark.parametrize("src,msg", [
    ("(define (f a) (return a))", "no main"),
    ("(define (main x) (return x))", "no parameters"),
    ("(define (main) (return x))\n(define (main) (return y))", "duplicate"),
    ("(define (main) (return y))", "unbound"),
    ("(define (main) (let x ← (f) in (return x)))", "unknown function"),
    (VALID_F + "(define (main) (let x ← 1 in (let y ← (f x x) in"
     " (return y))))", "expected 1"),
    ("(define (g a a) (return a))\n(define (main) (return □))",
     "duplicate parameter"),
    (VALID_F + "(define (main) (let f ← 1 in (return f)))", "shadows"),
    ("(define (main) (let x ← 1 in (let x ← 2 in (return x))))",
     "rebinding"),
    ("(define (main) (let c ← 0 in"
     " (if c (let x ← 2 in (return x)) (return x))))", "unbound"),
    ("(define (main) (let c ← 0 in"
     " (if c (let x ← 1 in (return x)) (let x ← 2 in (return x)))))",
     "rebinding"),
    ("(define (main) (let c ← 0 in"
     " (if c (let x ← 1 in (return x)) (let y ← (car x) in (return y)))))",
     "unbound"),
    (VALID_F + "(define (main) (let x ← (f f) in (return x)))", "unbound"),
])
def test_validate_errors(src, msg):
    with pytest.raises(ValidateError, match=msg):
        validate(parse_program(src))


def test_partial_application_needs_higher_order_mode():
    src = ("(define (f a b) (let s ← (+ a b) in (return s)))\n"
           "(define (main) (let g ← (f) in (return g)))")
    p = parse_program(src)
    with pytest.raises(ValidateError):
        validate(p)
    validate(p, higher_order=True)


def test_function_name_as_argument_needs_higher_order_mode():
    src = (VALID_F +
           "(define (apply1 g x) (let r ← (g x) in (return r)))\n"
           "(define (main)\n"
           "  (let x ← 1 in\n"
           "  (let r ← (apply1 f x) in\n"
           "  (return r))))")
    p = parse_program(src)
    with pytest.raises(ValidateError):
        validate(p)
    validate(p, higher_order=True)


def test_corpus_is_first_order_valid(corpus):
    for name, p in corpus.items():
        assert p.main.params == [], name
        labels = all_labels(p)
        assert len(labels) == len(set(labels)), name
