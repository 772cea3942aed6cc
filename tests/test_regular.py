"""Regular pipeline tests: the strongly-regular transform, cancellation,
automaton-level simplify/canonicalize, and completing automata."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fslice.automata import EPS, Nfa, from_strings, intersect_nonempty
from fslice.criteria import parse_criterion
from fslice.demand import ALPHABET, BAR0, BAR1, SEL0, SEL1, TWO
from fslice.firstify import firstify
from fslice.gen import generate_program, generate_source
from fslice.grammar import (
    DemandGrammar, generate_equations, instantiate, nt_d, nt_fn, nt_sum,
)
from fslice.lang import all_labels
from fslice.regular import (
    CompiledGrammar, cancel_pairs, canonicalize_nfa,
    mn_transform, tail_states,
)
from fslice.slicer import _keep_map

from helpers import FINITE_CRITERIA, criteria_pool, criterion_nfa
from oracles import (
    NotCanonical, bounded_languages, create_completing_automaton,
    enumerate_upto, is_canonical_nfa, scc_partition, simplify_nfa,
)
from test_demand import WORKED, WORKED_CANONICAL

A, B, C, X = nt_fn("A"), nt_fn("B"), nt_fn("C"), nt_fn("X")

demand_sets = st.frozensets(
    st.lists(st.sampled_from(ALPHABET), max_size=5).map(tuple), max_size=5)


def lang(m: Nfa, k: int = 8) -> set[tuple]:
    return enumerate_upto(m, k)


# -- SCC analysis and the transform ------------------------------------------

def test_scc_partition_orders_dependencies_first():
    g = DemandGrammar()
    g.add(A, (SEL0, B))
    g.add(B, (A,))
    g.add(C, (SEL1, A))
    sccs, scc_of = scc_partition(g)
    assert {frozenset(c) for c in sccs} == {frozenset({A, B}), frozenset({C})}
    assert scc_of[A] == scc_of[B] != scc_of[C]
    ab = next(i for i, c in enumerate(sccs) if A in c)
    assert ab < scc_of[C]


def test_mn_transform_keeps_one_sided_components():
    g = DemandGrammar()
    g.add(A, (SEL0, B))
    g.add(B, (SEL1, A))
    g.add(A, ())
    assert mn_transform(g).productions == g.productions


def test_right_linear_compiles_exactly():
    g = DemandGrammar()
    g.add(A, (SEL0, B))
    g.add(A, ())
    g.add(B, (SEL1, A))
    cg = CompiledGrammar(g)
    assert lang(cg.nfa(A), 6) == {(SEL0, SEL1) * k for k in range(4)}
    assert lang(cg.nfa(B), 6) == {(SEL1,) + (SEL0, SEL1) * k for k in range(3)}


def test_left_linear_compiles_exactly():
    g = DemandGrammar()
    g.add(A, (B, SEL0))
    g.add(A, ())
    g.add(B, (A, SEL1))
    g.add(X, (A, TWO))
    cg = CompiledGrammar(g)
    assert lang(cg.nfa(A), 6) == {(SEL1, SEL0) * k for k in range(4)}
    assert lang(cg.nfa(X), 5) == {(SEL1, SEL0) * k + (TWO,) for k in range(3)}


def _epsilon_edges(m: Nfa) -> list[tuple[int, int]]:
    return [(p, q) for p, sym, q in m.edges() if sym == EPS]


def test_symbols_before_a_tail_reference_lead_straight_to_it():
    g = DemandGrammar()
    g.add(X, (SEL0, A))
    g.add(A, (SEL1, A))
    g.add(A, (TWO,))
    cg = CompiledGrammar(g)
    assert _epsilon_edges(cg.aut) == []
    assert lang(cg.nfa(X), 4) == {(SEL0,) + (SEL1,) * k + (TWO,)
                                  for k in range(3)}


def test_a_spliced_copy_ends_on_the_rest_of_the_body():
    g = DemandGrammar()
    g.add(X, (A, SEL1))
    g.add(A, (SEL0,))
    cg = CompiledGrammar(g)
    assert [p for p, _ in _epsilon_edges(cg.aut)] == [cg.entry[X]]
    assert lang(cg.nfa(X)) == {(SEL0, SEL1)}


def test_self_embedding_needs_the_transform():
    g = DemandGrammar()
    g.add(X, (SEL0, X, SEL1))
    g.add(X, ())
    t = mn_transform(g)
    got = lang(CompiledGrammar(t).nfa(X), 4)
    assert got == {(SEL0,) * m + (SEL1,) * n for m in range(5) for n in range(5)
                   if m + n <= 4}
    assert {(SEL0, SEL1), (SEL0, SEL0, SEL1, SEL1)} <= got


def test_mixed_component_language_only_grows():
    g = DemandGrammar()
    g.add(X, (SEL0, X, SEL1))
    g.add(X, ())
    exact = bounded_languages(g, 6)[X]
    approx = lang(CompiledGrammar(mn_transform(g)).nfa(X), 6)
    assert exact <= approx


def test_mohri_nederhof_on_lcc_summary(corpus):
    g = generate_equations(corpus["lcc"])
    m = CompiledGrammar(mn_transform(g)).nfa(nt_sum("linecharcount", 2))
    assert lang(m, 5) == {(TWO,) * k + (BAR0,) for k in range(5)}


@pytest.mark.parametrize("name", ["lcc", "mapsq", "append", "deriv"])
def test_compiled_nfa_covers_grammar_language(corpus, name):
    """Dual route: automaton enumeration vs direct grammar enumeration.

    The compiled automaton is exact for one-sided grammars and an
    over-approximation once the transform rewrote a mixed component.
    """
    from fslice.lang import all_labels
    p = corpus[name]
    g = generate_equations(p)
    gi = instantiate(g, criterion_nfa(frozenset({()})))
    exact = bounded_languages(gi, 5)
    t = mn_transform(gi)
    cg = CompiledGrammar(t)
    is_identity = t.productions == gi.productions
    for lab in all_labels(p):
        got = lang(cg.nfa(nt_d(lab)), 5)
        want = exact[nt_d(lab)]
        assert want <= got, lab
        if is_identity:
            assert want == got, lab


def _compile_programs(corpus, ho_corpus):
    yield from corpus.items()
    for name, p in ho_corpus.items():
        yield f"ho/{name}", firstify(p)[0]
    yield "generated", generate_program()


def _live(m: Nfa) -> Nfa:
    """``m`` without the states that reach no final state, same numbering."""
    back: dict[int, list[int]] = {}
    for p, _, q in m.edges():
        back.setdefault(q, []).append(p)
    live, todo = set(m.finals), list(m.finals)
    while todo:
        for r in back.get(todo.pop(), ()):
            if r not in live:
                live.add(r)
                todo.append(r)
    out = Nfa(m.n, m.start)
    out.finals = set(m.finals)
    for p, sym, q in m.edges():
        if p in live and q in live:
            out.add(p, sym, q)
    return out


def _same_languages(a: Nfa, b: Nfa, starts) -> bool:
    """Whether L_a(p) = L_b(q) for every (p, q) in ``starts``.

    Hopcroft and Karp's check (1971) on the two subset automata, with one
    union-find shared by all the pairs: a pair of subsets already related
    is skipped, and the first pair of which only one side accepts is a
    word in one language and not in the other.
    """
    a, b = _live(a), _live(b)
    parent: dict = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    todo = [(a.eps_closure({p}), b.eps_closure({q})) for p, q in starts]
    while todo:
        sa, sb = todo.pop()
        x, y = find((0, sa)), find((1, sb))
        if x == y:
            continue
        if bool(sa & a.finals) != bool(sb & b.finals):
            return False
        parent[x] = y
        for sym in ALPHABET:
            todo.append((a.step(sa, sym), b.step(sb, sym)))
    return True


def test_one_pass_compile_matches_the_two_pass_reference(corpus, ho_corpus):
    """Compiling the raw grammar, with mixed components widened inside the
    compile, equals compiling the printed widening ``mn_transform`` (the
    two-pass route): same keep maps and the same language at every D[pt]
    entry, and the one pass never has more states."""
    for name, p in _compile_programs(corpus, ho_corpus):
        g = generate_equations(p)
        for crit_name, crit in criteria_pool():
            gi = instantiate(g, crit)
            cg, ref = CompiledGrammar(gi), CompiledGrammar(mn_transform(gi))
            assert cg.aut.n <= ref.aut.n, (name, crit_name)
            assert _keep_map(p, cg) == _keep_map(p, ref), (name, crit_name)
            entries = [(cg.entry[nt_d(lab)], ref.entry[nt_d(lab)])
                       for lab in all_labels(p)]
            assert _same_languages(cg.aut, ref.aut, entries), (name, crit_name)


_BUILD_ORDER = """
import contextlib, hashlib, io, sys
from fslice.cli import main
from fslice.criteria import parse_criterion
from fslice.grammar import generate_equations, instantiate
from fslice.lang import parse_program, validate
from fslice.regular import CompiledGrammar
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        p = validate(parse_program(fh.read()))
    g = instantiate(generate_equations(p), parse_criterion("(0+1)*"))
    aut = CompiledGrammar(g).aut
    print(aut.n, hashlib.sha256(repr(sorted(aut.edges())).encode()).hexdigest())
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        main(["slice", path, "--criterion", "eps + 0", "--dump-grammar",
              "--dump-automaton", "pi1"])
    print(err.getvalue())
"""


def test_build_order_does_not_depend_on_the_hash_seed(tmp_path):
    """The grammar keeps its productions in insertion order and nothing
    sorts them before compiling, so the automaton must come out the same
    whatever the string hash seed."""
    generated = tmp_path / "generated.fsl"
    generated.write_text(generate_source(), encoding="utf-8")
    src = str(Path(__file__).parents[1] / "src")
    outs = []
    for seed in ("0", "1"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-c", _BUILD_ORDER,
             str(Path(__file__).parent / "corpus" / "lcc.fsl"), str(generated)],
            env=env, capture_output=True, text=True, check=True)
        outs.append(run.stdout)
    assert "; after regular approximation" in outs[0]
    assert outs[0] == outs[1]


# -- cancellation ------------------------------------------------------------

def _direct() -> Nfa:
    m = Nfa(3, 0)
    m.add(0, BAR0, 1)
    m.add(1, SEL0, 2)
    return m


def _nested() -> Nfa:
    n = Nfa(5, 0)
    n.add(0, BAR0, 1)
    n.add(1, BAR1, 2)
    n.add(2, SEL1, 3)
    n.add(3, SEL0, 4)
    return n


def _cross_epsilon() -> Nfa:
    m = Nfa(4, 0)
    m.add(0, BAR0, 1)
    m.add(1, EPS, 2)
    m.add(2, SEL0, 3)
    return m


def test_cancel_pairs_direct_and_nested():
    assert cancel_pairs(_direct()) == {(0, 2)}
    assert cancel_pairs(_nested()) == {(1, 3), (0, 4)}


def test_cancel_pairs_cross_epsilon():
    assert cancel_pairs(_cross_epsilon()) == {(0, 3)}


def _lone_epsilon_moves() -> Nfa:
    """Chains and a cycle of states whose one move is an epsilon edge, as a
    compiled grammar has where a body is one tail reference or starts with
    a splice: the derived pair (1, 3) leads into the chain 3, 5, 6 that
    ends in the selector giving (0, 7); 8 and 9 loop."""
    m = Nfa(10, 0)
    m.add(0, BAR1, 1)
    m.add(1, BAR0, 2)
    m.add(2, SEL0, 3)
    m.add(3, EPS, 5)
    m.add(5, EPS, 6)
    m.add(6, SEL1, 7)
    m.add(1, EPS, 8)
    m.add(8, EPS, 9)
    m.add(9, EPS, 8)
    return m


def test_cancel_pairs_through_lone_epsilon_moves():
    assert cancel_pairs(_lone_epsilon_moves()) == {(1, 3), (0, 7)}


def test_worklist_cancel_pairs_match_the_rounds_on_hand_cases():
    for m in (_direct(), _nested(), _cross_epsilon(), _lone_epsilon_moves()):
        assert cancel_pairs(m) == oracles.cancel_pairs_by_rounds(m)


def _shared_automata(programs):
    for name, p in programs:
        for text in ("eps", "(0+1)*"):
            g = instantiate(generate_equations(p), parse_criterion(text))
            yield f"{name} {text}", CompiledGrammar(mn_transform(g)).aut


def test_worklist_cancel_pairs_match_the_rounds_on_programs(corpus):
    programs = [*corpus.items(), ("generated", generate_program())]
    for name, m in _shared_automata(programs):
        assert cancel_pairs(m) == oracles.cancel_pairs_by_rounds(m), name


def test_worklist_cancel_pairs_match_the_rounds_on_firstified(ho_corpus):
    programs = [(name, firstify(p)[0]) for name, p in ho_corpus.items()]
    for name, m in _shared_automata(programs):
        assert cancel_pairs(m) == oracles.cancel_pairs_by_rounds(m), name


def test_tail_states():
    m = Nfa(3, 0)
    m.add(0, SEL0, 1)
    m.add(1, TWO, 2)
    m.finals = {2}
    assert tail_states(m) == {0, 1, 2}

    n = Nfa(3, 0)
    n.add(0, BAR0, 1)
    n.add(1, SEL0, 2)
    n.finals = {2}
    assert tail_states(n) == {1, 2}


# -- simplify / canonicalize on automata --------------------------------------

SIMPLIFY_CASES = [
    {(TWO,)},
    {(SEL0, TWO)},
    {(BAR0, TWO)},
    {(SEL0, BAR0)},
    {(BAR0, SEL0)},
    {(SEL0, TWO, BAR0, SEL0)},
    {(TWO, SEL0), (TWO, SEL1), (TWO,)},
    {(SEL1, BAR0, SEL0, SEL0)},
    {WORKED},
    {WORKED, (SEL0,), (BAR1, SEL1, SEL1)},
]


def _case_id(strings) -> str:
    """A set's repr with its members sorted, so ids do not follow string
    hash randomisation."""
    return "{" + ", ".join(map(repr, sorted(strings))) + "}"


@pytest.mark.parametrize("strings", SIMPLIFY_CASES, ids=_case_id)
def test_simplify_nfa_matches_string_oracle(strings):
    got = lang(simplify_nfa(from_strings(strings)))
    assert got == oracles.simplify_language(strings)


@pytest.mark.parametrize("strings", SIMPLIFY_CASES, ids=_case_id)
def test_canonicalize_nfa_matches_string_oracle(strings):
    m = canonicalize_nfa(from_strings(strings))
    assert lang(m) == oracles.canonicalize_language(strings)
    assert is_canonical_nfa(m)


def test_worked_string_through_the_automaton_pipeline():
    m = from_strings({WORKED})
    assert lang(canonicalize_nfa(m), 11) == {WORKED_CANONICAL}
    assert lang(simplify_nfa(m), 11) == set()


@settings(max_examples=150)
@given(demand_sets)
def test_simplify_nfa_matches_oracle_on_random_sets(strings):
    got = lang(simplify_nfa(from_strings(strings)), 5)
    assert got == oracles.simplify_language(strings)


@settings(max_examples=150)
@given(demand_sets)
def test_canonicalize_nfa_matches_oracle_on_random_sets(strings):
    m = canonicalize_nfa(from_strings(strings))
    assert lang(m, 5) == oracles.canonicalize_language(strings)
    assert is_canonical_nfa(m)


def test_is_canonical_nfa_rejects_selector_after_bar():
    assert is_canonical_nfa(from_strings({(SEL0, BAR0)}))
    assert is_canonical_nfa(from_strings({(TWO, BAR1, BAR0)}))
    assert not is_canonical_nfa(from_strings({(BAR0, SEL0)}))
    assert not is_canonical_nfa(from_strings({(BAR0, TWO)}))
    assert is_canonical_nfa(from_strings(set()))


# -- completing automata -------------------------------------------------------

@pytest.mark.parametrize("strings,want", [
    ({()}, {()}),
    ({(SEL0,)}, {()}),
    ({(TWO,) * k + (BAR0,) for k in range(4)}, {(SEL0,)}),
    ({(BAR1, BAR0)}, {(SEL0, SEL1)}),
    ({(TWO,), (BAR0,)}, {(), (SEL0,)}),
    (set(), set()),
])
def test_completing_automaton_hand_cases(strings, want):
    comp = create_completing_automaton(from_strings(strings))
    assert enumerate_upto(comp, 5) == want


def test_completing_automaton_requires_canonical_input():
    with pytest.raises(NotCanonical):
        create_completing_automaton(from_strings({(BAR0, SEL0)}))


@settings(max_examples=150)
@given(demand_sets)
def test_completing_decisions_match_the_oracle(strings):
    """Over any prefix-closed criterion, intersecting the completing
    automaton decides exactly "some demand string simplifies live"."""
    canon = oracles.canonicalize_language(strings)
    comp = create_completing_automaton(from_strings(canon))
    for sigma in FINITE_CRITERIA:
        want = any(oracles.simplify_string(d + s) is not None
                   for d in canon for s in sigma)
        assert intersect_nonempty(comp, criterion_nfa(sigma)) == want


def test_completion_cores_are_bar_suffixes_reversed():
    strings = {(SEL0, TWO, BAR1, BAR0), (SEL1,), (TWO, BAR1)}
    comp = create_completing_automaton(from_strings(strings))
    assert enumerate_upto(comp, 5) == {(SEL0, SEL1), (), (SEL1,)}
