"""Slicer tests: the two pipelines against each other, soundness of
residuals, artifact round trips, and residual extraction rules."""

import pytest

import json
from itertools import combinations

from fslice.automata import from_strings
from fslice.criteria import CriterionError
from fslice.demand import SEL0, SEL1
from fslice.gen import generate_program
from fslice.grammar import generate_equations, instantiate, nt_d
from fslice.lang import (
    FsliceError, Hole, all_labels, parse_program, print_program, validate,
)
from fslice.regular import CompiledGrammar, canonicalize_nfa, mn_transform
from fslice.slicer import (
    ArtifactMismatch, PrecomputeArtifact, artifact_from_json,
    artifact_to_json, epsilon_criterion, extract_residual, fingerprint,
    in_slice, load_artifact, precompute, save_artifact, slice_inc,
    slice_noninc,
)

from conftest import golden
from helpers import (
    check_soundness, criteria_pool, criterion_nfa, fun, label_index,
)
from oracles import create_completing_automaton, equivalent

POOL = criteria_pool()


@pytest.fixture(scope="module")
def artifacts(corpus):
    return {name: precompute(p) for name, p in corpus.items()}


# -- the two pipelines agree ---------------------------------------------------

@pytest.mark.parametrize("crit_name,crit",
                         POOL, ids=[name for name, _ in POOL])
def test_incremental_matches_noninc(corpus, artifacts, crit_name, crit):
    for name, p in corpus.items():
        noninc = slice_noninc(p, crit)
        inc = slice_inc(p, artifacts[name], crit)
        assert noninc.keep == inc.keep, (name, crit_name)
        assert print_program(noninc.residual) == print_program(inc.residual)


# -- soundness -----------------------------------------------------------------

@pytest.mark.parametrize("crit_name,crit",
                         POOL, ids=[name for name, _ in POOL])
def test_residuals_are_sound(corpus, crit_name, crit):
    for name, p in corpus.items():
        res = slice_noninc(p, crit)
        failures = check_soundness(p, res.residual, crit)
        assert failures == [], (name, crit_name, failures)


def test_residuals_validate_and_round_trip(corpus):
    crit = criterion_nfa({(), ("0",)})
    for name, p in corpus.items():
        r = slice_noninc(p, crit).residual
        validate(r)
        assert parse_program(print_program(r, annotate=True)) == r
        # labels survive except for occurrences inside a fully holed
        # application, which disappear with it
        assert set(all_labels(r)) <= set(all_labels(p)), name
        kept_kinds = {lab: kind for lab, (kind, _) in label_index(r).items()}
        for lab, (kind, _) in label_index(p).items():
            if kind in ("expr", "app"):
                assert kept_kinds[lab] == kind, (name, lab)


# -- monotonicity ----------------------------------------------------------------

def test_bigger_criteria_keep_more(corpus, artifacts):
    chains = [
        ("eps", "eps + 0"),
        ("eps", "eps + 1"),
        ("eps + 0", "eps + 0 + 1"),
        ("eps + 1", "eps + 1 + 11 + 110"),
        ("eps + 0 + 1", "(0+1)*"),
        ("eps + 1 + 11 + 110", "(0+1)*"),
        ("0*", "(0+1)*"),
    ]
    by_name = dict(POOL)
    for name, p in corpus.items():
        art = artifacts[name]
        for small_name, big_name in chains:
            small = slice_inc(p, art, by_name[small_name]).keep
            big = slice_inc(p, art, by_name[big_name]).keep
            for lab in all_labels(p):
                assert small[lab] <= big[lab], (name, small_name, big_name,
                                                lab)


# -- golden residuals ------------------------------------------------------------

@pytest.mark.parametrize("crit_text,golden_name", [
    ("eps + 0", "lcc_head.golden"),
    ("eps + 1", "lcc_tail.golden"),
])
def test_lcc_golden_residuals(corpus, artifacts, crit_text, golden_name):
    crit = dict(POOL)[crit_text]
    want = golden(golden_name)
    got_noninc = slice_noninc(corpus["lcc"], crit)
    got_inc = slice_inc(corpus["lcc"], artifacts["lcc"], crit)
    assert print_program(got_noninc.residual) == want
    assert print_program(got_inc.residual) == want


def test_mapsq_tail_criterion_keeps_input_conses(corpus):
    p = corpus["mapsq"]
    crit = dict(POOL)["eps + 1 + 11 + 110"]
    keep = slice_noninc(p, crit).keep
    idx = label_index(p)
    main_cons = [lab for lab, (kind, node) in idx.items()
                 if kind == "app" and type(node).__name__ == "Cons"]
    assert main_cons
    assert all(keep[lab] for lab in main_cons)


# -- point queries ----------------------------------------------------------------

def test_lcc_pinned_point_decisions(corpus, artifacts):
    art = artifacts["lcc"]
    assert in_slice(art, 1, criterion_nfa({(), ("0",)}))
    assert not in_slice(art, 1, criterion_nfa({(), ("1",)}))
    assert not in_slice(art, 1, criterion_nfa({()}))
    assert in_slice(art, 2, criterion_nfa({(), ("1",)}))
    assert not in_slice(art, 2, criterion_nfa({(), ("0",)}))


def test_in_slice_rejects_unknown_label(corpus, artifacts):
    with pytest.raises(FsliceError, match="not in artifact"):
        in_slice(artifacts["lcc"], 10_000, epsilon_criterion())


def test_empty_criterion_keeps_nothing_incrementally(corpus, artifacts):
    p = corpus["append"]
    empty = from_strings([])
    assert not any(in_slice(artifacts["append"], lab, empty)
                   for lab in all_labels(p))
    with pytest.raises(CriterionError, match="empty"):
        slice_noninc(p, empty)


def test_uncalled_function_is_never_kept():
    src = ("(define (ghost y) (let g ← (car y) in (return g)))\n"
           "(define (main)\n"
           "  (let a ← 1 in\n"
           "  (let b ← nil in\n"
           "  (let p ← (cons a b) in\n"
           "  (return p)))))")
    p = validate(parse_program(src))
    art = precompute(p)
    full = dict(POOL)["(0+1)*"]
    keep = slice_inc(p, art, full).keep
    ghost = fun(p, "ghost")
    for lab in (ghost.body.label, ghost.body.rhs.label):
        assert not keep[lab]
        assert art.automata[lab].is_empty()


# -- residual extraction -----------------------------------------------------------

def test_extract_residual_identity_when_all_kept(corpus):
    for name, p in corpus.items():
        keep = {lab: True for lab in all_labels(p)}
        assert extract_residual(p, keep) == p


def test_extract_residual_holes_dead_points():
    src = ("(define (main)\n"
           "  (let a ← pi1:1 in\n"
           "  (let b ← pi2:2 in\n"
           "  (let p ← pi3:(cons pi4:a pi5:b) in\n"
           "  (return pi6:p)))))")
    p = validate(parse_program(src))
    keep = {lab: True for lab in all_labels(p)}
    keep[2] = keep[5] = False
    r = extract_residual(p, keep)
    idx = label_index(r)
    assert isinstance(idx[2][1], Hole)
    assert idx[5][1].name is None
    assert idx[4][1].name == "a"
    assert idx[1][1].value == 1


def test_extract_residual_drops_dead_parameters():
    src = ("(define (f u v)\n"
           "  (let k ← pi1:(+ u u) in\n"
           "  (return k)))\n"
           "(define (main)\n"
           "  (let x ← 1 in\n"
           "  (let y ← 2 in\n"
           "  (let r ← (f x y) in\n"
           "  (return r)))))")
    p = validate(parse_program(src))
    occ_v = [lab for lab, (k, n) in label_index(p).items()
             if k == "occ" and n.name == "y"]
    keep = {lab: True for lab in all_labels(p)}
    for lab in occ_v:
        keep[lab] = False
    r = extract_residual(p, keep)
    assert fun(r, "f").params == ["u", None]
    validate(r)


def test_extract_residual_keeps_param_used_as_callee():
    src = ("(define (apply1 g x)\n"
           "  (let r ← pi1:(g x) in\n"
           "  (return r)))\n"
           "(define (one v) (return v))\n"
           "(define (main)\n"
           "  (let x ← 3 in\n"
           "  (let r ← (apply1 one x) in\n"
           "  (return r))))")
    p = validate(parse_program(src), higher_order=True)
    keep = {lab: True for lab in all_labels(p)}
    r = extract_residual(p, keep)
    assert fun(r, "apply1").params == ["g", "x"]
    keep[1] = False
    r2 = extract_residual(p, keep)
    assert fun(r2, "apply1").params[0] is None


# -- artifacts --------------------------------------------------------------------

def test_artifact_round_trip_preserves_decisions(corpus, artifacts, tmp_path):
    name = "treesum"
    p = corpus[name]
    art = artifacts[name]
    path = tmp_path / "treesum.fsa.json"
    save_artifact(art, str(path))
    loaded = load_artifact(str(path))
    assert loaded.fingerprint == art.fingerprint
    assert set(loaded.automata) == set(art.automata)
    for crit_name, crit in POOL:
        assert slice_inc(p, loaded, crit).keep == slice_inc(p, art,
                                                            crit).keep


def test_artifact_serialization_is_byte_stable(corpus):
    p = corpus["lookup"]
    one = artifact_to_json(precompute(p))
    two = artifact_to_json(precompute(p))
    assert one == two
    assert artifact_to_json(artifact_from_json(one)) == one


def test_artifact_fingerprint_mismatch_is_rejected(corpus, artifacts):
    with pytest.raises(ArtifactMismatch):
        slice_inc(corpus["append"], artifacts["lcc"], epsilon_criterion())


def test_artifact_version_mismatch_is_rejected(corpus, artifacts):
    blob = json.loads(artifact_to_json(artifacts["lcc"]))
    blob["version"] = "0"
    with pytest.raises(ArtifactMismatch):
        artifact_from_json(json.dumps(blob))


def test_artifact_garbage_is_rejected():
    with pytest.raises(ArtifactMismatch):
        artifact_from_json("{\"definitely\": \"not an artifact\"}")


def test_fingerprint_tracks_program_identity(corpus):
    p = corpus["lcc"]
    q = parse_program(print_program(p, annotate=True))
    assert fingerprint(p) == fingerprint(q)
    assert fingerprint(p) != fingerprint(corpus["append"])


def test_keep_map_covers_every_label(corpus, artifacts):
    for name, p in corpus.items():
        res = slice_inc(p, artifacts[name], epsilon_criterion())
        assert set(res.keep) == set(all_labels(p))
        assert res.kept_count == sum(res.keep.values())


# -- the shared construction against the per-point reference ---------------------

def test_stored_automata_match_the_per_point_construction(corpus, tmp_path):
    """Every stored DFA is equivalent to the completing automaton built per
    point from ``canonicalize_nfa``, and after loading, labels with equal
    languages share one automaton object."""
    programs = sorted(corpus.items()) + [("generated", generate_program())]
    for name, p in programs:
        art = precompute(p)
        g = instantiate(generate_equations(p), epsilon_criterion())
        cg = CompiledGrammar(mn_transform(g))
        for lab in all_labels(p):
            want = create_completing_automaton(
                canonicalize_nfa(cg.nfa(nt_d(lab))))
            assert equivalent(art.automata[lab], want, (SEL0, SEL1)), \
                (name, lab)
        path = tmp_path / f"{name}.fsa.json"
        save_artifact(art, str(path))
        loaded = load_artifact(str(path))
        distinct = list({id(m): m for m in loaded.automata.values()}.values())
        for a, b in combinations(distinct, 2):
            assert not equivalent(a, b, (SEL0, SEL1)), name


# -- strict artifact validation --------------------------------------------------

def _edited(art, edit) -> str:
    doc = json.loads(artifact_to_json(art))
    edit(doc)
    return json.dumps(doc)


def _pi1(edit):
    return lambda doc: edit(doc["automata"]["pi1"])


@pytest.mark.parametrize("edit", [
    _pi1(lambda m: m.update(states=[1] + m["states"][1:])),
    _pi1(lambda m: m.update(start=len(m["states"]))),
    _pi1(lambda m: m.update(start=True)),
    _pi1(lambda m: m["finals"].append(len(m["states"]))),
    _pi1(lambda m: m["trans"].append([len(m["states"]), "0", 0])),
    _pi1(lambda m: m["trans"].append([m["start"], "0", 99999])),
    _pi1(lambda m: m["trans"].append([0, "2", 0])),
    _pi1(lambda m: m["trans"].append([0, "eps", 0])),
    _pi1(lambda m: m["trans"].extend([[0, "1", 0], [0, "1", 0]])),
    _pi1(lambda m: m.pop("trans")),
    lambda doc: doc["automata"].update(
        {"1": doc["automata"]["pi1"]}),
], ids=["states-not-dense", "start-out-of-range", "start-not-int",
        "final-out-of-range", "source-out-of-range", "target-out-of-range",
        "symbol-not-selector", "epsilon", "two-moves", "missing-field",
        "label-twice"])
def test_corrupt_artifact_is_rejected_at_load(artifacts, edit):
    with pytest.raises(ArtifactMismatch):
        artifact_from_json(_edited(artifacts["lcc"], edit))


def test_loaded_entries_with_equal_content_share_one_automaton(artifacts):
    loaded = artifact_from_json(artifact_to_json(artifacts["lcc"]))
    doc = json.loads(artifact_to_json(artifacts["lcc"]))["automata"]
    by_text = {}
    for name, entry in doc.items():
        by_text.setdefault(json.dumps(entry, sort_keys=True), set()).add(
            id(loaded.automata[int(name[2:])]))
    assert all(len(ids) == 1 for ids in by_text.values())
    assert len(by_text) == len({id(m) for m in loaded.automata.values()})


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(automata={}),
    lambda doc: doc["automata"].pop("pi1"),
    lambda doc: doc["automata"].update(pi99999=doc["automata"]["pi1"]),
], ids=["no-automata", "missing-point", "extra-point"])
def test_artifact_must_cover_exactly_the_programs_points(corpus, artifacts,
                                                          edit):
    art = artifact_from_json(_edited(artifacts["lcc"], edit))
    with pytest.raises(ArtifactMismatch, match="disagree on point"):
        slice_inc(corpus["lcc"], art, epsilon_criterion())
