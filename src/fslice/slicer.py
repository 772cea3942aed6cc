"""End-to-end slicing pipelines and residual extraction.

Two routes to the same keep-decisions:

* ``slice_noninc`` solves the demand grammar for one criterion: generate
  equations, plug the criterion in, compile the grammar (widened where it
  is self-embedding) to the shared automaton, and decide per-point
  emptiness of the simplified demand language. The per-point decision
  reduces to one global backward reachability pass, because every point is
  an entry state of the same automaton.

* ``precompute`` + ``slice_inc`` split the work. Under the fixed criterion
  {ε}, every point's completing automaton (the minimal selector strings a
  criterion must contain to keep the point) is read off one shared
  structure: a single subset construction over the reversed bar/ε graph of
  the cancel-saturated automaton × the canonical shape, run from the shared
  final state. Points differ only in which of its states meet their
  frontier, so each point gets that DFA with its own accepting set, in
  minimal form; points with equal languages share one automaton. Any
  criterion is then one intersection per distinct automaton (``in_slice``
  for a single point). The two routes agree everywhere; the differential
  tests pin that down.

Residual extraction replaces erased applications and argument occurrences
with holes but never removes control skeleton: lets keep their binding with
a hole right-hand side, ifs keep both branches, and a parameter whose every
use was erased is shown as a hole in the function header.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .automata import EPS, Nfa, from_strings, intersect_nonempty
from .demand import BAR_OF, SEL0, SEL1, TWO
from .grammar import generate_equations, instantiate, nt_d
from .lang import (
    Call, Car, Cdr, Cons, Const, FsliceError, FunDef, Hole, If, Let, Nil,
    NullQ, Occ, ParseError, Prim, Program, Return, all_labels, iter_exprs,
    label_name, parse_label_name, print_program, use_index,
)
from .regular import CompiledGrammar, cancel_pairs, tail_states

# The layout and meaning of stored artifacts; independent of the package
# version. "2": each point's entry is its minimal completing DFA.
ARTIFACT_VERSION = "2"


class ArtifactMismatch(FsliceError):
    pass


@dataclass
class SliceResult:
    keep: dict[int, bool]
    residual: Program
    criterion: Nfa

    @property
    def kept_count(self) -> int:
        return sum(1 for v in self.keep.values() if v)


@dataclass
class PrecomputeArtifact:
    version: str
    fingerprint: str
    automata: dict[int, Nfa] = field(default_factory=dict)


def fingerprint(p: Program) -> str:
    text = print_program(p, annotate=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def epsilon_criterion() -> Nfa:
    return from_strings([()])


# ---------------------------------------------------------------------------
# Shared analysis plumbing
# ---------------------------------------------------------------------------

def _compiled_for(p: Program, crit: Nfa) -> CompiledGrammar:
    return CompiledGrammar(instantiate(generate_equations(p), crit))


def _keep_map(p: Program, cg: CompiledGrammar) -> dict[int, bool]:
    """One backward pass decides every point.

    A point stays when its simplified demand language is nonempty, i.e.
    when its entry state tails: it reaches acceptance over selector,
    epsilon, and cancellation edges, where a 2-edge into a tailing state
    counts as acceptance too.
    """
    tails = tail_states(cg.aut, cancel_pairs(cg.aut))
    return {lab: cg.entry[nt_d(lab)] in tails for lab in all_labels(p)}


# ---------------------------------------------------------------------------
# Non-incremental pipeline
# ---------------------------------------------------------------------------

def slice_noninc(p: Program, crit: Nfa) -> SliceResult:
    """Slice under one criterion by solving the demand grammar for it."""
    cg = _compiled_for(p, crit)
    keep = _keep_map(p, cg)
    return SliceResult(keep, extract_residual(p, keep), crit)


# ---------------------------------------------------------------------------
# Incremental pipeline
# ---------------------------------------------------------------------------

def precompute(p: Program) -> PrecomputeArtifact:
    """Per-point completing automata under the fixed criterion {ε}.

    Everything criterion-independent happens here: demand grammar, its
    compilation, cancellation saturation, and one shared subset
    construction (``_completion_dfa``). Each point's automaton is that DFA
    with the point's accepting set, minimized once per distinct set; points
    with equal languages share one ``Nfa`` object. What remains per query
    is one intersection per distinct automaton.
    """
    cg = _compiled_for(p, epsilon_criterion())
    dfa, reach = _completion_dfa(cg.aut, cg.final)
    by_mask: dict[int, Nfa] = {}
    shared: dict[tuple, Nfa] = {}
    art = PrecomputeArtifact(ARTIFACT_VERSION, fingerprint(p))
    for lab in sorted(all_labels(p)):
        mask = reach.get(cg.entry[nt_d(lab)], 0)
        if mask not in by_mask:
            k = dfa.copy()
            k.finals = {d for d in range(dfa.n) if mask >> d & 1}
            m = k.minimize().trim().renumbered()
            by_mask[mask] = shared.setdefault(_content_key(m), m)
        art.automata[lab] = by_mask[mask]
    return art


def _completion_dfa(aut: Nfa, final: int) -> tuple[Nfa, dict[int, int]]:
    """The shared completion DFA D, and which of its states each state meets.

    The product of ``aut`` (cancellation pairs as epsilon edges) with the
    canonical shape (0+1+2)*(0̄+1̄)* has states ``2*q + s``: s = 0 before any
    bar, s = 1 after one. Read backwards from the shared final state, its
    bar edges, unbarred, spell a point's completions, ending at a state of
    the point's frontier: an s = 0 state its entry reaches over 0/1/2/ε
    edges. D is the subset construction of that reversed bar/ε graph. The
    returned map sends an ``aut`` state q to the bitmask of D-states whose
    s = 0 members q reaches forward; a point's accepting set is the mask of
    its entry state.
    """
    back: dict[str, dict[int, list[int]]] = {}
    for src, sym, dst in aut.edges():
        back.setdefault(sym, {}).setdefault(dst, []).append(src)
    eps = back.setdefault(EPS, {})
    for src, dst in cancel_pairs(aut):
        if src != dst:
            eps.setdefault(dst, []).append(src)

    def closure(xs: set[int]) -> frozenset[int]:
        todo = list(xs)
        while todo:
            x = todo.pop()
            for q in eps.get(x >> 1, ()):
                y = 2 * q + (x & 1)
                if y not in xs:
                    xs.add(y)
                    todo.append(y)
        return frozenset(xs)

    subsets = [closure({2 * final, 2 * final + 1})]
    ids = {subsets[0]: 0}
    dfa = Nfa(1, 0)
    for cur in subsets:  # grows as new subsets are found
        for sel, bar in BAR_OF.items():
            pred = back.get(bar, {})
            nxt: set[int] = set()
            for x in cur:
                if x & 1:
                    for q in pred.get(x >> 1, ()):
                        nxt.update((2 * q, 2 * q + 1))
            key = closure(nxt)
            if key not in ids:
                ids[key] = dfa.add_state()
                subsets.append(key)
            dfa.add(ids[cur], sel, ids[key])

    reach: dict[int, int] = {}
    for d, members in enumerate(subsets):
        for x in members:
            if not x & 1:
                reach[x >> 1] = reach.get(x >> 1, 0) | 1 << d
    fwd = [back.get(sym, {}) for sym in (SEL0, SEL1, TWO, EPS)]
    todo = list(reach)
    while todo:
        q = todo.pop()
        mask = reach[q]
        for pred in fwd:
            for r in pred.get(q, ()):
                old = reach.get(r, 0)
                if old | mask != old:
                    reach[r] = old | mask
                    todo.append(r)
    return dfa, reach


def _content_key(m: Nfa) -> tuple:
    return m.n, m.start, tuple(sorted(m.finals)), tuple(sorted(m.edges()))


def in_slice(art: PrecomputeArtifact, pt: int, crit: Nfa) -> bool:
    """Membership of one point in the slice for one criterion."""
    if pt not in art.automata:
        raise FsliceError(f"label {label_name(pt)} not in artifact")
    return intersect_nonempty(art.automata[pt], crit)


def slice_inc(p: Program, art: PrecomputeArtifact, crit: Nfa) -> SliceResult:
    """Slice from the precomputed artifact; agrees with slice_noninc.

    One intersection per distinct automaton object decides all the points
    that share it.
    """
    if art.fingerprint != fingerprint(p):
        raise ArtifactMismatch("artifact was computed for a different program")
    labels = all_labels(p)
    stray = set(labels) ^ set(art.automata)
    if stray:
        raise ArtifactMismatch(f"artifact and program disagree on point "
                               f"{label_name(min(stray))}")
    decided: dict[int, bool] = {}
    keep = {}
    for lab in labels:
        m = art.automata[lab]
        if id(m) not in decided:
            decided[id(m)] = intersect_nonempty(m, crit)
        keep[lab] = decided[id(m)]
    return SliceResult(keep, extract_residual(p, keep), crit)


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

def extract_residual(p: Program, keep: dict[int, bool]) -> Program:
    def occ(o: Occ) -> Occ:
        return Occ(o.name if keep.get(o.label, False) else None, o.label)

    def app(a):
        if not keep.get(a.label, False):
            return Hole(a.label)
        if isinstance(a, Const):
            return Const(a.value, a.label)
        if isinstance(a, Nil):
            return Nil(a.label)
        if isinstance(a, Hole):
            return Hole(a.label)
        if isinstance(a, Cons):
            return Cons(occ(a.head), occ(a.tail), a.label)
        if isinstance(a, Car):
            return Car(occ(a.arg), a.label)
        if isinstance(a, Cdr):
            return Cdr(occ(a.arg), a.label)
        if isinstance(a, NullQ):
            return NullQ(occ(a.arg), a.label)
        if isinstance(a, Prim):
            return Prim(a.op, occ(a.left), occ(a.right), a.label)
        if isinstance(a, Call):
            return Call(a.fn, [occ(x) for x in a.args], a.label)
        raise TypeError(f"not an application: {a!r}")

    def expr(e):
        if isinstance(e, Return):
            return Return(occ(e.value), e.label)
        if isinstance(e, If):
            return If(occ(e.guard), expr(e.then), expr(e.orelse), e.label)
        if isinstance(e, Let):
            return Let(e.var, app(e.rhs), expr(e.body), e.label)
        raise TypeError(f"not an expression: {e!r}")

    defs = []
    for d in p.defs:
        params = list(d.params)
        if any(params):
            uses = use_index(d)
            # A name can also be consumed in callee position (relevant for
            # programs produced by mapping a slice back through firstify).
            called = {e.rhs.fn for e in iter_exprs(d.body)
                      if isinstance(e, Let) and isinstance(e.rhs, Call)
                      and keep.get(e.rhs.label, False)}
            params = [prm if prm in called or any(
                          keep.get(u.label, False) for u in uses.get(prm, ()))
                      else None
                      for prm in params]
        defs.append(FunDef(d.name, params, expr(d.body)))
    return Program(defs)


# ---------------------------------------------------------------------------
# Artifact persistence
# ---------------------------------------------------------------------------

def nfa_to_json(m: Nfa) -> dict:
    trans = sorted((src, sym if sym != EPS else "eps", dst)
                   for src, sym, dst in m.edges())
    return {
        "states": list(range(m.n)),
        "start": m.start,
        "finals": sorted(m.finals),
        "trans": [list(t) for t in trans],
    }


def _dfa_from_json(d: dict) -> Nfa:
    """One stored automaton, checked: states 0..n-1, every endpoint in
    range, and a deterministic automaton over {0, 1}."""
    states = d["states"]
    n = len(states)
    if states != list(range(n)) or any(type(q) is not int for q in states):
        raise ArtifactMismatch("states are not 0..n-1")

    def state(q):
        if type(q) is not int or not 0 <= q < n:
            raise ArtifactMismatch(f"state {q!r} out of range")
        return q

    m = Nfa(n, state(d["start"]))
    m.finals = {state(q) for q in d["finals"]}
    for src, sym, dst in d["trans"]:
        if sym not in (SEL0, SEL1):
            raise ArtifactMismatch(f"symbol {sym!r} is not 0 or 1")
        if m.succ(state(src), sym):
            raise ArtifactMismatch(f"two {sym}-moves from state {src}")
        m.add(src, sym, state(dst))
    return m


def _entry_key(d: dict) -> tuple:
    return (tuple(d["states"]), d["start"], tuple(d["finals"]),
            tuple(tuple(t) for t in d["trans"]))


def artifact_to_json(art: PrecomputeArtifact) -> str:
    doc = {
        "version": art.version,
        "fingerprint": art.fingerprint,
        "automata": {label_name(lab): nfa_to_json(m)
                     for lab, m in art.automata.items()},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def artifact_from_json(text: str) -> PrecomputeArtifact:
    """Parse and check an artifact; each distinct entry is built and
    checked once, and labels with equal entries share the automaton."""
    try:
        doc = json.loads(text)
        version = doc["version"]
        if version != ARTIFACT_VERSION:
            raise ArtifactMismatch(f"artifact version {version} does not "
                                   f"match this tool's {ARTIFACT_VERSION}")
        fp = doc["fingerprint"]
        built: dict[tuple, Nfa] = {}
        automata: dict[int, Nfa] = {}
        for name, entry in doc["automata"].items():
            lab = parse_label_name(name)
            if lab in automata:
                raise ArtifactMismatch(f"label {name} appears twice")
            key = _entry_key(entry)
            if key not in built:
                try:
                    built[key] = _dfa_from_json(entry)
                except ArtifactMismatch as exc:
                    raise ArtifactMismatch(f"{name}: {exc}") from exc
            automata[lab] = built[key]
    except (KeyError, TypeError, ValueError, AttributeError,
            ParseError) as exc:
        raise ArtifactMismatch(f"malformed artifact: {exc}") from exc
    return PrecomputeArtifact(version, fp, automata)


def save_artifact(art: PrecomputeArtifact, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(artifact_to_json(art))


def load_artifact(path: str) -> PrecomputeArtifact:
    with open(path, encoding="utf-8") as fh:
        return artifact_from_json(fh.read())
