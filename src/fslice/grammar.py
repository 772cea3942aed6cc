"""Demand-flow equations of a program, as a context-free grammar.

For every labeled point pi the grammar has a nonterminal D[pi], the demand
on that point, over the symbolic demand alphabet. The grammar also carries:

* Sum[f,i] — the demand a call to f induces on its i-th argument, relative
  to the demand on the call itself (the closed-form per-parameter summary,
  built from a parallel P[...] family of nonterminals that mirror the D
  rules with the function's incoming demand factored out);
* Fn[f] — the concrete demand on f's result, the union over call sites;
* Crit — a placeholder for the slicing criterion, populated by
  ``instantiate``. Fn[main] -> Crit ties the program to its context.

Rule shape per construct: a return occurrence sees the whole function
demand; an if guard sees 2 Fn[f] (only the spine of the guard is
inspected); car maps demand d to 2d and 0d on its argument, cdr to 2d and
1d, null? and arithmetic to 2d; the two cons arguments prepend 0-bar and
1-bar; a call argument prepends the callee's summary; a let's right-hand
side collects the demands of every occurrence of the bound variable, read
from the function's use index (``lang.use_index``, one walk per function,
so the grammar is built in time linear in the program). Since
applications occur only on let right-hand sides, every spine expression's
value is the function's result, so expression labels map straight to Fn[f].

The least solution of these equations is the demand language; no fixpoint
machinery is needed here, the grammar itself is the answer. Emptiness of
the simplified per-point language is what the slicer consumes, via the
regular-approximation pipeline in ``regular``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .automata import EPS, Nfa
from .criteria import validate_criterion
from .demand import BAR0, BAR1, SEL0, SEL1, TWO
from .lang import (
    Call, Car, Cdr, Cons, If, Let, NullQ, Prim, Program, Return, app_occs,
    iter_exprs, label_name, use_index,
)

NonTerm = tuple
Body = tuple
Production = tuple[NonTerm, Body]

CRIT: NonTerm = ("Crit",)


def nt_d(label: int) -> NonTerm:
    return ("D", label)


def nt_p(label: int) -> NonTerm:
    return ("P", label)


def nt_sum(fname: str, i: int) -> NonTerm:
    return ("Sum", fname, i)


def nt_fn(fname: str) -> NonTerm:
    return ("Fn", fname)


def format_nt(nt: NonTerm) -> str:
    tag = nt[0]
    if tag == "D":
        return f"D[{label_name(nt[1])}]"
    if tag == "P":
        return f"P[{label_name(nt[1])}]"
    if tag == "Sum":
        return f"Sum[{nt[1]},{nt[2]}]"
    if tag == "Fn":
        return f"Fn[{nt[1]}]"
    if tag == "Crit":
        return "Crit"
    if tag == "CritQ":
        return f"CritQ[{nt[1]}]"
    if tag == "Cont":
        return f"Cont[{format_nt(nt[1])}]"
    raise ValueError(f"unknown nonterminal {nt!r}")


def is_nonterm(item) -> bool:
    return isinstance(item, tuple)


def order_key(item):
    """Total order over production items: plain symbols sort before
    nonterminals, and nested tuples compare recursively, so heterogeneous
    bodies never hit an int-versus-str comparison."""
    if isinstance(item, tuple):
        return (1, tuple(order_key(x) for x in item))
    return (0, item)


def production_key(prod: Production):
    lhs, body = prod
    return (order_key(lhs), tuple(order_key(item) for item in body))


@dataclass
class DemandGrammar:
    """Productions and declared nonterminals, each a dict used as an
    insertion-ordered set: every pass over the grammar sees them in the
    order they were added, so its results do not depend on string hashing.
    Only ``dump`` sorts."""
    productions: dict[Production, None] = field(default_factory=dict)
    declared: dict[NonTerm, None] = field(default_factory=dict)

    def add(self, lhs: NonTerm, body) -> None:
        self.productions[(lhs, tuple(body))] = None

    def declare(self, nt: NonTerm) -> None:
        self.declared[nt] = None

    def copy(self) -> "DemandGrammar":
        return DemandGrammar(dict(self.productions), dict(self.declared))

    def dump(self) -> str:
        lines = []
        for lhs, body in sorted(self.productions, key=production_key):
            rhs = " ".join(format_nt(i) if is_nonterm(i) else i for i in body)
            lines.append(f"{format_nt(lhs)} -> {rhs or 'eps'}")
        return "\n".join(lines) + "\n"


def generate_equations(p: Program) -> DemandGrammar:
    """The demand grammar of a whole program, criterion left abstract;
    ``p`` must pass ``lang.validate``, whose scoping the let rule needs."""
    g = DemandGrammar()
    g.declare(CRIT)
    for d in p.defs:
        g.declare(nt_fn(d.name))
        for i in range(1, len(d.params) + 1):
            g.declare(nt_sum(d.name, i))
        fn = nt_fn(d.name)
        uses = use_index(d)
        for e in iter_exprs(d.body):
            g.declare(nt_d(e.label))
            g.add(nt_d(e.label), (fn,))
            if isinstance(e, Return):
                occ = e.value
                g.declare(nt_d(occ.label))
                g.add(nt_d(occ.label), (fn,))
                g.add(nt_p(occ.label), ())
            elif isinstance(e, If):
                occ = e.guard
                g.declare(nt_d(occ.label))
                g.add(nt_d(occ.label), (TWO, fn))
                g.add(nt_p(occ.label), (TWO,))
            elif isinstance(e, Let):
                rhs = e.rhs
                ctx_d = nt_d(rhs.label)
                ctx_p = nt_p(rhs.label)
                g.declare(ctx_d)
                for o in app_occs(rhs):
                    g.declare(nt_d(o.label))
                for use in uses.get(e.var, ()):
                    g.add(ctx_d, (nt_d(use.label),))
                    g.add(ctx_p, (nt_p(use.label),))
                if isinstance(rhs, Cons):
                    for occ, bar in ((rhs.head, BAR0), (rhs.tail, BAR1)):
                        g.add(nt_d(occ.label), (bar, ctx_d))
                        g.add(nt_p(occ.label), (bar, ctx_p))
                elif isinstance(rhs, (Car, Cdr)):
                    sel = SEL0 if isinstance(rhs, Car) else SEL1
                    for sym in (TWO, sel):
                        g.add(nt_d(rhs.arg.label), (sym, ctx_d))
                        g.add(nt_p(rhs.arg.label), (sym, ctx_p))
                elif isinstance(rhs, NullQ):
                    g.add(nt_d(rhs.arg.label), (TWO, ctx_d))
                    g.add(nt_p(rhs.arg.label), (TWO, ctx_p))
                elif isinstance(rhs, Prim):
                    for occ in (rhs.left, rhs.right):
                        g.add(nt_d(occ.label), (TWO, ctx_d))
                        g.add(nt_p(occ.label), (TWO, ctx_p))
                elif isinstance(rhs, Call):
                    for i, occ in enumerate(rhs.args, start=1):
                        g.add(nt_d(occ.label), (nt_sum(rhs.fn, i), ctx_d))
                        g.add(nt_p(occ.label), (nt_sum(rhs.fn, i), ctx_p))
                    g.add(nt_fn(rhs.fn), (ctx_d,))
        for i, prm in enumerate(d.params, start=1):
            if prm is None:
                continue
            for use in uses.get(prm, ()):
                g.add(nt_sum(d.name, i), (nt_p(use.label),))
    g.add(nt_fn("main"), (CRIT,))
    return g


def instantiate(g: DemandGrammar, crit: Nfa) -> DemandGrammar:
    """Plug a concrete criterion in, as right-linear productions under Crit.

    ``crit`` must pass ``criteria.validate_criterion``: a nonempty,
    prefix-closed language over the two selectors.
    """
    validate_criterion(crit)
    out = g.copy()
    out.add(CRIT, (("CritQ", crit.start),))
    for src, sym, dst in crit.edges():
        body = (("CritQ", dst),) if sym == EPS else (sym, ("CritQ", dst))
        out.add(("CritQ", src), body)
    for q in crit.finals:
        out.add(("CritQ", q), ())
    return out
