"""Core object language: AST, parser, validator, printer.

The object language is a first-order functional language in administrative
normal form. A program is a sequence of function definitions, one of which
must be a zero-parameter ``main``. Function bodies are spines of ``let`` /
``if`` / ``return`` expressions; applications appear only as let right-hand
sides, and every application argument is a variable.

Every expression, every application, and every argument occurrence (including
if guards and return values) carries an integer label, printed ``piN``.
Labels key all per-point analysis results. The parser assigns labels by
pre-order traversal, so parsing the same text always reproduces the same
labels. A source token may pin its label explicitly with a ``piN:`` (or
``πN:``) prefix; unpinned positions receive the smallest unused numbers in
pre-order.

Residual programs use ``□`` (also accepted as ``_``) for erased code: an
erased application prints as a bare hole, an erased argument occurrence
prints as a hole in place of the variable, and a parameter whose every use
was erased prints as a hole in the parameter list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

HOLE_TOKENS = ("□", "_")
PRIM_OPS = ("+", "-", "*", "eq?")
BUILTIN_ARITY = {"car": 1, "cdr": 1, "null?": 1, "+": 2, "-": 2, "*": 2, "eq?": 2}

_PIN_RE = re.compile(r"^(?:π|pi)([0-9]+):$")
_INT_RE = re.compile(r"^-?[0-9]+$")
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_'-]*[?!]?$")
_KEYWORDS = {"define", "let", "in", "if", "return", "nil", "cons", "car", "cdr", "null?"}


class FsliceError(Exception):
    """Base class for all errors this package reports deliberately."""


class ParseError(FsliceError):
    pass


class ValidateError(FsliceError):
    pass


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass
class Occ:
    """A labeled variable occurrence in argument, guard, or return position.

    ``name`` is None for a hole left by slicing.
    """

    name: str | None
    label: int | None = None


@dataclass
class Const:
    value: int
    label: int | None = None


@dataclass
class Nil:
    label: int | None = None


@dataclass
class Cons:
    head: Occ
    tail: Occ
    label: int | None = None


@dataclass
class Car:
    arg: Occ
    label: int | None = None


@dataclass
class Cdr:
    arg: Occ
    label: int | None = None


@dataclass
class NullQ:
    arg: Occ
    label: int | None = None


@dataclass
class Prim:
    op: str
    left: Occ
    right: Occ
    label: int | None = None


@dataclass
class Call:
    fn: str
    args: list[Occ]
    label: int | None = None


@dataclass
class Hole:
    label: int | None = None


App = Const | Nil | Cons | Car | Cdr | NullQ | Prim | Call | Hole


@dataclass
class Return:
    value: Occ
    label: int | None = None


@dataclass
class If:
    guard: Occ
    then: "Expr"
    orelse: "Expr"
    label: int | None = None


@dataclass
class Let:
    var: str
    rhs: App
    body: "Expr"
    label: int | None = None


Expr = Return | If | Let


@dataclass
class FunDef:
    name: str
    params: list[str | None]
    body: Expr


@dataclass
class Program:
    defs: list[FunDef] = field(default_factory=list)

    @property
    def main(self) -> FunDef:
        for d in self.defs:
            if d.name == "main":
                return d
        raise ValidateError("program has no main function")

Label = int


def label_name(label: int) -> str:
    return f"pi{label}"


def parse_label_name(text: str) -> int:
    m = re.fullmatch(r"(?:π|pi)?([0-9]+)", text)
    if not m:
        raise ParseError(f"not a label: {text!r}")
    return int(m.group(1))


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------

def app_occs(app: App) -> list[Occ]:
    """Argument occurrences of an application, left to right."""
    if isinstance(app, Cons):
        return [app.head, app.tail]
    if isinstance(app, (Car, Cdr, NullQ)):
        return [app.arg]
    if isinstance(app, Prim):
        return [app.left, app.right]
    if isinstance(app, Call):
        return list(app.args)
    return []


def iter_exprs(e: Expr):
    """All expressions of a spine, pre-order, by an explicit stack."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, If):
            stack.append(e.orelse)
            stack.append(e.then)
        elif isinstance(e, Let):
            stack.append(e.body)


def iter_labeled(p: Program):
    """Yield (label, kind, node) for every labeled node, pre-order.

    kind is one of "expr", "app", "occ". Pre-order means: expression first,
    then for a return/if its occurrence, then subexpressions; for a let the
    right-hand side application, its argument occurrences, then the body.
    The walk keeps an explicit stack, so each node costs O(1) however deep
    the nesting.
    """
    for d in p.defs:
        stack: list[Expr] = [d.body]
        while stack:
            e = stack.pop()
            yield (e.label, "expr", e)
            if isinstance(e, Return):
                yield (e.value.label, "occ", e.value)
            elif isinstance(e, If):
                yield (e.guard.label, "occ", e.guard)
                stack.append(e.orelse)
                stack.append(e.then)
            elif isinstance(e, Let):
                yield (e.rhs.label, "app", e.rhs)
                for occ in app_occs(e.rhs):
                    yield (occ.label, "occ", occ)
                stack.append(e.body)


def all_labels(p: Program) -> list[int]:
    return [lab for lab, _, _ in iter_labeled(p)]


def use_index(d: FunDef) -> dict[str, list[Occ]]:
    """Each variable name of a function -> its labeled occurrences, in
    pre-order, from one walk. Under ``validate``'s scoping, a let
    variable's occurrences are exactly its uses in the let's body."""
    uses: dict[str, list[Occ]] = {}
    for e in iter_exprs(d.body):
        if isinstance(e, Return):
            occs = (e.value,)
        elif isinstance(e, If):
            occs = (e.guard,)
        else:
            occs = app_occs(e.rhs)
        for o in occs:
            if o.name is not None:
                uses.setdefault(o.name, []).append(o)
    return uses


def assign_labels(p: Program) -> Program:
    """Fill in missing labels in pre-order, respecting pinned ones.

    Pinned labels are reserved first; unpinned positions then take the
    smallest unused positive integers in traversal order. Duplicate pins are
    rejected.
    """
    pinned: set[int] = set()
    for lab, _, _ in iter_labeled(p):
        if lab is not None:
            if lab in pinned:
                raise ValidateError(f"duplicate label pi{lab}")
            pinned.add(lab)
    nxt = 1
    for lab, kind, node in iter_labeled(p):
        if lab is None:
            while nxt in pinned:
                nxt += 1
            node.label = nxt
            nxt += 1
    return p


# ---------------------------------------------------------------------------
# Reader (s-expressions with label pins)
# ---------------------------------------------------------------------------

def _tokenize(text: str) -> list[str]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            toks.append(c)
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
                # a pin like pi7: binds to the following token, which may be
                # an open paren with no separating space
                if text[j - 1] == ":":
                    break
            toks.append(text[i:j])
            i = j
    return toks


class _Node:
    """Reader output: an atom or a list, with an optional pinned label."""

    __slots__ = ("items", "atom", "pin")

    def __init__(self, atom=None, items=None, pin=None):
        self.atom = atom
        self.items = items
        self.pin = pin

    @property
    def is_atom(self):
        return self.items is None


def _read_all(tokens: list[str]) -> list[_Node]:
    pos = 0

    def read_one() -> _Node:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of input")
        tok = tokens[pos]
        pin = None
        m = _PIN_RE.match(tok)
        if m:
            pin = int(m.group(1))
            if pin < 1:
                raise ParseError(f"label pins must be positive: {tok}")
            pos += 1
            if pos >= len(tokens):
                raise ParseError(f"dangling label pin {tok}")
            tok = tokens[pos]
        if tok == "(":
            pos += 1
            items = []
            while True:
                if pos >= len(tokens):
                    raise ParseError("missing close paren")
                if tokens[pos] == ")":
                    pos += 1
                    return _Node(items=items, pin=pin)
                items.append(read_one())
        if tok == ")":
            raise ParseError("unexpected close paren")
        pos += 1
        return _Node(atom=tok, pin=pin)

    forms = []
    while pos < len(tokens):
        forms.append(read_one())
    return forms


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _parse_occ(node: _Node) -> Occ:
    if not node.is_atom:
        raise ParseError("expected a variable, found a nested form "
                         "(arguments must be let-bound first)")
    if node.atom in HOLE_TOKENS:
        return Occ(None, node.pin)
    if not _NAME_RE.match(node.atom):
        raise ParseError(f"not a variable name: {node.atom!r}")
    return Occ(node.atom, node.pin)


def _parse_app(node: _Node) -> App:
    if node.is_atom:
        tok = node.atom
        if tok in HOLE_TOKENS:
            return Hole(node.pin)
        if tok == "nil":
            return Nil(node.pin)
        if _INT_RE.match(tok):
            return Const(int(tok), node.pin)
        raise ParseError(f"a bare variable cannot be a right-hand side: {tok!r}")
    if not node.items:
        raise ParseError("empty application")
    head = node.items[0]
    if not head.is_atom:
        raise ParseError("application head must be a name")
    op = head.atom
    rest = node.items[1:]
    if op == "cons":
        if len(rest) != 2:
            raise ParseError("cons takes two arguments")
        return Cons(_parse_occ(rest[0]), _parse_occ(rest[1]), node.pin)
    if op in ("car", "cdr", "null?"):
        if len(rest) != 1:
            raise ParseError(f"{op} takes one argument")
        occ = _parse_occ(rest[0])
        cls = {"car": Car, "cdr": Cdr, "null?": NullQ}[op]
        return cls(occ, node.pin)
    if op in PRIM_OPS:
        if len(rest) != 2:
            raise ParseError(f"{op} takes two arguments")
        return Prim(op, _parse_occ(rest[0]), _parse_occ(rest[1]), node.pin)
    if not _NAME_RE.match(op):
        raise ParseError(f"not a function name: {op!r}")
    return Call(op, [_parse_occ(a) for a in rest], node.pin)


def _parse_expr(node: _Node) -> Expr:
    if node.is_atom or not node.items or not node.items[0].is_atom:
        raise ParseError("expected (let ...), (if ...) or (return ...)")
    head = node.items[0].atom
    rest = node.items[1:]
    if head == "return":
        if len(rest) != 1:
            raise ParseError("return takes one variable")
        return Return(_parse_occ(rest[0]), node.pin)
    if head == "if":
        if len(rest) != 3:
            raise ParseError("if takes a guard and two branches")
        return If(_parse_occ(rest[0]), _parse_expr(rest[1]), _parse_expr(rest[2]),
                  node.pin)
    if head == "let":
        if (len(rest) != 5 or not rest[0].is_atom
                or not rest[1].is_atom or rest[1].atom not in ("←", "<-")
                or not rest[3].is_atom or rest[3].atom != "in"):
            raise ParseError("let syntax is (let x ← rhs in body)")
        var = rest[0].atom
        if var in HOLE_TOKENS:
            raise ParseError("a let must bind a named variable")
        if not _NAME_RE.match(var) or var in _KEYWORDS or var in PRIM_OPS:
            raise ParseError(f"bad binder name: {var!r}")
        return Let(var, _parse_app(rest[2]), _parse_expr(rest[4]), node.pin)
    raise ParseError(f"unknown expression form ({head} ...)")


def _parse_def(node: _Node) -> FunDef:
    if node.is_atom or len(node.items) != 3:
        raise ParseError("definition syntax is (define (name params...) body)")
    kw, sig, body = node.items
    if not kw.is_atom or kw.atom != "define":
        raise ParseError("top-level forms must be definitions")
    if sig.is_atom or not sig.items or not sig.items[0].is_atom:
        raise ParseError("bad definition signature")
    name = sig.items[0].atom
    if not _NAME_RE.match(name) or name in _KEYWORDS or name in PRIM_OPS:
        raise ParseError(f"bad function name: {name!r}")
    params: list[str | None] = []
    for pnode in sig.items[1:]:
        if not pnode.is_atom:
            raise ParseError("parameters must be names")
        if pnode.atom in HOLE_TOKENS:
            params.append(None)
        else:
            if not _NAME_RE.match(pnode.atom) or pnode.atom in _KEYWORDS \
                    or pnode.atom in PRIM_OPS:
                raise ParseError(f"bad parameter name: {pnode.atom!r}")
            params.append(pnode.atom)
    return FunDef(name, params, _parse_expr(body))


def parse_program(text: str) -> Program:
    """Parse source text into a labeled Program.

    Rejects anything outside the ANF shape (nested applications, non-variable
    arguments). Does not run the semantic checks; see ``validate``.
    """
    forms = _read_all(_tokenize(text))
    if not forms:
        raise ParseError("empty program")
    prog = Program([_parse_def(f) for f in forms])
    return assign_labels(prog)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(p: Program, *, higher_order: bool = False) -> Program:
    """Check names, arities, label uniqueness, and the main entry point.

    A use must sit in its let's body (or anywhere, for a parameter), and no
    name is bound twice in one function, not even in two if branches.

    With ``higher_order=True`` the relaxed rules used before firstification
    apply: call targets may be variables, function and selector names may
    appear as arguments, and a call to a known function may supply fewer
    arguments than its arity (a partial application).
    """
    names = [d.name for d in p.defs]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise ValidateError(f"duplicate definition of {sorted(dupes)[0]}")
    if "main" not in names:
        raise ValidateError("program has no main function")
    if p.main.params:
        raise ValidateError("main takes no parameters")
    arity = {d.name: len(d.params) for d in p.defs}

    seen_labels: set[int] = set()
    for lab, _, _ in iter_labeled(p):
        if lab is None:
            raise ValidateError("program has unassigned labels")
        if lab in seen_labels:
            raise ValidateError(f"duplicate label pi{lab}")
        seen_labels.add(lab)

    for d in p.defs:
        bound: set[str] = set()  # in scope; ``binders``: bound anywhere
        for prm in d.params:
            if prm is None:
                continue
            if prm in bound:
                raise ValidateError(f"{d.name}: duplicate parameter {prm}")
            if prm in arity:
                raise ValidateError(f"{d.name}: parameter {prm} shadows a function")
            bound.add(prm)
        binders = set(bound)

        def check_occ(occ: Occ, where: str):
            if occ.name is None:
                return
            if occ.name in bound:
                return
            if higher_order and occ.name in arity:
                return
            if higher_order and occ.name in BUILTIN_ARITY:
                return
            raise ValidateError(f"{d.name}: unbound variable {occ.name} in {where}")

        # a let's variable sits under its body: popped, it leaves scope
        stack: list[Expr | str] = [d.body]
        while stack:
            e = stack.pop()
            if isinstance(e, str):
                bound.discard(e)
            elif isinstance(e, Return):
                check_occ(e.value, "return")
            elif isinstance(e, If):
                check_occ(e.guard, "if guard")
                stack.append(e.orelse)
                stack.append(e.then)
            else:
                rhs = e.rhs
                for occ in app_occs(rhs):
                    check_occ(occ, "application")
                if isinstance(rhs, Call):
                    if rhs.fn in arity:
                        if len(rhs.args) != arity[rhs.fn]:
                            if not (higher_order and len(rhs.args) < arity[rhs.fn]):
                                raise ValidateError(
                                    f"{d.name}: call to {rhs.fn} with "
                                    f"{len(rhs.args)} arguments, expected "
                                    f"{arity[rhs.fn]}")
                    elif higher_order and rhs.fn in bound:
                        pass
                    else:
                        raise ValidateError(f"{d.name}: call to unknown function "
                                            f"{rhs.fn}")
                if e.var in binders:
                    raise ValidateError(f"{d.name}: rebinding of {e.var}")
                if e.var in arity:
                    raise ValidateError(f"{d.name}: binder {e.var} shadows a function")
                binders.add(e.var)
                bound.add(e.var)
                stack.append(e.var)
                stack.append(e.body)
    return p


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def _fmt_occ(occ: Occ, annotate: bool) -> str:
    base = "□" if occ.name is None else occ.name
    return f"π{occ.label}:{base}" if annotate else base


def _fmt_app(app: App, annotate: bool) -> str:
    if isinstance(app, Const):
        body = str(app.value)
    elif isinstance(app, Nil):
        body = "nil"
    elif isinstance(app, Hole):
        body = "□"
    elif isinstance(app, Cons):
        body = f"(cons {_fmt_occ(app.head, annotate)} {_fmt_occ(app.tail, annotate)})"
    elif isinstance(app, Car):
        body = f"(car {_fmt_occ(app.arg, annotate)})"
    elif isinstance(app, Cdr):
        body = f"(cdr {_fmt_occ(app.arg, annotate)})"
    elif isinstance(app, NullQ):
        body = f"(null? {_fmt_occ(app.arg, annotate)})"
    elif isinstance(app, Prim):
        body = (f"({app.op} {_fmt_occ(app.left, annotate)} "
                f"{_fmt_occ(app.right, annotate)})")
    elif isinstance(app, Call):
        parts = " ".join(_fmt_occ(a, annotate) for a in app.args)
        body = f"({app.fn} {parts})" if parts else f"({app.fn})"
    else:
        raise TypeError(f"not an application: {app!r}")
    return f"π{app.label}:{body}" if annotate else body


def _print_expr(e: Expr, indent: int, annotate: bool, out: list[str]):
    pad = " " * indent
    pin = f"π{e.label}:" if annotate else ""
    if isinstance(e, Return):
        out.append(f"{pad}{pin}(return {_fmt_occ(e.value, annotate)})")
    elif isinstance(e, Let):
        out.append(f"{pad}{pin}(let {e.var} ← {_fmt_app(e.rhs, annotate)} in")
        _print_expr(e.body, indent, annotate, out)
        out[-1] += ")"
    elif isinstance(e, If):
        out.append(f"{pad}{pin}(if {_fmt_occ(e.guard, annotate)}")
        _print_expr(e.then, indent + 2, annotate, out)
        _print_expr(e.orelse, indent + 2, annotate, out)
        out[-1] += ")"
    else:
        raise TypeError(f"not an expression: {e!r}")


def print_program(p: Program, annotate: bool = False) -> str:
    """Render a program to canonical text.

    With ``annotate=True`` every label is printed as a ``πN:`` pin, so the
    result parses back to an identical AST, labels included.
    """
    chunks = []
    for d in p.defs:
        params = " ".join("□" if prm is None else prm for prm in d.params)
        sig = f"({d.name} {params})" if params else f"({d.name})"
        lines = [f"(define {sig}"]
        _print_expr(d.body, 2, annotate, lines)
        lines[-1] += ")"
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"
