"""Reference interpreter for the object language.

Small-step with an explicit call stack, so deep recursion in the object
language does not hit the host recursion limit. Values are integers, heap
locations of cons cells, nil, and the hole value. A hole expression
evaluates to the hole value; the hole value may be stored in pairs and
passed around freely, but any operation that inspects it (car, cdr, null?,
arithmetic, an if guard) raises ``HoleObserved``. That rule is what the
soundness tests lean on: a correct slice never inspects what it erased.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lang import (
    App, Call, Car, Cdr, Cons, Const, Expr, FsliceError, Hole, If, Let, Nil,
    NullQ, Occ, Prim, Program, Return,
)


class InterpError(FsliceError):
    pass


class StuckError(InterpError):
    pass


class HoleObserved(InterpError):
    pass


class FuelExhausted(InterpError):
    pass


class _Singleton:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


NIL = _Singleton("nil")
HOLE = _Singleton("hole")


@dataclass(frozen=True)
class Loc:
    addr: int

    def __repr__(self):
        return f"@{self.addr}"


Value = int | Loc | _Singleton


@dataclass
class RunResult:
    value: Value
    heap: dict[int, tuple[Value, Value]]
    steps: int
    trace: list[str] = field(default_factory=list)


def _lookup(env: dict[str, Value], occ: Occ) -> Value:
    if occ.name is None:
        return HOLE
    try:
        return env[occ.name]
    except KeyError:
        raise StuckError(f"unbound variable {occ.name}") from None


def _as_int(v: Value, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        if v is HOLE:
            raise HoleObserved(f"{what} inspects an erased value")
        raise StuckError(f"{what} needs an integer, got {v!r}")
    return v


def run(p: Program, fuel: int = 1_000_000, trace: bool = False) -> RunResult:
    """Run ``main`` to a value, or raise.

    ``fuel`` bounds the number of expression steps. ``trace=True`` records
    one line per step (function name and expression label).
    """
    heap: dict[int, tuple[Value, Value]] = {}
    next_addr = 0
    lines: list[str] = []

    def alloc(h: Value, t: Value) -> Loc:
        nonlocal next_addr
        heap[next_addr] = (h, t)
        next_addr += 1
        return Loc(next_addr - 1)

    def eval_app(app: App, env: dict[str, Value]) -> Value:
        if isinstance(app, Const):
            return app.value
        if isinstance(app, Nil):
            return NIL
        if isinstance(app, Hole):
            return HOLE
        if isinstance(app, Cons):
            return alloc(_lookup(env, app.head), _lookup(env, app.tail))
        if isinstance(app, Car):
            v = _lookup(env, app.arg)
            if isinstance(v, Loc):
                return heap[v.addr][0]
            if v is HOLE:
                raise HoleObserved("car inspects an erased value")
            raise StuckError(f"car of non-pair {v!r}")
        if isinstance(app, Cdr):
            v = _lookup(env, app.arg)
            if isinstance(v, Loc):
                return heap[v.addr][1]
            if v is HOLE:
                raise HoleObserved("cdr inspects an erased value")
            raise StuckError(f"cdr of non-pair {v!r}")
        if isinstance(app, NullQ):
            v = _lookup(env, app.arg)
            if v is HOLE:
                raise HoleObserved("null? inspects an erased value")
            return 1 if v is NIL else 0
        if isinstance(app, Prim):
            a = _as_int(_lookup(env, app.left), app.op)
            b = _as_int(_lookup(env, app.right), app.op)
            if app.op == "+":
                return a + b
            if app.op == "-":
                return a - b
            if app.op == "*":
                return a * b
            if app.op == "eq?":
                return 1 if a == b else 0
            raise StuckError(f"unknown operator {app.op}")
        raise StuckError(f"cannot evaluate {app!r} directly")

    funs = {d.name: d for d in p.defs}
    cur_fun = "main"
    expr: Expr = p.main.body
    env: dict[str, Value] = {}
    stack: list[tuple[dict[str, Value], str, Expr, str]] = []
    steps = 0

    while True:
        if steps >= fuel:
            raise FuelExhausted(f"no value after {fuel} steps")
        steps += 1
        if trace:
            lines.append(f"{cur_fun} pi{expr.label}")

        if isinstance(expr, Return):
            v = _lookup(env, expr.value)
            if not stack:
                return RunResult(v, heap, steps, lines)
            env, var, expr, cur_fun = stack.pop()
            env = dict(env)
            env[var] = v
        elif isinstance(expr, If):
            g = _as_int(_lookup(env, expr.guard), "if guard")
            expr = expr.then if g != 0 else expr.orelse
        elif isinstance(expr, Let):
            rhs = expr.rhs
            if isinstance(rhs, Call):
                callee = funs.get(rhs.fn)
                if callee is None:
                    raise StuckError(f"call to unknown function {rhs.fn}")
                if len(rhs.args) != len(callee.params):
                    raise StuckError(f"bad arity calling {rhs.fn}")
                args = [_lookup(env, a) for a in rhs.args]
                stack.append((env, expr.var, expr.body, cur_fun))
                env = {prm: v for prm, v in zip(callee.params, args)
                       if prm is not None}
                cur_fun = rhs.fn
                expr = callee.body
            else:
                v = eval_app(rhs, env)
                env = dict(env)
                env[expr.var] = v
                expr = expr.body
        else:
            raise StuckError(f"not an expression: {expr!r}")


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------

def observe(value: Value, heap: dict[int, tuple[Value, Value]],
            path: tuple[int, ...]):
    """What sits at an access path of a value.

    Each step of the path takes the head (0) or tail (1) of a pair. Returns
    ("int", k), "nil", "pair", "hole", or "undef" when the path walks off a
    non-pair.
    """
    v = value
    for step in path:
        if not isinstance(v, Loc):
            return "undef"
        v = heap[v.addr][step]
    if isinstance(v, Loc):
        return "pair"
    if v is NIL:
        return "nil"
    if v is HOLE:
        return "hole"
    return ("int", v)


def to_py(value: Value, heap: dict[int, tuple[Value, Value]],
          depth: int = 10_000):
    """Convert a value to nested Python data, for test assertions.

    Pairs become 2-tuples, nil becomes None, the hole value becomes the
    string "hole". Cyclic heaps are cut off by ``depth``.
    """
    if depth < 0:
        raise ValueError("value too deep")
    if isinstance(value, Loc):
        h, t = heap[value.addr]
        return (to_py(h, heap, depth - 1), to_py(t, heap, depth - 1))
    if value is NIL:
        return None
    if value is HOLE:
        return "hole"
    return value
