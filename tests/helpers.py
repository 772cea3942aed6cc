"""Shared criterion pools, the residual soundness check, a timer, and
small views of programs, regexes and values."""

from __future__ import annotations

import os
import statistics
import time
from random import Random

from fslice.automata import Nfa, from_strings
from fslice.criteria import Alt, Cat, Eps, Regex, Star, Sym, parse_criterion
from fslice.demand import SEL0, SEL1
from fslice.interp import InterpError, observe, run
from fslice.lang import FunDef, Program, iter_labeled

from oracles import enumerate_upto, format_dset, prefix_close, to_path

SEED = int(os.environ.get("FSLICE_SEED", "20260814"))

# Finite prefix-closed criteria as explicit string sets.
FINITE_CRITERIA: list[frozenset] = [
    frozenset({()}),
    frozenset({(), (SEL0,)}),
    frozenset({(), (SEL1,)}),
    frozenset({(), (SEL0,), (SEL1,)}),
    frozenset({(), (SEL1,), (SEL1, SEL1), (SEL1, SEL1, SEL0)}),
    frozenset({(), (SEL0,), (SEL0, SEL0)}),
    frozenset({(), (SEL0,), (SEL1,), (SEL0, SEL1), (SEL1, SEL0)}),
]

# Infinite or regex-shaped criteria for the NFA pipelines.
REGEX_CRITERIA: list[str] = [
    "eps",
    "eps + 0",
    "eps + 1",
    "eps + 0 + 1",
    "eps + 1 + 11 + 110",
    "eps + 0 + 00",
    "0*",
    "1*",
    "(0+1)*",
    "0*1*",
]


def criterion_nfa(strings) -> Nfa:
    return from_strings(sorted(strings))


def criteria_pool() -> list[tuple[str, Nfa]]:
    pool = [(format_dset(s), criterion_nfa(s)) for s in FINITE_CRITERIA]
    pool += [(text, parse_criterion(text)) for text in REGEX_CRITERIA]
    return pool


def random_finite_criteria(count: int, maxlen: int = 5,
                           seed: int = SEED) -> list[frozenset]:
    """Random prefix-closed string sets, deterministic per seed."""
    rng = Random(seed)
    out = []
    for _ in range(count):
        strings = set()
        for _ in range(rng.randint(1, 4)):
            n = rng.randint(0, maxlen)
            strings.add(tuple(rng.choice((SEL0, SEL1)) for _ in range(n)))
        out.append(frozenset(prefix_close(strings)))
    return out


def criterion_strings(crit: Nfa, maxlen: int = 6) -> set[tuple]:
    return enumerate_upto(crit, maxlen)


def check_soundness(original, residual, crit: Nfa, maxlen: int = 6, *,
                    runner=run) -> list:
    """Original and residual must agree on every demanded projection.

    Returns a list of failure descriptions; empty means sound. The residual
    must run to completion (in particular, never inspect a hole) and then
    observe identically at every path the criterion demands. ``runner``
    evaluates a program; higher-order programs need ``ho_eval.ho_run``.
    """
    ro = runner(original)
    try:
        rr = runner(residual)
    except InterpError as exc:
        return [f"residual failed to run: {exc}"]
    failures = []
    for s in sorted(criterion_strings(crit, maxlen)):
        path = to_path(s)
        want = observe(ro.value, ro.heap, path)
        got = observe(rr.value, rr.heap, path)
        if want != got:
            failures.append(f"path {path}: {want!r} != {got!r}")
    return failures


def median_ms(fn, runs: int) -> float:
    """Median wall-clock milliseconds of ``runs`` calls of ``fn``."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def label_index(p: Program) -> dict[int, tuple[str, object]]:
    return {lab: (kind, node) for lab, kind, node in iter_labeled(p)}


def fun(p: Program, name: str) -> FunDef:
    for d in p.defs:
        if d.name == name:
            return d
    raise KeyError(name)


def project(value, heap, paths) -> dict[tuple[int, ...], object]:
    """Observations of a value at every path in a set of paths."""
    return {tuple(pth): observe(value, heap, tuple(pth)) for pth in paths}


def regex_to_text(r: Regex) -> str:
    def prec(x: Regex) -> int:
        if isinstance(x, Alt):
            return 0
        if isinstance(x, Cat):
            return 1
        return 2

    def go(x: Regex, level: int) -> str:
        if isinstance(x, Eps):
            s = "eps"
        elif isinstance(x, Sym):
            s = x.sym
        elif isinstance(x, Alt):
            s = " + ".join(go(p, 0) for p in x.parts)
        elif isinstance(x, Cat):
            s = "".join(go(p, 1) for p in x.parts)
        elif isinstance(x, Star):
            s = go(x.inner, 2) + "*"
        else:
            raise TypeError(f"not a regex node: {x!r}")
        return f"({s})" if prec(x) < level else s

    return go(r, 0)
