"""Output checks. None of them compares against a stored copy of today's
output; each tests a property the slicer must have:

* the incremental and the from-scratch pipeline keep the same points;
* a single-point query agrees with the full keep map;
* keep sets grow with the criterion, and everything keeps a superset;
* residuals run under the interpreter and project like the original on
  every criterion path up to ``inputs.PATH_LEN``;
* firstified programs compute what the higher-order evaluator of the test
  suite computes, and mapped-back slices of them project like the original.

Each returns a list of problems; empty means the check passed.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools

from fslice import interp

from inputs import ROOT, Criterion


def kept(keep: dict[int, bool]) -> frozenset:
    return frozenset(lab for lab, v in keep.items() if v)


def same_keep(what: str, a: dict[int, bool], b: dict[int, bool]) -> list[str]:
    if a == b:
        return []
    diff = sorted(lab for lab in set(a) | set(b) if a.get(lab) != b.get(lab))
    return [f"{what}: keep maps differ at {len(diff)} labels, first pi{diff[0]}"
            if diff else f"{what}: keep maps differ"]


def monotone(keeps: dict[str, tuple[Criterion, frozenset]]) -> list[str]:
    """σ ⊆ σ′ ⇒ kept(σ) ⊆ kept(σ′), over every ordered pair of criteria."""
    problems = []
    for (ta, (ca, ka)), (tb, (cb, kb)) in itertools.permutations(
            keeps.items(), 2):
        if ca.within(cb) and not ka <= kb:
            problems.append(f"not monotone: {ta!r} keeps "
                            f"{len(ka - kb)} points {tb!r} drops")
    return problems


class Projector:
    """Runs an original program once and compares residuals against it."""

    def __init__(self, original):
        self.run = interp.run(original)

    def check(self, residual, crit: Criterion, what: str) -> list[str]:
        try:
            got = interp.run(residual)
        except interp.InterpError as exc:
            return [f"{what}: residual failed to run: {exc}"]
        problems = []
        for path in crit.paths():
            want = interp.observe(self.run.value, self.run.heap, path)
            have = interp.observe(got.value, got.heap, path)
            if want != have:
                problems.append(f"{what}: at {path} {have!r} != {want!r}")
        return problems


@functools.cache
def _ho_eval():
    """The test suite's reference evaluator for higher-order programs."""
    spec = importlib.util.spec_from_file_location(
        "ho_eval", ROOT / "tests" / "ho_eval.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ho_run(p):
    return _ho_eval().ho_run(p)


def ho_value(original, firstified, what: str) -> list[str]:
    want = ho_run(original)
    got = interp.run(firstified)
    if interp.to_py(want.value, want.heap) != interp.to_py(got.value, got.heap):
        return [f"{what}: firstified program computes another value"]
    return []


def ho_projection(original, residual, crit: Criterion, what: str) -> list[str]:
    full = ho_run(original)
    try:
        cut = ho_run(residual)
    except interp.InterpError as exc:
        return [f"{what}: mapped-back residual failed to run: {exc}"]
    return [f"{what}: mapped-back residual differs at {path}"
            for path in crit.paths()
            if interp.observe(full.value, full.heap, path)
            != interp.observe(cut.value, cut.heap, path)]
