"""Benchmark-program generator tests."""

import pytest

from fslice.gen import generate_program, generate_source
from fslice.interp import run
from fslice.lang import all_labels, parse_program, validate
from fslice.slicer import precompute, slice_noninc

from helpers import criterion_nfa


# -- generator -------------------------------------------------------------------

POINT_COUNTS = {0: 693, 1: 681, 7: 672, 20260814: 681}


@pytest.mark.parametrize("seed", sorted(POINT_COUNTS))
def test_generated_point_counts_are_stable(seed):
    p = generate_program(seed=seed)
    assert len(all_labels(p)) == POINT_COUNTS[seed]


def test_generated_source_is_deterministic():
    assert generate_source(seed=7) == generate_source(seed=7)
    assert generate_source(seed=7) != generate_source(seed=8)


@pytest.mark.parametrize("seed", [0, 7])
def test_generated_programs_run_to_a_value(seed):
    p = generate_program(seed=seed)
    res = run(p)
    assert res.value is not None


def test_generated_programs_validate_and_reparse():
    src = generate_source(seed=3)
    p = parse_program(src)
    validate(p)
    assert len(all_labels(p)) >= 500


def test_short_programs_are_rejected():
    with pytest.raises(ValueError, match="need 500"):
        generate_program(n_bindings=10, seed=0)


def test_generated_programs_slice_both_ways():
    p = generate_program(n_bindings=60, seed=2, min_points=0)
    crit = criterion_nfa({(), ("0",)})
    art = precompute(p)
    noninc = slice_noninc(p, crit)
    from fslice.slicer import slice_inc
    assert slice_inc(p, art, crit).keep == noninc.keep
