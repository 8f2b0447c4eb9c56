"""Step functions, rearrangements, and the pairing inequality."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugenorm.stepfn import (
    StepFn,
    as_fraction,
    equimeasurable,
    pairing,
    partial_integral,
    rearrange,
    refine,
)

values_lists = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


@st.composite
def sixtieths(draw):
    """A step function cut at multiples of 1/60, and its values on the 60 cells.

    It has 1 to 6 pieces, and values recur on pieces that are not adjacent.
    """
    cuts = sorted(draw(st.lists(st.integers(1, 59), max_size=5, unique=True)))
    vals = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.5]),
            min_size=len(cuts) + 1,
            max_size=len(cuts) + 1,
        )
    )
    bps = (Fraction(0), *(Fraction(c, 60) for c in cuts), Fraction(1))
    cells = [vals[sum(c <= k for c in cuts)] for k in range(60)]
    return StepFn(bps, tuple(vals)), cells


MIDPOINTS = [Fraction(2 * k + 1, 120) for k in range(60)]


def halves(a, b):
    return StepFn((Fraction(0), Fraction(1, 2), Fraction(1)), (a, b))


def test_as_fraction_parses_rational_strings():
    assert as_fraction("2/3") == Fraction(2, 3)
    assert as_fraction(1) == 1
    assert as_fraction(0.25) == Fraction(1, 4)
    with pytest.raises(ValueError):
        as_fraction(float("inf"))
    with pytest.raises(ValueError):
        as_fraction("2/0")


def test_breakpoints_must_span_unit_interval():
    with pytest.raises(ValueError):
        StepFn((Fraction(0), Fraction(1, 2)), (1.0, 2.0))
    with pytest.raises(ValueError):
        StepFn((Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1)), (1.0, 2.0, 3.0))


def test_evaluation_is_right_continuous():
    f = halves(3.0, 1.0)
    assert f(Fraction(0)) == 3.0
    assert f(Fraction(1, 4)) == 3.0
    assert f(Fraction(1, 2)) == 1.0
    assert f(Fraction(1)) == 1.0
    h = StepFn(
        (Fraction(0), Fraction(1, 5), Fraction(7, 10), Fraction(1)), (2.0, 5.0, 4.0)
    )
    assert [h(b) for b in h.breakpoints] == [2.0, 5.0, 4.0, 4.0]
    for outside in (Fraction(-1, 4), Fraction(5, 4)):
        with pytest.raises(ValueError, match="outside"):
            h(outside)


def test_from_uniform_reads_back_at_midpoints():
    vals = [5.0, 2.0, 4.0, 1.0]
    f = StepFn.from_uniform(vals)
    n = len(vals)
    for i, v in enumerate(vals):
        assert f(Fraction(2 * i + 1, 2 * n)) == v


def test_json_round_trip_keeps_exact_breakpoints():
    f = StepFn((Fraction(0), Fraction(1, 3), Fraction(1)), (3.0, 1.0))
    obj = f.to_json()
    assert obj["breakpoints"] == ["0", "1/3", "1"]
    assert StepFn.from_json(obj) == f
    with pytest.raises(ValueError):
        StepFn.from_json({"breakpoints": ["0", "1"]})


def test_rearrange_sorts_and_merges():
    f = StepFn(
        (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)),
        (1.0, 3.0, 3.0),
    )
    g = rearrange(f)
    assert g.values == (3.0, 1.0)
    assert g.breakpoints == (Fraction(0), Fraction(3, 4), Fraction(1))


@given(values_lists)
def test_rearrange_preserves_integral_and_measure(vals):
    f = StepFn.from_uniform(vals)
    g = rearrange(f)
    assert all(b >= a for a, b in zip(g.values[1:], g.values))
    assert g.integral() == pytest.approx(f.integral(), abs=1e-12)
    assert equimeasurable(f, g)


def test_equimeasurable_compares_level_set_masses():
    f = halves(1.0, 2.0)
    g = StepFn((Fraction(0), Fraction(1, 3), Fraction(1)), (2.0, 1.0))
    assert not equimeasurable(f, g)
    assert equimeasurable(halves(1.0, 2.0), halves(2.0, 1.0))


@given(values_lists, st.randoms(use_true_random=False))
def test_equal_moments_iff_equimeasurable_for_permutations(vals, rnd):
    f = StepFn.from_uniform(vals)
    shuffled = list(vals)
    rnd.shuffle(shuffled)
    g = StepFn.from_uniform(shuffled)
    assert equimeasurable(f, g)
    for p in (1, 2, 3):
        mf = f.map_values(lambda v: v**p).integral()
        mg = g.map_values(lambda v: v**p).integral()
        assert mf == pytest.approx(mg, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e-12, 1.0, 1e13, 1e150, 1e200])
def test_equimeasurable_is_scale_free(scale):
    # A value twice another is never within tolerance, however small both
    # are, and a relative difference of 1e-15 always is, however large.
    assert not equimeasurable(
        StepFn.from_uniform([scale, 0.0]), StepFn.from_uniform([2 * scale, 0.0])
    )
    assert equimeasurable(
        StepFn.from_uniform([1e13 * scale, scale]),
        StepFn.from_uniform([scale, 1e13 * scale * (1 + 1e-15)]),
    )


def test_perturbation_breaks_equimeasurability_and_a_moment():
    f = StepFn.from_uniform([3.0, 2.0, 1.0])
    g = StepFn.from_uniform([3.0, 2.5, 1.0])
    assert not equimeasurable(f, g)
    assert f.integral() != g.integral()


def test_pairing_oracle():
    f = halves(1.0, 2.0)
    g = halves(2.0, 1.0)
    assert pairing(f, g) == pytest.approx(2.0)
    assert pairing(rearrange(f), rearrange(g)) == pytest.approx(2.5)


@given(values_lists, values_lists)
@settings(max_examples=200)
def test_pairing_of_rearrangements_dominates(fv, gv):
    f = StepFn.from_uniform(fv)
    g = StepFn.from_uniform(gv)
    assert pairing(f, g) <= pairing(rearrange(f), rearrange(g)) + 1e-10


def test_refine_puts_both_on_common_partition():
    f = halves(1.0, 2.0)
    g = StepFn((Fraction(0), Fraction(1, 3), Fraction(1)), (4.0, 5.0))
    rf, rg = refine(f, g)
    assert rf.breakpoints == rg.breakpoints
    for t in (Fraction(1, 6), Fraction(5, 12), Fraction(3, 4)):
        assert rf(t) == f(t)
        assert rg(t) == g(t)


@given(sixtieths(), sixtieths())
@settings(max_examples=50)
def test_non_uniform_route_matches_the_cell_values(fc, gc):
    (f, f_cells), (g, g_cells) = fc, gc
    assert [rearrange(f)(m) for m in MIDPOINTS] == sorted(f_cells, reverse=True)
    rf, rg = refine(f, g)
    assert rf.breakpoints == rg.breakpoints
    assert [rf(m) for m in MIDPOINTS] == f_cells
    assert [rg(m) for m in MIDPOINTS] == g_cells
    expected = sum(a * b for a, b in zip(f_cells, g_cells)) / 60
    assert pairing(f, g) == pytest.approx(expected, rel=0, abs=1e-12)


def test_partial_integral_matches_head_area():
    f = StepFn((Fraction(0), Fraction(1, 3), Fraction(1)), (3.0, 1.0))
    assert partial_integral(f, Fraction(1, 3)) == pytest.approx(1.0)
    assert partial_integral(f, Fraction(1, 2)) == pytest.approx(1.0 + 1.0 / 6.0)
    assert partial_integral(f, 1) == pytest.approx(f.integral())
    with pytest.raises(ValueError):
        partial_integral(f, 0)
    with pytest.raises(ValueError):
        partial_integral(f, Fraction(3, 2))


@given(values_lists)
def test_partial_integral_of_rearrangement_is_concave(vals):
    g = rearrange(StepFn.from_uniform(vals))
    grid = [Fraction(k, 16) for k in range(1, 17)]
    heads = [partial_integral(g, t) for t in grid]
    for a, b, c in zip(heads, heads[1:], heads[2:]):
        assert b - a >= (c - b) - 1e-10


def test_scale_and_abs_and_max_value():
    f = halves(-2.0, 1.0)
    assert f.abs().values == (2.0, 1.0)
    assert f.scale(2.0).values == (-4.0, 2.0)
