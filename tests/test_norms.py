"""Norm evaluation across the norm-spec families and their shared invariants."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugenorm as gn
from gaugenorm import (
    CSup,
    KyFan,
    Lp,
    Operator,
    StepFn,
    SupOf,
    TBracket,
    Trace,
    Weight,
    norm_mat,
    norm_step,
    norm_vec,
)
from gaugenorm.dominance import kyfan_dominates
from gaugenorm.duality import dual_mat, dual_vec
from gaugenorm.norms import spec_from_json, spec_rows, spec_to_json

vectors = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    min_size=1,
    max_size=8,
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def halves(a, b):
    return StepFn((Fraction(0), Fraction(1, 2), Fraction(1)), (a, b))


def test_kyfan_is_mean_of_top_block():
    T = np.diag([4.0, 1.0, 1.0])
    assert norm_mat(KyFan(Fraction(2, 3)), T) == pytest.approx(2.5)
    assert norm_mat(KyFan(Fraction(1, 3)), T) == pytest.approx(4.0)
    assert norm_mat(KyFan(1), T) == pytest.approx(2.0)


def test_kyfan_on_non_uniform_step_function():
    f = StepFn((Fraction(0), Fraction(1, 3), Fraction(1)), (3.0, 1.0))
    # (1/t) * (area 1.0 on [0,1/3) plus area 1/6 on [1/3,1/2))
    assert norm_step(KyFan(Fraction(1, 2)), f) == pytest.approx(7.0 / 3.0)


@given(vectors)
def test_operator_and_trace_limits(x):
    arr = np.array(x)
    assert norm_vec(Operator(), arr) == pytest.approx(np.abs(arr).max())
    assert norm_vec(Trace(), arr) == pytest.approx(np.abs(arr).mean())
    assert norm_vec(Lp(1), arr) == pytest.approx(np.abs(arr).mean())


def test_lp_oracle():
    assert norm_vec(Lp(2), [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
    assert norm_vec(Lp(3), [1.0, 1.0]) == pytest.approx(1.0)


@given(vectors, st.integers(min_value=1, max_value=8))
def test_kyfan_grid_matches_partial_sums(x, k):
    arr = np.abs(np.array(x))
    n = arr.size
    k = min(k, n)
    xs = np.sort(arr)[::-1]
    expected = xs[:k].mean()
    assert norm_vec(KyFan(Fraction(k, n)), arr) == pytest.approx(
        expected, abs=1e-12
    )


@given(vectors)
def test_kyfan_value_is_nonincreasing_in_t(x):
    grid = [Fraction(k, 40) for k in range(1, 41)]
    vals = [norm_vec(KyFan(t), x) for t in grid]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-10


def test_lp_primal_spans_the_float_range():
    huge = norm_vec(Lp(3), [1e200, 1e200])
    assert huge == pytest.approx(1e200, rel=1e-15)
    assert norm_vec(Lp(3), [1e-120, 1e-120]) == pytest.approx(1e-120, rel=1e-15)
    steep = norm_vec(Lp(2000), [3.0, 1.0])
    assert np.isfinite(steep)
    assert steep == pytest.approx(3.0 * 0.5 ** (1 / 2000), rel=1e-12)


def off_grid_step(values):
    """A step function whose breakpoints 2/7, 1/3, 5/12 miss most k/n grids."""
    cuts = (Fraction(0), Fraction(2, 7), Fraction(1, 3), Fraction(5, 12), Fraction(1))
    return StepFn(cuts, values)


def polyhedral_battery(n):
    return [
        Operator(),
        Trace(),
        KyFan(Fraction(1, 3)),
        KyFan(Fraction(2, 7)),
        KyFan(Fraction(max(1, n // 2), n)),
        KyFan(1),
        KyFan(0.3),
        Weight(off_grid_step((3.0, 2.0, 1.5, 0.25))),
        SupOf((off_grid_step((2.0, 2.0, 1.0, 1.0)), halves(1.5, 0.5))),
        TBracket(Fraction(2, 3)),
        CSup(off_grid_step((0.5, 1.0, 1.0, 0.25))),
        CSup(StepFn((Fraction(0), Fraction(5, 12), Fraction(1)), (1.0, 0.75))),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 512])
def test_row_kernel_matches_the_fraction_reference(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, size=n)
    reference = StepFn.from_uniform(np.abs(x).tolist())
    for spec in polyhedral_battery(n):
        assert norm_vec(spec, x) == pytest.approx(
            norm_step(spec, reference), rel=1e-12
        ), spec


def test_spec_rows_are_read_only_and_shared():
    rows = spec_rows(Weight(halves(2.0, 1.0)), 5)
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 2.0
    # an equal spec built apart hashes equal and hits the same cache entry
    assert spec_rows(Weight(halves(2, 1)), 5) is rows


def test_weight_norm_pairs_against_rearrangement():
    w = halves(2.0, 1.0)
    assert norm_vec(Weight(w), [3.0, 1.0]) == pytest.approx(3.5)
    assert norm_vec(Weight(w), [1.0, 3.0]) == pytest.approx(3.5)


@given(vectors, st.integers(min_value=1, max_value=6), seeds)
@settings(max_examples=100)
def test_weight_norm_equals_kyfan_combination(x, n, seed):
    rng = gn.Rng64(seed)
    w = gn.proptest.random_weight_fn(n, rng)
    combo = gn.weight_norm_as_kyfan_combo(w)
    direct = norm_vec(Weight(w), x)
    combined = sum(c * norm_vec(KyFan(t), x) for c, t in combo)
    assert direct == pytest.approx(combined, rel=1e-10, abs=1e-10)


def test_weight_rejects_bad_weights_but_allows_large_mean():
    with pytest.raises(ValueError):
        Weight(halves(1.0, 2.0))
    with pytest.raises(ValueError):
        Weight(halves(-1.0, -2.0))
    assert norm_vec(Weight(halves(4.0, 3.0)), [1.0, 1.0]) == pytest.approx(3.5)


@pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e-12, 1.0, 1e12, 1e150, 1e200])
def test_weight_check_is_scale_free(scale):
    # An absolute 1e-12 once accepted the increasing weight (1e-150, 3e-150),
    # whose "norm" has N(e1) + N(e2) = 1e-150 < N(e1 + e2) = 2e-150.
    for bad in ([scale, 3.0 * scale], [scale, -0.5 * scale]):
        with pytest.raises(ValueError):
            Weight(StepFn.from_uniform(bad))
    # a roundoff-sized rise relative to the values still passes
    Weight(StepFn.from_uniform([scale, scale * (1.0 + 1e-14)]))


def test_supof_takes_the_largest_member():
    spec = SupOf((halves(2.0, 0.0), halves(1.0, 1.0)))
    # top-half pairing 2*3/2 = 3 versus full mean 2
    assert norm_vec(spec, [3.0, 1.0]) == pytest.approx(3.0)
    assert norm_vec(spec, [2.0, 2.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        SupOf(())


def test_tbracket_interpolates_trace_and_operator():
    rng = gn.Rng64(11)
    for _ in range(20):
        T = gn.random_matrix(2, rng.next_u64())
        assert norm_mat(TBracket(Fraction(1, 2)), T) == pytest.approx(
            gn.trace_norm(T), abs=1e-10
        )
        assert norm_mat(TBracket(1), T) == pytest.approx(
            gn.operator_norm(T), abs=1e-10
        )
    with pytest.raises(ValueError):
        TBracket(0.25)


def test_csup_scans_interval_endpoints():
    c = StepFn((Fraction(0), Fraction(1, 2), Fraction(1)), (1.0, 0.25))
    assert norm_vec(CSup(c), [4.0, 2.0]) == pytest.approx(4.0)
    dip = StepFn((Fraction(0), Fraction(1, 2), Fraction(1)), (0.25, 1.0))
    # the sup now comes from the left endpoint of the second interval
    assert norm_vec(CSup(dip), [4.0, 2.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        CSup(halves(0.5, 0.25))  # never attains 1
    with pytest.raises(ValueError):
        CSup(halves(2.0, 1.0))


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_matrix_route_agrees_with_vector_route_on_diagonals(seed):
    rng = gn.Rng64(seed)
    d = [rng.gauss() for _ in range(4)]
    specs = [KyFan(Fraction(1, 2)), Lp(2), Trace(), TBracket(Fraction(3, 4))]
    for spec in specs:
        assert norm_mat(spec, np.diag(d)) == pytest.approx(
            norm_vec(spec, d), abs=1e-9
        )


def test_identity_norm_is_one_for_normalized_specs():
    specs = [
        Trace(),
        Operator(),
        KyFan(Fraction(1, 3)),
        Lp(2),
        TBracket(Fraction(2, 3)),
        CSup(halves(1.0, 0.5)),
        Weight(halves(1.5, 0.5)),
    ]
    for spec in specs:
        assert gn.identity_norm(spec, 6) == pytest.approx(1.0, abs=1e-12)


def test_spec_json_round_trips():
    specs = [
        Operator(),
        Trace(),
        KyFan(Fraction(2, 3)),
        KyFan(0.37),
        Lp(2.5),
        Lp(Fraction(3, 2)),
        Weight(halves(1.5, 0.5)),
        SupOf((halves(2.0, 1.0), halves(1.0, 1.0))),
        TBracket(Fraction(3, 4)),
        CSup(halves(1.0, 0.5)),
    ]
    for spec in specs:
        obj = spec_to_json(spec)
        assert spec_from_json(obj) == spec
    assert spec_from_json({"kind": "kyfan", "t": 0}) == Operator()
    assert spec_from_json({"kind": "kyfanzero"}) == Operator()
    assert spec_from_json({"kind": "kyfan", "t": "2/3"}) == KyFan(Fraction(2, 3))
    with pytest.raises(ValueError):
        spec_from_json({"kind": "nope"})
    with pytest.raises(ValueError):
        spec_from_json({"kind": "lp"})


def test_parameter_validation():
    with pytest.raises(ValueError):
        KyFan(0)
    with pytest.raises(ValueError):
        KyFan(1.5)
    with pytest.raises(ValueError):
        Lp(0.5)
    for p in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Lp(p)


def test_boolean_parameters_are_rejected():
    for make in (Lp, KyFan, TBracket):
        with pytest.raises(ValueError, match="boolean"):
            make(True)
    with pytest.raises(ValueError, match="boolean"):
        spec_from_json({"kind": "kyfan", "t": True})


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_norms_vanish_only_at_zero(seed):
    T = gn.random_matrix(3, seed)
    for spec in (KyFan(Fraction(1, 3)), Lp(2), TBracket(Fraction(1, 2))):
        assert norm_mat(spec, T) > 0
        assert norm_mat(spec, np.zeros((3, 3))) == 0.0


def test_axiom_checker_passes_for_a_normalized_spec():
    report = gn.check_norm_axioms(KyFan(Fraction(1, 2)), n=3, trials=25, seed=3)
    assert report["passed"]
    assert set(report["checks"]) == {
        "triangle",
        "homogeneity",
        "unitary_invariance",
        "multiplier_bound",
        "sandwich",
        "monotonicity",
    }
    assert all(entry["fail"] == 0 for entry in report["checks"].values())


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda T: norm_mat(Trace(), T),
        lambda T: dual_mat(Trace(), T),
        lambda T: kyfan_dominates(T, T),
    ],
    ids=["norm_mat", "dual_mat", "kyfan_dominates"],
)
def test_s_number_overflow_raises_floating_point_error(evaluate):
    # Every entry 1e308 gives s_1 = 2e308, past the float range.
    with pytest.raises(FloatingPointError):
        evaluate(np.full((2, 2), 1e308, dtype=np.complex128))


HEAVY = Weight(StepFn.from_uniform([1000.0]))
LIGHT = Weight(StepFn.from_uniform([0.001]))
BIG = np.full(2, 1e306)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: norm_vec(Trace(), [complex(1.5e308, 1.5e308), 1.0]),
        lambda: norm_vec(HEAVY, BIG),
        lambda: norm_mat(HEAVY, np.diag(BIG).astype(complex)),
        lambda: norm_step(HEAVY, StepFn.from_uniform([1e306])),
        lambda: dual_vec(LIGHT, BIG),
        lambda: dual_mat(LIGHT, np.diag(BIG).astype(complex)),
    ],
    ids=["magnitude", "norm_vec", "norm_mat", "norm_step", "dual_vec", "dual_mat"],
)
def test_values_past_the_float_range_raise_floating_point_error(evaluate):
    # Every input is finite; the modulus, the norm or the dual is not.
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError, match="float range"):
            evaluate()
