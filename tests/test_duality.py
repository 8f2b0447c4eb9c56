"""Dual norms: LP route, closed forms, involution, and ball geometry."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugenorm as gn
from gaugenorm import (
    KyFan,
    Lp,
    Operator,
    StepFn,
    SupOf,
    TBracket,
    Trace,
    Weight,
    dual_vec,
    dual_vec_full,
    norm_vec,
    partial_integral,
)
from gaugenorm.duality import (
    UnsupportedSpecError,
    ball_vertices,
    dual_spec,
    gamma_extreme_points,
    involution_check,
    primal_vertices,
    representation_check,
    simplex_max,
    spec_rows,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
vectors = st.lists(
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    min_size=2,
    max_size=6,
)


def halves(a, b):
    return StepFn((Fraction(0), Fraction(1, 2), Fraction(1)), (a, b))


def polyhedral_specs(n, seed):
    rng = gn.Rng64(seed)
    return [
        Trace(),
        Operator(),
        KyFan(Fraction(1, n)),
        KyFan(Fraction(n - 1, n)),
        Weight(gn.proptest.random_weight_fn(n, rng, normalized=True)),
        SupOf(gn.proptest.random_supof_fns(n, rng, 3, normalized=True)),
        TBracket(Fraction(3, 4)),
        gn.CSup(halves(1.0, 0.5)),
    ]


def test_simplex_solves_a_square_box():
    value, x = simplex_max(np.array([1.0, 1.0]), np.eye(2))
    assert value == pytest.approx(2.0)
    np.testing.assert_allclose(x, [1.0, 1.0])


def test_simplex_reports_unbounded_problems():
    with pytest.raises(RuntimeError):
        simplex_max(np.array([1.0]), np.array([[-1.0]]))


def loop_simplex(c, B):
    """simplex_max written row by row, as the reference for its pivots."""
    m, d = B.shape
    tab = np.zeros((m + 1, d + m + 1))
    tab[:m, :d] = B
    tab[:m, d : d + m] = np.eye(m)
    tab[:m, -1] = 1.0
    tab[m, :d] = -c
    basis = list(range(d, d + m))
    while True:
        enter = next((j for j in range(d + m) if tab[m, j] < -1e-10), -1)
        if enter < 0:
            break
        leave, best = -1, np.inf
        for i in range(m):
            if tab[i, enter] > 1e-10:
                ratio = tab[i, -1] / tab[i, enter]
                tie = abs(ratio - best) <= 1e-15
                if ratio < best - 1e-15 or (
                    tie and (leave < 0 or basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        tab[leave] /= tab[leave, enter]
        for i in range(m + 1):
            if i != leave and tab[i, enter] != 0.0:
                tab[i] -= tab[i, enter] * tab[leave]
        basis[leave] = enter
    x = np.zeros(d)
    for i, b in enumerate(basis):
        if b < d:
            x[b] = tab[i, -1]
    return float(tab[m, -1]), x


@pytest.mark.parametrize("seed", range(10))
def test_simplex_matches_the_loop_reference_exactly(seed):
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(1, 8)), int(rng.integers(1, 40))
    B = np.cumsum(rng.uniform(1e-3, 1.0, size=(m, d)), axis=1)
    B = np.vstack([B, B[:1]])  # a repeated row makes ratio ties
    c = np.cumsum(rng.uniform(0.0, 1.0, size=d))
    value, x = simplex_max(c, B)
    ref_value, ref_x = loop_simplex(c, B)
    assert value == ref_value
    np.testing.assert_array_equal(x, ref_x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 1.0)])
@pytest.mark.parametrize("spec", [KyFan(Fraction(1, 2)), Lp(3)], ids=["kyfan", "lp"])
def test_dual_rejects_non_finite_entries_like_the_primal(spec, bad):
    # Without a check the Ky Fan dual reads 0.0 and the Lp dual nan here.
    for x in ([bad, 1.0], [1.0, bad]):
        for f in (norm_vec, dual_vec):
            with pytest.raises(ValueError, match="finite"):
                f(spec, x)
        if not isinstance(spec, Lp):
            with pytest.raises(ValueError, match="finite"):
                involution_check(spec, x)


def test_lp_dual_closed_forms():
    assert dual_vec(Lp(2), np.diag([3.0, 4.0]).diagonal()) == pytest.approx(
        np.sqrt(12.5)
    )
    assert dual_vec(Lp(1), [3.0, -4.0]) == pytest.approx(4.0)
    value, witness = dual_vec_full(Lp(2), [0.0, 0.0])
    assert value == 0.0
    np.testing.assert_allclose(witness, 0.0)


@given(vectors, st.floats(min_value=1.0, max_value=8.0))
@settings(max_examples=100)
def test_lp_dual_witness_attains_and_is_feasible(x, p):
    value, witness = dual_vec_full(Lp(p), x)
    if value == 0.0:
        return
    assert norm_vec(Lp(p), witness) <= 1.0 + 1e-9
    xstar = np.sort(np.abs(np.array(x)))[::-1]
    attained = float(xstar @ witness) / xstar.size
    assert attained == pytest.approx(value, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("p", [1.0, 1.0 + 1e-12, 1.0 + 1e-7, 1.0 + 1e-5])
def test_lp_dual_survives_conjugate_exponent_blowup(p):
    # p near 1 sends the conjugate exponent toward infinity; naive powers
    # underflow the q-mean of an all-below-one vector to exactly zero and
    # then divide by it. The value must stay near max|x| and the witness
    # must stay finite, feasible, and attaining.
    x = [0.5, 0.5, 0.125]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        value, witness = dual_vec_full(Lp(p), x)
    assert value == pytest.approx(0.5, rel=1e-4)
    assert np.all(np.isfinite(witness))
    assert norm_vec(Lp(p), witness) <= 1.0 + 1e-9
    attained = float(np.array([0.5, 0.5, 0.125]) @ witness) / 3
    assert attained == pytest.approx(value, rel=1e-9, abs=1e-9)


@given(vectors, seeds)
@settings(max_examples=60, deadline=None)
def test_polyhedral_dual_witness_attains_and_is_feasible(x, seed):
    spec = polyhedral_specs(len(x), seed)[seed % 8]
    value, witness = dual_vec_full(spec, x)
    assert norm_vec(spec, witness) <= 1.0 + 1e-8
    xstar = np.sort(np.abs(np.array(x)))[::-1]
    attained = float(xstar @ witness) / xstar.size
    assert attained == pytest.approx(value, rel=1e-9, abs=1e-9)


@given(vectors, seeds)
@settings(max_examples=60, deadline=None)
def test_dual_dominates_random_feasible_pairings(x, seed):
    spec = polyhedral_specs(len(x), seed)[seed % 8]
    value = dual_vec(spec, x)
    rng = gn.Rng64(seed)
    xstar = np.sort(np.abs(np.array(x)))[::-1]
    n = xstar.size
    for _ in range(10):
        y = np.sort(np.abs([rng.gauss() for _ in range(n)]))[::-1]
        ny = norm_vec(spec, y)
        if ny == 0.0:
            continue
        y = y / ny
        assert float(xstar @ y) / n <= value + 1e-8


@given(vectors, st.integers(min_value=1, max_value=6))
@settings(max_examples=100)
def test_kyfan_dual_is_bracket_closed_form(x, k):
    n = len(x)
    k = min(k, n)
    t = Fraction(k, n)
    xstar = np.sort(np.abs(np.array(x)))[::-1]
    closed = max(float(t) * xstar[0], float(xstar.mean()))
    assert dual_vec(KyFan(t), x) == pytest.approx(closed, abs=1e-10)


def test_kyfan_dual_handles_irrational_t():
    x = [5.0, 2.0, 1.0]
    t = 0.6180339887498949
    xstar = np.array([5.0, 2.0, 1.0])
    closed = max(t * 5.0, float(xstar.mean()))
    assert dual_vec(KyFan(t), x) == pytest.approx(closed, abs=1e-8)


def test_trace_and_operator_are_dual_to_each_other():
    x = [3.0, -1.0, 2.0]
    assert dual_vec(Trace(), x) == pytest.approx(3.0)
    assert dual_vec(Operator(), x) == pytest.approx(2.0)


def test_gamma_extreme_points_shape():
    pts = gamma_extreme_points(3, 2)
    as_tuples = sorted(tuple(p) for p in pts)
    assert as_tuples == [
        (0.0, 0.0, 0.0),
        (1.0, 1.0, 1.0),
        (2.0, 0.0, 0.0),
    ]
    assert len(gamma_extreme_points(6, 4)) == 5
    ones_and_zero = gamma_extreme_points(3, 1)
    assert sorted(tuple(p) for p in ones_and_zero) == [
        (0.0, 0.0, 0.0),
        (1.0, 1.0, 1.0),
    ]
    with pytest.raises(ValueError):
        gamma_extreme_points(3, 4)


def test_kyfan_ball_vertices_in_three_dimensions():
    rows = spec_rows(KyFan(Fraction(2, 3)), 3)
    verts = sorted(tuple(np.round(v, 9)) for v in ball_vertices(rows, 3))
    assert verts == [
        (0.0, 0.0, 0.0),
        (1.0, 1.0, 0.0),
        (1.0, 1.0, 1.0),
        (2.0, 0.0, 0.0),
    ]


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_ball_vertices_lie_on_the_unit_sphere(seed):
    n = 4
    spec = polyhedral_specs(n, seed)[seed % 8]
    for v in primal_vertices(spec, n):
        if np.max(v) <= 1e-12:
            continue
        assert norm_vec(spec, v) == pytest.approx(1.0, abs=1e-8)
        assert all(b <= a + 1e-12 for a, b in zip(v, v[1:]))


def test_dual_spec_of_kyfan_matches_bracket_form():
    spec = dual_spec(KyFan(Fraction(1, 2)), 2)
    rng = gn.Rng64(5)
    for _ in range(25):
        x = np.array([rng.gauss(), rng.gauss()])
        xstar = np.sort(np.abs(x))[::-1]
        closed = max(0.5 * xstar[0], float(xstar.mean()))
        assert norm_vec(spec, x) == pytest.approx(closed, abs=1e-10)


@given(vectors, seeds)
@settings(max_examples=40, deadline=None)
def test_dual_spec_agrees_with_the_rows_route(x, seed):
    # involution_check takes the double dual over the vertex rows directly;
    # dual_spec rebuilds the same dual as step weights.
    spec = polyhedral_specs(len(x), seed)[seed % 8]
    _, double = involution_check(spec, x)
    assert dual_vec(dual_spec(spec, len(x)), x) == pytest.approx(
        double, rel=1e-10, abs=1e-12
    )


def test_involution_oracle_on_a_basis_vector():
    primal, double = involution_check(KyFan(Fraction(1, 2)), [1.0, 0.0])
    assert primal == pytest.approx(1.0)
    assert double == pytest.approx(1.0, abs=1e-10)


@given(vectors, seeds)
@settings(max_examples=60, deadline=None)
def test_involution_is_the_identity(x, seed):
    spec = polyhedral_specs(len(x), seed)[seed % 8]
    primal, double = involution_check(spec, x)
    assert double == pytest.approx(primal, rel=1e-8, abs=1e-8)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_dual_of_normalized_spec_is_normalized(seed):
    n = 4
    spec = polyhedral_specs(n, seed)[seed % 8]
    dual = dual_spec(spec, n)
    assert gn.identity_norm(dual, n) == pytest.approx(1.0, abs=1e-8)


def test_dual_reverses_pointwise_order():
    small = Weight(halves(1.0, 1.0))
    large = Weight(halves(2.0, 1.0))
    rng = gn.Rng64(17)
    for _ in range(20):
        x = [rng.gauss(), rng.gauss()]
        assert norm_vec(small, x) <= norm_vec(large, x) + 1e-12
        assert dual_vec(small, x) >= dual_vec(large, x) - 1e-12


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_representation_check_agrees(seed):
    rng = gn.Rng64(seed)
    n = 3
    spec = SupOf(gn.proptest.random_supof_fns(n, rng, 3))
    T = gn.random_matrix(n, rng.next_u64())
    lhs, rhs = representation_check(spec, T)
    assert rhs == pytest.approx(lhs, rel=1e-8, abs=1e-8)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_holder_inequality(seed):
    rng = gn.Rng64(seed)
    n = 4
    S = gn.random_matrix(n, rng.next_u64())
    T = gn.random_matrix(n, rng.next_u64())
    for spec in polyhedral_specs(n, seed)[:4] + [Lp(2)]:
        lhs, rhs = gn.holder_check(spec, S, T)
        assert lhs <= rhs + 1e-8


def test_rows_are_unavailable_for_smooth_specs():
    with pytest.raises(UnsupportedSpecError):
        spec_rows(Lp(2), 3)


def head_row(w, n):
    """The old route: differences of exact partial integrals on the n-grid."""

    def head(t):
        return 0.0 if t == 0 else partial_integral(w, t)

    return [head(Fraction(i + 1, n)) - head(Fraction(i, n)) for i in range(n)]


def kyfan_reference_row(t, n):
    """Ky Fan t-row cell by cell in Fractions; t = 0 is the operator norm."""
    if t == 0:
        return [1.0] + [0.0] * (n - 1)
    tq = Fraction(t)
    return [
        float(max(min(Fraction(i + 1, n), tq) - Fraction(i, n), 0) / tq)
        for i in range(n)
    ]


def reference_rows(spec, n):
    if isinstance(spec, Weight):
        return [head_row(spec.f, n)]
    if isinstance(spec, SupOf):
        return [head_row(w, n) for w in spec.fs]
    if isinstance(spec, KyFan):
        return [kyfan_reference_row(spec.t, n)]
    assert isinstance(spec, gn.CSup)
    return [
        [cv * r for r in kyfan_reference_row(t, n)]
        for lo, hi, cv in spec.c.intervals()
        if cv > 0.0
        for t in (lo, hi)
    ]


def random_breakpoints(rng, pieces):
    denom = int(rng.integers(pieces + 1, 200))
    cuts = rng.choice(np.arange(1, denom), size=pieces - 1, replace=False)
    return (Fraction(0), *sorted(Fraction(int(c), denom) for c in cuts), Fraction(1))


def random_row_spec(rng, kind):
    def weight():
        pieces = int(rng.integers(1, 9))
        vals = np.sort(rng.uniform(0.0, 3.0, size=pieces))[::-1]
        return StepFn(random_breakpoints(rng, pieces), tuple(vals))

    if kind == "weight":
        return Weight(weight())
    if kind == "supof":
        return SupOf(tuple(weight() for _ in range(int(rng.integers(2, 4)))))
    if kind == "kyfan":
        return KyFan(Fraction(int(rng.integers(1, 60)), 60) if rng.uniform() < 0.5
                     else float(rng.uniform(0.01, 1.0)))
    pieces = int(rng.integers(1, 6))
    vals = rng.uniform(0.0, 1.0, size=pieces)
    vals[rng.integers(pieces)] = 1.0
    return gn.CSup(StepFn(random_breakpoints(rng, pieces), tuple(vals)))


ROW_KINDS = ("weight", "supof", "kyfan", "csup")


@pytest.mark.parametrize("seed", range(28))
def test_spec_rows_match_partial_integral_differences(seed):
    rng = np.random.default_rng(seed)
    n = (1, 2, 3, 7, 16, 64, 200)[seed // 4]
    spec = random_row_spec(rng, ROW_KINDS[seed % 4])
    rows = spec_rows(spec, n)
    expected = np.array(reference_rows(spec, n))
    assert rows.shape == expected.shape
    # the old route differences head integrals, so each of its entries
    # carries a few ulp of the row's whole integral
    atol = 4 * np.finfo(float).eps * expected.sum(axis=1).max()
    np.testing.assert_allclose(rows, expected, rtol=1e-12, atol=atol)
    if isinstance(spec, KyFan):
        np.testing.assert_array_equal(rows, expected)


@pytest.mark.parametrize("seed", range(18))
def test_dual_matches_scipy_linprog(seed):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(100 + seed)
    n = (1, 2, 5, 16, 33, 64)[seed // 3]
    spec = random_row_spec(rng, ("weight", "supof", "csup")[seed % 3])
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
    xstar = np.sort(np.abs(x))[::-1]
    # maximize (1/n) x* . y over rows @ y <= 1 and y_1 >= ... >= y_n >= 0,
    # with the rows built by the Fraction route, not by spec_rows
    rows = reference_rows(spec, n)
    order = np.eye(n, k=1)[: n - 1] - np.eye(n)[: n - 1]
    result = linprog(
        -xstar / n,
        A_ub=np.vstack([rows, order]),
        b_ub=np.concatenate([np.ones(len(rows)), np.zeros(n - 1)]),
        bounds=(0, None),
        method="highs",
    )
    assert result.status == 0
    assert dual_vec(spec, x) == pytest.approx(-result.fun, rel=1e-9, abs=1e-12)
