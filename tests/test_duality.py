"""Dual norms: LP route, closed forms, involution, and ball geometry."""

from __future__ import annotations

import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

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
    _double_dual,
    _dual_rows,
    _rows_dual,
    ball_vertices,
    dual_spec,
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
    """simplex_max written row by row, as the reference for its pivots.

    Dantzig's rule (most negative reduced cost, first index on ties) until
    the first pivot with a zero step, then Bland's rule for good. Returns the
    value, the solution, the pivot count and whether Bland's rule took over.
    """
    m, d = B.shape
    tab = np.zeros((m + 1, d + m + 1))
    tab[:m, :d] = B
    tab[:m, d : d + m] = np.eye(m)
    tab[:m, -1] = 1.0
    tab[m, :d] = -c
    basis = list(range(d, d + m))
    pivots, bland = 0, False
    while True:
        if bland:
            enter = next((j for j in range(d + m) if tab[m, j] < -1e-10), -1)
        else:
            enter = -1
            for j in range(d + m):
                if tab[m, j] < -1e-10 and (enter < 0 or tab[m, j] < tab[m, enter]):
                    enter = j
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
        pivots += 1
        bland = bland or best <= 0.0
        tab[leave] /= tab[leave, enter]
        for i in range(m + 1):
            if i != leave and tab[i, enter] != 0.0:
                tab[i] -= tab[i, enter] * tab[leave]
        basis[leave] = enter
    x = np.zeros(d)
    for i, b in enumerate(basis):
        if b < d:
            x[b] = tab[i, -1]
    return float(tab[m, -1]), x, pivots, bland


@pytest.mark.parametrize("seed", range(10))
def test_simplex_matches_the_loop_reference_exactly(seed):
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(1, 8)), int(rng.integers(1, 40))
    B = np.cumsum(rng.uniform(1e-3, 1.0, size=(m, d)), axis=1)
    B = np.vstack([B, B[:1]])  # a repeated row makes ratio ties
    c = np.cumsum(rng.uniform(0.0, 1.0, size=d))
    value, x = simplex_max(c, B)
    ref_value, ref_x, _, _ = loop_simplex(c, B)
    assert value == ref_value
    np.testing.assert_array_equal(x, ref_x)


def test_a_degenerate_pivot_hands_over_to_blands_rule():
    # x1 and x1 + x2 tie in the ratio test, so the second pivot has step 0
    c, B = np.array([1.0, 1.0]), np.array([[1.0, 0.0], [1.0, 1.0]])
    value, x = simplex_max(c, B)
    ref_value, ref_x, pivots, fell_back = loop_simplex(c, B)
    assert fell_back and pivots == 2
    assert value == ref_value == 1.0
    np.testing.assert_array_equal(x, ref_x)


def test_pivots_of_a_large_csup_dual_follow_its_rows(monkeypatch):
    # A large-n CSup shape: 8 pieces on the 1/(4n) grid, so 8 rows at
    # n = 512. Bland's rule alone takes 571 pivots on this LP.
    n = 512
    rng = np.random.default_rng(2007)
    cuts = sorted(rng.choice(np.arange(1, 4 * n), size=7, replace=False))
    vals = rng.uniform(0.2, 1.0, size=8)
    vals[rng.integers(8)] = 1.0
    bps = (Fraction(0), *(Fraction(int(k), 4 * n) for k in cuts), Fraction(1))
    spec = gn.CSup(StepFn(bps, tuple(vals)))
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-1.0, 1.0)
    lps = []

    def recording(c, B):
        lps.append((c, B))
        return simplex_max(c, B)

    monkeypatch.setattr(gn.duality, "simplex_max", recording)
    dual_vec(spec, x)
    ((c, B),) = lps
    assert B.shape == (8, n)
    value, y = simplex_max(c, B)
    ref_value, ref_y, pivots, _ = loop_simplex(c, B)
    assert value == ref_value
    np.testing.assert_array_equal(y, ref_y)
    assert pivots <= 2 * B.shape[0]


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


@pytest.mark.parametrize(
    "spec, n, expected",
    [
        (KyFan(Fraction(2, 3)), 3, [(0, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0)]),
        # Gamma(n, k), the ordered set whose tail from index k is constant and
        # whose top-k average is at most 1, is the Trace ball of R^k with its
        # last coordinate repeated up to n: 0 and (k/j, ..., k/j, 0, ..., 0).
        (Trace(), 1, [(0,), (1,)]),
        (Trace(), 2, [(0, 0), (1, 1), (2, 0)]),
        (Trace(), 3, [(0, 0, 0), (1, 1, 1), (1.5, 1.5, 0), (3, 0, 0)]),
    ],
    ids=["kyfan-2-3", "trace-1", "trace-2", "trace-3"],
)
def test_kyfan_ball_vertices_in_three_dimensions(spec, n, expected):
    verts = sorted(tuple(np.round(v, 9)) for v in ball_vertices(spec_rows(spec, n), n))
    assert verts == expected


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
    # involution_check takes the double dual by the lifted LP; dual_spec
    # rebuilds the dual from the primal ball's vertices as step weights.
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
        [cv * r for r in kyfan_reference_row(lo, n)]
        for lo, _, cv in spec.c.intervals()
        if cv > 0.0
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


def one_row_case(seed):
    """A one-row spec and an operand: Ky Fan t on and off the grid, Weight
    with many pieces, Trace and Operator; every other n draws tied entries."""
    rng = np.random.default_rng(200 + seed)
    n = (1, 2, 7, 64, 255, 512)[seed // 4]
    kind = seed % 4
    if kind == 0:
        spec = KyFan(Fraction(int(rng.integers(1, 4 * n + 1)), 4 * n))
    elif kind == 1:
        spec = KyFan(float(rng.uniform(0.001, 1.0)))
    elif kind == 2:
        pieces = int(rng.integers(1, 100))
        vals = np.sort(rng.uniform(0.1, 3.0, size=pieces))[::-1]
        spec = Weight(StepFn(random_breakpoints(rng, pieces), tuple(vals)))
    else:
        spec = (Trace(), Operator())[seed // 8 % 2]
    if seed // 4 % 2:
        x = rng.integers(1, 4, size=n) * 10.0 ** rng.uniform(-3, 3)
    else:
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    return spec, x


def one_row_reference(spec, n):
    if isinstance(spec, (Trace, Operator)):
        return [kyfan_reference_row(int(isinstance(spec, Trace)), n)]
    return reference_rows(spec, n)


@pytest.mark.parametrize("seed", range(24))
def test_one_row_closed_form_matches_the_lp(seed):
    spec, x = one_row_case(seed)
    n = x.size
    xstar = np.sort(np.abs(x))[::-1]
    R = spec_rows(spec, n)
    assert R.shape[0] == 1
    value, witness = dual_vec_full(spec, x)
    # the simplex on the same row, scaled as _rows_dual scales it
    B = np.cumsum(R, axis=1)
    lp_value, _ = simplex_max(np.cumsum(xstar / xstar[0] / n), B / B.max())
    eps = np.finfo(float).eps
    assert value == pytest.approx(lp_value * (xstar[0] / B.max()), rel=4 * eps, abs=0)
    assert norm_vec(spec, witness) <= 1.0 + 1e-12
    assert float(xstar @ witness) / n == pytest.approx(value, rel=1e-12, abs=0)
    linprog = pytest.importorskip("scipy.optimize").linprog
    assert value == pytest.approx(
        linprog_dual(linprog, one_row_reference(spec, n), xstar), rel=1e-9, abs=0
    )


def linprog_dual(linprog, rows, xstar):
    """max (1/n) x* . y over rows @ y <= 1 and y_1 >= ... >= y_n >= 0."""
    n = xstar.size
    order = np.eye(n, k=1)[: n - 1] - np.eye(n)[: n - 1]
    result = linprog(
        -xstar / n,
        A_ub=np.vstack([rows, order]),
        b_ub=np.concatenate([np.ones(len(rows)), np.zeros(n - 1)]),
        bounds=(0, None),
        method="highs",
    )
    assert result.status == 0
    return -result.fun


@pytest.mark.parametrize("seed", range(24))
def test_csup_left_ends_give_the_whole_norm_and_ball(seed):
    # One row per piece with c > 0, at its left end: K_t falls as t grows,
    # so the right-end row c * K_hi adds nothing on the ordered cone.
    rng = np.random.default_rng(700 + seed)
    n = (1, 2, 3, 7, 16, 64)[seed // 4]
    pieces = int(rng.integers(1, 8))
    vals = rng.uniform(0.0, 1.0, size=pieces)
    vals[rng.random(pieces) < 0.3] = 0.0
    vals[rng.integers(pieces)] = 1.0
    spec = gn.CSup(StepFn(random_breakpoints(rng, pieces), tuple(vals)))
    if seed % 2:
        x = rng.integers(1, 4, size=n) * 10.0 ** rng.uniform(-3, 3)
    else:
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    xstar = np.sort(np.abs(x))[::-1]

    # sup over t of c(t) (1/t) int_0^t x*, on c's breakpoints and a t grid
    bps = np.array([float(b) for b in spec.c.breakpoints])
    t = np.union1d(bps, np.linspace(0.0, 1.0, 1000))
    c = vals[np.minimum(np.searchsorted(bps, t, side="right") - 1, pieces - 1)]
    heads = np.concatenate([[0.0], np.cumsum(xstar)]) / n
    head = np.interp(t, np.arange(n + 1) / n, heads)
    kyfan = np.concatenate([[xstar[0]], head[1:] / t[1:]])  # t[0] = 0 reads x*_1
    assert norm_vec(spec, x) == pytest.approx(np.max(c * kyfan), rel=1e-12, abs=0)

    linprog = pytest.importorskip("scipy.optimize").linprog
    both_ends = [
        [cv * r for r in kyfan_reference_row(end, n)]
        for lo, hi, cv in spec.c.intervals()
        if cv > 0.0
        for end in (lo, hi)
    ]
    expected = linprog_dual(linprog, both_ends, xstar)
    assert dual_vec(spec, x) == pytest.approx(expected, rel=1e-9, abs=0)
    assert spec_rows(spec, n).shape[0] == np.count_nonzero(vals > 0.0)


SCALE_SPECS = [KyFan(Fraction(1, 2)), Trace(), Operator(), TBracket(Fraction(3, 4))]


@pytest.mark.parametrize("scale", [1e-11, 1e-200, 1e200])
@pytest.mark.parametrize(
    "spec", SCALE_SPECS, ids=["kyfan", "trace", "operator", "tbracket"]
)
def test_dual_and_double_dual_are_homogeneous(spec, scale):
    # The LP once compared reduced costs with an absolute 1e-10, so from
    # about 1e-11 down every dual and double dual read 0.
    x = np.array([3.0, 1.0, 0.5])
    dual = dual_vec(spec, x)
    primal, double = involution_check(spec, x)
    assert dual_vec(spec, scale * x) == pytest.approx(scale * dual, rel=1e-13, abs=0)
    scaled_primal, scaled_double = involution_check(spec, scale * x)
    assert scaled_primal == pytest.approx(scale * primal, rel=1e-13, abs=0)
    assert scaled_double == pytest.approx(scale * double, rel=1e-13, abs=0)


@pytest.mark.parametrize("scale", [1e-13, 1e-11, 1e-200, 1e200])
def test_dual_of_a_scaled_weight_scales_inversely(scale):
    # Weights near 1e-11 once failed the ratio test's absolute 1e-10 and
    # raised "LP is unbounded".
    def specs(a):
        w = StepFn.from_uniform([2.0 * a, 1.0 * a])
        return Weight(w), SupOf((w, StepFn.from_uniform([3.0 * a, 0.0])))

    for unit, scaled in zip(specs(1.0), specs(scale)):
        assert dual_vec(scaled, [3.0, 1.0]) * scale == pytest.approx(
            dual_vec(unit, [3.0, 1.0]), rel=1e-13, abs=0
        )


def test_holder_bound_holds_for_tiny_operands():
    # |||diag(1, 2)||| = 2 and |||diag(1, 2)|||^# = 1.5 for KyFan(1/2); the
    # dual of the tiny operand once read 0, so the bound read (1e-12, 0.0).
    big, tiny = np.diag([1.0, 2.0]), np.diag([1e-12, 5e-13])
    for S, T, rhs_expected in ((big, tiny, 2.0 * 7.5e-13), (tiny, big, 1e-12 * 1.5)):
        lhs, rhs = gn.holder_check(KyFan(0.5), S, T)
        assert lhs <= rhs
        assert rhs == pytest.approx(rhs_expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
@pytest.mark.parametrize("kind", ROW_KINDS)
def test_scaled_dual_matches_scipy_linprog(kind, scale):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(300 + ROW_KINDS.index(kind))
    n = 16
    spec = random_row_spec(rng, kind)
    x = rng.standard_normal(n)
    expected = linprog_dual(linprog, reference_rows(spec, n), np.sort(np.abs(x))[::-1])
    assert dual_vec(spec, scale * x) == pytest.approx(scale * expected, rel=1e-9, abs=0)
    if kind in ("weight", "supof"):
        fs = (spec.f,) if kind == "weight" else spec.fs
        scaled = tuple(
            StepFn(f.breakpoints, tuple(scale * v for v in f.values)) for f in fs
        )
        spec = Weight(scaled[0]) if kind == "weight" else SupOf(scaled)
        assert dual_vec(spec, x) * scale == pytest.approx(expected, rel=1e-9, abs=0)


def test_dual_of_a_zero_weight_is_unbounded():
    # the zero weight is no norm: its dual LP has no bound at a nonzero x
    spec = Weight(StepFn.from_uniform([0.0, 0.0]))
    with pytest.raises(RuntimeError, match="unbounded"):
        dual_vec(spec, [1.0, 1.0])
    assert dual_vec(spec, [0.0, 0.0]) == 0.0


def scaled_weight(a):
    return Weight(StepFn.from_uniform([2.0 * a, 1.0 * a, 0.5 * a]))


def sorted_vertices(vertices):
    return np.array(sorted(map(tuple, vertices)))


@pytest.mark.parametrize("scale", [1e-150, 1e-9, 1e10, 1e150])
def test_ball_vertices_scale_inversely_with_the_weight(scale):
    # The double description once compared against an absolute 1e-9, so
    # from a weight of about 1e-9 down it reported an unbounded ball.
    unit = sorted_vertices(primal_vertices(scaled_weight(1.0), 3))
    scaled = sorted_vertices(primal_vertices(scaled_weight(scale), 3))
    assert len(unit) == 4
    assert scaled * scale == pytest.approx(unit, rel=1e-12, abs=0)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_double_dual_and_representation_at_extreme_weight_scales(scale):
    # _dual_rows once dropped vertices below an absolute 1e-12, so from a
    # weight of about 1e10 up the dual ball had no rows at all.
    x = np.array([3.0, 1.0, 0.5])
    unit = involution_check(scaled_weight(1.0), x)
    scaled = involution_check(scaled_weight(scale), x)
    assert np.array(scaled) == pytest.approx(scale * np.array(unit), rel=1e-12, abs=0)

    def sup(a):
        return SupOf((scaled_weight(a).f, StepFn.from_uniform([3.0 * a, 0.0, 0.0])))

    T = np.diag([3.0, 1.0, 0.5])
    unit = representation_check(sup(1.0), T)
    scaled = representation_check(sup(scale), T)
    assert unit[0] == pytest.approx(unit[1], rel=1e-12, abs=0)
    assert np.array(scaled) == pytest.approx(scale * np.array(unit), rel=1e-12, abs=0)


def brute_force_vertices(rows, n):
    """Every feasible solution of n tight constraints of lambda >= 0,
    B lambda <= 1, in ordered-cone coordinates y, without duplicates."""
    B = np.cumsum(np.asarray(rows, dtype=float), axis=1)
    G = np.vstack([-np.eye(n), B])
    h = np.concatenate([np.zeros(n), np.ones(len(B))])
    found = []
    for subset in combinations(range(len(G)), n):
        M = G[list(subset)]
        if np.linalg.cond(M) > 1e10:
            continue
        lam = np.linalg.solve(M, h[list(subset)])
        if np.all(G @ lam <= h + 1e-9):
            y = np.cumsum(np.maximum(lam, 0.0)[::-1])[::-1]
            if not any(np.max(np.abs(y - v)) <= 1e-9 for v in found):
                found.append(y)
    return found


def oracle_case(seed):
    rng = np.random.default_rng(700 + seed)
    n = 2 + seed % 4
    kind = ("weight", "supof", "csup", "tbracket")[seed // 4 % 4]
    if kind == "tbracket":
        return TBracket(Fraction(int(rng.integers(30, 61)), 60)), n
    return random_row_spec(rng, kind), n


@pytest.mark.parametrize("seed", range(32))
def test_ball_vertices_match_a_brute_force_enumeration(seed):
    spec, n = oracle_case(seed)
    for rows in (spec_rows(spec, n), _dual_rows(spec, n) / n):
        got = ball_vertices(rows, n)
        expected = brute_force_vertices(rows, n)
        assert len(got) == len(expected)
        for v in got:
            gaps = [np.max(np.abs(v - w)) / max(1.0, np.max(v)) for w in expected]
            assert min(gaps) <= 1e-9


def test_vertex_enumeration_is_capped():
    with pytest.raises(ValueError, match="capped"):
        ball_vertices(np.full((1, 13), 1.0 / 13), 13)


@pytest.mark.parametrize(
    "rows",
    [[[0.0, 1.0]], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],
    ids=["recession-in-lambda1", "all-zero"],
)
def test_rows_that_leave_the_ball_unbounded_raise(rows):
    with pytest.raises(RuntimeError, match="unbounded ball"):
        ball_vertices(rows, len(rows[0]))


def boolean_ball_vertices(rows, n):
    """ball_vertices written with boolean tight sets, vstack and np.unique,
    as the exact reference for its vertices and their order."""
    B = np.cumsum(np.asarray(rows, dtype=float).reshape(-1, n), axis=1)
    scale = float(B.max(initial=0.0))
    A = np.column_stack([B / scale, -np.ones(len(B))])
    d = n + 1
    tol = 1e-9
    rays = np.eye(d)
    tight = ~np.eye(d, dtype=bool)
    for a in A:
        vals = rays @ a
        out, inside = vals > tol, vals < -tol
        T_out, T_in = tight[out], tight[inside]
        p, q = np.nonzero(T_out.astype(float) @ T_in.T.astype(float) >= d - 2)
        common = T_out[p] & T_in[q]
        holders = (common.astype(float) @ (~tight).T.astype(float) == 0).sum(axis=1)
        adjacent = holders == 2
        p, q, common = p[adjacent], q[adjacent], common[adjacent]
        vp, vq = vals[out][p, None], vals[inside][q, None]
        new = vp * rays[inside][q] - vq * rays[out][p]
        norms = np.abs(new).max(axis=1)
        big = norms > tol
        keep = ~out
        rays = np.vstack([rays[keep], new[big] / norms[big, None]])
        tight = np.vstack([
            np.column_stack([tight[keep], ~inside[keep]]),
            np.column_stack([common[big], np.ones(int(big.sum()), dtype=bool)]),
        ])
    s = rays[:, n]
    lam = np.maximum(rays[:, :n] / s[:, None], 0.0)
    Y = np.cumsum(lam[:, ::-1], axis=1)[:, ::-1]
    _, first = np.unique(np.round(Y, 9), axis=0, return_index=True)
    return list(Y[np.sort(first)] / scale)


def assert_same_vertices(got, expected):
    assert len(got) == len(expected)
    for v, w in zip(got, expected):
        assert np.array_equal(v, w)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", ("weight", "supof", "csup", "tbracket"))
def test_ball_vertices_match_the_boolean_reference_exactly(kind, n):
    rng = np.random.default_rng(900 + 10 * n + len(kind))
    for _ in range(3):
        if kind == "tbracket":
            spec = TBracket(Fraction(int(rng.integers(30, 61)), 60))
        else:
            spec = random_row_spec(rng, kind)
        for rows in (spec_rows(spec, n), _dual_rows(spec, n) / n):
            assert_same_vertices(ball_vertices(rows, n), boolean_ball_vertices(rows, n))


@pytest.mark.parametrize("n", [3, 5, 8])
def test_a_redundant_row_leaves_the_vertices_unchanged(n):
    # w / 2 . y <= 1 holds on all of w's ball, so no ray crosses that row
    rng = np.random.default_rng(40 + n)
    w = random_row_spec(rng, "weight").f
    w_half = StepFn(w.breakpoints, tuple(v / 2.0 for v in w.values))
    rows = spec_rows(SupOf((w, w_half)), n)
    assert rows.shape[0] == 2
    got = ball_vertices(rows, n)
    assert_same_vertices(got, ball_vertices(spec_rows(Weight(w), n), n))
    assert_same_vertices(got, boolean_ball_vertices(rows, n))


# The lifted LP: the double dual and a representing weight without vertices


def lifted_case(seed, n):
    """A polyhedral spec, on the uniform grid (odd seeds) or off it (even
    seeds), and an operand at a scale between 1e-100 and 1e100."""
    rng = np.random.default_rng(1000 + seed)
    if seed % 2:
        spec = polyhedral_specs(n, seed)[seed // 2 % 8]
    else:
        spec = random_row_spec(rng, ROW_KINDS[seed // 2 % 4])
    return spec, rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100)


def assert_representing_weight(spec, xstar, value, z):
    """z lies in the dual ball and pairs with x*/n to the double dual."""
    assert np.all(z >= 0.0) and np.all(np.diff(z) <= 0.0)
    assert dual_vec(spec, z) <= 1.0 + 1e-12
    assert float(z @ xstar) / xstar.size == pytest.approx(value, rel=1e-12, abs=0)


@pytest.mark.parametrize("seed", range(40))
def test_lifted_double_dual_matches_the_vertex_route(seed):
    n = 2 + seed % 11
    spec, x = lifted_case(seed, n)
    xstar = np.sort(np.abs(x))[::-1]
    value, z = _double_dual(spec_rows(spec, n), xstar)
    vertex_value, _ = _rows_dual(_dual_rows(spec, n) / n, xstar)
    assert value == pytest.approx(vertex_value, rel=1e-12, abs=0)
    assert_representing_weight(spec, xstar, value, z)


@pytest.mark.parametrize("kind", ["weight", "supof", "csup", "uniform-supof"])
@pytest.mark.parametrize("n", [16, 64, 128, 256])
def test_lifted_double_dual_past_the_vertex_cap(n, kind):
    # the vertex route stops at n = 12; "uniform-supof" is a supremum of
    # three weights on the uniform n-partition, the others are off it
    rng = np.random.default_rng(1200 + n + len(kind))
    if kind == "uniform-supof":
        spec = SupOf(gn.proptest.random_supof_fns(n, gn.Rng64(n), 3, normalized=True))
    else:
        spec = random_row_spec(rng, kind)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100)
    xstar = np.sort(np.abs(x))[::-1]
    value, z = _double_dual(spec_rows(spec, n), xstar)
    assert value == pytest.approx(norm_vec(spec, x), rel=1e-12, abs=0)
    assert_representing_weight(spec, xstar, value, z)


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after the given wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_the_lifted_lp_ends_when_rounding_leaves_a_negative_right_hand_side():
    # Rank-1 updates leave right-hand sides a few ulps below 0 here. Read as
    # they are, the ratio test takes negative steps and the objective falls:
    # this solve then ran past 5,000 pivots without ending.
    x = np.random.default_rng(374).uniform(size=128)
    with time_limit(10.0):
        primal, double = involution_check(KyFan(Fraction(1, 128)), x)
    assert double == pytest.approx(primal, rel=1e-12, abs=0)


def test_a_right_hand_side_below_zero_reads_as_zero():
    # a basic variable at -1e-17 would enter x at -1e-8 and lower the value
    value, x = simplex_max(
        np.array([1.0]), np.array([[1.0], [1e-9]]), np.array([1.0, -1e-17])
    )
    assert value == 0.0
    np.testing.assert_array_equal(x, [0.0])


def test_a_right_hand_side_of_ones_pivots_as_the_default():
    rng = np.random.default_rng(5)
    B = np.vstack([np.cumsum(rng.uniform(1e-3, 1.0, size=(4, 9)), axis=1)] * 2)
    c = np.cumsum(rng.uniform(0.0, 1.0, size=9))
    value, x = simplex_max(c, B)
    ones_value, ones_x = simplex_max(c, B, np.ones(len(B)))
    assert ones_value == value
    np.testing.assert_array_equal(ones_x, x)


@pytest.mark.parametrize("kind", ROW_KINDS)
def test_lifted_double_dual_matches_scipy_linprog(kind):
    # The same LP written in z rather than its staircase: maximize x* . z / n
    # over z_1 >= ... >= z_n >= 0 and pi >= 0 with cumsum(z) / n <= B^T pi
    # and sum(pi) <= 1, with B from the Fraction route's rows.
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(1100 + ROW_KINDS.index(kind))
    n = 64
    spec = random_row_spec(rng, kind)
    xstar = np.sort(np.abs(rng.standard_normal(n)))[::-1]
    B = np.cumsum(np.array(reference_rows(spec, n), dtype=float), axis=1)
    m = len(B)
    prefix = np.hstack([np.tril(np.ones((n, n))) / n, -B.T])
    order = np.hstack([np.eye(n, k=1)[: n - 1] - np.eye(n)[: n - 1], np.zeros((n - 1, m))])
    total = np.concatenate([np.zeros(n), np.ones(m)])
    result = linprog(
        np.concatenate([-xstar / n, np.zeros(m)]),
        A_ub=np.vstack([prefix, order, total]),
        b_ub=np.concatenate([np.zeros(2 * n - 1), [1.0]]),
        bounds=(0, None),
        method="highs",
    )
    assert result.status == 0
    value, z = _double_dual(spec_rows(spec, n), xstar)
    assert value == pytest.approx(-result.fun, rel=1e-9, abs=0)
    assert_representing_weight(spec, xstar, value, z)


@pytest.mark.parametrize("n", [5, 16])
def test_representation_check_takes_every_polyhedral_kind(n):
    rng = gn.Rng64(77 + n)
    T = gn.random_matrix(n, rng.next_u64())
    for spec in polyhedral_specs(n, 77 + n):
        lhs, rhs = representation_check(spec, T)
        assert rhs == pytest.approx(lhs, rel=1e-12, abs=0)
    with pytest.raises(UnsupportedSpecError):
        representation_check(Lp(3), T)
