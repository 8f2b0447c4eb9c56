"""Dual norms on C^n, computed exactly by linear programming.

Every polyhedral norm here is, on the ordered nonnegative cone
y_1 >= ... >= y_n >= 0, a maximum of finitely many linear functionals
r . y. Its dual norm at x is therefore the LP

    maximize (1/n) sum x*_i y_i   over  { y in cone : r . y <= 1 for all r }

with x* the nonincreasing rearrangement of |x| (rearranging the argument is
lossless by the classical pairing inequality). The substitution
y_i = lambda_i + ... + lambda_n turns the ordering constraints into plain
nonnegativity and leaves a standard-form problem with an all-slack feasible
basis, solved by a dense simplex priced by Dantzig's rule, with Bland's rule
after the first degenerate pivot. The LP is scaled to x*_1 = 1 and a largest
staircase entry of 1 first, so its tolerances are relative and the dual
scales with x across the float range. A one-row norm needs no simplex: its
dual is max_j C_j / B_j over the prefix sums B of the row and C of x*/n
(Lorentz-Marcinkiewicz duality).

The rows come from ``norms.spec_rows``, the cached row matrix that also
evaluates the primal norm; ``spec_rows`` and ``UnsupportedSpecError`` are
re-exported here. The same rows drive vertex enumeration of norm balls:
incremental double description on the homogenized cone, run on rows scaled
to a largest staircase entry of 1 with 0/1 tight sets for adjacency, so
the vertices scale with the rows across the float range. The dual ball is
itself polyhedral: its rows are the primal ball's nonzero vertices over n,
nonzero relative to the largest vertex (``dual_spec``). The double dual needs
no vertices: by LP duality, z lies in the dual ball exactly when some
pi >= 0 with sum(pi) <= 1 has prefix sums B^T pi >= cumsum(z/n), so the
double dual of x is one lifted LP over the staircase of z and pi, at any n.
Its optimal z is a representing weight: in the dual ball, and pairing with
x*/n to the norm.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import linalg
from .norms import (
    Lp,
    NormSpec,
    SupOf,
    UnsupportedSpecError,
    finite_value,
    norm_mat,
    norm_vec,
    power_mean,
    sorted_magnitudes,
    spec_rows,
)
from .stepfn import StepFn

PIVOT_TOL = 1e-10
VERTEX_DIM_CAP = 12


def simplex_max(
    c: np.ndarray, B: np.ndarray, b: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Maximize c . x subject to B x <= b, x >= 0, with b all ones by default.

    A right-hand side b >= 0 keeps the slack basis feasible, so no phase-1
    is needed. Dantzig's rule prices the columns: the most negative
    reduced cost enters (the lowest index among ties), so the pivot count
    follows the number of rows rather than the number of columns. A
    degenerate pivot (a zero step) leaves the objective where it is, and
    from a vertex with k zero right-hand sides it can take k of them in a
    row before the objective moves. So once a run of degenerate pivots is
    longer than the number of zeros in b (with the default b, at the first
    one) Bland's rule takes over for good: the lowest eligible index
    enters, and the lowest basis index leaves among ratio ties. Before that
    every run is bounded and every other pivot raises the objective, and
    after it Bland's rule cannot cycle (Bland 1977), so the loop ends.

    A long degenerate solve breaks on pivots that are rounding noise, so an
    entry counts as zero up to PIVOT_TOL times the largest entry of its
    column, when that exceeds 1. Rounding can also leave a right-hand side
    a few ulps below 0; the ratio test and the pivot row read it as 0, since
    a negative step would lower the objective and void the guarantee.
    """
    B = np.asarray(B, dtype=float)
    c = np.asarray(c, dtype=float)
    m, d = B.shape
    tab = np.zeros((m + 1, d + m + 1))
    tab[:m, :d] = B
    tab[:m, d : d + m] = np.eye(m)
    tab[:m, -1] = 1.0 if b is None else b
    tab[m, :d] = -c
    basis = list(range(d, d + m))
    allowed = 0 if b is None else int(np.count_nonzero(tab[:m, -1] == 0.0))
    run = 0
    bland = False
    while True:
        reduced = tab[m, :-1]
        # Bland enters the first negative reduced cost, Dantzig the smallest
        enter = int((reduced < -PIVOT_TOL).argmax() if bland else reduced.argmin())
        if reduced[enter] >= -PIVOT_TOL:
            break
        # Python floats divide like float64, and skip numpy scalar indexing
        column = tab[:m, enter].tolist()
        tol = PIVOT_TOL * max(1.0, max(column), -min(column))
        leave = -1
        best = math.inf
        for i, (a, r) in enumerate(zip(column, tab[:m, -1].tolist())):
            if a > tol:
                ratio = max(r, 0.0) / a
                if ratio < best - 1e-15 or (
                    abs(ratio - best) <= 1e-15
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError("LP is unbounded; the row set is not a norm ball")
        # Dantzig's rule can cycle through degenerate pivots; Bland's cannot.
        run = run + 1 if best <= 0.0 else 0
        bland = bland or run > allowed
        row = tab[leave]
        row[-1] = max(row[-1], 0.0)
        row /= row[enter]
        # One rank-1 update eliminates the pivot column from every other
        # row. A row with a zero entry there subtracts an exact zero, so this
        # matches row-by-row elimination and beats selecting the rows first.
        col = tab[:, enter].copy()
        col[leave] = 0.0
        tab -= col[:, None] * row
        basis[leave] = enter
    x = np.zeros(d)
    for i, j in enumerate(basis):
        if j < d:
            x[j] = tab[i, -1]
    return float(tab[m, -1]), x


def dual_vec_full(spec: NormSpec, x) -> tuple[float, np.ndarray]:
    """Dual norm of x and a maximizing ordered witness y.

    A polyhedral dual past the float range raises ``FloatingPointError``.
    """
    xstar = sorted_magnitudes(x)
    if isinstance(spec, Lp):
        return _lp_dual(float(spec.p), xstar)
    value, y = _rows_dual(spec_rows(spec, xstar.size), xstar)
    return finite_value(value, "dual norm"), y


def _rows_dual(R: np.ndarray, xstar: np.ndarray) -> tuple[float, np.ndarray]:
    """The LP dual of the norm max(R @ y) at the ordered xstar, with witness.

    In staircase coordinates y = cumsum of lambda from the right, the rows
    and the objective become their prefix sums and the ordered cone becomes
    lambda >= 0, which is the standard form ``simplex_max`` solves. The
    problem is solved at x*_1 = 1 and max(B) = 1: the value scales back by
    x*_1 / max(B) and the witness by 1 / max(B). With one row the optimum
    sits at a single vertex lambda = e_j / B_j, the first j maximizing
    C_j / B_j, whose witness is 1 / B_j on the first j + 1 coordinates.
    """
    n = xstar.size
    top = float(xstar[0])
    if top == 0.0:
        return 0.0, np.zeros(n)
    B = np.cumsum(R, axis=1)
    scale = float(B.max())
    if not scale > 0.0:
        raise RuntimeError("LP is unbounded; the row set is not a norm ball")
    B /= scale
    C = np.cumsum(xstar / top / n)
    if B.shape[0] == 1:
        ratios = C / B[0]
        j = int(np.argmax(ratios))
        y = np.zeros(n)
        y[: j + 1] = 1.0 / B[0, j] / scale
        return float(ratios[j]) * (top / scale), y
    value, lam = simplex_max(C, B)
    return value * (top / scale), np.cumsum(lam[::-1])[::-1] / scale


_CONJUGATE_EXPONENT_CAP = 1e6


def _lp_dual(p: float, xstar: np.ndarray) -> tuple[float, np.ndarray]:
    """Dual of the Lp norm by the conjugate exponent, with a Holder witness."""
    n = xstar.size
    xmax = float(xstar[0])
    if xmax == 0.0:
        return 0.0, np.zeros(n)
    q = math.inf if p == 1.0 else p / (p - 1.0)
    if q > _CONJUGATE_EXPONENT_CAP:
        # pow amplifies a 1-ulp input error by a factor of q, so past this
        # point the direct formula is noise. Use the sup-norm limit: spread
        # the witness over the exact argmax ties, which is feasible and
        # attains the returned value at every q (exponents 1/inf and
        # 1 - 1/inf evaluate to the p = 1 case with no special handling).
        ties = xstar == xmax
        m = int(np.count_nonzero(ties))
        value = xmax * (m / n) ** (1.0 / q)
        y = np.where(ties, (n / m) ** (1.0 - 1.0 / q), 0.0)
        return float(value), y
    value = power_mean(xstar, q)
    y = (xstar / value) ** (q - 1.0)
    return value, y


def dual_vec(spec: NormSpec, x) -> float:
    return dual_vec_full(spec, x)[0]


def dual_mat(spec: NormSpec, T: np.ndarray) -> float:
    """Dual norm of a matrix through the dual of its s-number profile."""
    return dual_vec(spec, linalg.s_numbers(T))


def ball_vertices(rows: list[np.ndarray], n: int) -> list[np.ndarray]:
    """Vertices of {y in ordered cone : r . y <= 1 for all rows r}.

    Works in staircase coordinates, where the ball is {lambda >= 0,
    B lambda <= 1}, and enumerates the extreme rays of the homogenization
    {(lambda, s) : lambda >= 0, s >= 0, B lambda <= s 1} by incremental
    double description (Motzkin et al. 1953; Fukuda & Prodon 1996). B is
    divided by its largest entry first and the vertices are scaled back, so
    the tolerance is relative and the ball is found at every float scale.
    The rays are one array and their tight constraints one 0/1 matrix, a
    column per constraint; a new ray is tight where both its parents are,
    plus the new constraint, and a row no ray crosses only fills its column.
    Two rays across the new constraint are adjacent iff no third ray is
    tight on every constraint they share, which is one matmul for all pairs.
    Rays with s > 0 descale to vertices, first occurrences kept; a ray with
    s = 0 is a recession direction: the rows do not describe a norm ball.
    """
    if n > VERTEX_DIM_CAP:
        raise ValueError(f"vertex enumeration is capped at n={VERTEX_DIM_CAP}")
    B = np.cumsum(np.asarray(rows, dtype=float).reshape(-1, n), axis=1)
    scale = float(B.max(initial=0.0))
    if not scale > 0.0:
        raise RuntimeError("unbounded ball: rows do not define a norm")
    # constraints a . (lambda, s) <= 0 beyond nonnegativity, one per row
    A = np.column_stack([B / scale, -np.ones(len(B))])
    d = n + 1
    tol = 1e-9
    rays = np.eye(d)  # every ray is kept at a largest |entry| of 1
    tight = np.hstack([1.0 - rays, np.zeros((d, len(A)))])  # x_j >= 0, j != i
    for k, a in enumerate(A, start=d):
        vals = rays @ a
        out, inside = vals > tol, vals < -tol
        tight[:, k] = ~inside
        if not out.any():
            continue
        # adjacent rays share the d - 2 tight constraints of a 2-face (column
        # k is 1 on out rays and 0 on inside ones, so it adds to no product)
        T_out, T_in = tight[out], tight[inside]
        p, q = np.nonzero(T_out @ T_in.T >= d - 2)
        common = T_out[p] * T_in[q]
        holders = (common @ (1.0 - tight).T == 0).sum(axis=1)
        adjacent = holders == 2
        p, q, common = p[adjacent], q[adjacent], common[adjacent]
        vp, vq = vals[out][p, None], vals[inside][q, None]
        new = vp * rays[inside][q] - vq * rays[out][p]
        norms = np.abs(new).max(axis=1)
        big = norms > tol
        keep = ~out
        common = common[big]
        common[:, k] = 1.0
        rays = np.concatenate([rays[keep], new[big] / norms[big, None]])
        tight = np.concatenate([tight[keep], common])
    s = rays[:, n]
    if np.any(s <= tol):
        raise RuntimeError("unbounded ball: rows do not define a norm")
    lam = np.maximum(rays[:, :n] / s[:, None], 0.0)
    Y = np.cumsum(lam[:, ::-1], axis=1)[:, ::-1]
    first = {}  # rounded vertex -> index of its first occurrence
    for i, key in enumerate(map(tuple, np.round(Y, 9).tolist())):
        first.setdefault(key, i)
    return list(Y[list(first.values())] / scale)


@lru_cache(maxsize=256)
def _primal_vertices_cached(spec: NormSpec, n: int) -> tuple[np.ndarray, ...]:
    return tuple(ball_vertices(spec_rows(spec, n), n))


def primal_vertices(spec: NormSpec, n: int) -> list[np.ndarray]:
    """Vertices of the unit ball of spec on the ordered cone in R^n."""
    return [v.copy() for v in _primal_vertices_cached(spec, n)]


def _dual_rows(spec: NormSpec, n: int) -> np.ndarray:
    """The nonzero vertices of spec's unit ball, clipped at 0, one per row.

    The dual of a polyhedral gauge norm at y is the maximum of (1/n) v . y*
    over the primal ball's ordered vertices v, so these rows over n are the
    dual's row matrix. A vertex counts as nonzero when its largest entry
    exceeds 1e-12 of the largest entry of any vertex, so the rows scale
    with the ball.
    """
    V = np.maximum(np.array(_primal_vertices_cached(spec, n)), 0.0)
    V = V[np.max(V, axis=1) > 1e-12 * V.max()]
    if not V.size:
        raise RuntimeError("norm ball has no nonzero vertices")
    return V


def dual_spec(spec: NormSpec, n: int) -> SupOf:
    """The dual norm as a SupOf: one step weight per nonzero ball vertex."""
    return SupOf(tuple(StepFn.from_uniform(v.tolist()) for v in _dual_rows(spec, n)))


@lru_cache(maxsize=64)
def _staircase_gram(n: int) -> np.ndarray:
    """M / n with M_ij = min(i, j), 1-based, rows from i = n down to 1.

    M mu / n is cumsum(z/n) for the staircase mu of z (z_i = mu_i + ... +
    mu_n). Row n comes first so that, among the degenerate ties of the
    lifted LP, the longest prefix leaves the basis first: that row holds
    the largest entries, and it halves the pivots against the natural order.
    """
    k = np.arange(1, n + 1)
    M = np.minimum.outer(k[::-1], k) / n
    M.flags.writeable = False
    return M


def _double_dual(R: np.ndarray, xstar: np.ndarray) -> tuple[float, np.ndarray]:
    """The double dual of the norm max(R @ y) at the ordered xstar, with a
    representing weight z: one LP, no vertices.

    With B the prefix sums of the rows, z is in the dual ball exactly when
    some pi >= 0 with sum(pi) <= 1 has M mu / n <= B^T pi, mu being z's
    staircase. So the double dual is

        maximize cumsum(x*/n) . mu  subject to  M mu / n - B^T pi <= 0,
                                                sum(pi) <= 1,  mu, pi >= 0,

    whose right-hand side (0, ..., 0, 1) keeps the slack basis feasible;
    its first n rows run in the order of ``_staircase_gram``. It is solved
    at x*_1 = 1 and max(B) = 1, like ``_rows_dual``: the value scales back
    by x*_1 max(B), and z by max(B).
    """
    n = xstar.size
    top = float(xstar[0])
    if top == 0.0:
        return 0.0, np.zeros(n)
    B = np.cumsum(R, axis=1)
    scale = float(B.max())
    if not scale > 0.0:
        raise RuntimeError("LP is unbounded; the row set is not a norm ball")
    m = B.shape[0]
    A = np.zeros((n + 1, n + m))
    A[:n, :n] = _staircase_gram(n)
    A[:n, n:] = B.T[::-1] / -scale
    A[n, n:] = 1.0
    c = np.zeros(n + m)
    c[:n] = np.cumsum(xstar / top / n)
    b = np.zeros(n + 1)
    b[n] = 1.0
    value, v = simplex_max(c, A, b)
    # a basic mu that rounding left a few ulps below 0 is 0, so z is ordered
    z = np.cumsum(np.maximum(v[n - 1 :: -1], 0.0))[::-1]
    return value * (top * scale), z * scale


def involution_check(spec: NormSpec, x) -> tuple[float, float]:
    """The norm of x and its double dual, which the duality involution equates.

    The double dual is the lifted LP of ``_double_dual`` over the norm's own
    rows, so it needs no vertex enumeration and works at every n.
    """
    xstar = sorted_magnitudes(x)
    return norm_vec(spec, xstar), _double_dual(spec_rows(spec, xstar.size), xstar)[0]


def representation_check(spec: NormSpec, T: np.ndarray) -> tuple[float, float]:
    """Norm of T versus its best weight-norm value over the dual ball.

    The right-hand side pairs the s-numbers s of T with the representing
    weight z of the lifted LP, z . s / n: the representation theorem says
    the maximum over the dual ball reproduces the norm. Every polyhedral
    spec works; ``Lp`` raises ``UnsupportedSpecError``.
    """
    s = linalg.s_numbers(T)
    z = _double_dual(spec_rows(spec, s.size), s)[1]
    return norm_vec(spec, s), float(z @ s) / s.size


def holder_check(
    spec: NormSpec, S: np.ndarray, T: np.ndarray
) -> tuple[float, float]:
    """Trace norm of ST versus the product |||S||| |||T|||^#."""
    lhs = linalg.trace_norm(S @ T)
    rhs = norm_mat(spec, S) * dual_mat(spec, T)
    return lhs, rhs
