"""Dual norms on C^n, computed exactly by linear programming.

Every polyhedral norm here is, on the ordered nonnegative cone
y_1 >= ... >= y_n >= 0, a maximum of finitely many linear functionals
r . y. Its dual norm at x is therefore the LP

    maximize (1/n) sum x*_i y_i   over  { y in cone : r . y <= 1 for all r }

with x* the nonincreasing rearrangement of |x| (rearranging the argument is
lossless by the classical pairing inequality). The substitution
y_i = lambda_i + ... + lambda_n turns the ordering constraints into plain
nonnegativity and leaves a standard-form problem with an all-slack feasible
basis, solved by a dense simplex with Bland's rule.

The rows come from ``norms.spec_rows``, the cached row matrix that also
evaluates the primal norm; ``spec_rows`` and ``UnsupportedSpecError`` are
re-exported here. The same rows drive vertex enumeration of norm balls
(incremental double description on the homogenized cone). The dual ball is
itself polyhedral: its rows are the primal ball's nonzero vertices over n.
The double-dual involution runs the same LP on those rows, and the finite
representation check enumerates their vertices.
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
    norm_mat,
    norm_vec,
    power_mean,
    sorted_magnitudes,
    spec_rows,
)
from .stepfn import StepFn

PIVOT_TOL = 1e-10
VERTEX_DIM_CAP = 12


def simplex_max(c: np.ndarray, B: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize c . x subject to B x <= 1, x >= 0.

    The all-ones right-hand side keeps the slack basis feasible, so no
    phase-1 is needed. Bland's rule (lowest eligible index enters, lowest
    basis index leaves among ratio ties) guarantees termination.
    """
    B = np.asarray(B, dtype=float)
    c = np.asarray(c, dtype=float)
    m, d = B.shape
    tab = np.zeros((m + 1, d + m + 1))
    tab[:m, :d] = B
    tab[:m, d : d + m] = np.eye(m)
    tab[:m, -1] = 1.0
    tab[m, :d] = -c
    basis = list(range(d, d + m))
    while True:
        eligible = np.flatnonzero(tab[m, :-1] < -PIVOT_TOL)
        if eligible.size == 0:
            break
        enter = int(eligible[0])
        leave = -1
        best = np.inf
        for i in range(m):
            if tab[i, enter] > PIVOT_TOL:
                ratio = tab[i, -1] / tab[i, enter]
                if ratio < best - 1e-15 or (
                    abs(ratio - best) <= 1e-15
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError("LP is unbounded; the row set is not a norm ball")
        row = tab[leave]
        row /= row[enter]
        # One rank-1 update eliminates the pivot column from every other
        # row. A row with a zero entry there subtracts an exact zero, so this
        # matches row-by-row elimination and beats selecting the rows first.
        col = tab[:, enter].copy()
        col[leave] = 0.0
        tab -= col[:, None] * row
        basis[leave] = enter
    x = np.zeros(d)
    for i, b in enumerate(basis):
        if b < d:
            x[b] = tab[i, -1]
    return float(tab[m, -1]), x


def dual_vec_full(spec: NormSpec, x) -> tuple[float, np.ndarray]:
    """Dual norm of x and a maximizing ordered witness y."""
    xstar = sorted_magnitudes(x)
    if isinstance(spec, Lp):
        return _lp_dual(float(spec.p), xstar)
    return _rows_dual(spec_rows(spec, xstar.size), xstar)


def _rows_dual(R: np.ndarray, xstar: np.ndarray) -> tuple[float, np.ndarray]:
    """The LP dual of the norm max(R @ y) at the ordered xstar, with witness.

    In staircase coordinates y = cumsum of lambda from the right, the rows
    and the objective become their prefix sums and the ordered cone becomes
    lambda >= 0, which is the standard form ``simplex_max`` solves.
    """
    value, lam = simplex_max(np.cumsum(xstar / xstar.size), np.cumsum(R, axis=1))
    return value, np.cumsum(lam[::-1])[::-1]


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


def gamma_extreme_points(n: int, k: int) -> list[np.ndarray]:
    """Extreme points of the ordered set Gamma(n, k).

    Gamma is the set of vectors x_1 >= ... >= x_{k-1} >= x_k = ... = x_n >= 0
    (constant tail from index k) whose top-k average is at most 1. Its k+1
    extreme points are the saturated staircases (k/j, ..., k/j, 0, ..., 0)
    for j = 1..k-1, the all-ones vector, and the origin.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    points = []
    for j in range(1, k):
        p = np.zeros(n)
        p[:j] = k / j
        points.append(p)
    points.append(np.ones(n))
    points.append(np.zeros(n))
    return points


def ball_vertices(rows: list[np.ndarray], n: int) -> list[np.ndarray]:
    """Vertices of {y in ordered cone : r . y <= 1 for all rows r}.

    Works in staircase coordinates, where the ball is {lambda >= 0,
    B lambda <= 1}, and enumerates rays of the homogenization
    {(lambda, s) : lambda >= 0, s >= 0, B lambda <= s 1} by incremental
    double description with a combinatorial adjacency test. Rays with s > 0
    descale to vertices; a ray with s = 0 would be a recession direction and
    means the rows do not describe a norm ball.
    """
    if n > VERTEX_DIM_CAP:
        raise ValueError(f"vertex enumeration is capped at n={VERTEX_DIM_CAP}")
    d = n + 1
    # constraints a . x <= 0: nonnegativity first, then homogenized rows
    constraints = [-np.eye(d)[i] for i in range(d)]
    for r in rows:
        a = np.zeros(d)
        a[:n] = np.cumsum(r)
        a[n] = -1.0
        constraints.append(a)

    tol = 1e-9
    rays = [np.eye(d)[i] for i in range(d)]

    def tight_mask(ray: np.ndarray, upto: int) -> int:
        mask = 0
        for ci in range(upto):
            if abs(constraints[ci] @ ray) <= tol:
                mask |= 1 << ci
        return mask

    for ci in range(d, len(constraints)):
        a = constraints[ci]
        vals = [float(a @ r) for r in rays]
        keep = [r for r, v in zip(rays, vals) if v <= tol]
        inside = [(r, v) for r, v in zip(rays, vals) if v < -tol]
        outside = [(r, v) for r, v in zip(rays, vals) if v > tol]
        if outside and not inside and not keep:
            return []  # ball is empty; cannot happen for norm rows
        masks = [tight_mask(r, ci) for r in rays]
        pair_masks = {id(r): m for r, m in zip(rays, masks)}
        new_rays = []
        for rp, vp in outside:
            for rq, vq in inside:
                common = pair_masks[id(rp)] & pair_masks[id(rq)]
                adjacent = True
                for other, om in zip(rays, masks):
                    if other is rp or other is rq:
                        continue
                    if om & common == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                ray = vp * rq - vq * rp
                norm = np.max(np.abs(ray))
                if norm > tol:
                    new_rays.append(ray / norm)
        rays = keep + new_rays

    vertices = []
    seen = set()
    for r in rays:
        s = r[n]
        if s <= tol * np.max(np.abs(r)):
            raise RuntimeError("unbounded ball: rows do not define a norm")
        lam = np.maximum(r[:n] / s, 0.0)
        y = np.cumsum(lam[::-1])[::-1]
        key = tuple(np.round(y, 9))
        if key not in seen:
            seen.add(key)
            vertices.append(y)
    return vertices


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
    dual's row matrix.
    """
    V = np.maximum(np.array(_primal_vertices_cached(spec, n)), 0.0)
    V = V[np.max(V, axis=1) > 1e-12]
    if not V.size:
        raise RuntimeError("norm ball has no nonzero vertices")
    return V


def dual_spec(spec: NormSpec, n: int) -> SupOf:
    """The dual norm as a SupOf: one step weight per nonzero ball vertex."""
    return SupOf(tuple(StepFn.from_uniform(v.tolist()) for v in _dual_rows(spec, n)))


def involution_check(spec: NormSpec, x) -> tuple[float, float]:
    """The norm of x and its double dual, which the duality involution equates.

    The dual ball's rows come from the primal ball's vertices, so the double
    dual is the same LP over those rows.
    """
    xstar = sorted_magnitudes(x)
    primal = norm_vec(spec, xstar)
    double_dual, _ = _rows_dual(_dual_rows(spec, xstar.size) / xstar.size, xstar)
    return primal, double_dual


def representation_check(spec: SupOf, T: np.ndarray) -> tuple[float, float]:
    """Norm of T versus its best weight-norm value over the dual ball.

    The right-hand side enumerates the vertices of the dual unit ball (on the
    ordered cone) and pairs each against the s-number profile of T; the
    maximum must reproduce the norm itself.
    """
    if not isinstance(spec, SupOf):
        raise UnsupportedSpecError("representation check expects a SupOf spec")
    n = T.shape[0]
    lhs = norm_mat(spec, T)
    dual_verts = ball_vertices(_dual_rows(spec, n) / n, n)
    s = linalg.s_numbers(T)
    rhs = max(float(w @ s) / n for w in dual_verts)
    return lhs, rhs


def holder_check(
    spec: NormSpec, S: np.ndarray, T: np.ndarray
) -> tuple[float, float]:
    """Trace norm of ST versus the product |||S||| |||T|||^#."""
    lhs = linalg.trace_norm(S @ T)
    rhs = norm_mat(spec, S) * dual_mat(spec, T)
    return lhs, rhs
