"""Norm families on step functions, vectors, and matrices.

Every norm here is a symmetric gauge norm of the nonincreasing rearrangement
of its argument. Every kind but ``Lp`` is polyhedral: on the ordered cone
y_1 >= ... >= y_n >= 0 it is the largest of a few linear functionals r . y,
the weighted Ky Fan norms of the representation theorem. ``spec_rows``
builds those functionals for one dimension as a single read-only row matrix,
exactly against the grid k/n and cached on (spec, n); vectors (sorted
magnitudes) and matrices (s-numbers) are evaluated through it, and the dual
LP and vertex enumeration in ``duality`` share it. ``Lp`` has a closed form.

``norm_step`` is the exact reference for general step functions: it works
through the ``Fraction`` rearrangement and pairing of ``stepfn`` and is not on
the vector or matrix path. The tests hold the two routes together. Random
weights and the axiom checker of the property runs are in ``proptest``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .stepfn import (
    VALUE_TOL,
    RationalLike,
    StepFn,
    WeightFn,
    as_fraction,
    check_weight_values,
    pairing,
    partial_integral,
    rearrange,
)


def _as_param(x: RationalLike) -> Fraction | float:
    """Keep exact rationals exact; pass floats through unchanged."""
    if isinstance(x, bool):
        raise ValueError(f"parameter {x!r} is a boolean, not a number")
    if isinstance(x, (Fraction, int, str)):
        return as_fraction(x)
    return float(x)


@dataclass(frozen=True)
class Operator:
    """Largest s-number."""


@dataclass(frozen=True)
class Trace:
    """Mean of the s-numbers (normalized trace of |T|)."""


@dataclass(frozen=True)
class Lp:
    """(integral of |T|^p under the normalized trace)^(1/p), p >= 1."""

    p: Fraction | float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _as_param(self.p))
        # Compared exactly, so a Fraction past the float range cannot overflow.
        if not 1 <= self.p <= sys.float_info.max:
            raise ValueError(f"Lp needs finite p >= 1, got {self.p}")


@dataclass(frozen=True)
class KyFan:
    """Average of the s-number profile over [0, t], 0 < t <= 1."""

    t: Fraction | float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _as_param(self.t))
        if not 0 < self.t <= 1:
            raise ValueError(f"Ky Fan parameter {self.t} outside (0, 1]")


@dataclass(frozen=True)
class KyFanZero:
    """The t -> 0 limit of the Ky Fan family: the operator norm."""


@dataclass(frozen=True)
class Weight:
    """Pairing of the rearranged argument against a nonincreasing weight.

    Any nonincreasing nonnegative step weight is accepted; weights of mean 1
    give normalized norms.
    """

    f: StepFn

    def __post_init__(self) -> None:
        f = self.f.inner if isinstance(self.f, WeightFn) else self.f
        object.__setattr__(self, "f", f)
        check_weight_values(f.values)


@dataclass(frozen=True)
class SupOf:
    """Pointwise supremum of finitely many weight norms."""

    fs: tuple[StepFn, ...]

    def __post_init__(self) -> None:
        members = tuple(Weight(f).f for f in self.fs)
        if not members:
            raise ValueError("supremum needs at least one weight")
        object.__setattr__(self, "fs", members)


@dataclass(frozen=True)
class TBracket:
    """max(t * operator norm, trace norm), 1/2 <= t <= 1."""

    t: Fraction | float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _as_param(self.t))
        if not Fraction(1, 2) <= self.t <= 1:
            raise ValueError(f"bracket parameter {self.t} outside [1/2, 1]")


@dataclass(frozen=True)
class CSup:
    """sup over t of c(t) times the Ky Fan t-norm, for a step profile c.

    c must take values in [0, 1] and attain 1 on some interval, which makes
    the norm normalized.
    """

    c: StepFn

    def __post_init__(self) -> None:
        vals = self.c.values
        if any(v < -VALUE_TOL or v > 1 + VALUE_TOL for v in vals):
            raise ValueError("profile values must lie in [0, 1]")
        if max(vals) < 1 - VALUE_TOL:
            raise ValueError("profile must attain the value 1")


NormSpec = Operator | Trace | Lp | KyFan | KyFanZero | Weight | SupOf | TBracket | CSup


class UnsupportedSpecError(ValueError):
    """The requested computation is not available for this norm kind."""


def _kyfan_row(t: Fraction | float, n: int) -> np.ndarray:
    """Coefficients r with r . y = Ky Fan t-norm of the ordered vector y.

    With t = p/q exactly, the whole cells below t are the first (p*n)//q;
    each gets q/(n*p) and the cut cell its covered share, both as correctly
    rounded integer ratios. t = 0 is the operator norm.
    """
    r = np.zeros(n)
    if t == 0:
        r[0] = 1.0
        return r
    tq = as_fraction(t)
    p, q = tq.numerator, tq.denominator
    k = (p * n) // q
    r[:k] = q / (n * p)
    if k < n:
        r[k] = (p * n - k * q) / (n * p)
    return r


def _weight_row(w: StepFn, n: int) -> np.ndarray:
    """Coefficients r with r . y = pairing of w against y on the n-grid.

    r_i is the integral of w over [i/n, (i+1)/n). A piece [a/b, c/d) starts
    in cell (a*n)//b and ends in cell (c*n)//d; it adds its value times the
    covered length (an integer ratio) to those two cells and value/n to every
    cell between them, so the row costs O(n + pieces).
    """
    r = np.zeros(n)
    for lo, hi, v in w.intervals():
        a, b = lo.numerator, lo.denominator
        c, d = hi.numerator, hi.denominator
        i, j = (a * n) // b, (c * n) // d
        if i == j:
            r[i] += v * ((c * b - a * d) / (b * d))
            continue
        r[i] += v * (((i + 1) * b - a * n) / (b * n))
        r[i + 1 : j] += v / n
        if j < n:
            r[j] += v * ((c * n - j * d) / (d * n))
    return r


@lru_cache(maxsize=256)
def spec_rows(spec: NormSpec, n: int) -> np.ndarray:
    """Linear pieces of a polyhedral norm on the ordered cone in R^n.

    On nonincreasing y >= 0 the norm of y is the largest entry of
    ``spec_rows(spec, n) @ y``. The result is one read-only (rows, n) array,
    cached on (spec, n) and shared by every caller.
    """
    if isinstance(spec, (Operator, KyFanZero)):
        rows = [_kyfan_row(0, n)]
    elif isinstance(spec, Trace):
        rows = [np.full(n, 1.0 / n)]
    elif isinstance(spec, KyFan):
        rows = [_kyfan_row(spec.t, n)]
    elif isinstance(spec, Weight):
        rows = [_weight_row(spec.f, n)]
    elif isinstance(spec, SupOf):
        rows = [_weight_row(w, n) for w in spec.fs]
    elif isinstance(spec, TBracket):
        rows = [float(spec.t) * _kyfan_row(0, n), np.full(n, 1.0 / n)]
    elif isinstance(spec, CSup):
        rows = []
        for lo, hi, cv in spec.c.intervals():
            if cv <= 0.0:
                continue
            rows.append(cv * _kyfan_row(lo, n))
            rows.append(cv * _kyfan_row(hi, n))
    else:
        raise UnsupportedSpecError(f"{type(spec).__name__} has no polyhedral rows")
    R = np.array(rows)
    R.flags.writeable = False
    return R


def power_mean(x: np.ndarray, p: float, weights=None) -> float:
    """(mean of x**p)**(1/p) for x >= 0, optionally weighted.

    The entries are divided by the largest one first, so x**p neither
    overflows on huge entries nor flushes to zero on tiny ones; entries far
    below the largest underflow to an honest zero.
    """
    top = float(np.max(x))
    if top == 0.0:
        return 0.0
    return top * float(np.average((x / top) ** p, weights=weights) ** (1.0 / p))


def _kyfan_of_rearranged(g: StepFn, t: Fraction | float) -> float:
    if t == 0:
        return g.values[0]
    return partial_integral(g, t) / float(t)


def norm_step(spec: NormSpec, f: StepFn) -> float:
    """Evaluate the norm on a step function.

    This is the exact reference route: the rearrangement keeps rational
    level-set masses and the pairings integrate over merged breakpoints.
    """
    g = rearrange(f.abs())
    return _norm_of_rearranged(spec, g)


def _norm_of_rearranged(spec: NormSpec, g: StepFn) -> float:
    if isinstance(spec, (Operator, KyFanZero)):
        return g.values[0]
    if isinstance(spec, Trace):
        return g.integral()
    if isinstance(spec, Lp):
        lengths = [float(hi - lo) for lo, hi, _ in g.intervals()]
        return power_mean(np.array(g.values), float(spec.p), lengths)
    if isinstance(spec, KyFan):
        return _kyfan_of_rearranged(g, spec.t)
    if isinstance(spec, Weight):
        return pairing(spec.f, g)
    if isinstance(spec, SupOf):
        return max(pairing(w, g) for w in spec.fs)
    if isinstance(spec, TBracket):
        return max(float(spec.t) * g.values[0], g.integral())
    if isinstance(spec, CSup):
        best = 0.0
        for lo, hi, cv in spec.c.intervals():
            # the Ky Fan value is nonincreasing in t, so the supremum over
            # [lo, hi] sits at lo; the right endpoint is evaluated as well to
            # guard the right-continuity convention of the profile.
            best = max(
                best,
                cv * _kyfan_of_rearranged(g, lo),
                cv * _kyfan_of_rearranged(g, hi),
            )
        return best
    raise TypeError(f"unknown norm spec {spec!r}")


def sorted_magnitudes(x) -> np.ndarray:
    """|x| in nonincreasing order, for a nonempty vector of finite entries.

    The descending sort puts NaN first and inf next, so the first entry
    alone decides finiteness.
    """
    v = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    if v.size == 0:
        raise ValueError("empty vector has no norm")
    xstar = np.sort(np.abs(v))[::-1]
    if not math.isfinite(xstar[0]):
        raise ValueError("values must be finite")
    return xstar


def _norm_of_ordered(spec: NormSpec, xstar: np.ndarray) -> float:
    """The norm of a nonincreasing nonnegative vector, through its rows."""
    if isinstance(spec, Lp):
        return power_mean(xstar, float(spec.p))
    return float(np.max(spec_rows(spec, xstar.size) @ xstar))


def norm_vec(spec: NormSpec, x) -> float:
    """Evaluate the norm on a vector under the normalized counting trace."""
    return _norm_of_ordered(spec, sorted_magnitudes(x))


def norm_mat(spec: NormSpec, T: np.ndarray) -> float:
    """Evaluate the norm on a matrix through its s-numbers."""
    s = linalg.s_numbers(T)
    if not np.all(np.isfinite(s)):
        raise ValueError("values must be finite")
    return _norm_of_ordered(spec, s)


def identity_norm(spec: NormSpec, n: int) -> float:
    return norm_vec(spec, np.ones(n))


def weight_norm_as_kyfan_combo(
    f: StepFn | WeightFn,
) -> list[tuple[float, Fraction]]:
    """Rewrite a uniform-partition weight norm as a Ky Fan combination.

    For a weight with values a_1 >= ... >= a_n on the uniform partition the
    weight norm equals sum_k k(a_k - a_{k+1})/n times the Ky Fan (k/n)-norm
    (a_{n+1} = 0). Zero coefficients are dropped.
    """
    step = f.inner if isinstance(f, WeightFn) else Weight(f).f
    if not step.is_uniform():
        raise ValueError("weight must sit on a uniform partition; refine first")
    a = list(step.values) + [0.0]
    n = len(step.values)
    combo = []
    for k in range(1, n + 1):
        coeff = k * (a[k - 1] - a[k]) / n
        if coeff != 0.0:
            combo.append((coeff, Fraction(k, n)))
    return combo


# ---------------------------------------------------------------------------
# JSON (de)serialization of norm specs


def spec_to_json(spec: NormSpec) -> dict:
    if isinstance(spec, Operator):
        return {"kind": "operator"}
    if isinstance(spec, Trace):
        return {"kind": "trace"}
    if isinstance(spec, KyFanZero):
        return {"kind": "kyfan", "t": 0}
    if isinstance(spec, Lp):
        return {"kind": "lp", "p": _param_json(spec.p)}
    if isinstance(spec, KyFan):
        return {"kind": "kyfan", "t": _param_json(spec.t)}
    if isinstance(spec, Weight):
        return {"kind": "weight", "f": spec.f.to_json()}
    if isinstance(spec, SupOf):
        return {"kind": "supof", "fs": [w.to_json() for w in spec.fs]}
    if isinstance(spec, TBracket):
        return {"kind": "tbracket", "t": _param_json(spec.t)}
    if isinstance(spec, CSup):
        return {"kind": "csup", "c": spec.c.to_json()}
    raise TypeError(f"unknown norm spec {spec!r}")


def _param_json(x: Fraction | float):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    return x


def spec_from_json(obj: dict) -> NormSpec:
    try:
        kind = obj["kind"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"norm spec needs a 'kind' field: {exc}") from exc
    try:
        if kind == "operator":
            return Operator()
        if kind == "trace":
            return Trace()
        if kind == "lp":
            return Lp(obj["p"])
        if kind == "kyfan":
            t = _as_param(obj["t"])
            return KyFanZero() if t == 0 else KyFan(t)
        if kind == "kyfanzero":
            return KyFanZero()
        if kind == "weight":
            return Weight(StepFn.from_json(obj["f"]))
        if kind == "supof":
            return SupOf(tuple(StepFn.from_json(f) for f in obj["fs"]))
        if kind == "tbracket":
            return TBracket(obj["t"])
        if kind == "csup":
            return CSup(StepFn.from_json(obj["c"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind!r} spec: {exc}") from exc
    raise ValueError(f"unknown norm kind {kind!r}")
