"""Norm families on step functions, vectors, and matrices.

Every norm here is a symmetric gauge norm of the nonincreasing rearrangement
of its argument. Every kind but ``Lp`` is polyhedral, a finite case of the
representation theorem: the largest of its Ky Fan cuts (c, t), each c times
the Ky Fan t-norm (t = 0 is the operator norm), and of its weights' pairings
with the rearranged argument. Operator is the cut (1, 0), so the JSON specs
``kyfan`` at t = 0 and ``kyfanzero`` parse to it. Trace is (1, 1),
TBracket(t) is (t, 0) and (1, 1), a CSup has one cut per piece with c > 0,
at the piece's left end, and Weight and SupOf are weights.
``spec_rows`` turns these pieces into one read-only row matrix, exactly
against the grid k/n and cached on (spec, n); vectors (sorted magnitudes) and
matrices (s-numbers) are evaluated through it, and the dual LP and vertex
enumeration in ``duality`` share it. ``Lp`` has a closed form.

``norm_step`` is the exact reference for general step functions: it evaluates
the same pieces through the ``Fraction`` rearrangement and pairing of
``stepfn`` and is not on the vector or matrix path. The tests hold the two
routes together. Random weights and the axiom checker of the property runs
are in ``proptest``.
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
class Weight:
    """Pairing of the rearranged argument against a nonincreasing weight.

    Any nonincreasing nonnegative step weight is accepted; weights of mean 1
    give normalized norms.
    """

    f: StepFn

    def __post_init__(self) -> None:
        check_weight_values(self.f.values)


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


NormSpec = Operator | Trace | Lp | KyFan | Weight | SupOf | TBracket | CSup


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


def _pieces(
    spec: NormSpec,
) -> tuple[list[tuple[float, Fraction | float]], tuple[StepFn, ...]]:
    """A polyhedral spec as its Ky Fan cuts [(c, t), ...] and its weights.

    A CSup piece [lo, hi) gives the one cut (c, lo): K_t falls as t grows.
    """
    if isinstance(spec, Operator):
        return [(1.0, 0)], ()
    if isinstance(spec, Trace):
        return [(1.0, 1)], ()
    if isinstance(spec, KyFan):
        return [(1.0, spec.t)], ()
    if isinstance(spec, Weight):
        return [], (spec.f,)
    if isinstance(spec, SupOf):
        return [], spec.fs
    if isinstance(spec, TBracket):
        return [(float(spec.t), 0), (1.0, 1)], ()
    if isinstance(spec, CSup):
        return [(cv, lo) for lo, _, cv in spec.c.intervals() if cv > 0.0], ()
    raise UnsupportedSpecError(f"{type(spec).__name__} has no polyhedral rows")


@lru_cache(maxsize=256)
def spec_rows(spec: NormSpec, n: int) -> np.ndarray:
    """Linear pieces of a polyhedral norm on the ordered cone in R^n.

    On nonincreasing y >= 0 the norm of y is the largest entry of
    ``spec_rows(spec, n) @ y``. The result is one read-only (rows, n) array,
    cached on (spec, n) and shared by every caller.
    """
    cuts, weights = _pieces(spec)
    R = np.array(
        [c * _kyfan_row(t, n) for c, t in cuts] + [_weight_row(w, n) for w in weights]
    )
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
    if isinstance(spec, Lp):
        lengths = [float(hi - lo) for lo, hi, _ in g.intervals()]
        return power_mean(np.array(g.values), float(spec.p), lengths)
    cuts, weights = _pieces(spec)
    values = [c * _kyfan_of_rearranged(g, t) for c, t in cuts]
    return finite_value(max(values + [pairing(w, g) for w in weights]), "norm")


def finite_value(value: float, what: str) -> float:
    """value, or ``FloatingPointError`` naming what is past the float range."""
    if not math.isfinite(value):
        raise FloatingPointError(f"{what} overflows the float range")
    return value


def sorted_magnitudes(x) -> np.ndarray:
    """|x| in nonincreasing order, for a nonempty vector of finite entries.

    The descending sort puts NaN first and inf next, so the first entry
    alone decides finiteness: a NaN or inf entry raises ``ValueError``, and a
    finite one whose modulus overflows ``FloatingPointError``.
    """
    v = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    if v.size == 0:
        raise ValueError("empty vector has no norm")
    xstar = np.sort(np.abs(v))[::-1]
    if not math.isfinite(xstar[0]):
        if np.isfinite(v).all():
            raise FloatingPointError("vector magnitudes overflow the float range")
        raise ValueError("values must be finite")
    return xstar


def _norm_of_ordered(spec: NormSpec, xstar: np.ndarray) -> float:
    """The norm of a nonincreasing nonnegative vector, through its rows."""
    if isinstance(spec, Lp):
        return power_mean(xstar, float(spec.p))
    return finite_value(float(np.max(spec_rows(spec, xstar.size) @ xstar)), "norm")


def norm_vec(spec: NormSpec, x) -> float:
    """Evaluate the norm on a vector under the normalized counting trace."""
    return _norm_of_ordered(spec, sorted_magnitudes(x))


def norm_mat(spec: NormSpec, T: np.ndarray) -> float:
    """Evaluate the norm on a matrix through its s-numbers."""
    return _norm_of_ordered(spec, linalg.s_numbers(T))


def identity_norm(spec: NormSpec, n: int) -> float:
    return norm_vec(spec, np.ones(n))


def weight_norm_as_kyfan_combo(f: StepFn) -> list[tuple[float, Fraction]]:
    """Rewrite a uniform-partition weight norm as a Ky Fan combination.

    For a weight with values a_1 >= ... >= a_n on the uniform partition the
    weight norm equals sum_k k(a_k - a_{k+1})/n times the Ky Fan (k/n)-norm
    (a_{n+1} = 0). Zero coefficients are dropped.
    """
    step = Weight(f).f
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
        if kind in ("operator", "kyfanzero"):
            return Operator()
        if kind == "trace":
            return Trace()
        if kind == "lp":
            return Lp(obj["p"])
        if kind == "kyfan":
            t = _as_param(obj["t"])
            return Operator() if t == 0 else KyFan(t)
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
