"""Real step functions on [0,1] with exact rational breakpoints.

Interval endpoints, lengths, and integration bounds are exact
``fractions.Fraction`` arithmetic; the values carried on the intervals are
plain floats. This split keeps every measure-theoretic quantity (level-set
masses, partial integration limits) exact, so floating error only ever enters
through value arithmetic.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Iterator, Sequence

#: absolute tolerance for comparing interval values
VALUE_TOL = 1e-12

RationalLike = Fraction | int | float | str


def as_fraction(x: RationalLike) -> Fraction:
    """Convert breakpoints/parameters to an exact Fraction.

    Strings accept both "num/den" and decimal forms; floats convert via their
    exact binary value.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {x!r}") from exc
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"breakpoint must be finite, got {x!r}")
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class StepFn:
    """A step function: ``values[i]`` on [breakpoints[i], breakpoints[i+1]).

    The last interval is closed at 1. Breakpoints are strictly increasing
    exact rationals running from 0 to 1; there is at least one interval.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        bps = tuple(as_fraction(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)
        if len(bps) < 2 or len(vals) != len(bps) - 1:
            raise ValueError("need m+1 breakpoints for m >= 1 values")
        if bps[0] != 0 or bps[-1] != 1:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(not math.isfinite(v) for v in vals):
            raise ValueError("values must be finite")

    @cached_property
    def _hash(self) -> int:
        return hash((self.breakpoints, self.values))

    def __hash__(self) -> int:
        # Specs holding step functions key the cached row matrices, and
        # hashing Fractions is slow, so the hash is computed once.
        return self._hash

    @classmethod
    def from_uniform(cls, values: Sequence[float]) -> "StepFn":
        """Step function on the uniform partition {k/n}."""
        n = len(values)
        if n == 0:
            raise ValueError("need at least one value")
        bps = tuple(Fraction(k, n) for k in range(n + 1))
        return cls(bps, tuple(float(v) for v in values))

    def intervals(self) -> Iterator[tuple[Fraction, Fraction, float]]:
        """Yield (lo, hi, value) triples."""
        for i, v in enumerate(self.values):
            yield self.breakpoints[i], self.breakpoints[i + 1], v

    def __call__(self, x: RationalLike) -> float:
        q = as_fraction(x)
        if q < 0 or q > 1:
            raise ValueError(f"argument {x!r} outside [0,1]")
        # the value on the rightmost breakpoint <= q; the last interval's at q = 1
        return self.values[min(bisect_right(self.breakpoints, q), len(self.values)) - 1]

    def integral(self) -> float:
        return float(sum(float(hi - lo) * v for lo, hi, v in self.intervals()))

    def map_values(self, fn) -> "StepFn":
        return StepFn(self.breakpoints, tuple(fn(v) for v in self.values))

    def abs(self) -> "StepFn":
        return self.map_values(abs)

    def scale(self, c: float) -> "StepFn":
        return self.map_values(lambda v: c * v)

    def is_uniform(self) -> bool:
        n = len(self.values)
        return all(b == Fraction(k, n) for k, b in enumerate(self.breakpoints))

    def to_json(self) -> dict:
        return {
            "breakpoints": [str(b) for b in self.breakpoints],
            "values": list(self.values),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StepFn":
        try:
            bps, vals = obj["breakpoints"], obj["values"]
            if any(isinstance(v, bool) for v in (*bps, *vals)):
                raise ValueError("breakpoints and values must be numbers, not booleans")
            bps = tuple(as_fraction(b) for b in bps)
            vals = tuple(float(v) for v in vals)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed step function object: {exc}") from exc
        return cls(bps, vals)


def check_weight_values(vals: Sequence[float]) -> None:
    """Reject negative or rising step values, beyond VALUE_TOL times the largest."""
    tol = VALUE_TOL * max(map(abs, vals), default=0.0)
    if any(v < -tol for v in vals):
        raise ValueError("weight values must be nonnegative")
    if any(nxt > cur + tol for cur, nxt in zip(vals, vals[1:])):
        raise ValueError("weight values must be nonincreasing")


def refine(f: StepFn, g: StepFn) -> tuple[StepFn, StepFn]:
    """Re-express f and g on their merged breakpoints, each read at left ends."""
    merged = tuple(sorted(set(f.breakpoints) | set(g.breakpoints)))
    return tuple(StepFn(merged, tuple(map(h, merged[:-1]))) for h in (f, g))


def rearrange(f: StepFn) -> StepFn:
    """The nonincreasing rearrangement f* of f.

    Level sets keep their exact rational masses; they are laid out left to
    right in decreasing value order. Each run of equal values (0.0 and -0.0
    included) coalesces into one level set that keeps the run's first value,
    which makes the output canonical.
    """
    pieces = sorted(((v, hi - lo) for lo, hi, v in f.intervals()), key=lambda p: -p[0])
    runs = [(v, sum(p[1] for p in run)) for v, run in groupby(pieces, itemgetter(0))]
    vals, lengths = zip(*runs)
    return StepFn(tuple(accumulate(lengths, initial=Fraction(0))), vals)


def equimeasurable(f: StepFn, g: StepFn) -> bool:
    """Whether f and g have identical rearrangements, up to VALUE_TOL relative."""
    rf, rg = refine(rearrange(f), rearrange(g))
    tol = VALUE_TOL * max(map(abs, rf.values + rg.values))
    return all(abs(a - b) <= tol for a, b in zip(rf.values, rg.values))


def pairing(f: StepFn, g: StepFn) -> float:
    """The pairing integral of f against g over [0,1]."""
    rf, rg = refine(f, g)
    return sum(
        float(hi - lo) * fv * gv for (lo, hi, fv), gv in zip(rf.intervals(), rg.values)
    )


def partial_integral(f: StepFn, t: RationalLike) -> float:
    """The head integral of f from 0 to t, for t in (0, 1].

    t is located among the rational breakpoints exactly (floats convert to
    their exact binary rational), so the result is piecewise-linear in t with
    no discretization error in the measure coordinate.
    """
    tq = as_fraction(t)
    if not 0 < tq <= 1:
        raise ValueError(f"integration limit {t!r} outside (0, 1]")
    acc = 0.0
    for lo, hi, v in f.intervals():
        if tq <= lo:
            break
        acc += float(min(hi, tq) - lo) * v
    return acc
