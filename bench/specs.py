"""Norm spec descriptions shared by the workloads and the references.

A description is a plain tuple that the benchmark draws from its own seeded
generator. ``build`` turns it into a gaugenorm spec object; the reference
code in ``reference.py`` reads the same tuple and never the spec object, so
the two sides share inputs but no computation.

    ("operator",)                 ("trace",)
    ("kyfan", t)                  ("tbracket", t)
    ("lp", p)
    ("weight", bps, vals)         a nonincreasing step weight
    ("supof", (bps, vals), ...)   supremum of weight norms
    ("csup", bps, vals)           sup over t of c(t) * Ky Fan t-norm

Breakpoints ``bps`` are Fractions running from 0 to 1 with dyadic
denominators, so their float values are exact.
"""

from __future__ import annotations

from fractions import Fraction

import gaugenorm as gn
import numpy as np


def build(desc):
    """The gaugenorm spec object for a description."""
    kind = desc[0]
    if kind == "operator":
        return gn.Operator()
    if kind == "trace":
        return gn.Trace()
    if kind == "kyfan":
        return gn.KyFan(desc[1])
    if kind == "tbracket":
        return gn.TBracket(desc[1])
    if kind == "lp":
        return gn.Lp(desc[1])
    if kind == "weight":
        return gn.Weight(gn.StepFn(desc[1], desc[2]))
    if kind == "supof":
        return gn.SupOf(tuple(gn.StepFn(b, v) for b, v in desc[1:]))
    if kind == "csup":
        return gn.CSup(gn.StepFn(desc[1], desc[2]))
    raise ValueError(f"unknown description {kind!r}")


def _breakpoints(rng: np.random.Generator, m: int, denom: int) -> tuple:
    """0, m-1 distinct interior multiples of 1/denom in increasing order, 1."""
    inner = np.sort(rng.choice(np.arange(1, denom), size=m - 1, replace=False))
    return (Fraction(0), *(Fraction(int(k), denom) for k in inner), Fraction(1))


def _lengths(bps) -> np.ndarray:
    return np.diff(np.array([float(b) for b in bps]))


def weight_parts(rng: np.random.Generator, m: int, denom: int, mean: float = 1.0):
    """A nonincreasing positive step weight with m pieces and the given mean."""
    bps = _breakpoints(rng, m, denom)
    vals = np.sort(rng.uniform(0.05, 1.0, size=m))[::-1]
    vals = vals * (mean / float(vals @ _lengths(bps)))
    return bps, tuple(float(v) for v in vals)


def weight(rng, m, denom):
    return ("weight", *weight_parts(rng, m, denom))


def supof(rng, members: int, m: int, denom: int):
    """Normalized supremum: the first member has mean 1, the others less."""
    parts = [weight_parts(rng, m, denom)]
    parts += [
        weight_parts(rng, m, denom, mean=float(rng.uniform(0.6, 1.0)))
        for _ in range(members - 1)
    ]
    return ("supof", *parts)


def csup(rng, m: int, denom: int):
    """A profile c with values in [0.2, 1] that attains 1 on one piece."""
    bps = _breakpoints(rng, m, denom)
    vals = rng.uniform(0.2, 1.0, size=m)
    vals[rng.integers(m)] = 1.0
    return ("csup", bps, tuple(float(v) for v in vals))


def kyfan(rng, denom: int):
    return ("kyfan", Fraction(int(rng.integers(1, denom + 1)), denom))


def lp(rng):
    return ("lp", float(rng.uniform(1.2, 4.0)))


def _jitter_weight(bps, vals, rng):
    old = np.array(vals)
    new = np.sort(old * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, old.size)))[::-1]
    lengths = _lengths(bps)
    new *= float(old @ lengths) / float(new @ lengths)
    return bps, tuple(float(v) for v in new)


def jitter(desc, rng: np.random.Generator):
    """A new description of the same shape as desc.

    Breakpoints and piece counts stay; every value moves by up to 1 %, a Ky
    Fan t moves within its 1/denom cell and an Lp p by up to 0.001. A call's
    cost follows the shape, so an operation costs the same in every round,
    while no spec equals one drawn before it.
    """
    kind = desc[0]
    if kind == "weight":
        return ("weight", *_jitter_weight(desc[1], desc[2], rng))
    if kind == "supof":
        return ("supof", *(_jitter_weight(b, v, rng) for b, v in desc[1:]))
    if kind == "csup":
        old = np.array(desc[2])
        new = old * (1.0 - 0.01 * rng.random(old.size))
        new[old == 1.0] = 1.0
        return ("csup", desc[1], tuple(float(v) for v in new))
    if kind == "kyfan":
        t = desc[1]
        cells = 1024
        return ("kyfan", Fraction(t.numerator * cells - int(rng.integers(cells)), t.denominator * cells))
    if kind == "lp":
        return ("lp", desc[1] + float(rng.uniform(-1e-3, 1e-3)))
    raise ValueError(f"no jitter for {kind!r}")
