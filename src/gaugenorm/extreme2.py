"""Norm profiles on 2x2 matrices and their extreme-point decompositions.

A normalized unitarily invariant norm on M2 is determined by its profile
f(s) = |||diag(1, s)|||, a convex nondecreasing function squeezed between
(1+s)/2 and 1. The extreme profiles are max(t, (1+s)/2) for t in [1/2, 1],
and every piecewise-linear admissible profile is a unique finite convex
combination of them; ``decompose`` and ``reconstruct`` realize the two
directions, and ``lp_density_check`` verifies the integral form of the same
decomposition for the Lp family.

``profile_of`` gives a polyhedral spec's profile exactly, as the upper
envelope of its rows on M2; only Lp profiles are a closed form. Random
admissible profiles and the extremality check of the bracket norms are in
``proptest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .norms import Lp, NormSpec, spec_rows
from .stepfn import as_fraction

ADMISSIBLE_TOL = 1e-12
ATOM_TOL = 1e-13


@dataclass(frozen=True)
class Profile:
    """A norm profile: piecewise linear ("pl") or the Lp closed form ("lp")."""

    kind: str
    knots: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    p: float = 0.0

    @classmethod
    def piecewise_linear(cls, knots, values) -> "Profile":
        ks = tuple(float(k) for k in knots)
        vs = tuple(float(v) for v in values)
        if len(ks) != len(vs) or len(ks) < 2:
            raise ValueError("need matching knot/value lists with length >= 2")
        if ks[0] != 0.0 or ks[-1] != 1.0:
            raise ValueError("profile knots must run from 0 to 1")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("profile knots must be strictly increasing")
        if any(not math.isfinite(v) for v in vs):
            raise ValueError("profile values must be finite")
        return cls(kind="pl", knots=ks, values=vs)

    @classmethod
    def lp(cls, p: float) -> "Profile":
        if not p >= 1:
            raise ValueError(f"Lp profile needs p >= 1, got {p}")
        return cls(kind="lp", p=float(p))

    def __call__(self, s: float) -> float:
        if not 0 <= s <= 1:
            raise ValueError(f"profile argument {s} outside [0,1]")
        if self.kind == "lp":
            return ((1.0 + s**self.p) / 2.0) ** (1.0 / self.p)
        ks, vs = self.knots, self.values
        i = max(0, min(np.searchsorted(ks, s, side="right") - 1, len(ks) - 2))
        w = (s - ks[i]) / (ks[i + 1] - ks[i])
        return (1.0 - w) * vs[i] + w * vs[i + 1]

    def slopes(self) -> list[float]:
        if self.kind != "pl":
            raise ValueError("slopes are defined for piecewise-linear profiles")
        return [
            (v1 - v0) / (k1 - k0)
            for k0, k1, v0, v1 in zip(
                self.knots, self.knots[1:], self.values, self.values[1:]
            )
        ]

    def to_json(self) -> dict:
        if self.kind == "lp":
            return {"p": self.p}
        return {"knots": list(self.knots), "values": list(self.values)}

    @classmethod
    def from_json(cls, obj: dict) -> "Profile":
        try:
            if "p" in obj:
                return cls.lp(float(obj["p"]))
            knots = [float(as_fraction(k)) for k in obj["knots"]]
            values = [float(v) for v in obj["values"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed profile object: {exc}") from exc
        return cls.piecewise_linear(knots, values)


@dataclass(frozen=True)
class AtomicMeasure:
    """A probability measure on [1/2, 1] with finitely many atoms."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        merged: dict[float, float] = {}
        for t, w in self.atoms:
            t, w = float(t), float(w)
            if not 0.5 - ADMISSIBLE_TOL <= t <= 1.0 + ADMISSIBLE_TOL:
                raise ValueError(f"atom location {t} outside [1/2, 1]")
            if w <= 0:
                raise ValueError(f"atom weight {w} must be positive")
            merged[t] = merged.get(t, 0.0) + w
        atoms = tuple(sorted(merged.items()))
        object.__setattr__(self, "atoms", atoms)
        total = sum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"atom weights sum to {total}, not 1")

    def to_json(self) -> dict:
        return {"atoms": [{"t": t, "w": w} for t, w in self.atoms]}

    @classmethod
    def from_json(cls, obj: dict) -> "AtomicMeasure":
        try:
            atoms = tuple((float(a["t"]), float(a["w"])) for a in obj["atoms"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed measure object: {exc}") from exc
        return cls(atoms)


def profile_of(spec: NormSpec) -> Profile:
    """The profile s -> |||diag(1, s)||| of a norm spec on M2.

    Lp specs return the closed form. Every other spec is polyhedral, so its
    profile is the upper envelope of the lines r0 + r1 s, one per row of
    ``spec_rows(spec, 2)``: exact, with knots only where the envelope bends.
    """
    if isinstance(spec, Lp):
        return Profile.lp(float(spec.p))
    R = spec_rows(spec, 2)
    knots = {0.0, 1.0}
    for (a0, a1), (b0, b1) in combinations(R.tolist(), 2):
        if a1 != b1 and 0.0 < (b0 - a0) / (a1 - b1) < 1.0:
            knots.add((b0 - a0) / (a1 - b1))
    ks = sorted(knots)
    vals = np.max(R @ np.array([np.ones(len(ks)), ks]), axis=0).tolist()
    # Between two candidate knots the envelope is one line. Rows that meet
    # within roundoff (two c = 1 Ky Fan cuts of a CSup both pass through
    # (1, 1)) cross at a knot that bends nothing and would leave a segment
    # too short for its slope to mean anything, so a knot stays only where
    # the envelope lies clearly below the chord of its neighbours.
    kept_k, kept_v = [0.0], [vals[0]]
    for i in range(1, len(ks) - 1):
        w = (ks[i] - kept_k[-1]) / (ks[i + 1] - kept_k[-1])
        if (1.0 - w) * kept_v[-1] + w * vals[i + 1] - vals[i] > ADMISSIBLE_TOL:
            kept_k.append(ks[i])
            kept_v.append(vals[i])
    return Profile.piecewise_linear(kept_k + [1.0], kept_v + [vals[-1]])


def _slope_tols(p: Profile) -> list[float]:
    """Per-segment tolerance for slope comparisons.

    A slope carries roundoff of a few ulp of the values divided by the
    segment length, so checks against it cannot be sharper than that on
    short segments (an atom near t=1 shrinks the last segment at will).
    """
    return [
        max(ADMISSIBLE_TOL, 16.0 * math.ulp(1.0) / (k1 - k0))
        for k0, k1 in zip(p.knots, p.knots[1:])
    ]


def admissibility_violations(p: Profile) -> list[str]:
    """Which profile invariants fail, as human-readable names."""
    if p.kind == "lp":
        return []
    out = []
    slopes = p.slopes()
    tols = _slope_tols(p)
    if any(s < -tol for s, tol in zip(slopes, tols)):
        out.append("nondecreasing")
    if any(
        b < a - (ta + tb)
        for a, b, ta, tb in zip(slopes, slopes[1:], tols, tols[1:])
    ):
        out.append("convex")
    if abs(p.values[-1] - 1.0) > ADMISSIBLE_TOL:
        out.append("value 1 at s=1")
    if slopes and slopes[-1] > 0.5 + tols[-1]:
        out.append("left derivative at 1 exceeds 1/2")
    for k, v in zip(p.knots, p.values):
        if v < (1.0 + k) / 2.0 - ADMISSIBLE_TOL or v > 1.0 + ADMISSIBLE_TOL:
            out.append("sandwich between (1+s)/2 and 1")
            break
    return out


def check_admissible(p: Profile) -> bool:
    """Whether p is the profile of some normalized norm on M2.

    The two equivalent characterizations (sandwich between (1+s)/2 and 1
    versus endpoint conditions f(1)=1, f'(1-) <= 1/2, for convex
    nondecreasing f) are both evaluated; admissibility requires the
    conjunction, so disagreement inside tolerance fails closed.
    """
    return not admissibility_violations(p)


def decompose(p: Profile) -> AtomicMeasure:
    """Write a piecewise-linear admissible profile as a mixture of extremes.

    With slopes alpha_i / 2 on successive pieces, the mixture puts weight
    alpha_0 on t=1/2, weight alpha_i - alpha_{i-1} on t=(1+x_i)/2 for each
    interior knot x_i, and weight 1 - alpha_last on t=1. The knot of
    max(t, (1+s)/2) then lands on x_i and the mixture's slopes telescope to
    match p piece by piece.
    """
    if p.kind != "pl":
        raise ValueError("decompose expects a piecewise-linear profile")
    violations = admissibility_violations(p)
    if violations:
        raise ValueError(f"profile is not admissible: fails {violations[0]}")
    alphas = [min(max(2.0 * s, 0.0), 1.0) for s in p.slopes()]
    # Each alpha carries the slope roundoff of its segment, so a flat
    # cutoff leaks phantom atoms next to short segments (an atom near t=1
    # makes the last segment short and leaves 1 - alpha_last at a few
    # ulp/length instead of 0). Threshold per atom by the noise of the
    # alphas it differences, and carry filtered mass to the neighbor it
    # was split from, keeping the total exactly telescoped.
    noise = _slope_tols(p)
    candidates = [(0.5, alphas[0], max(ATOM_TOL, noise[0]))]
    for i in range(1, len(alphas)):
        candidates.append(
            (
                (1.0 + p.knots[i]) / 2.0,
                alphas[i] - alphas[i - 1],
                max(ATOM_TOL, noise[i] + noise[i - 1]),
            )
        )
    candidates.append((1.0, 1.0 - alphas[-1], max(ATOM_TOL, noise[-1])))
    atoms: list[tuple[float, float]] = []
    carry = 0.0
    for t, w, tol in candidates:
        w += carry
        if w <= tol:
            carry = max(w, 0.0)
            continue
        atoms.append((t, w))
        carry = 0.0
    if carry > 0.0 and atoms:
        t_last, w_last = atoms[-1]
        atoms[-1] = (t_last, w_last + carry)
    return AtomicMeasure(tuple(atoms))


def reconstruct(mu: AtomicMeasure) -> Profile:
    """The profile of the mixture: s -> sum of w * max(t, (1+s)/2)."""
    knots = {0.0, 1.0}
    for t, _ in mu.atoms:
        knot = 2.0 * t - 1.0
        if 0.0 < knot < 1.0:
            knots.add(knot)
    ks = sorted(knots)
    vals = [
        sum(w * max(t, (1.0 + s) / 2.0) for t, w in mu.atoms) for s in ks
    ]
    return Profile.piecewise_linear(ks, vals)


def _fp(p: float, s: float) -> float:
    return ((1.0 + s**p) / 2.0) ** (1.0 / p)


def _fp_prime(p: float, s: float) -> float:
    return (s ** (p - 1.0) / 2.0) * ((1.0 + s**p) / 2.0) ** (1.0 / p - 1.0)


def _fp_second(p: float, x: np.ndarray) -> np.ndarray:
    """Second derivative of the Lp profile; integrable blowup at 0 for p < 2."""
    return (p - 1.0) / 4.0 * x ** (p - 2.0) * ((1.0 + x**p) / 2.0) ** (1.0 / p - 2.0)


# One tanh-sinh rule on (0, 1) (Takahasi & Mori 1974): nodes
# u = 1 / (1 + e^(-z)), z = pi sinh(y), at y = k/32 for |y| <= 6, with weights
# du/dy / 32 = pi cosh(y) u (1 - u) / 32, where pi cosh(y) = hypot(pi, z). The
# nodes that round to u = 1 carry weights below 1e-15 and are dropped; k = -192
# stays at index 0, so every second node, with twice its weight, is the rule at
# the next coarser level.
_TS_Z = math.pi * np.sinh(np.arange(-192, 193) / 32.0)
_TS_U = 1.0 / (1.0 + np.exp(-_TS_Z))
_TS_W = np.hypot(math.pi, _TS_Z) / 32.0 * _TS_U / (1.0 + np.exp(_TS_Z))
_TS_U, _TS_W = _TS_U[_TS_U < 1.0], _TS_W[_TS_U < 1.0]
_LP_HEAD = 1e-10


def _lp_integral(p: float, s: float, u: np.ndarray, w: np.ndarray) -> float:
    """The integral of max(t, (1+s)/2) 4 f_p''(2t-1) over t in [1/2, 1].

    In x = 2t - 1 the integrand is max(1+x, 1+s) f_p''(x). On the head
    [0, delta] the factor is 1+s and f_p'(0) = 0, so the head is exactly
    (1+s) f_p'(delta). The rule (u, w) covers [delta, max(s, delta)] and
    [max(s, delta), 1], split at the kink; its nodes crowd double
    exponentially toward each end, which absorbs the x^(p-2) blowup at delta.
    """
    k = max(s, _LP_HEAD)
    x = _LP_HEAD + (k - _LP_HEAD) * u
    left = (1.0 + s) * (k - _LP_HEAD) * (_fp_second(p, x) @ w)
    x = k + (1.0 - k) * u
    right = (1.0 - k) * (((1.0 + x) * _fp_second(p, x)) @ w)
    return (1.0 + s) * _fp_prime(p, _LP_HEAD) + left + right


def lp_density_check(p: float, s_grid=None) -> float:
    """Max error of the extreme-point integral form of the Lp profile.

    For each s in the grid (11 points on [0, 1] by default), integrates
    max(t, (1+s)/2) * 4 f_p''(2t-1) over t in [1/2, 1] with one fixed
    tanh-sinh rule split at the kink t = (1+s)/2, the endpoint blowup of
    f_p'' at t = 1/2 (for 1 < p < 2) peeled off in closed form; see
    ``_lp_integral``. Integration by parts makes the integral equal f_p(s)
    exactly, so the returned float, the max over s of the distance to f_p(s),
    is the quadrature error.
    """
    if not p > 1:
        raise ValueError(f"density check needs p > 1, got {p}")
    p = float(p)
    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, 11)
    errors = [
        abs(_lp_integral(p, s, _TS_U, _TS_W) - _fp(p, s)) for s in map(float, s_grid)
    ]
    return float(np.max(errors, initial=0.0))


def profile_csv(p: Profile, points: int = 101) -> str:
    """CSV sampling of a profile with 6 significant digits.

    The rows are the knots and a uniform grid; a grid point that prints the
    same as a knot is dropped, so no two rows share an s string.
    """
    rows: dict[str, float] = {}
    for s in [*p.knots, *np.linspace(0.0, 1.0, points).tolist()]:
        rows.setdefault(f"{s:.6g}", s)
    lines = [f"{k},{p(s):.6g}" for k, s in sorted(rows.items(), key=lambda r: r[1])]
    return "\n".join(["s,f", *lines]) + "\n"
