"""Norm profiles on 2x2 matrices and their extreme-point decompositions.

A normalized unitarily invariant norm on M2 is determined by its profile
f(s) = |||diag(1, s)|||, a convex nondecreasing function squeezed between
(1+s)/2 and 1. The extreme profiles are max(t, (1+s)/2) for t in [1/2, 1],
and every piecewise-linear admissible profile is a unique finite convex
combination of them; ``decompose`` and ``reconstruct`` realize the two
directions, and ``lp_density_check`` verifies the integral form of the same
decomposition for the Lp family.

``profile_of`` gives a polyhedral spec's profile exactly, as the upper
envelope of its rows on M2; only Lp profiles are a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .linalg import Rng64
from .norms import Lp, NormSpec, TBracket, spec_rows
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
        if "p" in obj:
            return cls.lp(float(obj["p"]))
        try:
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


def random_admissible_profile(rng: Rng64, max_interior: int = 5) -> Profile:
    """A random admissible piecewise-linear profile.

    Slopes are half of a nondecreasing sequence in [0, 1] and the values are
    integrated backwards from f(1) = 1; with the final slope at most 1/2 that
    construction lands inside the sandwich automatically.
    """
    interior = 1 + rng.next_u64() % max_interior
    inner = {rng.uniform() for _ in range(interior)}
    knots = [0.0] + sorted(k for k in inner if 1e-6 < k < 1.0 - 1e-6) + [1.0]
    alphas = sorted(rng.uniform() for _ in range(len(knots) - 1))
    values = [0.0] * len(knots)
    values[-1] = 1.0
    for i in range(len(knots) - 2, -1, -1):
        values[i] = values[i + 1] - (alphas[i] / 2.0) * (knots[i + 1] - knots[i])
    return Profile.piecewise_linear(knots, values)


def _fp(p: float, s: float) -> float:
    return ((1.0 + s**p) / 2.0) ** (1.0 / p)


def _fp_prime(p: float, s: float) -> float:
    return (s ** (p - 1.0) / 2.0) * ((1.0 + s**p) / 2.0) ** (1.0 / p - 1.0)


def _fp_second(p: float, x: float) -> float:
    """Second derivative of the Lp profile; integrable blowup at 0 for p < 2."""
    return (
        (p - 1.0)
        / 2.0
        * x ** (p - 2.0)
        * ((1.0 + x**p) / 2.0) ** ((1.0 - p) / p)
        / (1.0 + x**p)
    )


def _adaptive_simpson(f, a, b, tol, depth=60):
    fa, fm, fb = f(a), f((a + b) / 2), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth)


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth):
    m = (a + b) / 2.0
    lm, rm = (a + m) / 2.0, (m + b) / 2.0
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _simpson_step(
        f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1
    ) + _simpson_step(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1)


def lp_density_check(p: float, s_grid=None) -> float:
    """Max error of the extreme-point integral form of the Lp profile.

    Integrates max(t, (1+s)/2) * 4 f_p''(2t-1) over t in [1/2, 1] by adaptive
    Simpson, splitting at the kink t = (1+s)/2, and compares against the
    closed form f_p(s). The integrable endpoint blowup of f_p'' at t=1/2
    (present for 1 < p < 2) is peeled off analytically: on the first delta of
    the substituted x-coordinate the factor max(x, s) is constant, so that
    head integrates exactly to (1+s) f_p'(delta).
    """
    if not p > 1:
        raise ValueError(f"density check needs p > 1, got {p}")
    if s_grid is None:
        s_grid = np.linspace(0.0, 1.0, 11)
    delta = 1e-10
    t0 = (1.0 + delta) / 2.0

    def integrand(s):
        return lambda t: max(t, (1.0 + s) / 2.0) * 4.0 * _fp_second(p, 2.0 * t - 1.0)

    worst = 0.0
    for s in s_grid:
        s = float(s)
        total = (1.0 + s) * _fp_prime(p, delta)
        kink = (1.0 + s) / 2.0
        g = integrand(s)
        if t0 < kink < 1.0:
            total += _adaptive_simpson(g, t0, kink, 5e-10)
            total += _adaptive_simpson(g, kink, 1.0, 5e-10)
        else:
            total += _adaptive_simpson(g, t0, 1.0, 1e-9)
        worst = max(worst, abs(total - _fp(p, s)))
    return worst


def not_convex_combination(t: float, trials: int = 100, seed: int = 0) -> dict:
    """Extremality evidence for the bracket norm at t.

    Draws random admissible profiles f1 (from two-atom mixtures) and mixing
    weights alpha, forms the complementary part f2 = (f - alpha f1)/(1-alpha)
    against the bracket profile f, and classifies each trial: f2 inadmissible
    (the candidate split is infeasible) or f2 admissible with f1 = f2 = f
    forced. The slopes of f are 0 then 1/2; any admissible part has slopes in
    [0, 1/2], so matching the mixture's derivative pins both parts piecewise,
    which is why no genuine split can appear.
    """
    if not 0.5 <= t <= 1.0:
        raise ValueError(f"bracket parameter {t} outside [1/2, 1]")
    target = profile_of(TBracket(t))
    rng = Rng64(seed)
    counts = {"infeasible": 0, "forced_equal": 0, "violation": 0}
    for _ in range(trials):
        alpha = 0.05 + 0.9 * rng.uniform()
        t1 = 0.5 + 0.5 * rng.uniform()
        t2 = 0.5 + 0.5 * rng.uniform()
        w = rng.uniform()
        f1 = reconstruct(AtomicMeasure(((t1, w), (t2, 1.0 - w))))
        knots = sorted(set(target.knots) | set(f1.knots))
        f2_vals = [
            (target(x) - alpha * f1(x)) / (1.0 - alpha) for x in knots
        ]
        f2 = Profile.piecewise_linear(knots, f2_vals)
        if not check_admissible(f2):
            counts["infeasible"] += 1
        elif max(abs(f1(x) - target(x)) for x in knots) <= 1e-9:
            counts["forced_equal"] += 1
        else:
            counts["violation"] += 1
    return {
        "t": t,
        "trials": trials,
        **counts,
        "extreme": counts["violation"] == 0,
    }


def profile_csv(p: Profile, points: int = 101) -> str:
    """CSV sampling of a profile with 6 significant digits."""
    lines = ["s,f"]
    if p.kind == "pl":
        xs = sorted(set(p.knots) | set(np.linspace(0.0, 1.0, points)))
    else:
        xs = np.linspace(0.0, 1.0, points)
    for s in xs:
        lines.append(f"{s:.6g},{p(float(s)):.6g}")
    return "\n".join(lines) + "\n"
