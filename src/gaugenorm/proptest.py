"""Seeded generators and invariant checks behind ``gaugenorm proptest``.

Every random input of the property runs is drawn here from ``linalg.Rng64``.
The four suites check the gauge-norm axioms, the double-dual involution and
Holder bound, Ky Fan dominance transfer, and the 2x2 extreme-point structure
on such inputs. A failed check becomes a witness, never an exception, and a
fixed seed gives a byte-identical report.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import dominance, duality, extreme2, linalg, norms
from .extreme2 import Profile
from .linalg import Rng64
from .norms import norm_mat
from .stepfn import StepFn


def _as_json(value):
    """A witness field as JSON; operands are converted only on failure."""
    if isinstance(value, np.ndarray):
        return linalg.matrix_to_json(value) if value.ndim == 2 else value.tolist()
    if isinstance(value, norms.NormSpec):
        return norms.spec_to_json(value)
    if hasattr(value, "to_json"):
        return value.to_json()
    return value


class _Tally:
    """Pass and fail counts, worst failures and witnesses of one suite.

    A check passes only when its value is <= its bound, so a NaN fails. Each
    failure appends {"check": name, **fields} to ``witnesses``, its fields
    made JSON then. ``checks[name]`` keeps the worst failure of a check, the
    largest value - bound (the first failure, if that is NaN), as "worst"
    and its fields as "witness". The named checks start at zero.
    """

    _UNTRIED = {"pass": 0, "fail": 0, "worst": 0.0, "witness": None}

    def __init__(self, *names: str) -> None:
        self.checks = {name: dict(self._UNTRIED) for name in names}
        self.witnesses: list[dict] = []

    def check(self, name: str, value, bound, **fields) -> None:
        entry = self.checks.setdefault(name, dict(self._UNTRIED))
        if value <= bound:
            entry["pass"] += 1
            return
        entry["fail"] += 1
        margin = value - bound
        witness = {k: _as_json(v) for k, v in fields.items()}
        if entry["witness"] is None or margin > entry["worst"]:
            entry["worst"], entry["witness"] = margin, witness
        self.witnesses.append({"check": name, **witness})


def random_weight_fn(n: int, rng: Rng64, normalized: bool = False) -> StepFn:
    """A random nonincreasing nonnegative weight on the uniform n-partition.

    With ``normalized`` the weight has mean exactly 1, so the weight norm it
    induces is normalized; otherwise the mean is a random value in (0, 1].
    """
    vals = sorted((rng.uniform() for _ in range(n)), reverse=True)
    mean = sum(vals) / n
    target = 1.0 if normalized else 0.2 + 0.8 * rng.uniform()
    return StepFn.from_uniform([v * target / mean for v in vals])


def random_supof_fns(
    n: int, rng: Rng64, count: int, normalized: bool = False
) -> tuple[StepFn, ...]:
    """Random weights for a SupOf spec, jointly rescaled when normalized.

    Normalization of a supremum of weight norms means the largest member
    integral equals 1, so the whole family is scaled by that maximum.
    """
    fs = [random_weight_fn(n, rng) for _ in range(count)]
    if normalized:
        top = max(f.integral() for f in fs)
        fs = [f.scale(1.0 / top) for f in fs]
    return tuple(fs)


def majorization_pair(
    n: int, rng: Rng64, style: str = "contraction"
) -> tuple[np.ndarray, np.ndarray]:
    """A random pair (T, S) with S dominated by T in all Ky Fan norms.

    Three constructions, each a norm contraction applied to a random T:
    multiplying by a contraction, averaging over conjugations by random
    unitaries, and pinching by a random orthogonal partition.
    """
    T = linalg.random_matrix(n, rng.next_u64())
    if style == "contraction":
        A = linalg.random_matrix(n, rng.next_u64())
        A = A / (linalg.operator_norm(A) * (1.0 + rng.uniform()))
        return T, A @ T
    if style == "unitary_mix":
        k = 2 + rng.next_u64() % 3
        weights = [rng.uniform() for _ in range(k)]
        total = sum(weights)
        S = np.zeros_like(T)
        for w in weights:
            U = linalg.random_unitary(n, rng.next_u64())
            S = S + (w / total) * (U @ T @ U.conj().T)
        return T, S
    if style == "pinch":
        return T, linalg.pinch(T, linalg.random_partition(n, rng.next_u64()))
    raise ValueError(f"unknown pair style {style!r}")


def random_admissible_profile(rng: Rng64) -> Profile:
    """A random admissible piecewise-linear profile with 1 to 5 interior knots.

    Slopes are half of a nondecreasing sequence in [0, 1] and the values are
    integrated backwards from f(1) = 1; with the final slope at most 1/2 that
    construction lands inside the sandwich automatically.
    """
    interior = 1 + rng.next_u64() % 5
    inner = {rng.uniform() for _ in range(interior)}
    knots = [0.0] + sorted(k for k in inner if 1e-6 < k < 1.0 - 1e-6) + [1.0]
    alphas = sorted(rng.uniform() for _ in range(len(knots) - 1))
    values = [0.0] * len(knots)
    values[-1] = 1.0
    for i in range(len(knots) - 2, -1, -1):
        values[i] = values[i + 1] - (alphas[i] / 2.0) * (knots[i + 1] - knots[i])
    return Profile.piecewise_linear(knots, values)


def check_norm_axioms(
    spec: norms.NormSpec,
    n: int = 4,
    trials: int = 50,
    seed: int = 0,
) -> dict:
    """Randomized check of the gauge-norm axioms for one spec.

    Runs the triangle inequality, absolute homogeneity, two-sided unitary
    invariance, the bounded-multiplier bound |||ATB||| <= ||A|| |||T||| ||B||,
    the normalized sandwich, and positivity-monotonicity. Each margin goes
    to a ``_Tally`` as the value against the bound 0.0, so a NaN fails and
    "checks" holds the tally's counts, worst margin and witness per check.
    Failures become report entries, not exceptions.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = Rng64(seed)
    unit = norms.identity_norm(spec, n)
    tally = _Tally(
        "triangle",
        "homogeneity",
        "unitary_invariance",
        "multiplier_bound",
        "sandwich",
        "monotonicity",
    )

    for _ in range(trials):
        S = linalg.random_matrix(n, rng.next_u64())
        T = linalg.random_matrix(n, rng.next_u64())
        nS, nT = norm_mat(spec, S), norm_mat(spec, T)

        margin = norm_mat(spec, S + T) - (nS + nT) - 1e-9
        tally.check("triangle", margin, 0.0, S=S, T=T)

        c = 2.0 * rng.gauss()
        margin = abs(norm_mat(spec, c * T) - abs(c) * nT) - 1e-9 * max(1.0, abs(c))
        tally.check("homogeneity", margin, 0.0, c=c, T=T)

        U = linalg.random_unitary(n, rng.next_u64())
        V = linalg.random_unitary(n, rng.next_u64())
        margin = abs(norm_mat(spec, U @ T @ V) - nT) - 1e-8
        tally.check("unitary_invariance", margin, 0.0, T=T)

        A = linalg.random_matrix(n, rng.next_u64())
        B = linalg.random_matrix(n, rng.next_u64())
        bound = linalg.operator_norm(A) * nT * linalg.operator_norm(B)
        margin = norm_mat(spec, A @ T @ B) - bound - 1e-8 * max(1.0, bound)
        tally.check("multiplier_bound", margin, 0.0, T=T)

        scaled = nT / unit
        gap = max(linalg.trace_norm(T) - scaled, scaled - linalg.operator_norm(T))
        tally.check("sandwich", gap - 1e-10, 0.0, T=T)

        low = S.conj().T @ S
        high = low + T.conj().T @ T
        margin = norm_mat(spec, low) - norm_mat(spec, high) - 1e-9
        tally.check("monotonicity", margin, 0.0, S=S, T=T)

    return {
        "spec": norms.spec_to_json(spec),
        "n": n,
        "trials": trials,
        "seed": seed,
        "checks": tally.checks,
        "passed": not tally.witnesses,
    }


# ---------------------------------------------------------------------------
# suites: each returns (summary, witnesses), and passes when there are none


def _battery(n: int, seed: int) -> list[norms.NormSpec]:
    """A deterministic mixed battery of norm specs on dimension n."""
    rng = Rng64(seed)
    specs: list[norms.NormSpec] = [
        norms.Trace(),
        norms.Operator(),
        norms.Lp(Fraction(3, 2)),
        norms.Lp(2),
        norms.TBracket(Fraction(3, 4)),
    ]
    specs.extend(norms.KyFan(Fraction(k, n)) for k in range(1, n + 1))
    specs.extend(
        norms.Weight(random_weight_fn(n, rng, normalized=True)) for _ in range(3)
    )
    specs.append(norms.SupOf(random_supof_fns(n, rng, 3, normalized=True)))
    specs.append(
        norms.CSup(
            StepFn(
                (Fraction(0), Fraction(1, 2), Fraction(1)),
                (1.0, 0.25 + 0.5 * rng.uniform()),
            )
        )
    )
    return specs


def _suite_axioms(seed: int, trials: int) -> tuple[dict, list]:
    n = 4
    tally = _Tally()
    reports = []
    for i, spec in enumerate(_battery(n, seed)):
        rep = check_norm_axioms(spec, n=n, trials=trials, seed=seed + i)
        failures = {
            name: entry["fail"] for name, entry in rep["checks"].items() if entry["fail"]
        }
        reports.append(
            {"spec": rep["spec"], "passed": rep["passed"], "failures": failures}
        )
        tally.check("axioms", int(not rep["passed"]), 0, **rep)
    return {"n": n, "specs": reports}, tally.witnesses


def _suite_duality(seed: int, trials: int) -> tuple[dict, list]:
    n = 4
    rng = Rng64(seed ^ 0xD0A1)
    specs = [s for s in _battery(n, seed) if not isinstance(s, norms.Lp)]
    tally = _Tally("involution", "kyfan_closed_form", "holder")
    rounds = max(1, trials // 10)
    for _ in range(rounds):
        x = np.array([rng.gauss() for _ in range(n)])
        for spec in specs:
            primal, double = duality.involution_check(spec, x)
            tally.check(
                "involution",
                abs(primal - double),
                1e-8,
                spec=spec,
                x=x,
                primal=primal,
                double_dual=double,
            )
        k = 1 + rng.next_u64() % n
        t = Fraction(int(k), n)
        lp_value = duality.dual_vec(norms.KyFan(t), x)
        xs = np.sort(np.abs(x))[::-1]
        closed = max(float(t) * xs[0], float(np.mean(xs)))
        tally.check(
            "kyfan_closed_form",
            abs(lp_value - closed),
            1e-8,
            t=str(t),
            x=x,
            lp=lp_value,
            closed_form=closed,
        )
        S = linalg.random_matrix(n, rng.next_u64())
        T = linalg.random_matrix(n, rng.next_u64())
        for spec in specs:
            lhs, rhs = duality.holder_check(spec, S, T)
            tally.check("holder", lhs, rhs + 1e-8, spec=spec, lhs=lhs, rhs=rhs)
    passes = {name: entry["pass"] for name, entry in tally.checks.items()}
    return {"n": n, "rounds": rounds, "passes": passes}, tally.witnesses


def _suite_dominance(seed: int, trials: int) -> tuple[dict, list]:
    n = 5
    rng = Rng64(seed ^ 0xD011)
    specs = _battery(4, seed)[:8]
    tally = _Tally()
    styles = ("contraction", "unitary_mix", "pinch")
    pairs = max(1, trials // 3)
    for i in range(pairs):
        T, S = majorization_pair(n, rng, styles[i % 3])
        report = dominance.dominance_transfer(T, S, specs)
        tally.check(
            "transfer",
            int(not report["passed"]),
            0,
            style=styles[i % 3],
            T=T,
            S=S,
            report=report,
        )
    return {"n": n, "pairs": pairs}, tally.witnesses


def _suite_extreme2(seed: int, trials: int) -> tuple[dict, list]:
    rng = Rng64(seed ^ 0xE2)
    tally = _Tally()
    rounds = max(1, trials // 2)
    for _ in range(rounds):
        prof = random_admissible_profile(rng)
        mu = extreme2.decompose(prof)
        back = extreme2.reconstruct(mu)
        err = max(abs(back(k) - v) for k, v in zip(prof.knots, prof.values))
        tally.check("round_trip", err, 1e-10, profile=prof, measure=mu, error=err)
    extremality = [
        {"t": t, "extreme": extreme2.is_extreme(norms.TBracket(t))}
        for t in (0.5, 0.65, 0.8, 1.0)
    ]
    for rep in extremality:
        tally.check("extremality", int(not rep["extreme"]), 0, t=rep["t"])
    summary = {"round_trips": rounds, "extremality": extremality}
    return summary, tally.witnesses


SUITES = {
    "axioms": _suite_axioms,
    "duality": _suite_duality,
    "dominance": _suite_dominance,
    "extreme2": _suite_extreme2,
}


def run(names, seed: int, trials: int) -> tuple[dict, list]:
    """The report of the named suites, and their witnesses tagged by suite."""
    if trials < 1:
        raise ValueError(f"proptest needs trials >= 1, got {trials}")
    suites = {}
    witnesses = []
    for name in names:
        summary, found = SUITES[name](seed, trials)
        suites[name] = {"passed": not found, **summary}
        witnesses.extend({"suite": name, **w} for w in found)
    report = {
        "seed": seed,
        "trials": trials,
        "suites": suites,
        "passed": not witnesses,
    }
    return report, witnesses
