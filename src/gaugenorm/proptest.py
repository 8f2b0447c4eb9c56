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
from .extreme2 import AtomicMeasure, Profile
from .linalg import Rng64
from .norms import norm_mat
from .stepfn import StepFn

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
    the normalized sandwich, and positivity-monotonicity. Failures become
    report entries with witnesses, not exceptions.
    """
    rng = Rng64(seed)
    unit = norms.identity_norm(spec, n)
    checks: dict[str, dict] = {
        name: {"pass": 0, "fail": 0, "worst": 0.0, "witness": None}
        for name in (
            "triangle",
            "homogeneity",
            "unitary_invariance",
            "multiplier_bound",
            "sandwich",
            "monotonicity",
        )
    }

    def record(name: str, margin: float, witness) -> None:
        entry = checks[name]
        if margin <= 0:
            entry["pass"] += 1
        else:
            entry["fail"] += 1
            if margin > entry["worst"]:
                entry["worst"] = margin
                entry["witness"] = witness

    for _ in range(trials):
        S = linalg.random_matrix(n, rng.next_u64())
        T = linalg.random_matrix(n, rng.next_u64())
        nS, nT = norm_mat(spec, S), norm_mat(spec, T)

        record(
            "triangle",
            norm_mat(spec, S + T) - (nS + nT) - 1e-9,
            {"S": linalg.matrix_to_json(S), "T": linalg.matrix_to_json(T)},
        )

        c = 2.0 * rng.gauss()
        record(
            "homogeneity",
            abs(norm_mat(spec, c * T) - abs(c) * nT) - 1e-9 * max(1.0, abs(c)),
            {"c": c, "T": linalg.matrix_to_json(T)},
        )

        U = linalg.random_unitary(n, rng.next_u64())
        V = linalg.random_unitary(n, rng.next_u64())
        record(
            "unitary_invariance",
            abs(norm_mat(spec, U @ T @ V) - nT) - 1e-8,
            {"T": linalg.matrix_to_json(T)},
        )

        A = linalg.random_matrix(n, rng.next_u64())
        B = linalg.random_matrix(n, rng.next_u64())
        bound = linalg.operator_norm(A) * nT * linalg.operator_norm(B)
        record(
            "multiplier_bound",
            norm_mat(spec, A @ T @ B) - bound - 1e-8 * max(1.0, bound),
            {"T": linalg.matrix_to_json(T)},
        )

        scaled = nT / unit
        record(
            "sandwich",
            max(
                linalg.trace_norm(T) - scaled,
                scaled - linalg.operator_norm(T),
            )
            - 1e-10,
            {"T": linalg.matrix_to_json(T)},
        )

        low = S.conj().T @ S
        high = low + T.conj().T @ T
        record(
            "monotonicity",
            norm_mat(spec, low) - norm_mat(spec, high) - 1e-9,
            {"S": linalg.matrix_to_json(S), "T": linalg.matrix_to_json(T)},
        )

    return {
        "spec": norms.spec_to_json(spec),
        "n": n,
        "trials": trials,
        "seed": seed,
        "checks": checks,
        "passed": all(entry["fail"] == 0 for entry in checks.values()),
    }


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
    target = extreme2.profile_of(norms.TBracket(t))
    rng = Rng64(seed)
    counts = {"infeasible": 0, "forced_equal": 0, "violation": 0}
    for _ in range(trials):
        alpha = 0.05 + 0.9 * rng.uniform()
        t1 = 0.5 + 0.5 * rng.uniform()
        t2 = 0.5 + 0.5 * rng.uniform()
        w = rng.uniform()
        f1 = extreme2.reconstruct(AtomicMeasure(((t1, w), (t2, 1.0 - w))))
        knots = sorted(set(target.knots) | set(f1.knots))
        f2_vals = [
            (target(x) - alpha * f1(x)) / (1.0 - alpha) for x in knots
        ]
        f2 = Profile.piecewise_linear(knots, f2_vals)
        if not extreme2.check_admissible(f2):
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
    reports = []
    witnesses = []
    for i, spec in enumerate(_battery(n, seed)):
        rep = check_norm_axioms(spec, n=n, trials=trials, seed=seed + i)
        reports.append(
            {
                "spec": rep["spec"],
                "passed": rep["passed"],
                "failures": {
                    name: entry["fail"]
                    for name, entry in rep["checks"].items()
                    if entry["fail"]
                },
            }
        )
        if not rep["passed"]:
            witnesses.append(rep)
    return {"n": n, "specs": reports}, witnesses


def _suite_duality(seed: int, trials: int) -> tuple[dict, list]:
    n = 4
    rng = Rng64(seed ^ 0xD0A1)
    specs = [s for s in _battery(n, seed) if not isinstance(s, norms.Lp)]
    checks = {"involution": 0, "kyfan_closed_form": 0, "holder": 0}
    witnesses = []
    rounds = max(1, trials // 10)
    for _ in range(rounds):
        x = np.array([rng.gauss() for _ in range(n)])
        for spec in specs:
            primal, double = duality.involution_check(spec, x)
            if abs(primal - double) > 1e-8:
                witnesses.append(
                    {
                        "check": "involution",
                        "spec": norms.spec_to_json(spec),
                        "x": x.tolist(),
                        "primal": primal,
                        "double_dual": double,
                    }
                )
            else:
                checks["involution"] += 1
        k = 1 + rng.next_u64() % n
        t = Fraction(int(k), n)
        lp_value = duality.dual_vec(norms.KyFan(t), x)
        xs = np.sort(np.abs(x))[::-1]
        closed = max(float(t) * xs[0], float(np.mean(xs)))
        if abs(lp_value - closed) > 1e-8:
            witnesses.append(
                {
                    "check": "kyfan_closed_form",
                    "t": str(t),
                    "x": x.tolist(),
                    "lp": lp_value,
                    "closed_form": closed,
                }
            )
        else:
            checks["kyfan_closed_form"] += 1
        S = linalg.random_matrix(n, rng.next_u64())
        T = linalg.random_matrix(n, rng.next_u64())
        for spec in specs:
            lhs, rhs = duality.holder_check(spec, S, T)
            if lhs > rhs + 1e-8:
                witnesses.append(
                    {
                        "check": "holder",
                        "spec": norms.spec_to_json(spec),
                        "lhs": lhs,
                        "rhs": rhs,
                    }
                )
            else:
                checks["holder"] += 1
    return {"n": n, "rounds": rounds, "passes": checks}, witnesses


def _suite_dominance(seed: int, trials: int) -> tuple[dict, list]:
    n = 5
    rng = Rng64(seed ^ 0xD011)
    specs = _battery(4, seed)[:8]
    witnesses = []
    styles = ("contraction", "unitary_mix", "pinch")
    pairs = max(1, trials // 3)
    for i in range(pairs):
        T, S = majorization_pair(n, rng, styles[i % 3])
        report = dominance.dominance_transfer(T, S, specs)
        if not report["passed"]:
            witnesses.append(
                {
                    "check": "transfer",
                    "style": styles[i % 3],
                    "T": linalg.matrix_to_json(T),
                    "S": linalg.matrix_to_json(S),
                    "report": report,
                }
            )
    return {"n": n, "pairs": pairs}, witnesses


def _suite_extreme2(seed: int, trials: int) -> tuple[dict, list]:
    rng = Rng64(seed ^ 0xE2)
    witnesses = []
    rounds = max(1, trials // 2)
    for _ in range(rounds):
        prof = random_admissible_profile(rng)
        mu = extreme2.decompose(prof)
        back = extreme2.reconstruct(mu)
        err = max(abs(back(k) - v) for k, v in zip(prof.knots, prof.values))
        if err > 1e-10:
            witnesses.append(
                {
                    "check": "round_trip",
                    "profile": prof.to_json(),
                    "measure": mu.to_json(),
                    "error": err,
                }
            )
    extremality = [
        not_convex_combination(t, trials=max(1, trials // 5), seed=seed)
        for t in (0.5, 0.65, 0.8, 1.0)
    ]
    for rep in extremality:
        if not rep["extreme"]:
            witnesses.append({"check": "extremality", "report": rep})
    summary = {
        "round_trips": rounds,
        "extremality": [
            {"t": r["t"], "extreme": r["extreme"]} for r in extremality
        ],
    }
    return summary, witnesses


SUITES = {
    "axioms": _suite_axioms,
    "duality": _suite_duality,
    "dominance": _suite_dominance,
    "extreme2": _suite_extreme2,
}


def run(names, seed: int, trials: int) -> tuple[dict, list]:
    """The report of the named suites, and their witnesses tagged by suite."""
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
