"""Command-line interface: JSON in, JSON/CSV out, deterministic property runs.

Exit codes: 0 success (for ``dominance``, verdict true), 1 dominance verdict
false, 2 parse error, 3 numerical failure, 4 unsupported spec for --dual,
5 dimension mismatch, 6 invariant failure. The environment variable
GAUGENORM_SEED overrides --seed everywhere a seed is taken.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import dominance, duality, extreme2, linalg, norms
from .stepfn import StepFn, as_fraction

PARSE, NUMERICAL, UNSUPPORTED_DUAL, DIM_MISMATCH, INVARIANT = 2, 3, 4, 5, 6


class CliFailure(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliFailure(PARSE, f"cannot read JSON from {path}: {exc}") from exc


def _load_matrix(path: str) -> np.ndarray:
    obj = _load_json(path)
    try:
        return linalg.matrix_from_json(obj)
    except ValueError as exc:
        raise CliFailure(PARSE, f"{path}: {exc}") from exc


def _vector_entry(e) -> complex:
    if isinstance(e, str):
        return complex(float(as_fraction(e)))
    if isinstance(e, (int, float)):
        return complex(e)
    if isinstance(e, list) and len(e) == 2:
        return complex(float(e[0]), float(e[1]))
    raise ValueError(f"bad vector entry {e!r}")


def _load_operand(path: str):
    """A matrix {"n",...}, vector {"x",...}, or step function JSON file."""
    obj = _load_json(path)
    try:
        if not isinstance(obj, dict):
            raise ValueError("operand must be a JSON object")
        if "entries" in obj:
            return linalg.matrix_from_json(obj)
        if "x" in obj:
            vec = np.array([_vector_entry(e) for e in obj["x"]])
            if vec.size == 0:
                raise ValueError("vector is empty")
            return vec
        if "breakpoints" in obj:
            return StepFn.from_json(obj)
        raise ValueError("expected 'entries', 'x', or 'breakpoints'")
    except (ValueError, OverflowError) as exc:
        raise CliFailure(PARSE, f"{path}: {exc}") from exc


def _load_spec(path: str) -> norms.NormSpec:
    obj = _load_json(path)
    try:
        return norms.spec_from_json(obj)
    except ValueError as exc:
        raise CliFailure(PARSE, f"{path}: {exc}") from exc


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _seed(args) -> int:
    env = os.environ.get("GAUGENORM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliFailure(PARSE, f"bad GAUGENORM_SEED {env!r}") from exc
    return args.seed


def cmd_snumbers(args) -> int:
    T = _load_matrix(args.matrix)
    try:
        mu = linalg.mu_step(T)
    except ValueError as exc:
        raise CliFailure(NUMERICAL, str(exc)) from exc
    _emit({"s": linalg.s_numbers(T).tolist(), "mu": mu.to_json()})
    return 0


def cmd_norm(args) -> int:
    spec = _load_spec(args.spec)
    if args.profile:
        print(extreme2.profile_csv(extreme2.profile_of(spec)), end="")
        return 0
    if args.operand is None:
        raise CliFailure(PARSE, "an operand file is required without --profile")
    operand = _load_operand(args.operand)
    if args.dual:
        if isinstance(operand, StepFn):
            raise CliFailure(PARSE, "--dual expects a vector or matrix operand")
        if operand.ndim == 2:
            primal = norms.norm_mat(spec, operand)
            value, witness = duality.dual_vec_full(spec, linalg.s_numbers(operand))
        else:
            primal = norms.norm_vec(spec, operand)
            value, witness = duality.dual_vec_full(spec, operand)
        _emit({"primal": primal, "dual": value, "witness": witness.tolist()})
        return 0
    if isinstance(operand, StepFn):
        value = norms.norm_step(spec, operand)
    elif operand.ndim == 2:
        value = norms.norm_mat(spec, operand)
    else:
        value = norms.norm_vec(spec, operand)
    _emit({"norm": value})
    return 0


def cmd_dominance(args) -> int:
    S = _load_matrix(args.matrix_s)
    T = _load_matrix(args.matrix_t)
    if S.shape != T.shape:
        raise CliFailure(
            DIM_MISMATCH, f"dimension mismatch: {S.shape[0]} vs {T.shape[0]}"
        )
    verdict, certificate = dominance.kyfan_dominates(T, S)
    _emit(certificate)
    return 0 if verdict else 1


def cmd_decompose(args) -> int:
    obj = _load_json(args.profile)
    try:
        prof = extreme2.Profile.from_json(obj)
    except ValueError as exc:
        raise CliFailure(PARSE, f"{args.profile}: {exc}") from exc
    violations = extreme2.admissibility_violations(prof)
    if violations:
        raise CliFailure(
            INVARIANT, f"profile is not admissible: fails {violations[0]}"
        )
    _emit(extreme2.decompose(prof).to_json())
    return 0


def cmd_lpcheck(args) -> int:
    if not 1 < args.p < np.inf:
        raise CliFailure(PARSE, f"lpcheck needs a finite p > 1, got {args.p}")
    if args.grid < 1:
        raise CliFailure(PARSE, f"lpcheck needs --grid >= 1, got {args.grid}")
    grid = np.linspace(0.0, 1.0, args.grid)
    try:
        err = extreme2.lp_density_check(args.p, grid)
    except ValueError as exc:
        raise CliFailure(NUMERICAL, str(exc)) from exc
    ok = err <= 1e-6
    _emit({"p": args.p, "grid_points": args.grid, "max_error": err, "ok": ok})
    return 0 if ok else NUMERICAL


# ---------------------------------------------------------------------------
# property-test harness


def _battery(n: int, seed: int) -> list[norms.NormSpec]:
    """A deterministic mixed battery of norm specs on dimension n."""
    rng = linalg.Rng64(seed)
    specs: list[norms.NormSpec] = [
        norms.Trace(),
        norms.Operator(),
        norms.Lp(Fraction(3, 2)),
        norms.Lp(2),
        norms.TBracket(Fraction(3, 4)),
    ]
    specs.extend(norms.KyFan(Fraction(k, n)) for k in range(1, n + 1))
    specs.extend(
        norms.Weight(norms.random_weight_fn(n, rng, normalized=True))
        for _ in range(3)
    )
    specs.append(norms.SupOf(norms.random_supof_fns(n, rng, 3, normalized=True)))
    specs.append(
        norms.CSup(
            StepFn(
                (Fraction(0), Fraction(1, 2), Fraction(1)),
                (1.0, 0.25 + 0.5 * rng.uniform()),
            )
        )
    )
    return specs


def _polyhedral_battery(n: int, seed: int) -> list[norms.NormSpec]:
    return [s for s in _battery(n, seed) if not isinstance(s, norms.Lp)]


def _suite_axioms(seed: int, trials: int) -> tuple[bool, dict, list]:
    n = 4
    reports = []
    witnesses = []
    for i, spec in enumerate(_battery(n, seed)):
        rep = norms.check_norm_axioms(spec, n=n, trials=trials, seed=seed + i)
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
    passed = all(r["passed"] for r in reports)
    return passed, {"n": n, "specs": reports}, witnesses


def _suite_duality(seed: int, trials: int) -> tuple[bool, dict, list]:
    n = 4
    rng = linalg.Rng64(seed ^ 0xD0A1)
    specs = _polyhedral_battery(n, seed)
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
    return not witnesses, {"n": n, "rounds": rounds, "passes": checks}, witnesses


def _suite_dominance(seed: int, trials: int) -> tuple[bool, dict, list]:
    n = 5
    rng = linalg.Rng64(seed ^ 0xD011)
    specs = _battery(4, seed)[:8]
    witnesses = []
    styles = ("contraction", "unitary_mix", "pinch")
    count = 0
    for i in range(max(1, trials // 3)):
        T, S = dominance.majorization_pair(n, rng, styles[i % 3])
        report = dominance.dominance_transfer(T, S, specs)
        count += 1
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
    return not witnesses, {"n": n, "pairs": count}, witnesses


def _suite_extreme2(seed: int, trials: int) -> tuple[bool, dict, list]:
    rng = linalg.Rng64(seed ^ 0xE2)
    witnesses = []
    rounds = max(1, trials // 2)
    for _ in range(rounds):
        prof = extreme2.random_admissible_profile(rng)
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
        extreme2.not_convex_combination(t, trials=max(1, trials // 5), seed=seed)
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
    return not witnesses, summary, witnesses


SUITES = {
    "axioms": _suite_axioms,
    "duality": _suite_duality,
    "dominance": _suite_dominance,
    "extreme2": _suite_extreme2,
}


def cmd_proptest(args) -> int:
    seed = _seed(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    suites_report = {}
    witnesses = []
    all_passed = True
    for name in names:
        passed, summary, wit = SUITES[name](seed, args.trials)
        suites_report[name] = {"passed": passed, **summary}
        all_passed = all_passed and passed
        witnesses.extend({"suite": name, **w} for w in wit)
    report = {
        "seed": seed,
        "trials": args.trials,
        "suites": suites_report,
        "passed": all_passed,
    }
    _emit(report)
    if not all_passed:
        with open(args.witness_file, "w", encoding="utf-8") as fh:
            json.dump(witnesses, fh, indent=2)
        print(f"witnesses written to {args.witness_file}", file=sys.stderr)
        return INVARIANT
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugenorm",
        description="Gauge norms: s-numbers, duals, dominance, extreme points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snumbers", help="s-numbers and profile of a matrix")
    p.add_argument("matrix", help="matrix JSON file")
    p.set_defaults(func=cmd_snumbers)

    p = sub.add_parser("norm", help="evaluate a norm (or its dual, or profile)")
    p.add_argument("spec", help="norm spec JSON file")
    p.add_argument(
        "operand", nargs="?", help="matrix, vector, or step-function JSON file"
    )
    p.add_argument("--dual", action="store_true", help="dual norm with witness")
    p.add_argument(
        "--profile",
        action="store_true",
        help="emit the 2x2 profile s -> norm of diag(1, s) as CSV",
    )
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("dominance", help="Ky Fan dominance of T over S")
    p.add_argument("matrix_s", help="candidate dominated matrix S (JSON)")
    p.add_argument("matrix_t", help="candidate dominating matrix T (JSON)")
    p.set_defaults(func=cmd_dominance)

    p = sub.add_parser("proptest", help="run randomized invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument(
        "--suite",
        choices=[*SUITES, "all"],
        default="all",
    )
    p.add_argument(
        "--witness-file",
        default="gaugenorm_witness.json",
        help="where failing witnesses are dumped",
    )
    p.set_defaults(func=cmd_proptest)

    p = sub.add_parser("decompose", help="decompose a 2x2 norm profile")
    p.add_argument("profile", help="profile JSON file with knots and values")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("lpcheck", help="Lp extreme-point density identity check")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--grid", type=int, default=11, help="number of s samples")
    p.set_defaults(func=cmd_lpcheck)

    return parser


# Checked in order, so a subclass comes before its base: UnsupportedSpecError
# and numpy's LinAlgError are both ValueErrors.
EXIT_CODES = (
    (duality.UnsupportedSpecError, UNSUPPORTED_DUAL),
    (RuntimeError, NUMERICAL),
    (np.linalg.LinAlgError, NUMERICAL),
    (ArithmeticError, NUMERICAL),
    (ValueError, PARSE),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliFailure, *(kind for kind, _ in EXIT_CODES)) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliFailure):
            return exc.code
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
