"""Command-line interface: JSON in, JSON/CSV out, through one loader.

Exit codes: 0 success (for ``dominance``, verdict true), 1 dominance verdict
false, 2 parse error, 3 numerical failure, 4 unsupported spec for --dual,
5 dimension mismatch, 6 invariant failure. ``proptest`` runs the seeded suites
of ``gaugenorm.proptest``; GAUGENORM_SEED overrides --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import dominance, duality, extreme2, linalg, norms, proptest
from .stepfn import StepFn, as_fraction

PARSE, NUMERICAL, UNSUPPORTED_DUAL, DIM_MISMATCH, INVARIANT = 2, 3, 4, 5, 6


class CliFailure(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _load(path: str, parse):
    """parse(the JSON object in path), any read or parse error exiting 2."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, OverflowError) as exc:
        raise CliFailure(PARSE, f"{path}: {exc}") from exc


def _vector_entry(e) -> complex:
    if isinstance(e, str):
        return complex(float(as_fraction(e)))
    if isinstance(e, (int, float)):
        return complex(e)
    if isinstance(e, list) and len(e) == 2:
        return complex(float(e[0]), float(e[1]))
    raise ValueError(f"bad vector entry {e!r}")


def _operand(obj):
    """A matrix {"n",...}, vector {"x",...}, or step function object."""
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
    T = _load(args.matrix, linalg.matrix_from_json)
    try:
        mu = linalg.mu_step(T)
    except ValueError as exc:
        raise CliFailure(NUMERICAL, str(exc)) from exc
    _emit({"s": linalg.s_numbers(T).tolist(), "mu": mu.to_json()})
    return 0


def cmd_norm(args) -> int:
    spec = _load(args.spec, norms.spec_from_json)
    if args.profile:
        print(extreme2.profile_csv(extreme2.profile_of(spec)), end="")
        return 0
    if args.operand is None:
        raise CliFailure(PARSE, "an operand file is required without --profile")
    operand = _load(args.operand, _operand)
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
    S = _load(args.matrix_s, linalg.matrix_from_json)
    T = _load(args.matrix_t, linalg.matrix_from_json)
    if S.shape != T.shape:
        raise CliFailure(
            DIM_MISMATCH, f"dimension mismatch: {S.shape[0]} vs {T.shape[0]}"
        )
    verdict, certificate = dominance.kyfan_dominates(T, S)
    _emit(certificate)
    return 0 if verdict else 1


def cmd_decompose(args) -> int:
    prof = _load(args.profile, extreme2.Profile.from_json)
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


def cmd_proptest(args) -> int:
    seed = _seed(args)
    if args.trials < 1:
        raise CliFailure(PARSE, f"proptest needs --trials >= 1, got {args.trials}")
    names = list(proptest.SUITES) if args.suite == "all" else [args.suite]
    report, witnesses = proptest.run(names, seed, args.trials)
    _emit(report)
    if report["passed"]:
        return 0
    with open(args.witness_file, "w", encoding="utf-8") as fh:
        json.dump(witnesses, fh, indent=2)
    print(f"witnesses written to {args.witness_file}", file=sys.stderr)
    return INVARIANT


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
        choices=[*proptest.SUITES, "all"],
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
