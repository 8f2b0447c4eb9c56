"""Reference results computed apart from gaugenorm, checked after timing.

Norms are closed forms in numpy on the known s-numbers or sorted entries.
Duals solve the ordered-cone LP with ``scipy.optimize.linprog``; its rows are
built here from the spec description, not from ``duality.spec_rows``. Where
no closed form exists the check is a property the method must have: the
double dual equals the primal, both sides of the representation agree, every
returned ball vertex satisfies every row, and the profile round trip closes.
scipy is imported only here, after the timed section.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

EPS = np.finfo(float).eps
NORM_RTOL = 1e-9
LP_RTOL = 1e-8
LPCHECK_GATE = 1e-6


def _floats(bps) -> np.ndarray:
    return np.array([float(b) for b in bps])


def kyfan_row(t: float, n: int) -> np.ndarray:
    """r with r . y = Ky Fan t-norm of ordered y; t = 0 gives the top entry."""
    if t == 0:
        r = np.zeros(n)
        r[0] = 1.0
        return r
    lo = np.arange(n) / n
    return np.clip(np.minimum(lo + 1.0 / n, t) - lo, 0.0, None) / t


def weight_row(bps, vals, n: int) -> np.ndarray:
    """r_i = integral of the weight over [i/n, (i+1)/n)."""
    x = _floats(bps)
    head = np.concatenate([[0.0], np.cumsum(np.diff(x) * np.array(vals))])
    return np.diff(np.interp(np.arange(n + 1) / n, x, head))


def rows(desc, n: int) -> np.ndarray:
    """Linear pieces of a polyhedral norm on the ordered cone: norm = max r.y."""
    kind = desc[0]
    if kind == "operator":
        return kyfan_row(0, n)[None]
    if kind == "trace":
        return np.full((1, n), 1.0 / n)
    if kind == "kyfan":
        return kyfan_row(float(desc[1]), n)[None]
    if kind == "tbracket":
        return np.stack([float(desc[1]) * kyfan_row(0, n), np.full(n, 1.0 / n)])
    if kind == "weight":
        return weight_row(desc[1], desc[2], n)[None]
    if kind == "supof":
        return np.stack([weight_row(b, v, n) for b, v in desc[1:]])
    if kind == "csup":
        # c is constant on [lo, hi) and the Ky Fan t-norm falls with t, so
        # the supremum over each piece sits at its left end.
        lows = _floats(desc[1])[:-1]
        return np.stack([c * kyfan_row(lo, n) for lo, c in zip(lows, desc[2])])
    raise ValueError(f"{kind} has no rows")


def lp_norm(p: float, xstar: np.ndarray) -> float:
    top = xstar[0]
    return 0.0 if top == 0 else top * float(np.mean((xstar / top) ** p) ** (1 / p))


def norm(desc, xstar: np.ndarray) -> float:
    """Closed-form norm of the nonincreasing nonnegative vector xstar."""
    if desc[0] == "lp":
        return lp_norm(desc[1], xstar)
    return float(np.max(rows(desc, xstar.size) @ xstar))


def lp_dual(p: float, xstar: np.ndarray) -> float:
    return lp_norm(p / (p - 1.0), xstar)


def _ordered_cone_block(R: np.ndarray):
    """Constraints of {y : y_1 >= ... >= y_n >= 0, R y <= 1} as A y <= b."""
    from scipy import sparse

    n = R.shape[1]
    order = sparse.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    A = sparse.vstack([order, sparse.csr_matrix(R)])
    b = np.concatenate([np.zeros(n - 1), np.ones(R.shape[0])])
    return A, b


def polyhedral_duals(desc, xstars: list[np.ndarray]) -> list[float]:
    """max (1/n) x*.y over the unit ball, for several x* of one size at once.

    The blocks share no variable, so one block-diagonal LP has each block at
    its own optimum.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    n = xstars[0].size
    A, b = _ordered_cone_block(rows(desc, n))
    k = len(xstars)
    res = linprog(
        -np.concatenate(xstars) / n,
        A_ub=sparse.block_diag([A] * k, format="csr"),
        b_ub=np.tile(b, k),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    y = res.x.reshape(k, n)
    return [float(xs @ yk) / n for xs, yk in zip(xstars, y)]


def _close(value, expected, atol=0.0, rtol=NORM_RTOL) -> bool:
    return abs(value - expected) <= atol + rtol * abs(expected)


class Checker:
    """Collects each operation's verdict: None when it matches, else a reason."""

    def __init__(self):
        self.duals = defaultdict(list)  # (desc, n) -> [(record, xstar, primal)]
        self.balls = {}  # (id(spec), n) -> (spec, desc, n)
        self.identity = {}  # (p, s) -> scipy quad error of the Lp identity

    def check(self, records) -> None:
        """Sets ``record.error`` on every record of a run."""
        for rec in records:
            if rec.error is None:
                rec.error = self._one(rec)
        self._finish_duals()
        self._finish_balls(records)

    def _one(self, rec):
        kind, out = rec.op.ref[0], rec.output
        ref = rec.op.ref
        if kind == "norm":
            _, desc, xstar = ref
            want = norm(desc, xstar)
            ok = _close(out, want, atol=16 * xstar.size * EPS * xstar[0])
            return None if ok else f"norm {out!r} != {want!r}"
        if kind == "dual":
            _, desc, xstar = ref
            primal = norm(desc, xstar)
            # Hoelder: (1/n) x*.x* <= |||x||| |||x|||^#
            if float(xstar @ xstar) / xstar.size > primal * out * (1 + 1e-9):
                return f"dual {out!r} breaks the Hoelder bound"
            if desc[0] == "lp":
                want = lp_dual(desc[1], xstar)
                return None if _close(out, want) else f"dual {out!r} != {want!r}"
            self.duals[(desc, xstar.size)].append((rec, xstar))
            return None
        if kind in ("snumbers", "trace_norm"):
            s = ref[1]
            atol = 16 * s.size * EPS * s[0]
            got = np.asarray(out, dtype=float)
            want = s if kind == "snumbers" else np.mean(s)
            if got.shape != np.shape(want) or not np.all(np.abs(got - want) <= atol):
                return f"{kind} {got.tolist()} != {np.asarray(want).tolist()}"
            return None
        if kind == "dominance":
            _, verdict, s, S = ref
            got, cert = out
            if got != verdict:
                return f"dominance verdict {got} != {verdict}"
            atol = 16 * s.size * EPS * s[0] * s.size
            if not np.allclose(cert["partial_sums_T"], np.cumsum(s), rtol=0, atol=atol):
                return "partial sums of T differ from the known s-numbers"
            sS = np.cumsum(np.linalg.svd(S, compute_uv=False))
            if not np.allclose(cert["partial_sums_S"], sS, rtol=0, atol=atol):
                return "partial sums of S differ from numpy's SVD"
            return None
        if kind == "involution":
            _, desc, xstar, spec = ref
            self.balls.setdefault((id(spec), xstar.size), (spec, desc, xstar.size))
            primal, double_dual = out
            if not _close(primal, norm(desc, xstar)):
                return f"primal {primal!r} != {norm(desc, xstar)!r}"
            return None if _close(double_dual, primal) else (
                f"double dual {double_dual!r} != primal {primal!r}")
        if kind == "representation":
            _, desc, s = ref
            lhs, rhs = out
            if not _close(lhs, norm(desc, s)):
                return f"norm {lhs!r} != {norm(desc, s)!r}"
            return None if _close(rhs, lhs) else f"representation {rhs!r} != {lhs!r}"
        if kind == "profile":
            return _profile_error(ref[1], *out)
        if kind == "lpcheck":
            _, p, s = ref
            if (p, s) not in self.identity:
                self.identity[(p, s)] = quad_identity_error(p, s)
            if self.identity[(p, s)] > 1e-9:
                return f"scipy quad misses f_p(s) by {self.identity[(p, s)]!r}"
            return None if out <= LPCHECK_GATE else f"quadrature error {out!r} > 1e-6"
        raise ValueError(f"no reference for {kind}")

    def _finish_duals(self) -> None:
        for (desc, _), items in self.duals.items():
            wants = polyhedral_duals(desc, [xs for _, xs in items])
            for (rec, _), want in zip(items, wants):
                if not _close(rec.output, want, rtol=LP_RTOL):
                    rec.error = f"dual {rec.output!r} != linprog {want!r}"
        self.duals.clear()

    def _finish_balls(self, records) -> None:
        """Every vertex the program returns lies in the ball and on the cone."""
        import gaugenorm

        bad = {}
        for key, (spec, desc, n) in self.balls.items():
            R = rows(desc, n)
            for v in gaugenorm.primal_vertices(spec, n):
                if np.any(np.diff(v) > 1e-9) or v[-1] < -1e-9 or np.max(R @ v) > 1 + 1e-9:
                    bad[key] = f"vertex {np.round(v, 6).tolist()} is outside the ball"
                    break
        for rec in records:
            if rec.op.ref[0] == "involution" and rec.error is None:
                spec, xstar = rec.op.ref[3], rec.op.ref[2]
                rec.error = bad.get((id(spec), xstar.size))
        self.balls.clear()


def _profile_error(desc, prof, mu, rec):
    """The sampled profile, its atoms and the reconstruction must agree."""
    s = np.array(prof.knots)
    vals = np.array(prof.values)
    want = np.array([norm(desc, np.array([1.0, x])) for x in s])
    if not np.allclose(vals, want, rtol=NORM_RTOL, atol=0):
        return "profile values differ from the closed-form norm of diag(1, s)"
    t = np.array([a for a, _ in mu.atoms])
    w = np.array([b for _, b in mu.atoms])
    mixture = np.maximum(t[None, :], (1 + s[:, None]) / 2) @ w
    if not np.allclose(mixture, vals, rtol=0, atol=1e-9):
        return "decomposition does not reproduce the profile"
    rebuilt = np.interp(s, np.array(rec.knots), np.array(rec.values))
    if not np.allclose(rebuilt, vals, rtol=0, atol=1e-9):
        return "reconstruction does not close the round trip"
    return None


def quad_identity_error(p: float, s: float) -> float:
    """|quad of max(t, (1+s)/2) 4 f_p''(2t-1) over [1/2, 1] - f_p(s)|.

    Integration by parts shows the integral equals f_p(s) exactly, so this
    checks the identity that lp_density_check measures, with scipy's quad.
    """
    from scipy.integrate import quad

    def f2(x):
        g = (1 + x**p) / 2
        return (p - 1) / 2 * x ** (p - 2) * g ** ((1 - p) / p) / (1 + x**p)

    def integrand(t):
        return max(t, (1 + s) / 2) * 4 * f2(2 * t - 1)

    kink = (1 + s) / 2
    total = sum(
        quad(integrand, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        for a, b in ((0.5, kink), (kink, 1.0))
    )
    return abs(total - ((1 + s**p) / 2) ** (1 / p))
