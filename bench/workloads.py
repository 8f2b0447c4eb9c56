"""The four workloads: seeded inputs, grouped into rounds of public calls.

Every workload is a closed loop: one caller sends the next call only after the
previous one returned. A run repeats whole rounds. Each round has the same
make-up (which calls, at which n, with which spec shapes); the seed and the
round index choose the numbers inside it. So a run's share of each kind of
call, and of failed calls, does not depend on the seed or the run length,
and each operation of the round costs about the same in every round.

The program receives only finished inputs: specs, numpy arrays and, on
``large-n``, the CLI's JSON matrix objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F
from functools import cache, partial

import gaugenorm as gn
import numpy as np

import specs

WORKLOADS = ("small-batch", "large-n", "unit-ball", "lp-quadrature")


@dataclass
class Op:
    """One timed operation: usually one public call, sometimes a short chain.

    ``ref`` describes the expected result for ``reference.py``. ``fault``
    names a known program fault that makes this operation fail; such
    operations are counted as failed without making the run incorrect.
    ``slot`` says which operation of the round this is, where the round's
    order is shuffled; otherwise its position in the round says so.
    """

    kind: str
    call: object
    ref: tuple
    fault: str | None = None
    slot: int | None = None


# On `large-n` and `unit-ball` the spec shapes (breakpoints, piece counts,
# Ky Fan cells) and a base operand for each slot of the round come from this
# fixed seed; the run's seed moves every spec value and operand entry by up
# to 1 % in every round. So no spec recurs, yet an operation costs the same
# in every round and every run: with shapes and operands drawn afresh, one
# n = 64 SupOf dual took 3.5 to 5.9 ms with the operand alone and a Ky Fan
# dual at n = 512 took 2 to 36 ms with t, and the quickest of a run's calls
# of one slot moved with the luck of its draws.
SHAPE_SEED = 2007


def _rng(seed: int, workload: str, round_index: int, stream: int):
    return np.random.default_rng([seed, WORKLOADS.index(workload), round_index, stream])


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar-distributed unitary: QR of a complex Gaussian, phases fixed."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def with_singular_values(s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """U diag(s) V* for Haar U and V, so the s-numbers are known."""
    n = s.size
    return (haar_unitary(n, rng) * s) @ haar_unitary(n, rng).conj().T


def benign_s(n: int, rng: np.random.Generator) -> np.ndarray:
    """Nonincreasing s-numbers within a factor 10 of each other."""
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    return np.sort(rng.uniform(0.1, 1.0, size=n))[::-1] * scale


def perturb(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """base with every entry moved by up to 1 %."""
    return base * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, base.shape))


def matrix_json(T: np.ndarray) -> dict:
    """The CLI's matrix object: complex entries as [re, im] pairs."""
    return {"n": T.shape[0], "entries": np.stack([T.real, T.imag], axis=-1).tolist()}


# ---------------------------------------------------------------------------
# small-batch: n = 2..16, one fixed battery on every operand

BATTERY = (
    ("operator",),
    ("trace",),
    ("kyfan", F(1, 3)),
    ("kyfan", F(3, 4)),
    ("tbracket", F(2, 3)),
    ("lp", 3.0),
    ("lp", 1.5),
    ("weight", (F(0), F(1, 4), F(1, 2), F(1)), (2.0, 1.0, 0.5)),
    (
        "supof",
        ((F(0), F(1, 2), F(1)), (1.5, 0.5)),
        ((F(0), F(1, 8), F(1)), (4.0, 4.0 / 7.0)),
    ),
    ("csup", (F(0), F(1, 4), F(3, 4), F(1)), (1.0, 0.6, 0.3)),
)
SMALL_NS = tuple(range(2, 17))
PAIR_STYLES = ("contracted", "pinched", "scaled")


def _float_range_slice() -> list[Op]:
    """Operations outside the O(1) range; each fails today for a named fault.

    Their inputs come from a fixed generator, not from the run's seed.
    """
    rng = np.random.default_rng(20070)
    ops = []
    graded3 = np.array([1.0, 1e-8, 3e-9])
    graded6 = np.array([1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-9])
    clamp = "linalg.s_numbers: Gram route clamps s-numbers below 1e-7*s1 to 0"
    ops.append(Op("snumbers", partial(gn.s_numbers, np.diag(graded3).astype(complex)),
                  ("snumbers", graded3), clamp))
    ops.append(Op("snumbers", partial(gn.s_numbers, with_singular_values(graded6, rng)),
                  ("snumbers", graded6), clamp))
    for scale, fault in (
        (1e200, "linalg.s_numbers: Gram matrix overflows to NaN, result is 0"),
        (1e-170, "linalg.s_numbers: Gram matrix underflows, result is 0"),
    ):
        s = np.array([3.0, 1.0]) * scale
        T = with_singular_values(np.array([3.0, 1.0]), rng) * scale
        ops.append(Op("snumbers", partial(gn.s_numbers, T), ("snumbers", s), fault))
        ops.append(Op("trace_norm", partial(gn.trace_norm, T), ("trace_norm", s), fault))
    for x, fault in (
        (np.array([1e200, 1e200]), "norms.Lp primal: unscaled power sum overflows (OverflowError)"),
        (np.array([1e-120, 1e-120]), "norms.Lp primal: unscaled power sum underflows to 0"),
    ):
        ops.append(Op("norm", partial(gn.norm_vec, gn.Lp(3), x),
                      ("norm", ("lp", 3.0), x), fault))
    return ops


def _dominance_pair(T, s, style, rng):
    n = s.size
    if style == "contracted":
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = G / (np.linalg.norm(G, 2) * (1.0 + rng.uniform(0.1, 1.0)))
        return A @ T, True
    if style == "pinched":
        W = haar_unitary(n, rng)
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 2), replace=False))
        X = W.conj().T @ T @ W
        blocks = np.zeros_like(X)
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            blocks[lo:hi, lo:hi] = X[lo:hi, lo:hi]
        return W @ blocks @ W.conj().T, True
    return rng.uniform(1.1, 2.0) * T, False


def small_batch_specs(seed: int):
    return [specs.build(d) for d in BATTERY]


def small_batch_round(seed: int, index: int, battery):
    rng = _rng(seed, "small-batch", index, 1)
    yield from _float_range_slice()
    for j, n in enumerate(SMALL_NS):
        s = benign_s(n, rng)
        T = with_singular_values(s, rng)
        for desc, spec in zip(BATTERY, battery):
            yield Op("norm", partial(gn.norm_mat, spec, T), ("norm", desc, s))
            yield Op("dual", partial(gn.dual_mat, spec, T), ("dual", desc, s))
        S, verdict = _dominance_pair(T, s, PAIR_STYLES[j % 3], rng)
        yield Op("dominance", partial(gn.kyfan_dominates, T, S), ("dominance", verdict, s, S))


# ---------------------------------------------------------------------------
# large-n: n = 64..512, a fresh spec for every operand

VECTOR_NS = (64, 128, 256, 512)
MATRIX_NS = (64, 128, 256)
LARGE_KINDS = ("weight", "supof", "csup", "kyfan", "lp")


def _large_desc(kind: str, n: int, rng):
    denom = 4 * n
    if kind == "weight":
        return specs.weight(rng, n // 16, denom)
    if kind == "supof":
        return specs.supof(rng, 3, max(2, n // 64), denom)
    if kind == "csup":
        return specs.csup(rng, 8, denom)
    if kind == "kyfan":
        return specs.kyfan(rng, denom)
    return specs.lp(rng)


@cache
def _large_shapes():
    """(shape, n, spec description, base operand) for each operand of a round.

    One vector operand per (n, kind), then one matrix operand per size; the
    base of a matrix operand is its s-numbers. Matrices stop at n = 256: a
    512 eigensolve takes 0.4 s on one thread and would time LAPACK rather
    than the layers this workload is for. A dual's weight-row build costs in
    proportion to n times the pieces, so Weight has n/16 pieces and SupOf
    members n/64 (at least 2): a round then takes under a second and each
    operation recurs a few dozen times in a run.
    """
    rng = np.random.default_rng(SHAPE_SEED)
    out = [
        ("vector", n, _large_desc(kind, n, rng),
         rng.standard_normal(n) * 10.0 ** rng.uniform(-1.0, 1.0))
        for n in VECTOR_NS for kind in LARGE_KINDS
    ]
    out += [
        ("matrix", n, _large_desc(kind, n, rng), benign_s(n, rng))
        for n, kind in zip(MATRIX_NS, LARGE_KINDS)
    ]
    return tuple(out)


def large_n_descs(seed: int, index: int):
    """A fresh spec of each operand's shape for this round."""
    rng = _rng(seed, "large-n", index, 0)
    return [(shape, n, specs.jitter(desc, rng)) for shape, n, desc, _ in _large_shapes()]


def large_n_specs(seed: int):
    return [specs.build(d) for _, _, d in large_n_descs(seed, 0)]


def _parse_then_norm(spec, obj):
    return gn.norm_mat(spec, gn.linalg.matrix_from_json(obj))


def large_n_round(seed: int, index: int, prepared=None):
    rng = _rng(seed, "large-n", index, 1)
    for (shape, n, desc), (*_, base) in zip(large_n_descs(seed, index), _large_shapes()):
        spec = specs.build(desc)
        if shape == "vector":
            x = perturb(base, rng)
            xstar = np.sort(np.abs(x))[::-1]
            yield Op("norm", partial(gn.norm_vec, spec, x), ("norm", desc, xstar))
            yield Op("dual", partial(gn.dual_vec, spec, x), ("dual", desc, xstar))
        else:
            s = np.sort(perturb(base, rng))[::-1]
            T = with_singular_values(s, rng)
            yield Op("norm", partial(_parse_then_norm, spec, matrix_json(T)), ("norm", desc, s))
            yield Op("dual", partial(gn.dual_mat, spec, T), ("dual", desc, s))


# ---------------------------------------------------------------------------
# unit-ball: double description at n = 3..8, profile round trips on 2x2

# Two spec kinds at every n, so that latencies form a continuum rather than
# a few clusters.
BALL_SLOTS = (
    (3, "supof"), (3, "csup"), (4, "supof"), (4, "weight"), (5, "weight"), (5, "csup"),
    (6, "supof"), (6, "csup"), (7, "supof"), (7, "weight"), (8, "weight"), (8, "csup"),
)
OPERANDS_PER_SPEC = 2
REPRESENTATION_NS = (4, 6)
PROFILE_KINDS = ("weight", "supof", "csup", "weight")


def _ball_desc(kind: str, rng):
    if kind == "weight":
        return specs.weight(rng, 4, 64)
    if kind == "supof":
        return specs.supof(rng, 2, 3, 64)
    return specs.csup(rng, 3, 64)


@cache
def _ball_shapes():
    """Spec descriptions with their base operands: vectors for the
    involution checks, s-numbers for the representation checks."""
    rng = np.random.default_rng(SHAPE_SEED)
    ball = [
        (n, _ball_desc(kind, rng), [rng.standard_normal(n) for _ in range(OPERANDS_PER_SPEC)])
        for n, kind in BALL_SLOTS
    ]
    rep = [(n, specs.supof(rng, 2, 3, 64), benign_s(n, rng)) for n in REPRESENTATION_NS]
    prof = [_ball_desc(kind, rng) for kind in PROFILE_KINDS]
    return ball, rep, prof


def unit_ball_descs(seed: int, index: int):
    """Fresh specs of the fixed shapes for this round."""
    rng = _rng(seed, "unit-ball", index, 0)
    ball, rep, prof = _ball_shapes()
    return (
        [(n, specs.jitter(d, rng)) for n, d, _ in ball],
        [(n, specs.jitter(d, rng)) for n, d, _ in rep],
        [specs.jitter(d, rng) for d in prof],
    )


def unit_ball_specs(seed: int):
    ball, rep, prof = unit_ball_descs(seed, 0)
    return [specs.build(d) for _, d in ball + rep] + [specs.build(d) for d in prof]


def _profile_chain(spec):
    prof = gn.profile_of(spec)
    mu = gn.decompose(prof)
    return prof, mu, gn.reconstruct(mu)


def unit_ball_round(seed: int, index: int, prepared=None):
    rng = _rng(seed, "unit-ball", index, 1)
    ball, rep, prof = unit_ball_descs(seed, index)
    base_ball, base_rep, _ = _ball_shapes()
    for (n, desc), (_, _, bases) in zip(ball, base_ball):
        spec = specs.build(desc)
        for base in bases:
            x = perturb(base, rng)
            yield Op("ball", partial(gn.involution_check, spec, x),
                     ("involution", desc, np.sort(np.abs(x))[::-1], spec))
    for (n, desc), (_, _, base) in zip(rep, base_rep):
        s = np.sort(perturb(base, rng))[::-1]
        T = with_singular_values(s, rng)
        yield Op("ball", partial(gn.representation_check, specs.build(desc), T),
                 ("representation", desc, s))
    for desc in prof:
        yield Op("profile", partial(_profile_chain, specs.build(desc)), ("profile", desc))


# ---------------------------------------------------------------------------
# lp-quadrature: fixed (p, s) points, one s point per call

# The cost of one point swings by orders of magnitude with s: p = 1.5 takes
# 0.02 s at s = 0.5 but 4 s at s = 0.4 and 6 s at s = 0.6. So the points are
# fixed, and each takes at most about 60 ms, which keeps a round near 0.3 s
# and lets every point recur about fifty times in a run. s = 0.5 is cheap for
# every p, which is how p = 1.2..1.5 get in. The seed only orders the calls
# within a round.
LP_POINTS = (
    (4.0, 0.7), (3.0, 0.5), (2.5, 0.3), (1.9, 0.5), (1.85, 0.3), (1.85, 0.9),
    (1.8, 0.3), (1.8, 0.4), (1.8, 0.6), (1.8, 0.8), (1.75, 0.3),
    (1.5, 0.5), (1.4, 0.5), (1.3, 0.5), (1.2, 0.5),
)


def lp_quadrature_specs(seed: int):
    return [gn.Lp(p) for p in sorted({p for p, _ in LP_POINTS})]


def lp_quadrature_round(seed: int, index: int, prepared=None):
    for i in _rng(seed, "lp-quadrature", index, 1).permutation(len(LP_POINTS)):
        p, s = LP_POINTS[i]
        yield Op("lpcheck", partial(gn.lp_density_check, p, [s]), ("lpcheck", p, s), slot=int(i))


SETUP = {
    "small-batch": small_batch_specs,
    "large-n": large_n_specs,
    "unit-ball": unit_ball_specs,
    "lp-quadrature": lp_quadrature_specs,
}
ROUND = {
    "small-batch": small_batch_round,
    "large-n": large_n_round,
    "unit-ball": unit_ball_round,
    "lp-quadrature": lp_quadrature_round,
}
