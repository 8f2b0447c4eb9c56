"""s-numbers and Lp norms against mpmath at 50 significant digits.

Every double is a binary fraction that mpmath holds exactly, and mpmath's
exponent range is unbounded, so at 50 digits its SVD and power sums give the
true answers for the very floats gaugenorm sees, far past double precision
and for operands whose squares or cubes no double can hold.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from gaugenorm import Lp, Rng64, dual_vec, norm_vec, random_matrix, random_unitary
from gaugenorm.linalg import s_numbers

mpmath = pytest.importorskip("mpmath")

EPS = np.finfo(float).eps
DPS = 50


def mp_s_numbers(T):
    with mpmath.workdps(DPS):
        A = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in T])
        s = mpmath.svd_c(A, compute_uv=False)
        return sorted((s[i] for i in range(s.rows)), reverse=True)


def graded_matrix():
    r = Rng64(41)
    U, V = random_unitary(6, r.next_u64()), random_unitary(6, r.next_u64())
    return U @ np.diag([1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-9]) @ V.conj().T


@pytest.mark.parametrize(
    "T",
    [
        np.diag([1.0, 1e-8, 3e-9]),
        graded_matrix(),
        1e200 * random_matrix(2, 8),
        1e-170 * random_matrix(2, 9),
    ],
    ids=["small-diagonal", "graded", "huge-2x2", "tiny-2x2"],
)
def test_s_numbers_match_mpmath(T):
    # A backward-stable SVD returns the exact s-numbers of T + E with
    # ||E|| <= p(n) eps ||T||, and by Weyl each s-number then moves by at
    # most ||E||: an absolute 16 n eps s_1, however small s_i is.
    n = T.shape[0]
    exact = mp_s_numbers(T)
    got = s_numbers(T)
    with mpmath.workdps(DPS):
        tol = 16 * n * EPS * exact[0]
        for s_mp, s in zip(exact, got):
            assert abs(mpmath.mpf(float(s)) - s_mp) <= tol, (float(s_mp), s)


def mp_power_mean(x, p: Fraction):
    with mpmath.workdps(DPS):
        p = mpmath.mpf(p.numerator) / p.denominator
        total = mpmath.fsum(abs(mpmath.mpf(v)) ** p for v in x)
        return (total / len(x)) ** (1 / p)


GRADED = [1.0, -0.5, 1e-3, -1e-6, 1e-9, 1e-12, 1e-15]


@pytest.mark.parametrize("p", [Fraction(3), Fraction(3, 2)], ids=["p=3", "p=3/2"])
@pytest.mark.parametrize(
    "x", [[1e200, 1e200], [1e-120, 1e-120], GRADED], ids=["huge", "tiny", "graded"]
)
def test_lp_norm_and_dual_match_mpmath(p, x):
    # Under the normalized trace the dual of Lp is Lq, q = p/(p-1), so both
    # are power means. Dividing by the top entry rounds each term once, the
    # p-th power multiplies that by p <= 3 and adds a rounding of its own,
    # the mean adds up to n roundings, and the final 1/p power and product
    # add two; 4 (n + 3) eps covers that with room for pow's ulp error.
    q = p / (p - 1)
    tol = 4 * (len(x) + 3) * EPS
    for value, exact in (
        (norm_vec(Lp(p), x), mp_power_mean(x, p)),
        (dual_vec(Lp(p), x), mp_power_mean(x, q)),
    ):
        with mpmath.workdps(DPS):
            assert abs(mpmath.mpf(value) / exact - 1) <= tol, (value, float(exact))
