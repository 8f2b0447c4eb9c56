"""Matrix substrate: s-numbers, pinching, random generators, the PRNG."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugenorm import linalg
from gaugenorm.linalg import (
    Rng64,
    coordinate_partition,
    matrix_from_json,
    matrix_to_json,
    mu_step,
    operator_norm,
    pinch,
    polar_unitary,
    random_matrix,
    random_partition,
    random_projection,
    random_unitary,
    s_numbers,
    tau,
    trace_norm,
    validate_partition,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=6)


def test_splitmix64_reference_sequence():
    # first outputs of the published splitmix64 stream for seed 0
    r = Rng64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_uniform_stays_inside_open_interval():
    r = Rng64(12345)
    xs = [r.uniform() for _ in range(10_000)]
    assert all(0.0 < x < 1.0 for x in xs)


def test_gauss_moments_are_sane():
    r = Rng64(7)
    xs = np.array([r.gauss() for _ in range(20_000)])
    assert abs(xs.mean()) < 0.05
    assert abs(xs.std() - 1.0) < 0.05


def test_tau_of_identity_is_one():
    assert tau(np.eye(5)) == pytest.approx(1.0)
    assert tau(np.diag([2.0, 0.0])) == pytest.approx(1.0)


def test_matrix_json_round_trip():
    T = random_matrix(3, 99)
    back = matrix_from_json(matrix_to_json(T))
    np.testing.assert_allclose(back, T)
    with pytest.raises(ValueError):
        matrix_from_json({"n": 2, "entries": [[[1, 0]]]})
    with pytest.raises(ValueError):
        matrix_from_json({"entries": []})
    for entries in (
        [[["1", 0]]],
        [[[10**400, 0]]],
        [[[1, 0, 0]]],
        [[[1]]],
        [[None]],
        [[[float("nan"), 0]]],
        [[[0, float("inf")]]],
    ):
        with pytest.raises(ValueError):
            matrix_from_json({"n": 1, "entries": entries})
    for n in (1.7, True, "1", float("inf"), float("nan"), None):
        with pytest.raises(ValueError):
            matrix_from_json({"n": n, "entries": [[[2, 0]]]})
    np.testing.assert_allclose(matrix_from_json({"n": 1.0, "entries": [[[2, 0]]]}), [[2]])


def test_s_numbers_of_signed_diagonal():
    np.testing.assert_allclose(
        s_numbers(np.diag([-3.0, 1.0])), [3.0, 1.0], atol=1e-12
    )


def test_s_numbers_keep_small_values_of_a_diagonal():
    s = s_numbers(np.diag([1.0, 1e-8, 3e-9]))
    np.testing.assert_allclose(s, [1.0, 1e-8, 3e-9], rtol=1e-12)


def test_s_numbers_of_a_graded_matrix():
    # A Gram-matrix eigensolve loses every s-number below about 1e-7 * s_1;
    # a backward-stable SVD keeps each to an absolute 16 n eps s_1.
    graded = np.array([1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-9])
    r = Rng64(41)
    U, V = random_unitary(6, r.next_u64()), random_unitary(6, r.next_u64())
    T = U @ np.diag(graded) @ V.conj().T
    np.testing.assert_allclose(
        s_numbers(T), graded, rtol=0, atol=16 * 6 * np.finfo(float).eps
    )


def test_s_numbers_of_huge_entries_stay_finite():
    T = random_matrix(3, 8)
    s = s_numbers(1e200 * T)
    assert np.all(np.isfinite(s)) and np.all(s > 0)
    np.testing.assert_allclose(s, 1e200 * s_numbers(T), rtol=1e-12)


@pytest.mark.parametrize("entry", [1e308, 1.7e308 + 1e308j], ids=["inf", "nan"])
def test_s_numbers_past_the_float_range_raise(entry):
    # s_1 of the all-equal 2x2 matrix is 2|entry|: inf for a real entry,
    # NaN for this complex one.
    with pytest.raises(FloatingPointError):
        s_numbers(np.full((2, 2), entry, dtype=np.complex128))


def test_trace_norm_of_tiny_entries_is_positive():
    T = random_matrix(3, 9)
    assert trace_norm(1e-170 * T) > 0
    assert trace_norm(1e-170 * T) == pytest.approx(1e-170 * trace_norm(T), rel=1e-12)


@given(seeds, dims)
@settings(max_examples=60, deadline=None)
def test_s_numbers_match_svd(seed, n):
    T = random_matrix(n, seed)
    np.testing.assert_allclose(
        s_numbers(T), np.linalg.svd(T, compute_uv=False), atol=1e-8
    )


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_s_numbers_are_unitarily_invariant(seed):
    r = Rng64(seed)
    T = random_matrix(4, r.next_u64())
    U = random_unitary(4, r.next_u64())
    V = random_unitary(4, r.next_u64())
    np.testing.assert_allclose(s_numbers(U @ T @ V), s_numbers(T), atol=1e-9)


def test_mu_step_uses_uniform_partition():
    mu = mu_step(np.diag([3.0, 1.0]))
    assert mu.breakpoints == (Fraction(0), Fraction(1, 2), Fraction(1))
    assert mu.values == (3.0, 1.0)


def test_norm_oracles_on_diagonal():
    T = np.diag([3.0, -4.0])
    assert operator_norm(T) == pytest.approx(4.0)
    assert trace_norm(T) == pytest.approx(3.5)  # normalized trace of |T|


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_random_unitary_is_unitary(seed):
    U = random_unitary(5, seed)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(5), atol=1e-10)


def _gram_schmidt_unitary(n: int, seed: int) -> np.ndarray:
    """Modified Gram-Schmidt on the rows of the seeded stream, as it once was."""
    rng = Rng64(seed)
    Q = np.zeros((n, n), dtype=np.complex128)
    j = 0
    while j < n:
        v = np.array([rng.complex_gauss() for _ in range(n)])
        for k in range(j):
            v -= (Q[:, k].conj() @ v) * Q[:, k]
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            continue
        Q[:, j] = v / norm
        j += 1
    return Q


@pytest.mark.parametrize("n", range(1, 9))
def test_random_unitary_is_the_gram_schmidt_of_its_draws(n):
    # One QR with R's diagonal phases divided out gives the same unitary as
    # Gram-Schmidt on the same draws, so every seeded input keeps its value.
    for seed in range(50):
        U = random_unitary(n, seed)
        np.testing.assert_allclose(U, _gram_schmidt_unitary(n, seed), rtol=0, atol=1e-13)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(n), rtol=0, atol=1e-13)


def test_random_projection_is_projection_of_given_rank():
    cases = [(5, 2, 31)] + [
        (n, k, seed)
        for n, k in [(1, 0), (1, 1), (4, 0), (4, 1), (4, 3), (6, 6), (7, 2)]
        for seed in range(10)
    ]
    for n, k, seed in cases:
        P = random_projection(n, k, seed)
        np.testing.assert_allclose(P, P.conj().T, rtol=0, atol=1e-13)
        np.testing.assert_allclose(P @ P, P, rtol=0, atol=1e-13)
        assert np.trace(P) == pytest.approx(k, abs=1e-12)


def test_coordinate_partition_block_sizes():
    parts = coordinate_partition(5, [2, 3])
    assert len(parts) == 2
    np.testing.assert_allclose(sum(parts), np.eye(5))
    validate_partition(parts, 5)
    np.testing.assert_array_equal(parts[0], np.diag([1, 1, 0, 0, 0]))
    for i, E in enumerate(coordinate_partition(3)):
        np.testing.assert_array_equal(E, np.diag(np.eye(3)[i]))
    with pytest.raises(ValueError):
        coordinate_partition(5, [2, 2])


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_random_partition_is_orthogonal_resolution(seed):
    parts = random_partition(5, seed)
    validate_partition(parts, 5)
    np.testing.assert_allclose(sum(parts), np.eye(5), atol=1e-10)
    for i, P in enumerate(parts):
        for Q in parts[i + 1 :]:
            np.testing.assert_allclose(P @ Q, np.zeros((5, 5)), atol=1e-10)


def test_validate_partition_rejects_non_projection():
    with pytest.raises(ValueError):
        validate_partition([np.array([[0.0, 1.0], [0.0, 1.0]])], 2)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_pinch_preserves_trace_and_fixes_block_diagonals(seed):
    r = Rng64(seed)
    T = random_matrix(5, r.next_u64())
    parts = random_partition(5, r.next_u64())
    PT = pinch(T, parts)
    assert tau(PT) == pytest.approx(tau(T), abs=1e-10)
    np.testing.assert_allclose(pinch(PT, parts), PT, atol=1e-10)


@given(seeds, dims)
@settings(max_examples=40, deadline=None)
def test_polar_unitary_recovers_modulus(seed, n):
    T = random_matrix(n, seed)
    U = polar_unitary(T)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(n), atol=1e-9)
    absT = U.conj().T @ T
    np.testing.assert_allclose(absT, absT.conj().T, atol=1e-8)
    assert np.linalg.eigvalsh(absT).min() > -1e-8


def test_random_matrix_is_seed_deterministic():
    np.testing.assert_allclose(random_matrix(4, 5), random_matrix(4, 5))
    assert not np.allclose(random_matrix(4, 5), random_matrix(4, 6))
