"""Partial-sum dominance certificates and norm transfer."""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugenorm as gn
from gaugenorm import KyFan, Lp, TBracket, Trace
from gaugenorm.dominance import (
    DimensionMismatchError,
    dominance_transfer,
    kyfan_dominates,
    violating_weight,
)
from gaugenorm.proptest import majorization_pair

seeds = st.integers(min_value=0, max_value=2**32 - 1)
STYLES = ("contraction", "unitary_mix", "pinch")


def battery(n):
    return [
        Trace(),
        gn.Operator(),
        Lp(2),
        KyFan(Fraction(1, n)),
        KyFan(Fraction(n - 1, n)),
        TBracket(Fraction(3, 4)),
    ]


def test_verdicts_on_diagonal_pairs():
    ok, cert = kyfan_dominates(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
    assert ok
    assert cert["violating_k"] is None
    assert cert["partial_sums_S"] == pytest.approx([1.0, 2.0])
    assert cert["partial_sums_T"] == pytest.approx([2.0, 2.0])

    ok, cert = kyfan_dominates(np.diag([1.0, 1.0]), np.diag([2.0, 0.0]))
    assert not ok
    assert cert["violating_k"] == 1


def test_equal_matrices_dominate_with_zero_margins():
    T = gn.random_matrix(3, 8)
    ok, cert = kyfan_dominates(T, T)
    assert ok
    report = dominance_transfer(T, T, battery(3))
    assert report["passed"]
    for entry in report["specs"]:
        assert entry["margin"] == pytest.approx(0.0, abs=1e-12)


def test_dimension_mismatch_is_rejected():
    with pytest.raises(ValueError):
        kyfan_dominates(np.eye(2), np.eye(3))


def test_dimension_mismatch_has_its_own_value_error():
    with pytest.raises(DimensionMismatchError, match=r"\(2, 2\) vs \(3, 3\)"):
        kyfan_dominates(np.eye(3), np.eye(2))
    assert issubclass(DimensionMismatchError, ValueError)


def test_partial_sums_past_the_float_range_raise():
    # Each s-number is finite, but s_1 + s_2 = 3e308 is not; the sums once
    # came back as inf, with numpy's overflow warning.
    D = np.diag([1.5e308, 1.5e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            kyfan_dominates(D, D)
        with pytest.raises(FloatingPointError):
            kyfan_dominates(D, np.diag([1.0, 0.0]))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_partial_sums_are_those_of_np_cumsum(seed):
    S, T = gn.random_matrix(5, seed), gn.random_matrix(5, seed + 1)
    _, cert = kyfan_dominates(T, S)
    assert cert["partial_sums_S"] == np.cumsum(gn.s_numbers(S)).tolist()
    assert cert["partial_sums_T"] == np.cumsum(gn.s_numbers(T)).tolist()


@given(seeds, st.sampled_from(STYLES))
@settings(max_examples=60, deadline=None)
def test_generated_pairs_satisfy_the_hypothesis(seed, style):
    rng = gn.Rng64(seed)
    T, S = majorization_pair(4, rng, style)
    ok, cert = kyfan_dominates(T, S)
    assert ok, cert


@given(seeds, st.sampled_from(STYLES))
@settings(max_examples=40, deadline=None)
def test_dominance_transfers_to_every_spec(seed, style):
    rng = gn.Rng64(seed)
    T, S = majorization_pair(4, rng, style)
    report = dominance_transfer(T, S, battery(4))
    assert report["passed"], report
    for entry in report["specs"]:
        assert entry["margin"] >= -1e-9


def test_transfer_requires_the_hypothesis():
    with pytest.raises(ValueError):
        dominance_transfer(np.diag([1.0, 1.0]), np.diag([2.0, 0.0]), battery(2))


def test_violating_weight_turns_the_gap_into_a_norm_gap():
    S = np.diag([2.0, 0.0])
    T = np.diag([1.0, 1.0])
    ok, cert = kyfan_dominates(T, S)
    assert not ok and cert["violating_k"] == 1
    w = violating_weight(2, cert["violating_k"])
    assert gn.norm_mat(w, S) > gn.norm_mat(w, T)
    # the weight norm reads off exactly the violated partial sum
    assert gn.norm_mat(w, S) == pytest.approx(cert["partial_sums_S"][0])
    assert gn.norm_mat(w, T) == pytest.approx(cert["partial_sums_T"][0])


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_certificate_partial_sums_match_s_numbers(seed):
    T = gn.random_matrix(3, seed)
    _, cert = kyfan_dominates(T, T)
    np.testing.assert_allclose(
        cert["partial_sums_T"], np.cumsum(gn.s_numbers(T)), atol=1e-12
    )


SCALES = [1e-200, 1e-100, 1e-11, 1e-9, 1.0, 1e10, 1e100, 1e200]


@pytest.mark.parametrize("scale", SCALES)
def test_a_halved_matrix_never_dominates_at_any_scale(scale):
    # An absolute 1e-10 slack once let T = S/2 dominate S = diag(2a, 0) from
    # about a = 1e-11 down, and dominance_transfer then passed Trace and
    # Operator although S has twice T's norm in both.
    S = np.diag([2.0 * scale, 0.0])
    ok, cert = kyfan_dominates(S / 2.0, S)
    assert not ok and cert["violating_k"] == 1
    with pytest.raises(ValueError):
        dominance_transfer(S / 2.0, S, battery(2))


@pytest.mark.parametrize("scale", SCALES)
def test_a_contraction_pair_dominates_at_every_scale(scale):
    # S = T K with ||K|| <= 1 gives s_k(S) <= s_k(T) for every k
    T = scale * gn.random_matrix(4, 11)
    K = 0.9 * gn.random_unitary(4, 12) @ np.diag([1.0, 0.8, 0.5, 0.0])
    S = T @ K
    ok, _ = kyfan_dominates(T, S)
    assert ok
    report = dominance_transfer(T, S, battery(4))
    assert report["passed"], report


@pytest.mark.parametrize("scale", [1e6, 1e10])
def test_a_unitary_conjugate_dominates_at_large_scale(scale):
    # U S U* has the same s-numbers as S. With an absolute slack, roundoff
    # in the partial sums reported it as not dominating S in 40/50 seeds at
    # 1e6 and 28/50 at 1e10.
    for seed in range(50):
        S = scale * gn.random_matrix(6, seed)
        U = gn.random_unitary(6, 1000 + seed)
        T = U @ S @ U.conj().T
        ok, cert = kyfan_dominates(T, S)
        assert ok, (seed, cert)
