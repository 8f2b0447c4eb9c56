"""Majorization of s-numbers and its transfer to whole norm families.

If every top-k partial sum of the s-numbers of S is bounded by the matching
partial sum for T, then S is below T in every norm this package evaluates.
Checking the n grid points k/n suffices for the continuum of Ky Fan norms
because t times the Ky Fan t-norm is piecewise linear in t with knots k/n.
Random dominated pairs for the property runs are drawn in ``proptest``.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .norms import NormSpec, norm_mat, spec_to_json

HYPOTHESIS_SLACK = 1e-10
CONCLUSION_SLACK = 1e-9


def kyfan_dominates(T: np.ndarray, S: np.ndarray) -> tuple[bool, dict]:
    """Whether T dominates S in every Ky Fan norm, with a certificate.

    The certificate carries both partial-sum tables and the first violating
    k (1-based) when the verdict is negative. The hypothesis side gets 1e-10
    slack so roundoff cannot manufacture a spurious violation when the
    partial sums genuinely dominate.
    """
    if T.shape != S.shape:
        raise ValueError(f"dimension mismatch: {S.shape} vs {T.shape}")
    sums_S = np.cumsum(linalg.s_numbers(S))
    sums_T = np.cumsum(linalg.s_numbers(T))
    violating = None
    for k, (a, b) in enumerate(zip(sums_S, sums_T), start=1):
        if a > b + HYPOTHESIS_SLACK:
            violating = k
            break
    return violating is None, {
        "dominates": violating is None,
        "partial_sums_S": sums_S.tolist(),
        "partial_sums_T": sums_T.tolist(),
        "violating_k": violating,
    }


def dominance_transfer(
    T: np.ndarray, S: np.ndarray, specs: list[NormSpec]
) -> dict:
    """Check |||S||| <= |||T||| across a battery of norm specs.

    Requires the Ky Fan dominance hypothesis to hold; margins are reported
    per spec and a margin below -1e-9 counts as a failure.
    """
    verdict, certificate = kyfan_dominates(T, S)
    if not verdict:
        raise ValueError(
            f"dominance hypothesis fails at k={certificate['violating_k']}"
        )
    entries = []
    passed = True
    for spec in specs:
        nS = norm_mat(spec, S)
        nT = norm_mat(spec, T)
        margin = nT - nS
        ok = margin >= -CONCLUSION_SLACK
        passed = passed and ok
        entries.append(
            {
                "spec": spec_to_json(spec),
                "norm_S": nS,
                "norm_T": nT,
                "margin": margin,
                "ok": ok,
            }
        )
    return {"certificate": certificate, "specs": entries, "passed": passed}


def violating_weight(n: int, k: int):
    """The weight whose norm witnesses a failed dominance at level k.

    The flat head weight (n/k on [0, k/n), zero after) turns the k-th
    partial-sum gap directly into a weight-norm gap.
    """
    from .norms import Weight
    from .stepfn import StepFn

    values = [n / k] * k + [0.0] * (n - k)
    return Weight(StepFn.from_uniform(values))
