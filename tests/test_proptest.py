"""The property-test harness: trial counts, the pass rule and its witnesses."""

import json
from fractions import Fraction

import numpy as np
import pytest

from gaugenorm import duality, proptest
from gaugenorm.linalg import Rng64, matrix_to_json, random_matrix
from gaugenorm.norms import KyFan, Trace


@pytest.mark.parametrize("trials", [0, -3])
def test_check_norm_axioms_rejects_trials_below_one(trials):
    # No trials check nothing, so they must not report "passed": True.
    with pytest.raises(ValueError):
        proptest.check_norm_axioms(Trace(), trials=trials)


@pytest.mark.parametrize("trials", [0, -2])
def test_run_rejects_trials_below_one(trials):
    # No trials check nothing, so the report must not say "passed": True.
    with pytest.raises(ValueError, match="trials >= 1"):
        proptest.run(["duality"], 7, trials)


def _frobenius_squared(spec, X):
    return float(np.sum(np.abs(X) ** 2))


def test_axiom_witness_is_the_json_of_the_worst_failure(monkeypatch):
    # The squared Frobenius norm breaks the triangle inequality whenever
    # Re tr(S*T) > 0 and homogeneity whenever |c| != 1. Each check keeps the
    # operands of its worst trial, in the JSON the checker once built for
    # every trial; the draws are replayed here in the checker's order.
    monkeypatch.setattr(proptest, "norm_mat", _frobenius_squared)
    n, trials, seed = 3, 20, 5
    report = proptest.check_norm_axioms(Trace(), n=n, trials=trials, seed=seed)

    f = _frobenius_squared
    rng = Rng64(seed)
    worst = {"triangle": (0.0, None), "homogeneity": (0.0, None)}
    for _ in range(trials):
        S = random_matrix(n, rng.next_u64())
        T = random_matrix(n, rng.next_u64())
        c = 2.0 * rng.gauss()
        for _ in range(4):  # the two unitaries and the two multipliers
            rng.next_u64()
        margins = {
            "triangle": (
                f(None, S + T) - (f(None, S) + f(None, T)) - 1e-9,
                {"S": matrix_to_json(S), "T": matrix_to_json(T)},
            ),
            "homogeneity": (
                abs(f(None, c * T) - abs(c) * f(None, T)) - 1e-9 * max(1.0, abs(c)),
                {"c": c, "T": matrix_to_json(T)},
            ),
        }
        for name, (margin, witness) in margins.items():
            if margin > worst[name][0]:
                worst[name] = (margin, witness)

    for name, (margin, witness) in worst.items():
        entry = report["checks"][name]
        assert entry["fail"] > 0
        assert entry["worst"] == margin
        assert json.dumps(entry["witness"]) == json.dumps(witness)
    assert report["passed"] is False


def test_axiom_check_with_a_nan_margin_fails_with_a_witness(monkeypatch):
    monkeypatch.setattr(proptest, "norm_mat", lambda spec, X: float("nan"))
    report = proptest.check_norm_axioms(KyFan(Fraction(1, 2)), n=3, trials=4)
    assert report["passed"] is False
    for entry in report["checks"].values():
        if entry["fail"]:
            assert entry["witness"] is not None
    assert report["checks"]["triangle"]["fail"] == 4


@pytest.mark.parametrize(
    "check, name, result",
    [
        ("involution_check", "involution", (1.0, float("nan"))),
        ("holder_check", "holder", (float("nan"), 1.0)),
    ],
)
def test_a_nan_in_the_duality_suite_is_a_witness(monkeypatch, check, name, result):
    # A NaN compares false against every bound, so it must count as a failure.
    monkeypatch.setattr(duality, check, lambda *args: result)
    report, witnesses = proptest.run(["duality"], seed=7, trials=10)
    assert report["passed"] is False
    assert report["suites"]["duality"]["passes"][name] == 0
    assert witnesses and all(w["check"] == name for w in witnesses)
    assert all(w["suite"] == "duality" for w in witnesses)
    json.dumps(witnesses)  # every field was converted to JSON


def test_suite_witnesses_are_json(monkeypatch):
    # A failed dominance transfer carries its operands as matrix JSON.
    original = proptest.dominance.dominance_transfer

    def broken(T, S, specs):
        report = original(T, S, specs)
        report["specs"][0]["ok"] = False
        report["passed"] = False
        return report

    monkeypatch.setattr(proptest.dominance, "dominance_transfer", broken)
    report, witnesses = proptest.run(["dominance"], seed=3, trials=6)
    assert report["passed"] is False
    assert len(witnesses) == report["suites"]["dominance"]["pairs"]
    first = witnesses[0]
    assert first["check"] == "transfer"
    assert first["T"]["n"] == first["S"]["n"] == 5
    json.dumps(witnesses)
