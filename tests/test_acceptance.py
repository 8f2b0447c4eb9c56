"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with ``pytest -v tests/test_acceptance.py``; every test prints
``criterion NN PASS/FAIL: detail`` in addition to its pytest outcome.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

import gaugenorm as gn
from gaugenorm import (
    CSup,
    KyFan,
    KyFanZero,
    Lp,
    Operator,
    Rng64,
    StepFn,
    SupOf,
    TBracket,
    Trace,
    Weight,
)
from gaugenorm.extreme2 import Profile


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def battery20() -> list:
    """20 normalized specs reused across the transfer/sandwich criteria."""
    rng = Rng64(2024)
    specs = [
        Trace(),
        Operator(),
        KyFanZero(),
        Lp(Fraction(3, 2)),
        Lp(2),
        Lp(3),
        Lp(7),
    ]
    for t in (
        Fraction(1, 8),
        Fraction(1, 4),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(3, 4),
        Fraction(7, 8),
        Fraction(1),
    ):
        specs.append(KyFan(t))
    specs.append(TBracket(Fraction(3, 5)))
    specs.append(TBracket(Fraction(9, 10)))
    specs.append(Weight(gn.proptest.random_weight_fn(6, rng, normalized=True)))
    specs.append(SupOf(gn.proptest.random_supof_fns(6, rng, 3, normalized=True)))
    specs.append(
        CSup(StepFn((Fraction(0), Fraction(1, 2), Fraction(1)), (1.0, 0.5)))
    )
    assert len(specs) == 20
    return specs


def test_criterion_01_kyfan_matches_partial_sum_arithmetic():
    rng = Rng64(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = 1 + rng.next_u64() % 8
        T = gn.random_matrix(n, rng.next_u64())
        s = gn.s_numbers(T)
        for k in range(1, n + 1):
            direct = s[:k].sum() / k
            worst = max(
                worst, abs(gn.norm_mat(KyFan(Fraction(k, n)), T) - direct)
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _line(1, ok, f"max |norm - mean(top k)| = {worst:.2e} in {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_kyfan_dual_closed_form():
    rng = Rng64(202)
    start = time.perf_counter()
    worst = 0.0

    def gap(spec_t, x):
        xstar = np.sort(np.abs(np.asarray(x, dtype=np.complex128)))[::-1].real
        closed = max(float(spec_t) * xstar[0], float(xstar.mean()))
        return abs(gn.dual_vec(KyFan(spec_t), x) - closed)

    for i in range(500):
        n = 1 + rng.next_u64() % 8
        k = 1 + rng.next_u64() % n
        t = Fraction(int(k), int(n))
        if i % 2 == 0:
            x = [rng.gauss() for _ in range(n)]
            worst = max(worst, gap(t, x))
        else:
            T = gn.random_matrix(n, rng.next_u64())
            worst = max(worst, gap(t, gn.s_numbers(T)))
    for _ in range(20):
        n = 2 + rng.next_u64() % 7
        t = rng.uniform()  # generic t, never of the form k/n
        x = [rng.gauss() for _ in range(n)]
        worst = max(worst, gap(t, x))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _line(2, ok, f"max |LP - bracket form| = {worst:.2e} in {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_03_double_dual_involution():
    rng = Rng64(303)
    weight_rng = Rng64(17)
    weights = [
        Weight(gn.proptest.random_weight_fn(8, weight_rng)) for _ in range(10)
    ]
    sups = [
        SupOf(gn.proptest.random_supof_fns(8, weight_rng, 3)) for _ in range(5)
    ]
    families = [Trace(), Operator(), "kyfan", *weights, *sups]
    worst = 0.0
    count = 0
    for family in families:
        for _ in range(200):
            n = 2 + rng.next_u64() % 7
            spec = family
            if spec == "kyfan":
                k = 1 + rng.next_u64() % n
                spec = KyFan(Fraction(int(k), int(n)))
            x = [rng.gauss() for _ in range(n)]
            primal, double = gn.involution_check(spec, x)
            worst = max(worst, abs(primal - double))
            count += 1
    ok = worst <= 1e-8
    _line(3, ok, f"max |norm - double dual| = {worst:.2e} over {count} vectors")
    assert worst <= 1e-8


def test_criterion_04_supremum_norms_equal_their_dual_ball_form():
    rng = Rng64(404)
    worst = 0.0
    for _ in range(100):
        n = 2 + rng.next_u64() % 5
        spec = SupOf(gn.proptest.random_supof_fns(n, rng, 2 + rng.next_u64() % 3))
        T = gn.random_matrix(n, rng.next_u64())
        lhs, rhs = gn.representation_check(spec, T)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-8
    _line(4, ok, f"max |norm - vertex pairing max| = {worst:.2e} over 100 pairs")
    assert worst <= 1e-8


def test_criterion_05_dominance_transfers_across_battery():
    rng = Rng64(505)
    specs = battery20()
    styles = ("contraction", "unitary_mix", "pinch")
    worst = 0.0
    failures = 0
    for i in range(300):
        n = 2 + rng.next_u64() % 5
        T, S = gn.majorization_pair(n, rng, styles[i % 3])
        report = gn.dominance_transfer(T, S, specs)
        margin = min(entry["margin"] for entry in report["specs"])
        worst = min(worst, margin)
        if not report["passed"]:
            failures += 1
    ok = failures == 0 and worst >= -1e-9
    _line(5, ok, f"0 false counterexamples target, got {failures}; "
                 f"worst margin {worst:.2e} over 300 pairs x 20 specs")
    assert failures == 0
    assert worst >= -1e-9


def test_criterion_06_sandwich_between_trace_and_operator_norms():
    rng = Rng64(606)
    specs = battery20()
    worst = 0.0
    for _ in range(500):
        n = 1 + rng.next_u64() % 6
        T = gn.random_matrix(n, rng.next_u64())
        mu = gn.mu_step(T)
        low = gn.trace_norm(T)
        high = gn.operator_norm(T)
        for spec in specs:
            value = gn.norm_step(spec, mu)
            worst = max(worst, low - value, value - high)
    ok = worst <= 1e-10
    _line(6, ok, f"max sandwich violation = {worst:.2e} over 500 matrices")
    assert worst <= 1e-10


def test_criterion_07_holder_pairs_norm_against_dual():
    rng = Rng64(707)
    specs = battery20()
    worst = 0.0
    for i in range(300):
        n = 2 + rng.next_u64() % 5
        S = gn.random_matrix(n, rng.next_u64())
        T = gn.random_matrix(n, rng.next_u64())
        lhs, rhs = gn.holder_check(specs[i % len(specs)], S, T)
        worst = max(worst, lhs - rhs)
    ok = worst <= 1e-8
    _line(7, ok, f"max trace-norm excess = {worst:.2e} over 300 pairs")
    assert worst <= 1e-8


def test_criterion_08_pinching_contracts_every_norm():
    rng = Rng64(808)
    specs = battery20()
    worst = 0.0
    for i in range(300):
        n = 2 + rng.next_u64() % 5
        T = gn.random_matrix(n, rng.next_u64())
        parts = gn.random_partition(n, rng.next_u64())
        PT = gn.pinch(T, parts)
        spec = specs[i % len(specs)]
        worst = max(worst, gn.norm_mat(spec, PT) - gn.norm_mat(spec, T))
    ok = worst <= 1e-10
    _line(8, ok, f"max pinching excess = {worst:.2e} over 300 samples")
    assert worst <= 1e-10


def _random_step(rng: Rng64) -> StepFn:
    if rng.next_u64() % 2 == 0:
        n = 1 + rng.next_u64() % 8
        return StepFn.from_uniform([rng.uniform() * 10 for _ in range(n)])
    cuts = sorted(
        {Fraction(1 + rng.next_u64() % 23, 24) for _ in range(rng.next_u64() % 4)}
    )
    bps = (Fraction(0), *cuts, Fraction(1))
    return StepFn(bps, tuple(rng.uniform() * 10 for _ in bps[:-1]))


def test_criterion_09_rearranged_pairing_dominates():
    rng = Rng64(909)
    worst = 0.0
    for _ in range(1000):
        f = _random_step(rng)
        g = _random_step(rng)
        worst = max(
            worst,
            gn.pairing(f, g)
            - gn.pairing(gn.rearrange(f), gn.rearrange(g)),
        )
    ok = worst <= 1e-10
    _line(9, ok, f"max pairing excess = {worst:.2e} over 1000 pairs")
    assert worst <= 1e-10


def test_criterion_10_profile_decomposition_round_trip():
    rng = Rng64(1010)
    worst = 0.0
    for _ in range(100):
        prof = gn.random_admissible_profile(rng)
        back = gn.reconstruct(gn.decompose(prof))
        for k, v in zip(prof.knots, prof.values):
            worst = max(worst, abs(back(k) - v))
    atom_worst = 0.0
    for _ in range(100):
        raw = [(0.5 + 0.5 * rng.uniform(), rng.uniform()) for _ in range(3)]
        total = sum(w for _, w in raw)
        mu = gn.AtomicMeasure(tuple((t, w / total) for t, w in raw))
        back = gn.decompose(gn.reconstruct(mu))
        assert len(back.atoms) == len(mu.atoms)
        for (t1, w1), (t2, w2) in zip(back.atoms, mu.atoms):
            atom_worst = max(atom_worst, abs(t1 - t2), abs(w1 - w2))
    ok = worst <= 1e-10 and atom_worst <= 1e-10
    _line(
        10,
        ok,
        f"profile error {worst:.2e}, atom error {atom_worst:.2e} over 100+100",
    )
    assert worst <= 1e-10
    assert atom_worst <= 1e-10


def test_criterion_11_lp_profiles_integrate_against_extreme_points():
    worst = {}
    for p in (1.5, 2.0, 3.0, 10.0):
        worst[p] = gn.lp_density_check(p)
    spot = abs(Profile.lp(2)(0.0) - np.sqrt(0.5))
    ok = max(worst.values()) <= 1e-6 and spot <= 1e-6
    detail = ", ".join(f"p={p}: {e:.1e}" for p, e in worst.items())
    _line(11, ok, f"{detail}; |f2(0) - sqrt(1/2)| = {spot:.1e}")
    assert max(worst.values()) <= 1e-6
    assert spot <= 1e-6


def test_criterion_12_partial_sum_supremum_is_attained():
    rng = Rng64(1212)
    worst_attain = 0.0
    worst_excess = 0.0
    samples = 0
    for _ in range(100):
        n = 2 + rng.next_u64() % 5
        T = gn.random_matrix(n, rng.next_u64())
        s = gn.s_numbers(T)
        W = gn.polar_unitary(T)
        _, _, vh = np.linalg.svd(T)
        for k in range(1, n + 1):
            target = s[:k].sum() / n
            E = vh[:k].conj().T @ vh[:k]
            attained = abs(gn.tau(W.conj().T @ T @ E))
            worst_attain = max(worst_attain, abs(attained - target))
        for _ in range(10):
            k = 1 + rng.next_u64() % n
            target = s[:k].sum() / n
            U = gn.random_unitary(n, rng.next_u64())
            E = gn.random_projection(n, int(k), rng.next_u64())
            worst_excess = max(
                worst_excess, abs(gn.tau(U @ T @ E)) - target
            )
            samples += 1
    ok = worst_attain <= 1e-8 and worst_excess <= 1e-8
    _line(
        12,
        ok,
        f"witness gap {worst_attain:.2e}; max random excess {worst_excess:.2e} "
        f"over {samples} samples",
    )
    assert worst_attain <= 1e-8
    assert worst_excess <= 1e-8
