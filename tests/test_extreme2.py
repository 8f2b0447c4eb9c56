"""Profiles of 2x2 norms, extreme-point decomposition, and the Lp identity."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugenorm as gn
from gaugenorm import extreme2 as ex2
from gaugenorm import (
    CSup,
    KyFan,
    Lp,
    Operator,
    StepFn,
    SupOf,
    TBracket,
    Trace,
    Weight,
    norm_vec,
)
from gaugenorm.extreme2 import (
    AtomicMeasure,
    Profile,
    admissibility_violations,
    check_admissible,
    decompose,
    lp_density_check,
    profile_csv,
    profile_of,
    reconstruct,
)
from gaugenorm.proptest import not_convex_combination, random_admissible_profile

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_profile_interpolation_and_validation():
    p = Profile.piecewise_linear([0.0, 0.5, 1.0], [0.75, 0.75, 1.0])
    assert p(0.25) == pytest.approx(0.75)
    assert p(0.75) == pytest.approx(0.875)
    with pytest.raises(ValueError):
        Profile.piecewise_linear([0.0, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError):
        Profile.piecewise_linear([0.0, 0.5, 0.5, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        p(1.5)


def test_exact_profiles_of_named_specs():
    assert profile_of(Operator()).values == (1.0, 1.0)
    assert profile_of(Trace()).values == (0.5, 1.0)
    bracket = profile_of(TBracket(0.75))
    assert bracket.knots == (0.0, 0.5, 1.0)
    assert bracket.values == (0.75, 0.75, 1.0)
    lp = profile_of(Lp(2))
    assert lp(0.0) == pytest.approx(np.sqrt(0.5))
    assert lp(1.0) == pytest.approx(1.0)


def test_sampled_profiles_match_known_closed_forms():
    # on 2x2 matrices the Ky Fan 1/2-norm is the operator norm and the
    # full-interval Ky Fan norm is the trace norm
    top = profile_of(KyFan(Fraction(1, 2)))
    full = profile_of(KyFan(1))
    for s in np.linspace(0.0, 1.0, 17):
        assert top(float(s)) == pytest.approx(1.0, abs=1e-12)
        assert full(float(s)) == pytest.approx((1.0 + s) / 2.0, abs=1e-12)


def random_polyhedral_spec(seed):
    """A normalized SupOf, CSup, Weight, KyFan or TBracket spec."""
    rng = gn.Rng64(seed)
    kind = seed % 5
    pieces = 1 + rng.next_u64() % 6
    if kind == 0:
        count = 1 + rng.next_u64() % 4
        return SupOf(gn.proptest.random_supof_fns(pieces, rng, count, normalized=True))
    if kind == 1:
        cuts = sorted({Fraction(rng.next_u64() % 97 + 1, 98) for _ in range(pieces)})
        values = [rng.uniform() for _ in range(len(cuts) + 1)]
        values[rng.next_u64() % len(values)] = 1.0
        return CSup(StepFn((Fraction(0), *cuts, Fraction(1)), tuple(values)))
    if kind == 2:
        return Weight(gn.proptest.random_weight_fn(pieces, rng, normalized=True))
    if kind == 3:
        t = Fraction(rng.next_u64() % 64 + 1, 64) if seed % 2 else rng.uniform()
        return KyFan(t)
    return TBracket(0.5 + 0.5 * rng.uniform())


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_profile_is_the_norm_of_diag_one_s(seed):
    spec = random_polyhedral_spec(seed)
    prof = profile_of(spec)
    for s in np.linspace(0.0, 1.0, 513):
        want = norm_vec(spec, np.array([1.0, s]))
        assert prof(float(s)) == pytest.approx(want, abs=1e-12)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_profiles_of_normalized_specs_round_trip(seed):
    prof = profile_of(random_polyhedral_spec(seed))
    back = reconstruct(decompose(prof))
    for k, v in zip(prof.knots, prof.values):
        assert back(k) == pytest.approx(v, abs=1e-10)


def test_csup_with_two_full_cuts_decomposes():
    # Every Ky Fan row on M2 sums to 1, so the two c = 1 rows (t = 7/12 and
    # t = 1) both pass through (1, 1). In floating point they cross at
    # 1 - 1e-16, a knot where the envelope does not bend. Kept, its segment's
    # noisy slope made the atom weights sum to 1.29.
    spec = CSup(StepFn((Fraction(0), Fraction(7, 12), Fraction(1)), (0.0, 1.0)))
    prof = profile_of(spec)
    assert prof.knots == (0.0, 1.0)
    mu = decompose(prof)
    assert [t for t, _ in mu.atoms] == [0.5, 1.0]
    assert [w for _, w in mu.atoms] == pytest.approx([2 / 7, 5 / 7], abs=1e-12)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_specs_with_equal_profiles_agree_on_matrices(seed):
    T = gn.random_matrix(2, seed)
    assert gn.norm_mat(KyFan(Fraction(1, 2)), T) == pytest.approx(
        gn.norm_mat(Operator(), T), abs=1e-10
    )
    assert gn.norm_mat(TBracket(Fraction(1, 2)), T) == pytest.approx(
        gn.norm_mat(Trace(), T), abs=1e-10
    )


def test_admissibility_names_the_broken_invariant():
    assert check_admissible(profile_of(TBracket(0.6)))
    assert admissibility_violations(Profile.lp(3)) == []
    drops = Profile.piecewise_linear([0.0, 0.5, 1.0], [1.0, 0.9, 1.0])
    assert "nondecreasing" in admissibility_violations(drops)
    concave = Profile.piecewise_linear([0.0, 0.5, 1.0], [0.5, 0.9, 1.0])
    assert "convex" in admissibility_violations(concave)
    low = Profile.piecewise_linear([0.0, 1.0], [0.3, 1.0])
    assert any("sandwich" in v for v in admissibility_violations(low))
    steep = Profile.piecewise_linear([0.0, 1.0], [0.2, 1.0])
    assert any("derivative" in v for v in admissibility_violations(steep))
    short = Profile.piecewise_linear([0.0, 1.0], [0.9, 0.95])
    assert any("s=1" in v for v in admissibility_violations(short))


def test_decompose_oracles():
    one_atom = decompose(profile_of(TBracket(0.75)))
    assert one_atom.atoms == ((0.75, 1.0),)
    trace_atom = decompose(profile_of(Trace()))
    assert trace_atom.atoms == ((0.5, 1.0),)
    op_atom = decompose(profile_of(Operator()))
    assert op_atom.atoms == ((1.0, 1.0),)


def test_decompose_rejects_inadmissible_profiles():
    with pytest.raises(ValueError, match="not admissible"):
        decompose(Profile.piecewise_linear([0.0, 1.0], [0.3, 1.0]))
    with pytest.raises(ValueError, match="piecewise-linear"):
        decompose(Profile.lp(2))


def test_atomic_measure_validates_and_merges():
    mu = AtomicMeasure(((0.75, 0.25), (0.75, 0.25), (1.0, 0.5)))
    assert mu.atoms == ((0.75, 0.5), (1.0, 0.5))
    with pytest.raises(ValueError):
        AtomicMeasure(((0.75, 0.5),))
    with pytest.raises(ValueError):
        AtomicMeasure(((0.25, 1.0),))
    back = AtomicMeasure.from_json(mu.to_json())
    assert back == mu


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_decompose_reconstruct_round_trip(seed):
    prof = random_admissible_profile(gn.Rng64(seed))
    mu = decompose(prof)
    assert sum(w for _, w in mu.atoms) == pytest.approx(1.0, abs=1e-10)
    back = reconstruct(mu)
    for k, v in zip(prof.knots, prof.values):
        assert back(k) == pytest.approx(v, abs=1e-10)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_reconstruct_decompose_is_identity_on_atoms(seed):
    rng = gn.Rng64(seed)
    raw = [(0.5 + 0.5 * rng.uniform(), rng.uniform()) for _ in range(3)]
    total = sum(w for _, w in raw)
    mu = AtomicMeasure(tuple((t, w / total) for t, w in raw))
    back = decompose(reconstruct(mu))
    assert len(back.atoms) == len(mu.atoms)
    for (t1, w1), (t2, w2) in zip(back.atoms, mu.atoms):
        assert t1 == pytest.approx(t2, abs=1e-12)
        assert w1 == pytest.approx(w2, abs=1e-10)


def test_atom_near_one_leaves_no_phantom_tail_atom():
    # An atom close to t=1 makes the last profile segment short; the slope
    # roundoff there once survived the flat cutoff as a phantom atom at
    # t=1 with weight of a few ulp over the segment length.
    rng = gn.Rng64(4194)
    raw = [(0.5 + 0.5 * rng.uniform(), rng.uniform()) for _ in range(3)]
    total = sum(w for _, w in raw)
    mu = AtomicMeasure(tuple((t, w / total) for t, w in raw))
    assert max(t for t, _ in mu.atoms) > 0.999
    back = decompose(reconstruct(mu))
    assert len(back.atoms) == len(mu.atoms)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_reconstructed_mixtures_are_admissible(seed):
    rng = gn.Rng64(seed)
    t1, t2 = 0.5 + 0.5 * rng.uniform(), 0.5 + 0.5 * rng.uniform()
    w = rng.uniform()
    prof = reconstruct(AtomicMeasure(((t1, w), (t2, 1.0 - w))))
    assert check_admissible(prof)


def test_profile_matches_bracket_mixture_norms():
    # the reconstructed profile of a two-atom mixture equals the profile of
    # the matching convex combination of bracket norms on diag(1, s)
    mu = AtomicMeasure(((0.6, 0.3), (0.9, 0.7)))
    prof = reconstruct(mu)
    for s in np.linspace(0.0, 1.0, 9):
        T = np.diag([1.0, float(s)])
        mixed = 0.3 * gn.norm_mat(TBracket(0.6), T) + 0.7 * gn.norm_mat(
            TBracket(0.9), T
        )
        assert prof(float(s)) == pytest.approx(mixed, abs=1e-12)


def test_lp_density_identity_small_p():
    assert lp_density_check(1.5) <= 1e-6
    assert lp_density_check(2.0) <= 1e-6
    with pytest.raises(ValueError):
        lp_density_check(1.0)


LP_SWEEP = (1.001, 1.01, 1.05, 1.2, 1.5, 1.9, 2.0, 2.5, 3.0, 10.0, 50.0, 1000.0)


@pytest.mark.parametrize("p", LP_SWEEP)
def test_lp_density_identity_across_p(p):
    err = lp_density_check(p)
    assert type(err) is float
    assert err <= 1e-10


def test_lp_density_identity_at_huge_p():
    assert lp_density_check(1e6) <= 1e-6


@pytest.mark.parametrize("p", (1.01, 1.5, 3.0, 10.0))
@pytest.mark.parametrize("s", (0.0, 0.3, 0.5, 1.0))
def test_lp_integral_matches_scipy_quad(p, s):
    # In x = 2t - 1 the integrand is max(1+x, 1+s) f_p''(x)
    # = ((1+x) + max(s-x, 0)) f_p''(x), and f_p''(x) is x^(p-2) times a
    # smooth factor, which quad's algebraic weight takes exactly. The oracle
    # never uses the closed form f_p(s).
    quad = pytest.importorskip("scipy.integrate").quad

    def smooth(x):
        return (p - 1) / 4 * ((1 + x**p) / 2) ** (1 / p - 2)

    kw = dict(weight="alg", wvar=(p - 2, 0), epsabs=1e-13, epsrel=1e-13, limit=200)
    want = quad(lambda x: (1 + x) * smooth(x), 0.0, 1.0, **kw)[0]
    if s > 0:
        want += quad(lambda x: (s - x) * smooth(x), 0.0, s, **kw)[0]
    got = ex2._lp_integral(p, s, ex2._TS_U, ex2._TS_W)
    assert got == pytest.approx(want, rel=0, abs=1e-11)


@pytest.mark.parametrize("p", LP_SWEEP)
def test_lp_rule_level_has_converged(p):
    # Tanh-sinh levels nest: every second node with twice its weight is the
    # rule at step 2h. The two levels agree, so the level is not tuned to
    # the grid.
    u, w = ex2._TS_U, ex2._TS_W
    for s in np.linspace(0.0, 1.0, 11):
        fine = ex2._lp_integral(p, s, u, w)
        coarse = ex2._lp_integral(p, s, u[::2], 2.0 * w[::2])
        assert abs(fine - coarse) <= 1e-6


def test_profile_csv_rows_have_distinct_s():
    specs = (TBracket(0.65), TBracket(0.75), Lp(3), KyFan(Fraction(1, 3)), Trace())
    for spec in specs:
        s_col = [line.split(",")[0] for line in profile_csv(profile_of(spec)).split()]
        assert len(s_col) == len(set(s_col))
    lines = profile_csv(profile_of(TBracket(0.65))).split()
    assert lines.count("0.3,0.65") == 1


def test_lp_profile_spot_value():
    assert Profile.lp(2)(0.0) == pytest.approx(np.sqrt(0.5), abs=1e-12)


@pytest.mark.parametrize("t", [0.5, 0.65, 0.8, 1.0])
def test_bracket_norms_are_extreme(t):
    report = not_convex_combination(t, trials=60, seed=2)
    assert report["extreme"]
    assert report["violation"] == 0
    assert report["infeasible"] + report["forced_equal"] == 60


def test_not_convex_combination_rejects_bad_t():
    with pytest.raises(ValueError):
        not_convex_combination(0.25)


def test_profile_csv_contains_knots():
    csv = profile_csv(profile_of(TBracket(0.75)))
    lines = csv.strip().splitlines()
    assert lines[0] == "s,f"
    assert any(line.startswith("0.5,") for line in lines)
    assert lines[-1] == "1,1"
