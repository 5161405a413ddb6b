"""bounds: closed-form entropy bounds, the transcendental solvers, and the
alpha optimization."""

import numpy as np
import pytest

from tribell import bounds
from tribell.bounds import (asym_chsh_one_outcome, asym_tangent,
                            best_alpha_bound, colbeck_g1,
                            colbeck_recycled_two_outcome, eta,
                            holz_one_outcome, holz_two_outcome,
                            mabk_one_outcome, mabk_two_outcome,
                            parity_chsh_one_outcome, solve_beta_star_colbeck,
                            solve_beta_star_holz, solve_x, theta,
                            theta_at_optimum)
from tribell.errors import NumericError, ValidationError
from tribell.qmath import bracketed_root, bracketed_roots

SQRT2 = np.sqrt(2.0)


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


class TestHolzOneOutcome:
    def test_quantum_bound(self):
        assert holz_one_outcome(1.5) == pytest.approx(1.0, abs=1e-12)

    def test_classical_bound(self):
        assert holz_one_outcome(1.0) == 0.0
        assert holz_one_outcome(0.7) == 0.0

    def test_seven_sixths(self):
        # the argument simplifies to nu = 3/4 in the tau-family algebra
        got = holz_one_outcome(7.0 / 6.0)
        assert got == pytest.approx(1.0 - h2(0.75), abs=1e-12)
        assert got == pytest.approx(0.188722, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            holz_one_outcome(1.6)

    def test_tau_family_tightness_identity(self):
        for nu in np.linspace(0.5, 1.0, 101):
            beta = 2 * nu + 1 / (2 * nu) - 1
            assert holz_one_outcome(min(beta, 1.5)) == pytest.approx(
                1.0 - h2(nu), abs=1e-9)


class TestHolzTwoOutcome:
    def test_eta_endpoints(self):
        assert eta(1.0) == pytest.approx(0.0, abs=1e-12)
        assert eta(SQRT2) == pytest.approx(1.0, abs=1e-12)

    def test_knot_continuity(self):
        eps = 1e-9
        left = holz_two_outcome(SQRT2 - eps)
        right = holz_two_outcome(SQRT2 + eps)
        assert abs(left - right) < 1e-7
        bstar = solve_beta_star_holz()
        assert abs(holz_two_outcome(bstar - eps)
                   - holz_two_outcome(bstar + eps)) < 1e-7

    def test_max_violation_value(self):
        # value pinned by the optimizer at the maximal violation
        assert holz_two_outcome(1.5) == pytest.approx(1.8112781244, abs=1e-6)
        assert holz_two_outcome(1.5) == pytest.approx(1.0 + h2(0.25), abs=1e-12)

    def test_below_classical(self):
        assert holz_two_outcome(0.9) == 0.0

    def test_slope_nondecreasing_across_knots(self):
        xs = np.linspace(1.0, 1.5, 200)
        ys = np.array([holz_two_outcome(x) for x in xs])
        slopes = np.diff(ys) / np.diff(xs)
        assert np.all(np.diff(slopes) >= -1e-6)


class TestSolveX:
    def test_stationarity_finite_difference(self):
        x = solve_x(1.48)
        d = 1e-6
        fd = (theta(1.48, x + d) - theta(1.48, x - d)) / (2 * d)
        assert abs(fd) < 1e-6

    def test_continuity_on_grid(self):
        betas = np.linspace(SQRT2 + 1e-4, 1.5, 50)
        xs = [solve_x(b) for b in betas]
        steps = np.abs(np.diff(xs))
        assert np.max(steps) < 0.12  # continuous branch, no jumps

    def test_local_minimum_in_x(self):
        b = 1.495
        x = solve_x(b)
        assert theta(b, x) <= theta(b, x + 0.01) + 1e-12
        assert theta(b, x) <= theta(b, x - 0.01) + 1e-12

    def test_transcendental_residual(self):
        # the printed equation groups into
        # (b^2-x^2-2) ln(arg1/arg2) + 2x^3 ln(arg3/arg4) = 0, which equals
        # d(theta)/dx * (-4x^2(b-1) ln2); arg1, arg2 are both negative on this
        # branch so only their ratio is log-defined
        b = 1.48
        x = solve_x(b)
        arg1 = -b * b - 2 * b * x - x * x + 2 * x + 2
        arg2 = b * b - 2 * b * x + x * x + 2 * x - 2
        arg3 = b * b + 2 * b + x * x - 4
        arg4 = -b * b + 2 * b - x * x
        assert arg1 < 0 and arg2 < 0 and arg3 > 0 and arg4 > 0
        residual = ((b * b - x * x - 2) * np.log(arg1 / arg2)
                    + 2 * x ** 3 * np.log(arg3 / arg4))
        assert abs(residual) < 1e-10

    def test_domain(self):
        with pytest.raises(ValidationError):
            solve_x(1.3)

    @pytest.mark.parametrize("gap", [1e-6, 1e-7, 1e-8])
    def test_upper_edge_near_three_halves(self, gap):
        # d(theta)/dx <= 0 at the upper end of the domain: the stationary
        # point has merged with the edge, which is returned, and the curve
        # runs continuously (as sqrt(gap)) into theta_at_optimum(1.5)
        b = 1.5 - gap
        lo, hi = bounds.theta_x_domain(b)
        edge = hi - (hi - lo) * 1e-9
        assert bounds._dtheta_dx(b, edge) <= 0.0
        assert solve_x(b) == edge
        below = theta_at_optimum(1.5) - holz_two_outcome(b)
        assert 0.0 < below <= 1.2 * np.sqrt(gap)


class TestBetaStars:
    def test_holz_location(self):
        assert solve_beta_star_holz() == pytest.approx(1.49, abs=0.01)

    def test_holz_tangency_condition(self):
        bstar = solve_beta_star_holz()
        d = 2e-6
        slope = (theta_at_optimum(bstar + d) - theta_at_optimum(bstar - d)) / (2 * d)
        assert abs(slope * (bstar - SQRT2)
                   - (theta_at_optimum(bstar) - 1.0)) < 1e-8

    def test_tangent_hits_one_at_sqrt2(self):
        assert holz_two_outcome(SQRT2) == pytest.approx(1.0, abs=1e-9)

    def test_colbeck_location(self):
        assert solve_beta_star_colbeck() == pytest.approx(2.75, abs=0.01)

    def test_colbeck_tangency(self):
        bstar = solve_beta_star_colbeck()
        d = 1e-7
        slope = (colbeck_g1(bstar + d) - colbeck_g1(bstar - d)) / (2 * d)
        assert abs(slope * (bstar - 2.0) - colbeck_g1(bstar)) < 1e-8


class TestParityOneOutcome:
    def test_endpoints(self):
        assert parity_chsh_one_outcome(SQRT2) == pytest.approx(1.0, abs=1e-12)
        assert parity_chsh_one_outcome(1.0) == 0.0

    def test_sqrt_1p25(self):
        got = parity_chsh_one_outcome(np.sqrt(1.25))
        assert got == pytest.approx(1.0 - h2(0.75), abs=1e-12)
        assert got == pytest.approx(0.188722, abs=1e-6)

    def test_tau_family_identity(self):
        for nu in np.linspace(0.5, 1.0, 101):
            beta = np.hypot(2 * nu - 1.0, 1.0)
            assert parity_chsh_one_outcome(min(beta, SQRT2)) == pytest.approx(
                1.0 - h2(nu), abs=1e-9)


class TestMabk:
    def test_one_outcome_endpoints(self):
        assert mabk_one_outcome(2 * SQRT2) == 0.0
        assert mabk_one_outcome(4.0) == pytest.approx(1.0, abs=1e-12)
        assert mabk_one_outcome(2.5) == 0.0

    def test_one_outcome_at_three(self):
        oracle = 1.0 - h2(0.5 + 0.5 * np.sqrt(9.0 / 8.0 - 1.0))
        assert mabk_one_outcome(3.0) == pytest.approx(oracle, abs=1e-12)
        assert mabk_one_outcome(3.0) == pytest.approx(0.092148, abs=1e-6)

    def test_two_outcome_endpoints(self):
        assert mabk_two_outcome(4.0) == pytest.approx(2.0, abs=1e-12)
        assert mabk_two_outcome(2.0) == 0.0

    def test_two_outcome_at_three(self):
        f = 0.25 - np.sqrt(3) / 24 * np.sqrt(5.0)
        ps = np.array([1 - 3 * f, f, f, f])
        oracle = 2.0 + float((ps * np.log2(ps)).sum())
        assert mabk_two_outcome(3.0) == pytest.approx(oracle, abs=1e-12)
        assert mabk_two_outcome(3.0) == pytest.approx(0.7431087, abs=1e-6)


class TestAsymChsh:
    def test_chsh_endpoints(self):
        assert asym_chsh_one_outcome(2 * SQRT2, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert asym_chsh_one_outcome(2.0, 1.0) == 0.0

    def test_chsh_at_2p5(self):
        got = asym_chsh_one_outcome(2.5, 1.0)
        assert got == pytest.approx(1.0 - h2(0.875), abs=1e-12)
        assert got == pytest.approx(0.456436, abs=1e-6)

    def test_tangency_residual_small_alpha(self):
        for alpha in (0.5, 0.7, 0.9):
            bstar, slope = asym_tangent(alpha)
            g = bounds._g_asym(bstar, alpha)
            assert abs(slope * (bstar - 2.0) - g) < 1e-8

    def test_alpha_above_one_zero_below_local_bound(self):
        assert asym_chsh_one_outcome(3.9, 2.0) == 0.0
        assert asym_chsh_one_outcome(2 * np.sqrt(5), 2.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValidationError):
            asym_chsh_one_outcome(2.9, 1.0)


def _mp_tangent(mp, alpha, dps):
    """(beta*, slope) of the tangent through (2, 0) to g at dps digits: a
    bisection on the tangency residual F in log d, d = qb - x, for the
    double qb = 2 hypot(1, alpha) that the solver itself uses."""
    with mp.workdps(dps):
        qb = mp.mpf(2.0 * np.hypot(1.0, alpha))

        def g_and_residual(d):
            x = qb - d
            v = d * (2 * qb - d) / 4  # 1 - s^2
            s = mp.sqrt(1 - v)
            w = v / (2 * (1 + s))  # 1 - u
            g = 1 + ((1 - w) * mp.log1p(-w) + w * mp.log(w)) / mp.log(2)
            dg = (mp.log1p(-w) - mp.log(w)) / mp.log(2) * x / (8 * s)
            return g, dg * (x - 2) - g

        lo, hi = mp.log(qb - 2), mp.mpf(-1e16)  # F <= 0 at exp(lo), > 0 at exp(hi)
        while lo - hi > mp.mpf(10) ** (10 - dps) * (1 - hi):  # relative to |log d|
            mid = (lo + hi) / 2
            if g_and_residual(mp.exp(mid))[1] <= 0:
                lo = mid
            else:
                hi = mid
        d = mp.exp(lo)
        return qb - d, g_and_residual(d)[0] / (qb - d - 2)


# (alpha, beta*, slope) from _mp_tangent at 80 digits, rounded to doubles;
# alpha <= 0.25 are chord lanes, their tangent point within one ulp of qb
TANGENT_TABLE = [
    (1e-06, 2.000000000001, 999911107320.27),
    (0.001, 2.00000099999975, 1000000.2498825096),
    (0.01, 2.000099997500125, 10000.249993770207),
    (0.05, 2.0024984394500787, 400.24984394499387),
    (0.1, 2.009975124224178, 100.249378105606),
    (0.123456789, 2.015183940736121, 65.85905578655931),
    (0.15, 2.0223748416156684, 44.69305379572976),
    (0.2, 2.039607805437114, 25.247548783981877),
    (0.25, 2.0615528128088303, 16.246211251235316),
    (0.3, 2.0880613017818037, 11.355725838282316),
    (0.35, 2.1189620089864976, 8.406044915062944),
    (0.4, 2.1540657171629216, 6.49072748583586),
    (0.45, 2.193163675365152, 5.176739145374352),
    (0.5, 2.2359698962733066, 4.235900443992213),
    (0.55, 2.281894267153711, 3.5383471911373),
    (0.6, 2.329669025916156, 3.005169230492691),
    (0.65, 2.3771019311941464, 2.5856859581066605),
    (0.7, 2.421104185047483, 2.2459251791839994),
    (0.75, 2.4577857143027972, 1.9623166360544302),
    (0.8, 2.4822755121455358, 1.7178089817771376),
    (0.85, 2.487864404889074, 1.4990436264400888),
    (0.9, 2.4633794639704374, 1.2934378065127352),
    (0.95, 2.3829765713774127, 1.0826244612417173),
    (0.99, 2.1999303658491782, 0.8643034716793494),
    (0.999, 2.067494042765314, 0.7640311288001944),
]


class TestAsymTangentTable:
    def test_batched_matches_recorded_scan(self):
        alphas, bstar, slope = (np.array(c) for c in zip(*TANGENT_TABLE))
        got_b, got_s = bounds._asym_tangents(alphas)
        assert got_b == pytest.approx(bstar, rel=1e-12, abs=1e-12)
        assert got_s == pytest.approx(slope, rel=1e-12, abs=1e-12)

    def test_scalar_wrapper_matches_recorded_scan(self):
        for alpha, bstar, slope in TANGENT_TABLE:
            assert asym_tangent(alpha) == pytest.approx((bstar, slope),
                                                        rel=1e-12, abs=1e-12)

    def test_chord_fallback(self):
        for alpha in (1e-6, 1e-3, 0.01, 0.05, 0.2):
            qb = 2.0 * np.hypot(1.0, alpha)
            assert asym_tangent(alpha) == (qb, 1.0 / (qb - 2.0))
        assert asym_tangent(0.4)[0] < 2.0 * np.hypot(1.0, 0.4)

    def test_non_finite_alpha_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            bounds._asym_tangents([0.5, np.nan])

    @pytest.mark.parametrize("alpha", [0.0, 1e-13, -1e-13, 1.0, -1.0, 1.5, np.nan, np.inf])
    def test_scalar_refuses_alpha_without_tangent(self, alpha):
        with pytest.raises(ValidationError, match="alpha"):
            asym_tangent(alpha)

    def test_table_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for alpha, bstar, slope in (TANGENT_TABLE[i] for i in (2, 8, 11, 18, 23)):
            ref = [float(v) for v in _mp_tangent(mp, alpha, 50)]
            assert ref == pytest.approx([bstar, slope], rel=1e-12)


def test_asym_bound_not_above_g_near_alpha_0_4():
    points = ((0.40695, 2.1592664244094486), (0.4, 2.154065691904917))
    gaps = [asym_chsh_one_outcome(beta, alpha) - float(bounds._g_asym(beta, alpha))
            for alpha, beta in points]
    assert max(gaps) <= 1e-12


class TestAsymCurveNotAboveG:
    def test_dense_alpha_beta_scan(self):
        # and [0.28, 0.42] at step 1e-4, where the tangent point is 3e-15 to 1e-6 below qb
        alpha = np.concatenate([np.linspace(1e-3, 0.999, 1000),
                                np.linspace(0.28, 0.42, 1401), [0.4, 0.40695, 0.4089]])
        bstar, slope = bounds._asym_tangents(alpha)
        # 400 even steps on [2, beta*], and 100 clustered at beta*
        t = np.concatenate([np.linspace(0.0, 1.0, 400), 1.0 - np.logspace(-16, 0, 100)])
        beta = 2.0 + (bstar - 2.0)[:, None] * t
        a = alpha[:, None]
        gap = bounds._asym_one_outcome(beta, a, bstar[:, None], slope[:, None]) \
            - bounds._g_asym(beta, a)
        assert gap.max() <= 1e-12

    def test_edge_alphas_take_the_exact_chord(self):
        # qb rounds to 2 at alpha = 1e-12 and 1e-8, giving slope inf
        alphas = np.array([1e-12, 1e-8, 3e-8, 1e-7])
        qb = 2.0 * np.hypot(1.0, alphas)
        with np.errstate(divide="ignore"):
            chord = 1.0 / (qb - 2.0)
        bstar, slope = bounds._asym_tangents(alphas)
        np.testing.assert_array_equal(bstar, qb)
        np.testing.assert_array_equal(slope, chord)


@pytest.mark.parametrize("fn, qb", [
    (holz_one_outcome, 1.5), (holz_two_outcome, 1.5),
    (parity_chsh_one_outcome, SQRT2), (mabk_one_outcome, 4.0),
    (mabk_two_outcome, 4.0), (colbeck_recycled_two_outcome, 2.0 * SQRT2)])
def test_scalar_bounds_reject_bad_beta(fn, qb):
    for beta in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="not finite"):
            fn(beta)
    with pytest.raises(ValidationError, match="above the quantum bound"):
        fn(qb + 1e-6)


class TestAsymNonFinite:
    @pytest.mark.parametrize("beta, alpha, name", [
        (np.nan, 0.5, "beta"), (-np.inf, 2.0, "beta"), (2.5, np.nan, "alpha"),
        (2.5, np.inf, "alpha")])
    def test_rejected_with_name(self, beta, alpha, name):
        with pytest.raises(ValidationError, match=name):
            asym_chsh_one_outcome(beta, alpha)

    def test_best_alpha_rejects_nan_violation(self):
        with pytest.raises(ValidationError, match="non-finite"):
            best_alpha_bound(lambda a: np.where(a > 0.5, np.nan, 2.5))


class TestBestAlpha:
    @pytest.mark.parametrize("noise, p", [("local", 0.9), ("local", 0.95),
                                          ("local", 0.99), ("global", 0.85),
                                          ("global", 0.95)])
    def test_never_below_dense_grid(self, noise, p):
        scale = p * p if noise == "local" else p

        def beta_fn(a):
            return 2.0 * np.hypot(1.0, a) * scale

        def val(a):
            return asym_chsh_one_outcome(min(beta_fn(a), 2.0 * np.hypot(1.0, a)), a)

        alpha, bound = best_alpha_bound(beta_fn)
        brute = max(val(a) for a in np.linspace(0.0, 4.0, 4001))
        assert bound >= brute - 1e-12
        assert val(alpha) == pytest.approx(bound, abs=1e-12)

    def test_no_noise_reaches_one(self):
        _, bound = best_alpha_bound(lambda a: 2.0 * np.hypot(1.0, a))
        assert bound == pytest.approx(1.0, abs=1e-9)

    def test_dominates_chsh_at_p095_local(self):
        p = 0.95

        def beta_fn(a):
            return 2.0 * np.hypot(1.0, a) * p * p

        _, bound = best_alpha_bound(beta_fn)
        chsh_val = asym_chsh_one_outcome(2 * SQRT2 * p * p, 1.0)
        assert bound >= chsh_val - 1e-9

    def test_below_threshold_rate_nonpositive(self):
        # Table 2 threshold for asym-CHSH local noise is ~0.923
        from tribell.rates import dicka_rate
        from tribell.bell import spec_by_name
        from tribell.states import NoiseModel

        r = dicka_rate(spec_by_name("asym-chsh"), NoiseModel("local", 0.915))
        assert r.rate <= 0.0


def _bits(values):
    return np.array(values, dtype=float).view(np.uint64)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty tangent memo for the test, the process's own restored after."""
    memo = {}
    monkeypatch.setattr(bounds, "_TANGENT_MEMO", memo)
    return memo


class TestTangentMemo:
    PS = np.linspace(0.5, 1.0, 50)

    def _searches(self, clear=None):
        from tribell.rates import best_alpha_one_outcome
        from tribell.states import NoiseModel

        out = []
        for noise in ("local", "global"):
            for p in self.PS:
                if clear is not None:
                    clear.clear()
                out.append(best_alpha_one_outcome(NoiseModel(noise, float(p))))
        return _bits(out)

    def test_cold_warm_and_cleared_memo_agree(self, fresh_memo):
        cold = self._searches()
        assert fresh_memo
        np.testing.assert_array_equal(self._searches(), cold)
        np.testing.assert_array_equal(self._searches(clear=fresh_memo), cold)
        np.testing.assert_array_equal(self._searches(), cold)
        for key, tangent in fresh_memo.items():
            alone = [float(a[0]) for a in bounds._asym_tangents([key])]
            np.testing.assert_array_equal(_bits(tangent), _bits(alone))

    def test_bounded_by_its_size(self, fresh_memo):
        from tribell.bell import spec_by_name
        from tribell.rates import rate_grid

        rate_grid("dicka", spec_by_name("asym-chsh"), "local", np.linspace(0.5, 1.0, 201))
        # the grid solves more keys than the memo keeps
        assert len(fresh_memo) == bounds._TANGENT_MEMO_SIZE == 4096

    def test_refusals_leave_memo_unchanged(self, fresh_memo, monkeypatch):
        bounds._tangents_for(np.array([0.3, 0.6]))
        before = dict(fresh_memo)
        with pytest.raises(ValidationError, match="alpha"):
            asym_chsh_one_outcome(2.5, np.nan)
        with pytest.raises(ValidationError, match="non-finite"):
            best_alpha_bound(lambda a: np.where(a > 0.5, np.nan, 2.5))

        def refuse(alpha):
            raise ValidationError("alpha must be finite")

        monkeypatch.setattr(bounds, "_asym_tangents", refuse)
        with pytest.raises(ValidationError, match="alpha"):
            bounds._tangents_for(np.array([0.3, 0.7]))
        assert fresh_memo == before and list(fresh_memo) == list(before)


class TestColbeck:
    def test_endpoints(self):
        assert colbeck_recycled_two_outcome(2.0) == 0.0
        got = colbeck_recycled_two_outcome(2 * SQRT2)
        assert got == pytest.approx(1.0 + h2(0.5 + SQRT2 / 4.0), abs=1e-12)
        assert got == pytest.approx(1.6008760, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValidationError):
            colbeck_recycled_two_outcome(2.9)


def _bisection_steps(f, lo, hi):
    """f evaluations of plain bisection run until the midpoint rounds onto
    an endpoint, the stopping rule of bracketed_roots."""
    calls = 2
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        calls += 1
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return calls


class TestRootFinding:
    def test_simple_root(self):
        assert bracketed_root(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(
            SQRT2, abs=1e-10)

    def test_no_bracket(self):
        with pytest.raises(NumericError):
            bracketed_root(lambda x: 1.0 + x * x, -1.0, 1.0)

    def test_no_bracket_names_it(self):
        with pytest.raises(NumericError, match=r"\[0\.5, 2\.0\].*f\(lo\)=0\.25"):
            bracketed_root(lambda x: x * x, 0.5, 2.0)
        with pytest.raises(NumericError, match=r"\[-3\.0, -2\.0\]"):
            bracketed_roots(lambda x: x, np.array([-1.0, -3.0]),
                            np.array([1.0, -2.0]))

    def test_flat_zero_returns_edge(self):
        # f <= 0 is the low side, so the answer is the smallest float with f > 0
        edge = 0.3
        root = bracketed_root(lambda x: max(x - edge, 0.0), 0.0, 1.0)
        assert root == np.nextafter(edge, 1.0)

    def test_decreasing_through_negation(self):
        root = bracketed_root(lambda x: -(np.exp(-x) - 0.5), 0.0, 2.0)
        assert np.exp(-root) - 0.5 < 0.0 <= np.exp(-np.nextafter(root, 0.0)) - 0.5
        assert root == pytest.approx(np.log(2.0), abs=1e-15)

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: x * x - 2.0, 0.0, 2.0),
        (lambda x: x - np.cos(x), 0.0, 1.0),
        (lambda x: np.exp(x) - 3.0, -1.0, 4.0),
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: np.log(x) + 1.0, 1e-3, 10.0),
    ])
    def test_steps_at_most_bisection(self, f, lo, hi):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        root = bracketed_root(counted, lo, hi)
        assert f(root) > 0.0 >= f(np.nextafter(root, -np.inf))
        assert len(calls) <= _bisection_steps(f, lo, hi)

    def test_batched_equals_scalar_bit_for_bit(self):
        c = np.array([2.0, 3.0, 0.5, 10.0, 7.25, 0.0])
        lo = np.array([0.0, 1.0, -2.0, 0.0, 1.5, -1.0])
        hi = np.array([2.0, 1.5, 1.0, 100.0, 2.0, 0.5])
        got = bracketed_roots(lambda x: x * x * x - c, lo, hi)
        for i in range(c.size):
            want = bracketed_root(lambda x: x * x * x - c[i], lo[i], hi[i])
            assert got[i] == want


class TestCurveRegistry:
    def test_every_curve_covers_contract(self):
        from tribell.bell import asym_chsh, spec_by_name
        from tribell.rates import bound_curve

        specs = [spec_by_name(n) for n in ("holz", "parity-chsh", "mabk", "chsh")]
        specs += [asym_chsh(0.5), asym_chsh(2.0)]
        names = set()
        for spec in specs:
            for outcome in ("one", "two", "recycled"):
                try:
                    names.add(bound_curve(spec, outcome).name)
                except ValidationError:
                    pass
        assert {"holz-one", "holz-two", "parity-chsh-one", "mabk-one",
                "mabk-two", "colbeck-recycled"} <= names
        assert any("alpha=0.5" in n for n in names)
        assert any("alpha=2" in n for n in names)
