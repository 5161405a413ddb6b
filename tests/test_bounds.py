"""bounds: closed-form entropy bounds, the transcendental solvers, and the
alpha optimization."""

import re

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

import pins

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

    def test_lanes_are_their_one_lane_calls(self):
        # near beta = 3/2, where solve_x takes the most steps; each lane of
        # the four-lane call is its one-lane call bit for bit
        betas = np.array([1.45, 1.47, 1.49, 1.4999])
        want = solve_x(betas)
        got = [solve_x(betas[i:i + 1])[0] for i in range(betas.size)]
        assert [x.hex() for x in got] == [x.hex() for x in want.tolist()]

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

    def test_shipped_holz_beta_star_is_the_derivation(self):
        # the curve reads the shipped constants; the solve re-derives them cold
        solve_beta_star_holz.cache_clear()
        bstar = solve_beta_star_holz()
        assert bstar.hex() == bounds._HOLZ_BETA_STAR.hex()
        assert ((theta_at_optimum(bstar) - 1.0) / (bstar - SQRT2)).hex() == \
            bounds._HOLZ_SLOPE.hex()

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

    def test_shipped_colbeck_beta_star_is_the_derivation(self):
        # the curve reads the shipped constant; the solve re-derives it cold
        solve_beta_star_colbeck.cache_clear()
        assert solve_beta_star_colbeck().hex() == bounds._COLBECK_BETA_STAR.hex()

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

    def test_is_chsh_at_twice_beta(self):
        # Parity-CHSH is CHSH between (A, C) and B at half the value, and
        # (2 beta)^2 / 4 is beta^2 exactly: the same bits as CHSH's at 2 beta
        beta = np.linspace(1.0, SQRT2, 10001)
        np.testing.assert_array_equal(parity_chsh_one_outcome(beta),
                                      asym_chsh_one_outcome(2.0 * beta, 1.0))


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

    def test_line_meets_g_at_the_tangent_point(self):
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

    @pytest.mark.parametrize("alpha", [1e-12, 1e-9, 1e-8])
    def test_zero_at_the_classical_bound_where_qb_rounds_to_it(self, alpha):
        # 2 sqrt(1 + alpha^2) rounds to 2: beta = 2 is still a classical value
        assert 2.0 * np.hypot(1.0, alpha) == 2.0
        assert asym_chsh_one_outcome(2.0, alpha) == 0.0


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

    def test_closed_form_matches_recorded_scan(self):
        # the rows from alpha = 0.3 on, whose tangent points lie below qb;
        # alpha(t) falls from 1 at t = 0 to about 0.27 at _T_EDGE, so a
        # bisection in t finds each row's tangent point
        alphas, bstar, slope = (np.array(c) for c in zip(*TANGENT_TABLE[9:]))
        lo, hi = np.zeros(alphas.size), np.full(alphas.size, bounds._T_EDGE)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            above = bounds._tangent_at(mid)[0] > alphas
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        got_a, got_b, got_s = bounds._tangent_at(hi)
        assert got_a == pytest.approx(alphas, rel=1e-12)
        assert got_b == pytest.approx(bstar, rel=1e-12)
        assert got_s == pytest.approx(slope, rel=1e-12)

    def test_edge_is_the_last_r_below_one(self):
        assert np.tanh(bounds._T_EDGE) == 1.0 - 2.0**-53

    def test_closed_form_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        for alpha, bstar, slope in zip(*bounds._tangent_at(np.array([0.1, 0.5, 1.0, 3.0, 8.0,
                                                                     15.0, 18.0]))):
            ref = [float(v) for v in _mp_tangent(mp, alpha, 50)]
            assert ref == pytest.approx([bstar, slope], rel=1e-12)


def test_asym_bound_not_above_g_near_alpha_0_4():
    points = ((0.40695, 2.1592664244094486), (0.4, 2.154065691904917))
    gaps = [asym_chsh_one_outcome(beta, alpha) - float(bounds._g_asym(beta, alpha))
            for alpha, beta in points]
    assert max(gaps) <= 1e-12


class TestAsymCurveNotAboveG:
    def test_dense_alpha_beta_scan(self):
        # and [0.28, 0.42] at step 1e-4, where the tangent point is 3e-15 to 1e-6 below qb;
        # then first-grid alphas, which end a t cell, and the ends of the t-root range
        grid = bounds._GRID_ALPHA
        alpha = np.concatenate([np.linspace(1e-3, 0.999, 1000),
                                np.linspace(0.28, 0.42, 1401), [0.4, 0.40695, 0.4089],
                                grid[[1, 2, 5, 32, 63, 64]],
                                [np.nextafter(grid[-1], 1.0), 1.0 - 2.0**-53, 1.0 - 2.0**-52]])
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
        with pytest.raises(ValidationError, match=r"scale nan outside \[0, 1\]"):
            best_alpha_bound([0.5, np.nan])


def _one_scale_search(scale):
    """(alpha, bound) of the alpha search at one honest scale, one row of t
    at a time: the grid of t = 0 (alpha = 1) and 64 points up to _T_EDGE,
    then np.linspace zooms of 65 points between the neighbours of the best
    point until the ends have the same alpha or lie at most 2^-25 apart,
    keeping the larger (value, alpha) tuple."""
    def row(ts):
        alpha, bstar, slope = bounds._tangent_at(ts)
        return alpha.tolist(), bounds._values(scale, alpha, bstar, slope).tolist()

    t = np.linspace(0.0, bounds._T_EDGE, 65)
    a, v = row(t[1:])
    a, v = [1.0] + a, [float(bounds._values(scale, 1.0, np.nan, np.nan))] + v
    j = int(np.argmax(v))
    best = (v[j], a[j])
    while True:
        k0, k1 = max(j - 1, 0), min(j + 1, len(t) - 1)
        lo, hi = t[k0], t[k1]
        if a[k0] == a[k1] or not hi - lo > 2.0**-25:
            return float(best[1]), float(best[0])
        t = np.linspace(lo, hi, 65)
        inner_a, inner_v = row(t[1:-1])
        a, v = [a[k0]] + inner_a + [a[k1]], [v[k0]] + inner_v + [v[k1]]
        j = int(np.argmax(v))
        best = max(best, (v[j], a[j]))


def _exact_values(scale, alpha):
    """The bound at the honest violations qb * scale of a (scales, n) array
    of alpha, the tangent of each alpha < 1 root-solved at that alpha."""
    flat = alpha.ravel()
    bstar, slope = (x.reshape(alpha.shape)
                    for x in bounds._asym_tangents(np.where(flat < 1.0, flat, 0.5)))
    return bounds._asym_one_outcome(2.0 * np.hypot(1.0, alpha) * scale[:, None], alpha,
                                    bstar, slope)


def _dense_alpha_search(scale):
    """max over alpha of _exact_values: 101 alphas with 1 - alpha
    log-spaced on [1e-13, 0.74], then 10 zooms of 17 points between the
    neighbours of the best, and alpha = 1."""
    rows = np.arange(scale.size)
    alpha = np.tile(1.0 - np.logspace(np.log10(0.74), -13, 101), (scale.size, 1))
    best = _exact_values(scale, np.ones((scale.size, 1)))[:, 0]
    for _ in range(11):
        v = _exact_values(scale, alpha)
        best = np.maximum(best, v.max(axis=1))
        i = np.argmax(v, axis=1)
        lo = alpha[rows, np.maximum(i - 1, 0)]
        hi = alpha[rows, np.minimum(i + 1, alpha.shape[1] - 1)]
        alpha = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 17)
    return best


class TestBestAlpha:
    @pytest.mark.parametrize("noise, p", [("local", 0.9), ("local", 0.95),
                                          ("local", 0.99), ("global", 0.85),
                                          ("global", 0.95)])
    def test_never_below_dense_grid(self, noise, p):
        scale = p * p if noise == "local" else p

        def val(a):
            return asym_chsh_one_outcome(2.0 * np.hypot(1.0, a) * scale, a)

        (alpha,), (bound,) = best_alpha_bound([scale])
        brute = max(val(a) for a in np.linspace(0.0, 4.0, 4001))
        assert bound >= brute - 1e-12
        assert val(alpha) == pytest.approx(bound, abs=1e-12)

    def test_no_noise_reaches_one(self):
        _, (bound,) = best_alpha_bound([1.0])
        assert bound == pytest.approx(1.0, abs=1e-9)

    def test_dominates_chsh_at_p095_local(self):
        p = 0.95
        _, (bound,) = best_alpha_bound([p * p])
        chsh_val = asym_chsh_one_outcome(2 * SQRT2 * p * p, 1.0)
        assert bound >= chsh_val - 1e-9

    def test_below_threshold_rate_nonpositive(self):
        # Table 2 threshold for asym-CHSH local noise is ~0.923
        from tribell.rates import rate_grid
        from tribell.bell import spec_by_name

        (rate,) = rate_grid("dicka", spec_by_name("asym-chsh"), "local", [0.915]).rate
        assert rate <= 0.0

    @pytest.mark.parametrize("block", [3, bounds._LANE_BLOCK])
    def test_grid_equals_the_point_by_point_search(self, monkeypatch, block):
        monkeypatch.setattr(bounds, "_LANE_BLOCK", block)
        # p^2 at p = 0.95, 0.85; next to 1/sqrt2, where alpha = 1 - 5e-6 wins
        scales = [1.0, 0.9025, 0.85, 0.85, 0.5, 0.0, 0.7225, 1.0, 0.708, 0.9999]
        alpha, bound = best_alpha_bound(scales)
        assert [(a.hex(), b.hex()) for a, b in zip(alpha.tolist(), bound.tolist())] \
            == [(a.hex(), b.hex()) for a, b in map(_one_scale_search, scales)]

    def test_within_the_exact_maximum(self):
        # exact: the larger of a dense search over root-solved tangents at
        # unrounded alphas and the bound of the returned alpha, so solved;
        # tangents read at round(alpha, 12) overstate it by up to 1.9e-12 here
        scales = np.concatenate([np.linspace(0.7071, 0.72, 350), np.linspace(0.72, 0.995, 350),
                                 np.linspace(0.995, 1.0, 350)])
        alpha, bound = best_alpha_bound(scales)
        exact = np.maximum(_dense_alpha_search(scales), _exact_values(scales, alpha[:, None])[:, 0])
        assert (bound - exact).min() >= -1e-14
        assert (bound - exact).max() <= 1e-15

    def test_at_most_five_zoom_rounds(self, monkeypatch):
        # each round reads its row's tangents in one _tangent_at call; the
        # first grid's are module constants
        rounds, tangent_at = [], bounds._tangent_at
        monkeypatch.setattr(bounds, "_tangent_at",
                            lambda t: rounds.append(t.shape) or tangent_at(t))
        for scale in np.linspace(0.70, 1.0, 701):
            rounds.clear()
            best_alpha_bound([scale])
            assert len(rounds) <= 5, scale

    def test_solves_no_root(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("best_alpha_bound solved a tangent")

        monkeypatch.setattr(bounds, "_asym_tangents", refuse)
        monkeypatch.setattr(bounds, "bracketed_roots", refuse)
        monkeypatch.setattr(bounds, "asym_tangent", refuse)
        _, bound = best_alpha_bound(np.linspace(0.0, 1.0, 201))
        assert np.isfinite(bound).all()

    def test_empty_grid(self):
        alpha, bound = best_alpha_bound([])
        assert alpha.shape == bound.shape == (0,)


# asym_chsh_one_outcome's recorded outputs, on arrays that mix the tangent
# line's side of beta* and g's side, and g alone for alpha >= 1
ONE_OUTCOME = pins.calls("asym_chsh_one_outcome")
ONE_OUTCOME_IDS = [f"{e['alpha']}-rows{i}" for i, e in enumerate(ONE_OUTCOME)]


class TestRecordedBits:
    def test_best_alpha_bound(self):
        # at 0, 1/sqrt2, 1 and near both asym-CHSH DICKA thresholds (p and
        # p^2 of the p an ITP search in p visits)
        assert [line for entry in pins.calls("best_alpha_bound")
                for line in pins.mismatches(entry)] == []

    def test_not_below_the_search_zoomed_to_one_ulp(self):
        # the entry's zoom_floor is the bound at each scale of the search
        # that zoomed until its t bracket held no float: the converged
        # search stops at about sqrt(eps) and may lose rounding only
        (entry,) = pins.calls("best_alpha_bound")
        _, bound = best_alpha_bound(pins.floats(entry["scale"]))
        assert (bound - pins.floats(entry["zoom_floor"])).min() >= -1e-15

    @pytest.mark.parametrize("entry", ONE_OUTCOME, ids=ONE_OUTCOME_IDS)
    def test_asym_chsh_one_outcome(self, entry):
        assert pins.mismatches(entry) == []

    @pytest.mark.parametrize("entry", ONE_OUTCOME, ids=ONE_OUTCOME_IDS)
    def test_g_only_on_its_side(self, monkeypatch, entry):
        # g is formed exactly where it is kept: alpha >= 1, or beta >= beta*
        seen, g = [], bounds._g_asym
        monkeypatch.setattr(bounds, "_g_asym", lambda x, a: seen.append(np.copy(x)) or g(x, a))
        alpha, beta = entry["alpha"], pins.floats(entry["beta"])
        asym_chsh_one_outcome(beta, alpha)
        live = beta[beta > 2.0 * max(1.0, alpha)]
        want = live if alpha >= 1.0 else live[live >= asym_tangent(alpha)[0]]
        assert [x.tolist() for x in seen] == ([want.tolist()] if want.size else [])

    def test_all_line_row_forms_no_g(self, monkeypatch):
        alpha = 0.5
        bstar = asym_tangent(alpha)[0]
        monkeypatch.setattr(bounds, "_g_asym", lambda *args: pytest.fail("g formed on the line"))
        got = asym_chsh_one_outcome(np.linspace(2.05, np.nextafter(bstar, 0.0), 7), alpha)
        assert (got > 0.0).all()


def _bits(values):
    return np.array(values, dtype=float).view(np.uint64)


@pytest.fixture
def fresh_cache():
    """asym_tangent with its cache emptied before and after the test."""
    asym_tangent.cache_clear()
    yield asym_tangent
    asym_tangent.cache_clear()


class TestAsymTangentCache:
    ALPHA, BETA = 0.46322496584641615, 2.199975019904475

    def test_tangent_of_the_bounds_own_alpha(self):
        # round(alpha, 12)'s tangent under this alpha's beta overstates it by 1.68e-12
        exact = bounds._asym_one_outcome(self.BETA, self.ALPHA,
                                         *bounds._asym_tangents([self.ALPHA]))
        assert asym_chsh_one_outcome(self.BETA, self.ALPHA) == float(exact[0])

    def test_one_entry_per_exact_alpha(self, fresh_cache):
        near = float(np.nextafter(self.ALPHA, 1.0))
        for alpha in (self.ALPHA, near, self.ALPHA, -near):
            asym_chsh_one_outcome(2.1, alpha)
        info = fresh_cache.cache_info()
        assert (info.hits, info.misses, info.currsize, info.maxsize) == (2, 2, 2, 4096)
        for alpha in (self.ALPHA, near):
            alone = [float(x[0]) for x in bounds._asym_tangents([alpha])]
            np.testing.assert_array_equal(_bits(asym_tangent(alpha)), _bits(alone))

    def test_alphas_without_tangent_read_none(self, fresh_cache):
        for alpha in (1.0, 2.0, 3.5):
            asym_chsh_one_outcome(2.0 * np.hypot(1.0, alpha) * 0.99, alpha)
        assert fresh_cache.cache_info()[:2] == (0, 0)

    def test_refusals_leave_the_cache_unchanged(self, fresh_cache):
        asym_chsh_one_outcome(2.1, 0.5)
        with pytest.raises(ValidationError, match="alpha"):
            asym_chsh_one_outcome(2.5, np.nan)
        for alpha in (0.0, 1e-13, 1.0, np.nan):
            with pytest.raises(ValidationError, match="alpha"):
                asym_tangent(alpha)
        for scale in ([0.5, np.nan], [-0.1], [1.5], [[0.5]]):
            with pytest.raises(ValidationError, match="scale"):
                best_alpha_bound(scale)
        assert fresh_cache.cache_info().currsize == 1
        assert asym_tangent(0.5) == tuple(float(x[0]) for x in bounds._asym_tangents([0.5]))


def _registry_curves():
    """Every curve the registry serves, asym-CHSH at alpha 0.5, 1 and 2."""
    from tribell.bell import asym_chsh, spec_by_name
    from tribell.rates import bound_curve

    specs = [spec_by_name(n) for n in ("holz", "parity-chsh", "mabk", "chsh")]
    specs += [asym_chsh(0.5), asym_chsh(2.0)]
    curves = {}
    for spec in specs:
        for outcome in ("one", "two", "recycled"):
            try:
                curve = bound_curve(spec, outcome)
            except ValidationError:
                continue
            curves[curve.name] = curve
    return list(curves.values())


CURVES = _registry_curves()

class TestArrayContract:
    """Every registry curve takes a float and returns a float, or takes an
    array of beta and returns an array of its shape, each value the
    one-point value bit for bit."""

    @pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.name)
    def test_grid_equals_points(self, curve):
        lo, qb = curve.domain
        grid = np.concatenate([np.linspace(lo - 0.1, qb, 401), [qb + 5e-10]])
        got = curve.fn(grid)
        assert isinstance(got, np.ndarray) and got.shape == grid.shape
        np.testing.assert_array_equal(_bits(got), _bits([curve.fn(b) for b in grid.tolist()]))
        assert got[-1] == got[-2] == curve.fn(qb)  # clamped to the quantum bound
        assert np.all(got[grid <= lo] == 0.0)
        assert curve.fn(grid.reshape(6, -1)).shape == (6, 67)
        assert curve.fn(np.empty(0)).shape == (0,)

    @pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.name)
    def test_float_in_float_out(self, curve):
        lo, qb = curve.domain
        for beta in (lo - 0.5, 0.5 * (lo + qb), np.float64(qb), int(lo)):
            assert type(curve.fn(beta)) is float

    @pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.name)
    def test_refuses_the_first_bad_beta(self, curve):
        lo, qb = curve.domain
        above = float(qb) + 1e-6
        for bad, why in ((np.nan, "is not finite"), (-np.inf, "is not finite"),
                         (above, "above the quantum bound")):
            grid = np.linspace(lo, qb, 7)
            grid[3] = bad
            with pytest.raises(ValidationError, match=f"^beta={re.escape(repr(bad))} {why}"):
                curve.fn(grid)
        grid[2] = np.nan
        with pytest.raises(ValidationError, match="^beta=nan is not finite$"):
            curve.fn(grid)

    @pytest.mark.parametrize("entry", pins.calls("bound_curve"), ids=lambda e: "-".join(
        [e["inequality"], e["outcome"], f"alpha={e['alpha']}"]))
    def test_recorded_values(self, entry):
        # recorded with the scalar-only curves that came before the array
        # contract; theta(beta, x(beta)) above beta* may move by its atol
        assert pins.mismatches(entry) == []


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
        # each lane of the lockstep evaluates, as a prefix of its column, the
        # points of its bracket searched alone, and ends on its root
        c = np.array([2.0, 3.0, 0.5, 10.0, 7.25, 0.0])
        lo = np.array([0.0, 1.0, -2.0, 0.0, 1.5, -1.0])
        hi = np.array([2.0, 1.5, 1.0, 100.0, 2.0, 0.5])
        calls = []
        got = bracketed_roots(recorded(lambda x: x * x * x - c, calls), lo, hi)
        for i in range(c.size):
            alone = []
            want = bracketed_root(recorded(lambda x: x * x * x - c[i], alone), lo[i], hi[i])
            assert got[i].hex() == want.hex()
            assert _hexes(x[i] for x in calls[:len(alone)]) == _hexes(alone)
            lane = []
            assert bracketed_roots(recorded(lambda x: x * x * x - c[i], lane),
                                   [lo[i]], [hi[i]])[0].hex() == want.hex()
            assert _hexes(lane) == _hexes(alone)


def recorded(f, calls):
    """f on an array of x, each call's x appended to calls."""
    def call(x):
        calls.append(np.array(x))
        return f(x)
    return call


def _hexes(xs) -> list:
    """float.hex of every x, in order: -0.0 and 0.0 differ."""
    return [float(v).hex() for x in xs for v in np.ravel(x).tolist()]


def _search(lanes, f, lo, hi):
    """(the points lane 0 evaluates, as float.hex, and its root's, or the
    NumericError text) of bracketed_roots on `lanes` copies of [lo, hi], or
    on the 0-d lo and hi themselves where lanes is None."""
    calls = []
    if lanes is not None:
        lo, hi = np.full(lanes, lo), np.full(lanes, hi)
    try:
        root = np.ravel(bracketed_roots(recorded(f, calls), lo, hi))[0]
    except NumericError as exc:
        return _hexes(np.ravel(x)[0] for x in calls), str(exc)
    return _hexes(np.ravel(x)[0] for x in calls), root.hex()


def _step(edge, low, high):
    return lambda x: np.where(x < edge, low, high)


# brackets whose search takes each special case of the lockstep's
# arithmetic (x / 0, NaN, infinities, signed zeros, ties in maximum and
# minimum); every ITP state keeps x1 between x2 and x3, so xi lies in
# [0, 1] and is exactly 1 (sqrt(1 - xi) = 0) on the first step of each
PARITY = {
    "smooth": (lambda x: x * x - 2.0, 0.0, 2.0),
    # flat sides: f3 - f1 vanishes and phi is 1, or NaN at +-inf
    "flat-both-sides": (_step(0.3, -1.0, 1.0), 0.0, 1.0),
    "flat-low-side": (lambda x: np.where(x < 0.3, -1.0, x), 0.0, 1.0),
    "overflowing-differences": (_step(0.3, -1e308, 1e308), 0.0, 1.0),
    "infinite-values": (_step(0.7, -np.inf, np.inf), 0.0, 1.0),
    "negative-zero-low-side": (_step(0.7, -0.0, 2.0), 0.0, 1.0),
    "nan-high-side": (lambda x: np.where(x == 1.0, 1.0, np.where(x <= 0.3, -1.0, np.nan)),
                      0.0, 1.0),
    "flat-zero-edge": (lambda x: np.maximum(x - 0.3, 0.0), 0.0, 1.0),
    "one-ulp": (lambda x: x - 1.0, 1.0, np.nextafter(1.0, 2.0)),
    "two-ulps": (lambda x: x - np.nextafter(1.0, 2.0), 1.0, 1.0 + 2.0 * np.spacing(1.0)),
    "negative": (lambda x: x + 2.5, -3.0, -1.0),
    "sign-crossing": (lambda x: np.sin(30.0 * x) + 0.2, -0.5, 0.5),
    "zero-crossing": (lambda x: x, -1.0, 1.0),
    "signed-zero-point": (lambda x: x, -5e-324, 1e-323),
    "subnormal": (lambda x: x - 3e-311, 0.0, 1e-310),
    "reversed": (lambda x: 0.5 - x, 1.0, 0.0),
    "wide": (lambda x: x - 1e300, -1e308, 1e308),
    "no-sign-change": (lambda x: x * x, 0.5, 2.0),
    "nan-at-lo": (lambda x: np.full(np.shape(x), np.nan), 0.0, 1.0),
    "nan-at-hi": (lambda x: np.where(x < 1.0, -1.0, np.nan), 0.0, 1.0),
}


class TestGridSignChange:
    """The sign-change contract every threshold search relies on, run on
    bracketed_roots with `points` lanes of the same bracket at once."""

    def test_simple_root(self):
        f = lambda x: x * x - 2.0
        calls = []
        roots = bracketed_roots(recorded(f, calls), [0.0], [2.0])
        assert roots.dtype == np.float64 and roots.shape == (1,)
        root = float(roots[0])
        assert f(root) > 0.0 >= f(np.nextafter(root, 0.0))
        assert root == bracketed_root(f, 0.0, 2.0)
        np.testing.assert_array_equal(np.concatenate(calls[:2]), [0.0, 2.0])  # ends first
        # every later point is strictly inside the bracket
        assert all(0.0 < x[0] < 2.0 for x in calls[2:])

    def test_flat_zero_returns_edge(self):
        # f <= 0 is the low side, so the answer is the smallest float with f > 0
        edge = 0.3
        root = bracketed_roots(lambda x: np.maximum(x - edge, 0.0), [0.0], [1.0])[0]
        assert root == np.nextafter(edge, 1.0)

    def test_no_bracket_names_it(self):
        with pytest.raises(NumericError, match=r"\[0\.5, 2\.0\].*f\(lo\)=0\.25"):
            bracketed_roots(lambda x: x * x, [0.5], [2.0])
        with pytest.raises(NumericError, match="does not change sign"):
            bracketed_roots(lambda x: np.where(x < 1.0, -1.0, np.nan), [0.0], [1.0])

    def test_nan_is_the_high_side(self):
        # the step keeps the end whose f is not <= 0
        edge = 0.3
        f = lambda x: np.where(x == 1.0, 1.0, np.where(x <= edge, -1.0, np.nan))
        assert bracketed_roots(f, [0.0], [1.0])[0] == np.nextafter(edge, 1.0)
        assert bracketed_root(lambda x: float(f(np.array(x))), 0.0, 1.0) \
            == np.nextafter(edge, 1.0)

    @pytest.mark.parametrize("points", [1, 2, 16, 33])
    def test_ends_on_one_ulp(self, points):
        # a bracket one ulp wide is the answer; one two ulps wide takes one step
        lo = 1.0
        for ulps, steps in ((1, 0), (2, 1)):
            hi = lo
            for _ in range(ulps):
                hi = np.nextafter(hi, 2.0)
            calls = []
            below = np.nextafter(hi, lo)
            roots = bracketed_roots(recorded(lambda x: x - below, calls),
                                    np.full(points, lo), np.full(points, hi))
            assert np.all(roots == hi) and len(calls) == 2 + steps

    @pytest.mark.parametrize("case", PARITY)
    def test_one_lane_is_a_lockstep_lane_bit_for_bit(self, case):
        # one lane (1-d, 0-d, and bracketed_root) evaluates the points,
        # returns the root and raises the text of the same bracket run as
        # one lane of a three-lane lockstep: the lane count changes nothing
        f, lo, hi = PARITY[case]
        want = _search(3, f, lo, hi)
        assert _search(1, f, lo, hi) == want
        assert _search(None, f, lo, hi) == want
        calls = []
        try:
            got = bracketed_root(recorded(lambda x: f(np.array([x]))[0], calls), lo, hi).hex()
        except NumericError as exc:
            got = str(exc)
        assert (_hexes(calls), got) == want

    @pytest.mark.parametrize("f, lo, hi, want", [
        (lambda x: x - 30e-324, 15e-324, 50e-324, "0x0.0000000000007p-1022"),
        (lambda x: 0.5 - x, 1.0, 0.0, "0x1.fffffffffffffp-2")])
    def test_subnormal_and_reversed_brackets_warn_nothing(self, f, lo, hi, want):
        # ITP's k1 = 0.2/(hi - lo) overflows on a subnormal bracket and its
        # first width cap takes log2 of a negative width on a reversed one:
        # no RuntimeWarning (an error here), and one lane, two lanes and
        # bracketed_root return the same float
        assert bracketed_root(f, lo, hi).hex() == want
        assert bracketed_roots(f, [lo], [hi])[0].hex() == want
        assert _hexes(bracketed_roots(f, [lo, lo], [hi, hi])) == [want, want]

    def test_one_lane_keeps_its_shape(self):
        f = lambda x: x * x - 2.0
        assert bracketed_roots(f, 0.0, 2.0).shape == ()
        assert bracketed_roots(f, [[0.0]], 2.0).shape == (1, 1)
        assert bracketed_roots(f, 0.0, 2.0) == bracketed_roots(f, [0.0, 0.0], [2.0, 2.0])[0]
        with pytest.raises(NumericError, match=r"\[0\.5, 2\.0\]"):
            bracketed_roots(lambda x: x * x, 0.5, 2.0)

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: x - np.cos(x), 0.0, 1.0),
        (lambda x: np.exp(x) - 3.0, -1.0, 4.0),
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: np.log(x) + 1.0, 1e-3, 10.0),
    ])
    @pytest.mark.parametrize("points", [1, 16])
    def test_same_float_as_bracketed_roots(self, f, lo, hi, points):
        # every lane ends on the smallest x evaluated with f(x) > 0, and the
        # float below it was evaluated with f <= 0
        calls = []
        roots = bracketed_roots(recorded(f, calls), np.full(points, lo), np.full(points, hi))
        evaluated = np.concatenate(calls)
        for root in roots:
            low = np.nextafter(root, -np.inf)
            assert root in evaluated and low in evaluated
            assert f(root) > 0.0 >= f(low)
            assert root == evaluated[f(evaluated) > 0.0].min()
            assert root == bracketed_root(f, lo, hi)


class TestCurveRegistry:
    def test_every_curve_covers_contract(self):
        names = {curve.name for curve in CURVES}
        assert {"holz-one", "holz-two", "parity-chsh-one", "mabk-one",
                "mabk-two", "colbeck-recycled"} <= names
        assert any("alpha=0.5" in n for n in names)
        assert any("alpha=2" in n for n in names)
