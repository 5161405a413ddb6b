"""bounds: closed-form entropy bounds, the transcendental solvers, and the
alpha optimization."""

import numpy as np
import pytest

from tribell import bounds
from tribell.bounds import (asym_chsh_one_outcome, asym_tangent,
                            best_alpha_bound, colbeck_g1,
                            colbeck_recycled_two_outcome, eta, find_root,
                            holz_one_outcome, holz_two_outcome,
                            mabk_one_outcome, mabk_two_outcome,
                            parity_chsh_one_outcome, solve_beta_star_colbeck,
                            solve_beta_star_holz, solve_x, theta,
                            theta_at_optimum)
from tribell.errors import NumericError, ValidationError

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


# (alpha, beta*, slope) from the scalar 1200-point scan and bisection that
# preceded the batched solver; alpha <= 0.35 and alpha = 0.4 take the chord
# fallback
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
    (0.3, 2.08806130178211, 11.355725838283627),
    (0.35, 2.118962010041709, 8.406044918452471),
    (0.4, 2.1540659228538015, 6.49072800445907),
    (0.45, 2.1931636753651516, 5.17673914535045),
    (0.5, 2.235969896273306, 4.2359004439910475),
    (0.55, 2.281894267153711, 3.5383471911371216),
    (0.6, 2.3296690259161563, 3.0051692304926667),
    (0.65, 2.3771019311941464, 2.585685958106655),
    (0.7, 2.421104185047483, 2.2459251791840007),
    (0.75, 2.457785714302797, 1.962316636054424),
    (0.8, 2.4822755121455353, 1.7178089817771371),
    (0.85, 2.4878644048890743, 1.4990436264400893),
    (0.9, 2.463379463970437, 1.2934378065127343),
    (0.95, 2.382976571377413, 1.0826244612417175),
    (0.99, 2.199930365849177, 0.8643034716793483),
    (0.999, 2.0674940427653166, 0.7640311288001965),
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
        for alpha in (1e-6, 1e-3, 0.01, 0.05, 0.2, 0.4):
            qb = 2.0 * np.hypot(1.0, alpha)
            assert asym_tangent(alpha) == (qb, 1.0 / (qb - 2.0))

    def test_non_finite_alpha_rejected(self):
        with pytest.raises(ValidationError, match="alpha"):
            bounds._asym_tangents([0.5, np.nan])


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


class TestColbeck:
    def test_endpoints(self):
        assert colbeck_recycled_two_outcome(2.0) == 0.0
        got = colbeck_recycled_two_outcome(2 * SQRT2)
        assert got == pytest.approx(1.0 + h2(0.5 + SQRT2 / 4.0), abs=1e-12)
        assert got == pytest.approx(1.6008760, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValidationError):
            colbeck_recycled_two_outcome(2.9)


class TestRootFinding:
    def test_simple_root(self):
        assert find_root(lambda x: x * x - 2.0, 0.0, 2.0) == pytest.approx(
            SQRT2, abs=1e-10)

    def test_no_bracket(self):
        with pytest.raises(NumericError):
            find_root(lambda x: 1.0 + x * x, -1.0, 1.0)


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
