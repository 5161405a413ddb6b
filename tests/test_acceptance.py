"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL
line, at the stated tolerances and runtime budgets.

Criterion 8's convexity clause is genuinely unattainable for the analytic
MABK two-outcome curve (it is concave in a small window above its classical
bound); that single clause is kept as a strict expected failure and the
remaining clauses are asserted separately.  See the decisions ledger.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from tribell import bounds, optimize, rates, verification
from tribell.bell import bell_terms, bell_value, holz, spec_by_name
from tribell.centropy import cond_entropy
from tribell.optimize import OptConfig, convex_hull_lower, hull_knots
from tribell.rates import threshold_p
from tribell.states import Z, ghz_state, observable_matrices

SQRT2 = np.sqrt(2.0)


def _report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {criterion}: {status} {detail}")
    return passed


def test_criterion_1_quantum_bounds():
    t0 = time.time()
    checks = []
    for name, expect in (("holz", 1.5), ("parity-chsh", SQRT2), ("mabk", 4.0)):
        spec = spec_by_name(name)
        beta = bell_value(spec, ghz_state(3), spec.angles, spec.plane).beta
        checks.append(abs(beta - expect) <= 1e-9)
    for alpha in (0.5, 1.0, 2.0):
        spec = spec_by_name("asym-chsh", alpha)
        beta = bell_value(spec, ghz_state(2), spec.angles, spec.plane).beta
        checks.append(abs(beta - 2.0 * np.hypot(1.0, alpha)) <= 1e-9)
    elapsed = time.time() - t0
    ok = all(checks) and elapsed < 1.0
    assert _report("1 (quantum bounds)", ok, f"runtime {elapsed:.3f}s")


def test_criterion_2_table2_dicka_thresholds():
    t0 = time.time()
    expected = {
        ("holz", "local"): 0.934, ("holz", "global"): 0.855,
        ("parity-chsh", "local"): 0.936, ("parity-chsh", "global"): 0.858,
        ("asym-chsh", "local"): 0.923, ("asym-chsh", "global"): 0.852,
    }
    errs = {}
    for (ineq, noise), want in expected.items():
        got = threshold_p("dicka", spec_by_name(ineq), noise)
        errs[ineq, noise] = abs(got - want)
    elapsed = time.time() - t0
    ok = all(e <= 1e-3 for e in errs.values()) and elapsed < 30.0
    worst = max(errs.values())
    assert _report("2 (Table 2 DICKA thresholds)", ok,
                   f"max |err| {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_3_table3_dire_thresholds():
    expected = {
        ("mabk", "local"): 0.794, ("mabk", "global"): 0.500,
        ("parity-chsh", "local"): 0.870, ("parity-chsh", "global"): 0.707,
        ("holz", "local"): 0.849, ("holz", "global"): 0.667,
        ("chsh", "local"): 0.841, ("chsh", "global"): 0.707,
    }
    errs = {}
    for (ineq, noise), want in expected.items():
        got = threshold_p("dire-spot", spec_by_name(ineq), noise, gamma=0.0)
        errs[ineq, noise] = abs(got - want)
    table_ok = all(e <= 1e-3 for e in errs.values())

    analytic = [
        (threshold_p("dire-spot", spec_by_name("mabk"), "local", gamma=0.0), 2.0 ** (-1.0 / 3.0)),
        (threshold_p("dire-spot", spec_by_name("mabk"), "global", gamma=0.0), 0.5),
        (threshold_p("dire-spot", spec_by_name("holz"), "global", gamma=0.0), 2.0 / 3.0),
        (threshold_p("dire-recycled", spec_by_name("chsh"), "local"), 2.0 ** -0.25),
        (threshold_p("dire-recycled", spec_by_name("chsh"), "global"), 2.0 ** -0.5),
    ]
    analytic_ok = all(abs(a - b) <= 1e-6 for a, b in analytic)
    ok = table_ok and analytic_ok
    assert _report("3 (Table 3 DIRE thresholds)", ok,
                   f"max table |err| {max(errs.values()):.2e}, "
                   f"max analytic |err| {max(abs(a - b) for a, b in analytic):.2e}")


def test_criterion_4_tightness_sweeps():
    nus = np.linspace(0.5, 1.0, 50)
    rep_h = verification.verify_tightness("holz", nus)
    rep_p = verification.verify_tightness("parity-chsh", nus)
    ok = rep_h.passed and rep_p.passed
    assert _report("4 (tau-family tightness)", ok,
                   f"holz max err {np.max(rep_h.cond_entropy_err):.2e}/"
                   f"{np.max(rep_h.bound_err):.2e}, parity "
                   f"{np.max(rep_p.cond_entropy_err):.2e}/"
                   f"{np.max(rep_p.bound_err):.2e}")


def test_criterion_5_internal_constants():
    t0 = time.time()
    bstar_h = bounds.solve_beta_star_holz()
    bstar_c = bounds.solve_beta_star_colbeck()
    elapsed = time.time() - t0
    ok = abs(bstar_h - 1.49) <= 0.01 and abs(bstar_c - 2.75) <= 0.01 \
        and elapsed < 5.0
    assert _report("5 (beta* constants)", ok,
                   f"beta*_H={bstar_h:.6f}, beta*_C={bstar_c:.6f}, "
                   f"runtime {elapsed:.2f}s")


@pytest.fixture(scope="module")
def holz_sweep():
    """30-point numeric sweep of the Holz two-outcome curve, 64 restarts."""
    cfg = OptConfig(restarts=64, seed=2026)
    grid = np.concatenate([np.linspace(1.0, 1.4, 21)[1:],
                           np.linspace(1.4, 1.5, 10)])
    return grid, optimize.sweep_two_outcome("holz", grid, cfg)


def test_criterion_6_optimizer_endpoint_agreement(holz_sweep):
    t0 = time.time()
    cfg = OptConfig(restarts=64, seed=2026)

    chsh = optimize.minimize_chsh_two_outcome(2.0 * SQRT2, cfg)
    want_chsh = 1.0 + (lambda x: -x * np.log2(x) - (1 - x) * np.log2(1 - x))(
        0.5 + SQRT2 / 4.0)
    chsh_ok = abs(chsh.entropy - want_chsh) <= 2e-3

    # 10 grid points in [1, sqrt2] union [1.495, 1.5]
    grid10 = np.concatenate([np.linspace(1.05, SQRT2, 6),
                             np.linspace(1.495, 1.5, 4)])
    errs10 = [abs(res.entropy - bounds.holz_two_outcome(float(b)))
              for b, res in zip(grid10, optimize.sweep_two_outcome("holz", grid10, cfg))]
    grid_ok = max(errs10) <= 2e-3

    grid30, results30 = holz_sweep
    margins = [res.entropy - bounds.holz_two_outcome(float(b))
               for b, res in zip(grid30, results30)]
    hull_ok = min(margins) >= -2e-3
    feasible_ok = all(res.converged for res in results30)

    elapsed = time.time() - t0
    ok = chsh_ok and grid_ok and hull_ok and feasible_ok and elapsed < 600.0
    assert _report(
        "6 (optimizer endpoints)", ok,
        f"chsh err {abs(chsh.entropy - want_chsh):.2e}, "
        f"max grid err {max(errs10):.2e}, min sweep margin {min(margins):+.2e}, "
        f"runtime {elapsed:.0f}s")


def test_criterion_6b_hull_knots(holz_sweep):
    # Fig. 3 shape: the lower convex hull of the numeric sweep has its chord
    # endpoints near sqrt2 and near beta*_H ~ 1.49
    grid, results = holz_sweep
    pts = np.column_stack([grid, [r.entropy for r in results]])
    hull = convex_hull_lower(pts)
    knots = hull_knots(hull, slope_tol=1e-3)
    near_sqrt2 = np.min(np.abs(knots - SQRT2)) if len(knots) else np.inf
    near_bstar = np.min(np.abs(knots - bounds.solve_beta_star_holz())) \
        if len(knots) else np.inf
    ok = near_sqrt2 <= 0.02 and near_bstar <= 0.02
    assert _report("6b (hull knots near sqrt2 and beta*)", ok,
                   f"nearest knot offsets {near_sqrt2:.3f}, {near_bstar:.3f}")


def test_criterion_7_property_suites():
    t0 = time.time()
    rb = verification.check_appendix_b(10_000, seed=11)
    rc = verification.check_appendix_c()
    ru = verification.check_uncertainty(1_000, seed=17)
    elapsed = time.time() - t0
    ok = rb.passed and rc.passed and ru.passed and elapsed < 120.0
    assert _report("7 (property suites)", ok,
                   f"{rb.detail}; {rc.detail}; {ru.detail}; "
                   f"runtime {elapsed:.1f}s")


def test_criterion_8_shape_checks_excluding_known_defect():
    results = verification.check_bound_curves(grid=200)
    bad = [r for r in results if not r.passed and not r.expected_failure]
    known = [r for r in results if r.expected_failure]
    ok = not bad and len(known) == 1 and "mabk-two" in known[0].name
    assert _report("8 (curve shapes; mabk-two convexity tracked separately)",
                   ok, "; ".join(r.name for r in results if not r.passed))


@pytest.mark.xfail(strict=True, reason=(
    "the analytic MABK two-outcome bound 2 - H({1-3f, f, f, f}) is concave "
    "in a window above beta=2 (second derivative -> -inf as beta -> 2+), so "
    "the blanket convexity clause cannot hold; see the decisions ledger"))
def test_criterion_8_full_convexity_as_stated():
    results = verification.check_bound_curves(grid=200)
    failing = [r.name for r in results if not r.passed]
    _report("8 (every curve convex, as stated)", not failing,
            "violations: " + ", ".join(failing))
    assert not failing


@pytest.mark.xfail(strict=True, reason=(
    "the shipped Parity-CHSH two-outcome curve is not a lower bound: a "
    "Bell-diagonal AB state with Charlie in |+> reaches beta=1.200058 with "
    "H(A0B0|E)=0.49147, 0.158 bits below the curve's 0.64987 (ROADMAP item 11); "
    "the optimizer finds it (test_optimize.py::TestParityIsChshAtTwiceBeta::"
    "test_below_the_shipped_curve), and the curve moves with item 5's re-recording"))
def test_parity_chsh_two_outcome_curve_is_a_lower_bound():
    # CHSH(A, B)/2 = beta embedded in Parity-CHSH: C0 = C1 = X on |+>
    lam = np.array([0.8616, 0.1382, 0.0, 0.0002])
    lam /= lam.sum()
    rho_ab = np.zeros((4, 4))
    for i in (0, 1):
        for j in (0, 1):
            v = np.zeros(4)  # (|0 j> + (-1)^i |1 ~j>) / sqrt(2)
            v[j], v[2 + (1 - j)] = 1.0, (-1.0) ** i
            rho_ab += lam[2 * i + j] * np.outer(v, v) / 2.0
    rho = np.kron(rho_ab, np.full((2, 2), 0.5))
    spec = spec_by_name("parity-chsh")
    angles = np.array([-0.1077, 0.9792, -0.0940, 0.9992, 0.0, 0.0])  # x-y plane
    beta = bell_value(spec, rho, angles, "xy").beta
    entropy = cond_entropy(rho, [0, 1], observable_matrices("xy", angles[[0, 2]]))
    curve = rates.bound_curve(spec, "two").fn(beta)
    _report("11 (Parity-CHSH two-outcome curve is a lower bound)", curve <= entropy + 1e-9,
            f"beta {beta:.6f}, H(A0B0|E) {entropy:.5f}, curve {curve:.5f}")
    assert curve <= entropy + 1e-9


_HOLZ_ROW = (0.0, np.pi / 2, 0.0, 1.26100, 0.0, 0.98466)  # A0 = B0 = C0 = Z, x-z plane


def _hermitian_fn(h, f):
    w, v = np.linalg.eigh(h)
    return (v * f(w)) @ v.conj().T


@lru_cache(maxsize=1)
def _holz_window_state():
    """(beta, H(A0B0|E)) of a state in the Holz window where the shipped
    two-outcome curve overstates: the Gibbs state of y ln2 B relative to
    the pinching onto A's and B's Z outcomes, iterated 100 times from I/8
    per y, y bisected 40 times on [0, 60] for Tr[B sigma] >= 1.48."""
    spec = holz()
    bell_op = sum(c * op for c, op in bell_terms(spec, _HOLZ_ROW))
    same_ab = (np.arange(8)[:, None] >> 1) == (np.arange(8)[None, :] >> 1)

    def gibbs(y):
        sigma = np.eye(8, dtype=complex) / 8
        for _ in range(100):
            log_pinched = _hermitian_fn(np.where(same_ab, sigma, 0.0) + 1e-12 * np.eye(8), np.log)
            sigma = _hermitian_fn(log_pinched + y * np.log(2.0) * bell_op, np.exp)
            sigma /= np.trace(sigma).real
        return sigma

    lo, hi = 0.0, 60.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if np.trace(bell_op @ gibbs(mid)).real >= 1.48:
            hi = mid
        else:
            lo = mid
    sigma = gibbs(hi)
    return bell_value(spec, sigma, _HOLZ_ROW).beta, cond_entropy(sigma, [0, 1], [Z, Z])


def test_holz_window_state_reaches_its_beta():
    beta, entropy = _holz_window_state()
    assert beta >= 1.48
    assert entropy <= 1.5476


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the conjectured Holz two-outcome curve is not a lower bound: a Gibbs state "
    "at settings (pi/2, 1.26100, 0.98466) reaches beta=1.4800000 with "
    "H(A0B0|E)=1.547526, below the curve's 1.580554 by 0.0330 bits "
    "(ROADMAP \"Known failures\", item 24)"))
def test_holz_two_outcome_curve_is_a_lower_bound():
    beta, entropy = _holz_window_state()
    curve = bounds.holz_two_outcome(beta)
    _report("Holz two-outcome curve is a lower bound", curve <= entropy + 1e-9,
            f"beta {beta:.7f}, H(A0B0|E) {entropy:.6f}, curve {curve:.6f}")
    assert curve <= entropy + 1e-9
