"""optimize: entropy minimizers, convex hull, tightness sweeps."""

import numpy as np
import pytest

from tribell import bell, bounds, centropy, optimize, states
from tribell.errors import ValidationError
from tribell.optimize import (OptConfig, convex_hull_lower, hull_value,
                              minimize_chsh_two_outcome,
                              minimize_holz_two_outcome,
                              minimize_parity_two_outcome, verify_tightness)

SQRT2 = np.sqrt(2.0)
CFG = OptConfig(restarts=16, seed=1)


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def eta_oracle(beta):
    s = np.sqrt(beta * beta - 1.0)
    ps = np.array([(1 + s) / 4] * 2 + [(1 - s) / 4] * 2)
    ps = ps[ps > 0]
    return 2.0 + float((ps * np.log2(ps)).sum())


@pytest.mark.parametrize("minimizer, beta, entropy", [
    (minimize_holz_two_outcome, 1.3, 0.5815920961394627),
    (minimize_parity_two_outcome, 1.2, 0.6496711750133672),
])
def test_fixed_seed_entropy_pinned(minimizer, beta, entropy):
    # fixed-seed values; any change to the objective or the search moves them
    got = minimizer(beta, OptConfig(restarts=8, seed=0)).entropy
    assert got == pytest.approx(entropy, rel=1e-12, abs=0.0)


def test_chsh_fixed_seed_pinned():
    # fixed-seed values; any change to the CHSH objective or the search moves them
    r = minimize_chsh_two_outcome(2.4, OptConfig(restarts=8, seed=0))
    assert r.entropy == pytest.approx(0.49236301966187557, rel=1e-12, abs=0.0)
    assert r.achieved_beta == pytest.approx(2.4, rel=1e-12, abs=0.0)
    assert r.converged


def _einsum_gram(rho, t, b0):
    """Charlie's Gram blocks G[a, o] (n, 2, 2, 2, 2) the long way: the 8x8
    eigenvector matrix scaled by sqrt(rho), contracted with Bob's
    eigenvectors u_o of cos(b0) Z + sin(b0) X."""
    n = rho.shape[0]
    w = states._block_eigenvectors(t) * np.sqrt(rho.reshape(n, 8))[:, None, :]
    c, s = np.cos(0.5 * b0), np.sin(0.5 * b0)
    u = np.stack([np.stack([c, s], -1), np.stack([s, -c], -1)], 1)  # u[n, o, b]
    proj = np.einsum("nob,nabcm->naocm", u, w.reshape(n, 2, 2, 2, 8))
    return np.einsum("naocm,naodm->naocd", proj, proj)


def _oracle_rows():
    """2000 random rows, then pure GHZ, uniform and rank-deficient rho at
    t in {0, +-pi/2, random} and b0 in {0, pi/2, pi}."""
    rng = np.random.default_rng(11)
    n = 2000
    rhos = [rng.dirichlet([0.6] * 8, n)]
    ts = [rng.uniform(-np.pi / 2, np.pi / 2, (n, 4))]
    b0s = [rng.uniform(0.0, np.pi, n)]
    ghz = np.eye(8)[0]
    deficient = rng.dirichlet([1.0] * 8) * (np.arange(8) % 3 != 1)
    for r in (ghz, np.full(8, 0.125), deficient / deficient.sum()):
        for t in (0.0, np.pi / 2, -np.pi / 2, rng.uniform(-np.pi / 2, np.pi / 2, 4)):
            for b0 in (0.0, np.pi / 2, np.pi):
                rhos.append(r[None])
                ts.append(np.broadcast_to(t, (1, 4)))
                b0s.append([b0])
    return (np.concatenate(rhos).reshape(-1, 2, 2, 2),
            np.concatenate(ts).reshape(-1, 2, 2), np.concatenate(b0s))


def test_closed_form_matches_einsum_gram():
    rho, t, b0 = _oracle_rows()
    gram = _einsum_gram(rho, t, b0)
    lam = np.clip(np.linalg.eigvalsh(gram), 0.0, None).reshape(len(b0), -1)
    safe = np.where(lam > 0.0, lam, 1.0)
    h_blocks = -(lam * np.log2(safe)).sum(axis=1)
    w = rho.reshape(-1, 8)
    h_e = -(w * np.log2(np.where(w > 0.0, w, 1.0))).sum(axis=1)
    fast = optimize._two_outcome_entropy(rho, t, b0)
    np.testing.assert_allclose(fast, h_blocks - h_e, rtol=0.0, atol=1e-13)
    # every off-diagonal Gram entry is sin(b0) ZXX / 8 up to sign
    zxx = states._block_correlators(rho, t)[1]
    off = np.broadcast_to((np.abs(np.sin(b0) * zxx) / 8.0)[:, None, None],
                          gram.shape[:3])
    np.testing.assert_allclose(np.abs(gram[..., 0, 1]), off, rtol=0.0, atol=1e-13)


class TestHolzMinimizer:
    def test_max_violation_matches_analytic(self):
        r = minimize_holz_two_outcome(1.5, CFG)
        assert r.converged
        assert r.entropy == pytest.approx(bounds.holz_two_outcome(1.5), abs=2e-3)

    def test_eta_regime(self):
        r = minimize_holz_two_outcome(1.2, CFG)
        assert r.entropy == pytest.approx(eta_oracle(1.2), abs=2e-3)

    def test_above_sqrt2_sits_on_or_above_tangent(self):
        beta = 1.44
        r = minimize_holz_two_outcome(beta, CFG)
        assert r.entropy >= bounds.holz_two_outcome(beta) - 2e-3

    def test_feasibility_via_bell_module(self):
        r = minimize_holz_two_outcome(1.3, CFG)
        state = r.state()
        assert bell.holz_vbar(state, r.argmin["b0"]) >= r.beta_target - 1e-7

    def test_objective_matches_cond_entropy(self):
        # the fast blockwise objective must equal the centropy oracle
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = rng.dirichlet([0.6] * 8).reshape(2, 2, 2)
            t = rng.uniform(-np.pi / 2, np.pi / 2, (2, 2))
            b0 = rng.uniform(0, np.pi)
            fast = optimize._two_outcome_entropy(
                rho[None, ...], t[None, ...], np.array([b0]))[0]
            st = states.BlockDiagState(rho, t)
            obs_b = np.cos(b0) * states.Z + np.sin(b0) * states.X
            slow = centropy.cond_entropy(st.to_matrix(), [0, 1],
                                         [states.Z, obs_b])
            assert fast == pytest.approx(slow, abs=1e-9)

    def test_determinism(self):
        a = minimize_holz_two_outcome(1.3, OptConfig(restarts=8, seed=42))
        b = minimize_holz_two_outcome(1.3, OptConfig(restarts=8, seed=42))
        assert a.entropy == b.entropy
        assert a.achieved_beta == b.achieved_beta
        assert np.array_equal(a.argmin["rho"], b.argmin["rho"])
        assert np.array_equal(a.argmin["t"], b.argmin["t"])

    def test_domain(self):
        with pytest.raises(ValidationError):
            minimize_holz_two_outcome(1.6, CFG)
        with pytest.raises(ValidationError):
            minimize_holz_two_outcome(1.0, CFG)


class TestParityMinimizer:
    def test_max_violation(self):
        # oracle: cond_entropy on GHZ with the optimal Parity-CHSH settings
        spec = bell.spec_by_name("parity-chsh")
        s = states.optimal_settings(spec)
        oracle = centropy.cond_entropy(states.ghz_state(3), [0, 1],
                                       [s.alice[0].matrix, s.bob[0].matrix])
        r = minimize_parity_two_outcome(SQRT2, CFG)
        assert r.converged
        assert oracle == pytest.approx(1.6008760, abs=1e-6)
        assert r.entropy == pytest.approx(oracle, abs=2e-3)

    def test_vanishing_violation(self):
        r = minimize_parity_two_outcome(1.0 + 1e-6, CFG)
        assert r.entropy == pytest.approx(0.0, abs=2e-3)

    def test_monotone_on_grid(self):
        cfg = OptConfig(restarts=12, seed=3)
        betas = np.linspace(1.02, SQRT2, 20)
        vals = [minimize_parity_two_outcome(float(b), cfg).entropy for b in betas]
        assert np.all(np.diff(vals) >= -1e-3)


class TestChshMinimizer:
    def test_max_violation(self):
        r = minimize_chsh_two_outcome(2 * SQRT2, CFG)
        assert r.converged
        assert r.entropy == pytest.approx(1.0 + h2(0.5 + SQRT2 / 4.0), abs=2e-3)
        assert r.entropy == pytest.approx(
            bounds.colbeck_recycled_two_outcome(2 * SQRT2), abs=2e-3)

    def test_classical_boundary(self):
        r = minimize_chsh_two_outcome(2.0 + 1e-6, CFG)
        assert r.entropy == pytest.approx(0.0, abs=2e-3)

    def test_range_and_feasibility(self):
        r = minimize_chsh_two_outcome(2.4, CFG)
        assert 0.0 <= r.entropy <= 2.0
        assert abs(r.achieved_beta - 2.4) <= 1e-7
        lam = r.argmin["lambdas"].reshape(-1)
        phi = r.argmin["phi"]
        d1, d2 = lam[0] - lam[2], lam[1] - lam[3]

        def corr(pa, pb):
            return np.cos(pa + pb) * d1 + np.cos(pa - pb) * d2

        v = (corr(phi[0], phi[2]) + corr(phi[0], phi[3])
             + corr(phi[1], phi[2]) - corr(phi[1], phi[3]))
        assert v == pytest.approx(r.achieved_beta, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValidationError):
            minimize_chsh_two_outcome(2.9, CFG)


class TestConvexHull:
    def test_convex_input_identity(self):
        xs = np.linspace(0, 1, 20)
        pts = np.column_stack([xs, xs ** 2])
        hull = convex_hull_lower(pts)
        assert len(hull) == len(pts)
        assert np.allclose(hull, pts)

    def test_concave_bump_replaced_by_chord(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.4], [1.0, 0.2]])
        hull = convex_hull_lower(pts)
        assert np.allclose(hull, [[0.0, 0.0], [1.0, 0.2]])
        assert hull_value(hull, 0.5) == pytest.approx(0.1)

    def test_collinear_returns_input(self):
        xs = np.linspace(0, 1, 7)
        pts = np.column_stack([xs, 2 * xs])
        hull = convex_hull_lower(pts)
        assert np.allclose(hull, pts)

    def test_pointwise_below_input(self):
        rng = np.random.default_rng(7)
        xs = np.sort(rng.uniform(0, 1, 40))
        ys = rng.uniform(0, 1, 40)
        pts = np.column_stack([xs, ys])
        hull = convex_hull_lower(pts)
        assert np.all(hull_value(hull, xs) <= ys + 1e-12)
        assert hull[0, 0] == xs[0] and hull[-1, 0] == xs[-1]

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            convex_hull_lower([[0, 0], [1, 1]])

    @pytest.mark.parametrize("ys", [(0.2, 0.5), (0.5, 0.2)])
    def test_repeated_x_keeps_lowest(self, ys):
        pts = [[0.0, 0.0], [0.5, 0.1], [1.0, ys[0]], [1.0, ys[1]]]
        hull = convex_hull_lower(pts)
        assert np.allclose(hull, [[0.0, 0.0], [0.5, 0.1], [1.0, 0.2]])
        with np.errstate(all="raise"):
            optimize.hull_knots(hull)


class TestOptConfig:
    def test_zero_restarts_rejected(self):
        with pytest.raises(ValidationError, match="restarts"):
            OptConfig(restarts=0)

    def test_negative_seed_rejected(self):
        # np.random.SeedSequence would fail later with a bare ValueError
        with pytest.raises(ValidationError, match="seed"):
            OptConfig(seed=-1)


class TestVerifyTightness:
    def test_holz_grid(self):
        rep = verify_tightness("holz", np.linspace(0.5, 1.0, 21))
        assert rep.passed

    def test_parity_grid(self):
        rep = verify_tightness("parity-chsh", np.linspace(0.5, 1.0, 21))
        assert rep.passed

    def test_specific_points(self):
        rep = verify_tightness("holz", [0.5, 0.75, 1.0])
        for (nu, beta, ce, bnd, expected) in rep.rows:
            assert ce == pytest.approx(expected, abs=1e-9)
            assert bnd == pytest.approx(expected, abs=1e-9)
        mid = rep.rows[1]
        assert mid[4] == pytest.approx(0.188722, abs=1e-6)

    def test_unknown_inequality(self):
        with pytest.raises(ValidationError):
            verify_tightness("mabk", [0.6])
