"""optimize: entropy minimizers, convex hull, tightness sweeps."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tribell import bell, bounds, centropy, optimize, rates, states
from tribell.errors import ValidationError
from tribell.optimize import (OptConfig, convex_hull_lower, hull_value,
                              minimize_chsh_two_outcome,
                              minimize_holz_two_outcome,
                              minimize_parity_two_outcome)
from tribell.verification import verify_tightness

import pins

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


@pytest.mark.parametrize("entry", pins.calls("minimize"),
                         ids=lambda e: f"{e['inequality']}-{e['beta']}")
def test_fixed_seed_bits_pinned(entry):
    # every bit of the entropy, the achieved value and the argmin at a fixed
    # seed, so any change to the objective, its gradient or the search shows here
    assert pins.mismatches(entry) == []


def _fields(res):
    """Every OptResult field: floats by repr, the argmin by its digest."""
    return (repr(res.entropy), repr(res.achieved_beta), res.converged, res.restarts_used,
            repr(res.beta_target), pins.argmin_digest(res))


@pytest.mark.parametrize("ineq, betas", [
    ("holz", [1.45, 1.05, 1.3, 1.45, 1.5]),
    ("parity-chsh", [SQRT2, 1.2, 1.0001, 1.2]),
    ("chsh", [2.7, 2.0001, 2.4, 2.7, 2 * SQRT2]),
], ids=["holz", "parity-chsh", "chsh"])
def test_sweep_rows_equal_single_solves(ineq, betas):
    # an unsorted grid with a repeated beta, solved in one batch: every row
    # is the single solve at its beta in every field, bit for bit
    cfg = OptConfig(restarts=8, seed=5)
    rows = optimize.sweep_two_outcome(ineq, betas, cfg)
    assert [_fields(r) for r in rows] == [
        _fields(optimize.MINIMIZERS[ineq](b, cfg)) for b in betas]


def test_sweep_batches_hold_whole_betas(monkeypatch):
    # under the lane cap one batch; at a cap of 20 lanes, 8-restart betas go
    # two to a batch; below the restarts, one: the rows stay the same, in
    # input order
    betas = [1.3, 1.1, 1.45, 1.2, 1.05]
    cfg = OptConfig(restarts=8, seed=0)
    batches, multistart = [], optimize._multistart

    def counted(betas, *args):
        batches.append(list(betas))
        return multistart(betas, *args)
    monkeypatch.setattr(optimize, "_multistart", counted)
    whole = [_fields(r) for r in optimize.sweep_two_outcome("holz", betas, cfg)]
    assert batches == [betas]
    for cap, want in [(20, [betas[:2], betas[2:4], betas[4:]]), (5, [[b] for b in betas])]:
        monkeypatch.setattr(optimize, "LANE_CAP", cap)
        batches.clear()
        assert [_fields(r) for r in optimize.sweep_two_outcome("holz", betas, cfg)] == whole
        assert batches == want


def test_sweep_checks_every_beta_first(monkeypatch):
    monkeypatch.setattr(optimize, "_multistart", lambda *a: pytest.fail("solved"))
    with pytest.raises(ValidationError, match="beta=1.0"):
        optimize.sweep_two_outcome("holz", [1.3, 1.0], OptConfig(restarts=8))
    with pytest.raises(ValidationError, match="mabk"):
        optimize.sweep_two_outcome("mabk", [3.0])
    assert optimize.sweep_two_outcome("chsh", []) == []


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _edge_rows():
    """Seeded random block rows, then edge rows: an angle of -0.0, t =
    +-pi/2, b0 = 0 and pi, all-zero weights (the s <= 0 guard) and a single
    nonzero weight."""
    rng = np.random.default_rng(12)
    x = np.column_stack([rng.normal(size=(40, 8)),
                         rng.uniform(-np.pi / 2, np.pi / 2, (40, 4)),
                         rng.uniform(0.0, np.pi, 40)])
    edges = np.tile(x[:1], (7, 1))
    edges[0, 9] = edges[0, 12] = -0.0
    edges[1, 8:12] = [np.pi / 2, -np.pi / 2, np.pi / 2, -np.pi / 2]
    edges[2, 12] = 0.0
    edges[3, 12] = np.pi
    edges[4, :8] = 0.0
    edges[5, :8] = 0.0
    edges[5, 3] = 0.7
    edges[6, :8] = 0.0
    edges[6, [8, 12]] = -0.0
    return np.vstack([x, edges])


def _spread_rows():
    """Every edge row with one variable moved by +r or -r, r from 1e-9 to
    0.3 across the rows."""
    x = _edge_rows()
    r = np.geomspace(1e-9, 0.3, len(x))
    steps = np.concatenate([np.eye(13), -np.eye(13)])
    return (x[:, None, :] + r[:, None, None] * steps).reshape(-1, 13)


def _numpy_entropy(rho, t, b0):
    """The Gram-block closed form with numpy's own reductions, solving all
    eight blocks G[a, o]."""
    n = rho.shape[0]
    c2, s2 = np.cos(t) ** 2, np.sin(t) ** 2
    lam0 = c2 * rho[:, 0] + s2 * rho[:, 1]
    lam1 = s2 * rho[:, 0] + c2 * rho[:, 1]
    diag = 0.5 * np.stack([lam0 + lam1[:, ::-1, ::-1],
                           lam1 + lam0[:, ::-1, ::-1]], axis=1)
    cu = np.cos(0.5 * b0)[:, None, None] ** 2
    su = np.sin(0.5 * b0)[:, None, None] ** 2
    g = np.stack([cu * diag[:, :, 0] + su * diag[:, :, 1],
                  su * diag[:, :, 0] + cu * diag[:, :, 1]], axis=2)
    zxx = (np.sin(2.0 * t) * (rho[:, 0] - rho[:, 1])).sum(axis=(1, 2))
    g01 = (np.sin(b0) * zxx / 8.0)[:, None, None]
    tr = g[..., 0] + g[..., 1]
    disc = np.sqrt((g[..., 0] - g[..., 1]) ** 2 + 4.0 * g01 ** 2)
    lam = np.clip(np.stack([(tr + disc) / 2.0, (tr - disc) / 2.0], axis=-1), 0.0, None)
    return (optimize._xlog2x(rho.reshape(n, 8)).sum(axis=1)
            - optimize._xlog2x(lam.reshape(n, 8)).sum(axis=1))


def _numpy_correlators(rho, t):
    """The block correlators XXX, ZXX, ZZI, ZIZ and IZZ of rows rho
    (n, 2, 2, 2), t (n, 2, 2) with numpy's own reductions, the signs of Z on
    Bob's and Charlie's bits as +-1 factors."""
    sgn_j = np.array([[1.0, 1.0], [-1.0, -1.0]])
    sgn_k = np.array([[1.0, -1.0], [1.0, -1.0]])
    d, tot = rho[:, 0] - rho[:, 1], rho[:, 0] + rho[:, 1]
    c2, s2 = np.cos(2.0 * t), np.sin(2.0 * t)
    return ((d * c2).sum(axis=(1, 2)), (d * s2).sum(axis=(1, 2)),
            (d * c2 * sgn_j).sum(axis=(1, 2)), (d * c2 * sgn_k).sum(axis=(1, 2)),
            (tot * sgn_j * sgn_k).sum(axis=(1, 2)))


def _numpy_vbar(rho, t, b0):
    """The angle-maximized Holz value of rows, from _numpy_correlators."""
    xxx, zxx, zzi, ziz, izz = _numpy_correlators(rho, t)
    sb, cb = np.sin(b0), np.cos(b0)
    return np.sqrt(sb * sb * (zxx ** 2 + xxx ** 2) + (ziz + cb * izz) ** 2) - cb * zzi


def _columns(rho, t, b0):
    """Rows rho (n, 2, 2, 2), t (n, 2, 2), b0 (n,) -> columns (rho, trig)."""
    angles = np.vstack([np.reshape(t, (-1, 4)).T, b0])
    return np.moveaxis(rho, 0, -1), states._block_trig(angles)


def test_row_kernel_matches_numpy_reductions():
    # the value against the row-major numpy reductions, the entropy against
    # all eight Gram blocks summed by numpy, on the spread rows and the Gram
    # oracle rows
    z = _spread_rows()
    rho = optimize._weights(z, 8).reshape(-1, 2, 2, 2)
    t, b0 = z[:, 8:12].reshape(-1, 2, 2), z[:, 12]
    v_rows = optimize._block_value_grad(z, 1.3, 0.0, 0.0)[2]
    np.testing.assert_array_equal(_bits(v_rows), _bits(_numpy_vbar(rho, t, b0)))
    np.testing.assert_array_equal(_bits(bell._block_vbar(*_columns(rho, t, b0))),
                                  _bits(v_rows))
    for rho, t, b0 in [(rho, t, b0), _oracle_rows()]:
        np.testing.assert_array_equal(_bits(optimize._two_outcome_entropy(rho, t, b0)),
                                      _bits(_numpy_entropy(rho, t, b0)))


def _block_rows(rho, t, b0):
    """Search rows (n, 13) of states rho (n, 2, 2, 2), t (n, 2, 2) and b0."""
    n = len(b0)
    return np.column_stack([np.sqrt(rho.reshape(n, 8)), t.reshape(n, 4), b0])


def _mixed_entropy(ineq, z, beta):
    """The entropy of rows z mixed down to beta, written out apart from the
    kernels: for Holz through _block_entropy, for CHSH as
    1 + h(2p) - H({lambda_ij})."""
    if ineq == "holz":
        rho, trig = optimize._block_columns(z)
        s = optimize._beta_scale(bell._block_vbar(rho, trig), beta)
        return optimize._block_entropy(s * rho + (1.0 - s) / 8, trig)
    lam, v = optimize._chsh_terms(z)
    s = optimize._beta_scale(v, beta)
    q = np.clip((1.0 + s * optimize._chsh_corr(lam, z, 0, 0)) / 2.0, 0.0, 1.0)
    xlog2x = optimize._xlog2x
    return 1.0 + (-xlog2x(q) - xlog2x(1.0 - q)) + xlog2x(optimize._mixed(lam, s)).sum(axis=1)


def _family(ineq, beta, pw, mu):
    """(value, penalized objective, value_grad) of an inequality's rows: the
    objective is _mixed_entropy plus _penalty of the value."""
    seen = _handed_to_multistart(pytest.MonkeyPatch(), optimize.MINIMIZERS[ineq], beta)
    value, value_grad = seen["value"], seen["value_grad"]

    def objective(z):
        return _mixed_entropy(ineq, z, beta) + optimize._penalty(value(z), beta, pw, mu)[0]
    return value, objective, lambda z: value_grad(z, beta, pw, mu)


def _checked_gradient(ineq, z, beta, h=1e-6):
    """The analytic gradient at rows z against central differences of the
    penalized objective (weight 1e3, multiplier 0.5), on every entry whose
    stencil z +- h e_i stays on one side of the objective's kinks: the
    mixing at v = beta, the penalty at beta + MARGIN and, for Holz, the
    cone points of the angle-maximized value (the square root of
    _block_vbar at 0).
    Returns the share of entries checked."""
    value, objective, value_grad = _family(ineq, beta, 1e3, 0.5)
    f, grad, _, _ = value_grad(z)
    np.testing.assert_array_equal(_bits(f), _bits(objective(z)))
    assert np.all(np.isfinite(grad))
    num = np.empty_like(z)
    smooth = np.ones(z.shape, bool)
    v = value(z)
    for i in range(z.shape[1]):
        e = np.zeros(z.shape[1])
        e[i] = h
        num[:, i] = (objective(z + e) - objective(z - e)) / (2.0 * h)
        for kink in (beta, beta + optimize.MARGIN):
            side = v > kink
            smooth[:, i] &= (value(z + e) > kink) == side
            smooth[:, i] &= (value(z - e) > kink) == side
    if ineq == "holz":
        xxx, zxx, zzi, ziz, izz = states._block_correlators(*optimize._block_columns(z))
        sb, cb = np.sin(z[:, 12]), np.cos(z[:, 12])
        cone = np.sqrt(sb * sb * (zxx ** 2 + xxx ** 2) + (ziz + cb * izz) ** 2)
        smooth &= (cone > 1e-3)[:, None]
    err = np.abs(num - grad)[smooth]
    assert np.all(err <= 2e-6 * (1.0 + np.abs(grad[smooth]))), np.max(err)
    return smooth.mean()


@pytest.mark.parametrize("beta", [1.05, 1.3])
def test_block_gradient_matches_central_differences(beta):
    # random rows on both sides of v = beta and of sin b0 = 0, the edge
    # rows (all-zero and single weights, t = +-pi/2, b0 = 0 and pi) and the
    # Gram oracle's structured rows (GHZ, uniform and rank-deficient rho,
    # degenerate Gram blocks)
    rng = np.random.default_rng(21)
    scale = np.repeat([0.05, 0.3], 100)[:, None]
    near = optimize._block_starts(beta)[0] + scale * rng.normal(size=(200, 13))
    near[::4, 12] += np.pi  # sin b0 < 0
    rho, t, b0 = _oracle_rows()
    z = np.vstack([near, _edge_rows(), _block_rows(rho, t, b0)[-36:],
                   _block_rows(rho, t, b0)[:200]])
    v = _family("holz", beta, 1e3, 0.5)[0](z)
    assert np.count_nonzero(v > beta) >= 20 and np.count_nonzero(v < beta) >= 100
    assert _checked_gradient("holz", z, beta) > 0.9


@pytest.mark.parametrize("beta", [2.05, 2.6])
def test_chsh_gradient_matches_central_differences(beta):
    rng = np.random.default_rng(22)
    anchor = np.array([1.0, 0, 0, 0, 0.0, np.pi / 2, -np.pi / 4, np.pi / 4])
    edges = np.tile(anchor, (6, 1))
    edges[0, :4] = [np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0]  # the classical start
    edges[1, :4] = 0.0  # all-zero weights
    edges[2, 4:] = [0.0, 0.0, np.pi, -np.pi]
    edges[3, :4] = 0.5  # uniform: v = 0
    edges[4, 4:] = -0.0
    edges[5, 1:4] = [1e-5, 0.0, 1e-5]
    z = np.vstack([anchor + 0.3 * rng.normal(size=(200, 8)),
                   np.column_stack([rng.normal(size=(200, 4)),
                                    rng.uniform(-np.pi, np.pi, (200, 4))]), edges])
    v = optimize._chsh_terms(z)[1]
    assert np.count_nonzero(v > beta) >= 10 and np.count_nonzero(v < beta) >= 100
    assert _checked_gradient("chsh", z, beta) > 0.9


def test_lbfgs_makes_one_batched_call_per_iteration():
    # separable quadratics with curvatures from 0.5 to 200: every iteration
    # is one call on the restarts still moving, a restart that retires stays
    # retired, and every restart ends at its minimum and retires before the
    # cap
    rng = np.random.default_rng(23)
    curvature = np.geomspace(1.0, 1e2, 13) * rng.uniform(0.5, 2.0, (16, 13))
    calls = []

    def value_grad(z, lanes):
        calls.append(lanes.copy())
        a = curvature[lanes]
        return 0.5 * (a * z * z).sum(axis=1), a * z
    x = optimize._lbfgs_lockstep(value_grad, rng.normal(size=(16, 13)), 300)
    assert np.max(np.abs(x)) < 1e-8
    assert len(calls) < 301
    assert np.array_equal(calls[0], np.arange(16))
    assert all(set(b) <= set(a) for a, b in zip(calls[1:], calls[2:]))


def test_chsh_seeds_agree_at_the_knots():
    # at the CHSH knots of the numeric curve, two seeds at 64 restarts give
    # the same entropy to 1e-6 (each sweep row is the single solve)
    betas = np.linspace(2.708, 2.82, 10)
    seeds = [optimize.sweep_two_outcome("chsh", betas, OptConfig(restarts=64, seed=seed))
             for seed in (0, 1)]
    for beta, a, b in zip(betas, *seeds):
        assert a.converged and b.converged
        assert abs(a.entropy - b.entropy) <= 1e-6, beta


@pytest.mark.parametrize("beta", [1.1, 1.2, 1.3])
def test_holz_converges_onto_the_conjectured_curve(monkeypatch, beta):
    # within 1e-5 above the conjectured curve, both the minimizer and the
    # search from its GHZ anchor and seeded random starts alone (without the
    # tau, two-block and uniform starts); a value more than 1e-9 below it
    # would be a counterexample to the conjecture
    curve = bounds.holz_two_outcome(beta)
    cfg = OptConfig(restarts=64, seed=0)
    seen = _handed_to_multistart(monkeypatch, minimize_holz_two_outcome, beta)
    (random_only,) = optimize._multistart([beta], cfg, seen["value"], seen["value_grad"],
                                          [seen["starts"][:1]], *seen["rest"])
    for res in (minimize_holz_two_outcome(beta, cfg), random_only):
        assert res.converged
        assert -1e-9 <= res.entropy - curve <= 1e-5


def _snap_all_rounds(x, anchor, deficit_batch):
    """_snap_to_anchor one bisection level per call, with all 80 levels;
    also returns the first level at which every lane's midpoint rounds onto
    an end (80 if none does)."""
    bad = deficit_batch(x) > 0.0
    xb = x[bad]
    lo, hi = np.zeros(len(xb)), np.ones(len(xb))
    seg = anchor[None, :] - xb
    stalled = 80
    for level in range(80):
        mid = 0.5 * (lo + hi)
        if stalled == 80 and np.all((mid == lo) | (mid == hi)):
            stalled = level
        ok = deficit_batch(xb + mid[:, None] * seg) <= 0.0
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    x = x.copy()
    x[bad] = xb + hi[:, None] * seg
    return x, stalled


def _check_snap(x, anchor, beta, value):
    """The two-level snap against all 80 sequential levels on the deficit
    beta - value(z): the same bits, and after the first call one value call
    per two levels until every lane has stalled, each on the midpoint and
    both quarter points of every infeasible lane.  Returns the level at
    which they stalled."""
    calls = []

    def counted(z):
        calls.append(len(z))
        return value(z)

    def deficit(z):
        return beta - value(z)
    got = optimize._snap_to_anchor(x, anchor, beta, counted)
    want, stalled = _snap_all_rounds(x, anchor, deficit)
    np.testing.assert_array_equal(_bits(got), _bits(want))
    bad = np.count_nonzero(deficit(x) > 0.0)
    assert calls == [len(x)] + [3 * bad] * ((stalled + 1) // 2)
    return stalled


def _late_lanes(x, anchor, deficit):
    """Rows a step short of the boundary: they cross it near the start of
    their segments, so their lanes need more levels than the others."""
    snapped, _ = _snap_all_rounds(x, anchor, deficit)
    return snapped + 1e-3 * (x - snapped)


def test_snap_stops_early_with_the_same_bits():
    beta = 1.45
    x = _edge_rows()
    anchor = optimize._block_starts(beta)[0]

    def value(z):
        return bell._block_vbar(*optimize._block_columns(z))
    x = np.vstack([x, _late_lanes(x, anchor, lambda z: beta - value(z))])
    assert np.count_nonzero(beta - value(x) > 0.0) > len(x) // 2
    assert _check_snap(x, anchor, beta, value) < 80


def test_snap_stops_early_on_chsh_rows():
    beta = 2.7
    rng = np.random.default_rng(13)
    x = np.column_stack([rng.normal(size=(60, 4)), rng.uniform(-np.pi, np.pi, (60, 4))])
    anchor = np.array([1.0, 0, 0, 0, 0.0, np.pi / 2, -np.pi / 4, np.pi / 4])  # 2 sqrt2

    def value(z):
        return optimize._chsh_terms(z)[1]
    x = np.vstack([x, _late_lanes(x, anchor, lambda z: beta - value(z))])
    assert np.count_nonzero(beta - value(x) > 0.0) > len(x) // 2
    assert _check_snap(x, anchor, beta, value) < 80


def test_snap_exit_on_either_level_and_at_the_cap():
    # one lane on [1, 0] crossing x (1 - t) = 1 - t* at t = t*: it stalls
    # after a number of levels set by t*, odd, even, or past the 80-level
    # cap for t* near 0; the deficit is x - (1 - t*), as -(1 - t*) - (-x)
    anchor = np.zeros(1)
    seen = set()
    for crossing in np.geomspace(1e-40, 0.9, 60):
        seen.add(_check_snap(np.ones((1, 1)), anchor, -(1.0 - crossing), lambda z: -z[:, 0]))
    assert 80 in seen
    assert {level % 2 for level in seen - {80}} == {0, 1}


class _Handed(Exception):
    pass


def _handed_to_multistart(monkeypatch, minimizer, beta):
    """The beta, the Bell value function, the kernel (the penalized objective
    with its gradient, Bell value and entropy), the structured starts and the
    rest of the arguments that a minimizer hands _multistart, without running
    the search: its own beta, or for Parity-CHSH the CHSH search's 2 beta."""
    seen = {}

    def spy(betas, cfg, value, value_grad, starts, *rest):
        handed = 2.0 * beta if minimizer is minimize_parity_two_outcome else beta
        assert betas == [handed] and len(starts) == 1  # one group: the minimizer's beta
        seen.update(beta=handed, value=value, value_grad=value_grad, starts=starts[0],
                    rest=rest)
        raise _Handed
    with monkeypatch.context() as m:
        m.setattr(optimize, "_multistart", spy)
        with pytest.raises(_Handed):
            minimizer(beta, OptConfig(restarts=1, seed=0))
    return seen


def _feasibility_betas(ineq):
    """A grid over (local bound, quantum bound], with the quantum bound and
    the float just below it."""
    spec = bell.spec_by_name(ineq)
    lo, qb = spec.local_bound, spec.quantum_bound
    return [lo + (qb - lo) * f for f in (1e-9, 0.25, 0.5, 0.75, 0.999)] + [
        float(np.nextafter(qb, 0.0)), qb]


@pytest.mark.parametrize("ineq", ["holz", "parity-chsh", "chsh"])
def test_anchor_is_feasible(monkeypatch, ineq):
    # the snap's anchor, the first structured start, is feasible to
    # FEASIBILITY_TOL at every beta handed to the search
    for beta in _feasibility_betas(ineq):
        seen = _handed_to_multistart(monkeypatch, optimize.MINIMIZERS[ineq], beta)
        anchor = seen["starts"][0]
        assert seen["beta"] - seen["value"](anchor[None, :])[0] <= optimize.FEASIBILITY_TOL


@pytest.mark.parametrize("ineq", ["holz", "parity-chsh", "chsh"])
def test_snapped_rows_are_feasible(monkeypatch, ineq):
    # every row the snap returns is feasible to FEASIBILITY_TOL, which is
    # all that _multistart relies on to keep feasible points and to report
    # `converged`
    rng = np.random.default_rng(17)
    for beta in _feasibility_betas(ineq):
        seen = _handed_to_multistart(monkeypatch, optimize.MINIMIZERS[ineq], beta)
        anchor, value, beta = seen["starts"][0], seen["value"], seen["beta"]
        infeasible = 0
        for scale in (1e-3, 0.1, 1.0):
            x = anchor + scale * rng.normal(size=(512, len(anchor)))
            infeasible += np.count_nonzero(beta - value(x) > 0.0)
            snapped = optimize._snap_to_anchor(x, anchor, beta, value)
            assert np.max(beta - value(snapped)) <= optimize.FEASIBILITY_TOL
        assert infeasible > 0


@pytest.mark.parametrize("minimizer, beta, width", [
    (minimize_holz_two_outcome, 1.45, 13), (minimize_chsh_two_outcome, 2.7, 8)])
def test_kernel_bits_at_zero_penalty(monkeypatch, minimizer, beta, width):
    # what _multistart keeps of a row: at pw = mu = 0 the kernel's objective
    # is its entropy, and its Bell value is the snap's, bit for bit, on the
    # spread, edge and Gram oracle rows and on the structured starts without
    # jitter (zero-weight GHZ rows, the uniform state, the classical CHSH
    # start), where the search keeps the snapped starts
    seen = _handed_to_multistart(monkeypatch, minimizer, beta)
    z = np.vstack([_spread_rows(), _edge_rows(), _block_rows(*_oracle_rows())])[:, :width]
    z = np.vstack([z, seen["starts"]])
    f, _, v, ent = seen["value_grad"](z, beta, 0.0, 0.0)
    np.testing.assert_array_equal(_bits(f), _bits(ent))
    np.testing.assert_array_equal(_bits(v), _bits(seen["value"](z)))


def _entropy_calls_while_snapping(monkeypatch, minimizer, beta, name):
    """A 64-restart solve with optimize.<name> counted: (deficit calls of
    the snap, calls of name inside the snap, calls of name outside it)."""
    snapping, calls, inside, outside = [False], [0], [0], [0]
    snap, entropy = optimize._snap_to_anchor, getattr(optimize, name)

    def counted_snap(x, anchor, beta, value):
        def counted(z):
            calls[0] += 1
            return value(z)
        snapping[0] = True
        try:
            return snap(x, anchor, beta, counted)
        finally:
            snapping[0] = False

    def counted_entropy(*args):
        (inside if snapping[0] else outside)[0] += 1
        return entropy(*args)
    monkeypatch.setattr(optimize, "_snap_to_anchor", counted_snap)
    monkeypatch.setattr(optimize, name, counted_entropy)
    minimizer(beta, OptConfig(restarts=64, seed=0))
    return calls[0], inside[0], outside[0]


def test_snap_evaluates_no_entropy(monkeypatch):
    # a 64-restart Holz solve: at most 132 deficit calls, none of which
    # reaches _gram, which every Holz/Parity entropy path goes through
    calls, inside, outside = _entropy_calls_while_snapping(
        monkeypatch, minimize_holz_two_outcome, 1.45, "_gram")
    assert 0 < calls <= 132
    assert inside == 0 and outside > 0


def test_chsh_snap_evaluates_no_entropy(monkeypatch):
    # the CHSH snap never calls the kernel, the one CHSH entropy path
    calls, inside, outside = _entropy_calls_while_snapping(
        monkeypatch, minimize_chsh_two_outcome, 2.7, "_chsh_value_grad")
    assert calls > 0
    assert inside == 0 and outside > 0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_block_solve_keeps_its_heap_mapped():
    # the search's temporaries stay mapped between iterations: a 64-restart
    # Holz solve takes about 300 minor page faults
    code = ("import resource\n"
            "from tribell.optimize import minimize_holz_two_outcome\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "minimize_holz_two_outcome(1.45)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = str(Path(optimize.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert int(out) <= 5000


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
    zxx = states._block_correlators(*_columns(rho, t, b0))[1]
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
        state = states.BlockDiagState(r.argmin["rho"], r.argmin["t"])
        vbar = bell._block_vbar(*state._columns(r.argmin["b0"]))[0]
        assert vbar >= r.beta_target - 1e-7

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
        angles, plane = np.array(spec.angles), spec.plane
        oracle = centropy.cond_entropy(states.ghz_state(3), [0, 1],
                                       states.observable_matrices(plane, angles[[0, 2]]))
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
        vals = [r.entropy for r in optimize.sweep_two_outcome("parity-chsh", betas, cfg)]
        assert np.all(np.diff(vals) >= -1e-3)


PARITY_BETAS = [1.05, 1.2, 1.3, SQRT2]


class TestParityIsChshAtTwiceBeta:
    """Parity-CHSH is CHSH between (A, C) and B at half the value, so its
    solve is CHSH's at 2 beta; the argmin with Charlie in |+>, measuring
    C0 = C1 = X, reaches it."""

    @pytest.mark.parametrize("cfg", [OptConfig(restarts=8, seed=5),
                                     OptConfig(restarts=64, seed=0)])
    @pytest.mark.parametrize("beta", PARITY_BETAS)
    def test_result_is_chsh_at_twice_beta(self, beta, cfg):
        parity = minimize_parity_two_outcome(beta, cfg)
        chsh = minimize_chsh_two_outcome(2 * beta, cfg)
        assert (repr(parity.entropy), parity.converged, parity.restarts_used,
                pins.argmin_digest(parity)) == (repr(chsh.entropy), chsh.converged,
                                                chsh.restarts_used, pins.argmin_digest(chsh))
        assert parity.achieved_beta == chsh.achieved_beta / 2.0
        assert parity.beta_target == beta

    @pytest.mark.parametrize("beta", PARITY_BETAS)
    def test_embedded_argmin_reaches_the_result(self, beta):
        r = minimize_parity_two_outcome(beta, OptConfig(restarts=64, seed=0))
        lam = r.argmin["lambdas"].reshape(-1)
        rho_ab = np.zeros((4, 4))
        for i in (0, 1):
            for j in (0, 1):
                v = np.zeros(4)  # (|0 j> + (-1)^i |1 ~j>) / sqrt(2)
                v[j], v[2 + (1 - j)] = 1.0, (-1.0) ** i
                rho_ab += lam[2 * i + j] * np.outer(v, v) / 2.0
        rho = np.kron(rho_ab, np.full((2, 2), 0.5))  # Charlie in |+>
        angles = np.concatenate([r.argmin["phi"], [0.0, 0.0]])  # C0 = C1 = X
        value = bell.bell_value(bell.spec_by_name("parity-chsh"), rho, angles, "xy").beta
        entropy = centropy.cond_entropy(rho, [0, 1],
                                        states.observable_matrices("xy", angles[[0, 2]]))
        assert value == pytest.approx(r.achieved_beta, rel=0.0, abs=1e-12)
        assert entropy == pytest.approx(r.entropy, rel=0.0, abs=1e-12)

    def test_below_the_shipped_curve(self):
        # the shipped table holds the old block family's values, which froze
        # Charlie's difference angle at 0; CHSH at 2.4 is 0.158 bits lower
        # (ROADMAP item 11 replaces the table with CHSH's curve at 2 beta)
        r = minimize_parity_two_outcome(1.2, OptConfig(restarts=64, seed=0))
        curve = rates.bound_curve(bell.spec_by_name("parity-chsh"), "two").fn(1.2)
        assert r.converged
        assert r.entropy <= 0.4912
        assert r.entropy <= curve - 0.15


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

    @pytest.mark.parametrize("field, value", [("restarts", True), ("restarts", 2.5),
                                              ("seed", np.nan), ("seed", 1.5)])
    def test_non_integer_rejected(self, field, value):
        # numpy's generator would fail later with a bare TypeError
        with pytest.raises(ValidationError, match=rf"^{field}={value!r} is not an integer$"):
            OptConfig(**{field: value})

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

    def test_grid_bits_equal_one_state_per_nu(self):
        nus = np.linspace(0.5, 1.0, 50)
        got = np.array([row[2] for row in verify_tightness("holz", nus).rows])
        rho = np.stack([states.tau_state(nu).to_matrix() for nu in nus])
        want = centropy.cond_entropies(rho, [0], states.Z[None])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("nu", [0.49, 1.01, np.nan])
    def test_nu_outside_the_family(self, nu):
        with pytest.raises(ValidationError, match="nu outside"):
            verify_tightness("parity-chsh", [0.75, nu])
