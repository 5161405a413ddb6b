"""Closed-form conditional-entropy lower bounds as functions of the Bell
violation, with the internal root-finding they require.

Each one/two-outcome bound is 0 at the classical bound of its inequality and
clamps to 0 below it, since the rate formulas evaluate there routinely.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError
from .qmath import binary_entropy as h
from .qmath import binary_entropy_deriv as hprime
from .qmath import shannon_entropy

SQRT2 = np.sqrt(2.0)
_DOMAIN_SLACK = 1e-9


def _check_beta(beta: float, qb: float, qb_name: str) -> None:
    """Reject a non-finite beta or one above the quantum bound qb."""
    if not np.isfinite(beta):
        raise ValidationError(f"beta={beta!r} is not finite")
    if beta > qb + _DOMAIN_SLACK:
        raise ValidationError(f"beta={beta!r} above the quantum bound {qb_name}")


# ---------------------------------------------------------------------------
# root finding: coarse scan for a bracket, then bisection with secant polish

def find_root(f: Callable[[float], float], lo: float, hi: float,
              scan_points: int = 1000, tol: float = 1e-10) -> float:
    xs = np.linspace(lo, hi, scan_points)
    prev_x, prev_f = xs[0], f(xs[0])
    bracket = None
    for x in xs[1:]:
        fx = f(x)
        if np.isfinite(prev_f) and np.isfinite(fx) and prev_f * fx <= 0.0:
            bracket = (prev_x, x, prev_f, fx)
            break
        prev_x, prev_f = x, fx
    if bracket is None:
        raise NumericError(
            f"no sign change on [{lo}, {hi}] (f(lo)={f(lo):.3e}, f(hi)={f(hi):.3e})"
        )
    a, b, fa, fb = bracket
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0.0:
            b, fb = m, fm
        else:
            a, fa = m, fm
        if b - a < tol:
            break
    # secant polish inside the bracket
    x0, x1 = a, b
    f0, f1 = fa, fb
    for _ in range(8):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not a <= x2 <= b:
            break
        x0, f0, x1, f1 = x1, f1, x2, f(x2)
    return x1 if abs(f1) <= abs(f(0.5 * (a + b))) else 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Holz one-outcome (tight)

def holz_one_outcome(beta: float) -> float:
    """1 - h[(beta + 1 + sqrt(beta^2 + 2 beta - 3))/4] on [1, 3/2]; 0 below 1."""
    _check_beta(beta, 1.5, "3/2")
    if beta <= 1.0:
        return 0.0
    beta = min(beta, 1.5)
    return 1.0 - h(0.25 * (beta + 1.0 + np.sqrt(beta * beta + 2.0 * beta - 3.0)))


# ---------------------------------------------------------------------------
# Holz two-outcome (conjectured): eta / tangent segment / theta(beta, x(beta))

def eta(beta: float) -> float:
    s = np.sqrt(max(beta * beta - 1.0, 0.0))
    return 2.0 - shannon_entropy([(1 + s) / 4, (1 + s) / 4, (1 - s) / 4, (1 - s) / 4])


def theta(beta: float, x: float) -> float:
    pa = (beta * (2.0 - beta) - x * x) / (8.0 * (beta - 1.0))
    pb = ((beta - 1.0) * (beta + 3.0) + x * x - 1.0) / (8.0 * (beta - 1.0))
    if pa < -1e-12 or pb < -1e-12:
        raise ValidationError(f"(beta={beta}, x={x}) outside the theta domain")
    pa, pb = max(pa, 0.0), max(pb, 0.0)
    arg = (2.0 * (1.0 - x) - (beta - x) ** 2) / (4.0 * x * (beta - 1.0))
    if not -1e-9 <= arg <= 1.0 + 1e-9:
        raise ValidationError(f"(beta={beta}, x={x}) outside the theta domain")
    arg = min(max(arg, 0.0), 1.0)
    return shannon_entropy([pa, pa, pb, pb]) - h(arg)


def theta_x_domain(beta: float) -> tuple[float, float]:
    """Interval of x where all four weights and the binary-entropy argument
    of theta(beta, .) are valid probabilities."""
    if not SQRT2 < beta <= 1.5:
        raise ValidationError(f"beta={beta!r} outside (sqrt2, 3/2]")
    half = np.sqrt(max(3.0 - 2.0 * beta, 0.0))
    lo = (beta - 1.0) - half
    hi = min((beta - 1.0) + half, np.sqrt(beta * (2.0 - beta)))
    return lo, hi


def _dtheta_dx(beta: float, x: float) -> float:
    pa = (beta * (2.0 - beta) - x * x) / (8.0 * (beta - 1.0))
    pb = ((beta - 1.0) * (beta + 3.0) + x * x - 1.0) / (8.0 * (beta - 1.0))
    num = 2.0 * (1.0 - x) - (beta - x) ** 2
    arg = num / (4.0 * x * (beta - 1.0))
    dnum = -2.0 + 2.0 * (beta - x)
    darg = (dnum * x - num) / (4.0 * x * x * (beta - 1.0))
    t1 = (x / (2.0 * (beta - 1.0))) * np.log2(pa / pb)
    if 0.0 < arg < 1.0:
        t2 = hprime(arg) * darg
    else:
        # h' blows up logarithmically at the domain edge; only the sign matters
        t2 = np.inf * np.sign(darg) if darg != 0.0 else 0.0
    return t1 - t2


def solve_x(beta: float) -> float:
    """Stationary point of theta(beta, .) in x, i.e. the branch of the
    transcendental equation d(theta)/dx = 0 that is continuous in beta and
    reaches x=1/2 at beta=3/2.

    Near beta -> 3/2 the stationary point merges with the upper domain edge
    faster than double precision resolves; the edge is returned there.
    """
    if not SQRT2 < beta <= 1.5 + _DOMAIN_SLACK:
        raise ValidationError(f"beta={beta!r} outside (sqrt2, 3/2]")
    if beta >= 1.5:
        return 0.5
    lo, hi = theta_x_domain(beta)
    width = hi - lo
    a = lo + width * 1e-9
    b = hi - width * 1e-9
    fa, fb = _dtheta_dx(beta, a), _dtheta_dx(beta, b)
    if fa >= 0.0:
        return a
    if fb <= 0.0:
        return b
    for _ in range(200):
        m = 0.5 * (a + b)
        if _dtheta_dx(beta, m) <= 0.0:
            a = m
        else:
            b = m
        if b - a < 1e-15:
            break
    return 0.5 * (a + b)


def theta_at_optimum(beta: float) -> float:
    if beta >= 1.5:
        return theta(1.5, 0.5)
    return theta(beta, solve_x(beta))


def _dtheta_dbeta(beta: float, delta: float = 2e-6) -> float:
    # total derivative along x(beta); equals the partial one at the stationary x
    return (theta_at_optimum(beta + delta) - theta_at_optimum(beta - delta)) / (2 * delta)


@functools.lru_cache(maxsize=1)
def solve_beta_star_holz() -> float:
    """Violation where the tangent to theta(beta, x(beta)) passes through
    (sqrt2, 1); the conjectured curve is linear below it."""
    def tangency(b):
        return _dtheta_dbeta(b) * (b - SQRT2) - (theta_at_optimum(b) - 1.0)

    return find_root(tangency, 1.42, 1.4995, scan_points=200, tol=1e-11)


@functools.lru_cache(maxsize=1)
def _holz_tangent_slope() -> float:
    bstar = solve_beta_star_holz()
    return (theta_at_optimum(bstar) - 1.0) / (bstar - SQRT2)


def holz_two_outcome(beta: float) -> float:
    """Conjectured tight bound on the two-outcome entropy for the Holz test:
    eta on [1, sqrt2], a tangent segment on (sqrt2, beta*], theta above."""
    _check_beta(beta, 1.5, "3/2")
    if beta <= 1.0:
        return 0.0
    beta = min(beta, 1.5)
    if beta <= SQRT2:
        return eta(beta)
    if beta <= solve_beta_star_holz():
        return _holz_tangent_slope() * (beta - SQRT2) + 1.0
    return theta_at_optimum(beta)


# ---------------------------------------------------------------------------
# Parity-CHSH one-outcome (tight)

def parity_chsh_one_outcome(beta: float) -> float:
    _check_beta(beta, SQRT2, "sqrt2")
    if beta <= 1.0:
        return 0.0
    beta = min(beta, SQRT2)
    return 1.0 - h(0.5 + 0.5 * np.sqrt(beta * beta - 1.0))


# ---------------------------------------------------------------------------
# MABK one- and two-outcome

def mabk_one_outcome(beta: float) -> float:
    _check_beta(beta, 4.0, "4")
    if beta <= 2.0 * SQRT2:
        return 0.0
    beta = min(beta, 4.0)
    return 1.0 - h(0.5 + 0.5 * np.sqrt(beta * beta / 8.0 - 1.0))


def mabk_f(beta: float) -> float:
    return 0.25 - (np.sqrt(3.0) / 24.0) * np.sqrt(max(beta * beta - 4.0, 0.0))


def mabk_two_outcome(beta: float) -> float:
    _check_beta(beta, 4.0, "4")
    if beta <= 2.0:
        return 0.0
    f = mabk_f(min(beta, 4.0))
    return 2.0 - shannon_entropy([1.0 - 3.0 * f, f, f, f])


# ---------------------------------------------------------------------------
# asymmetric CHSH one-outcome

_TANGENT_LANES = 16  # alphas solved together; bounds the scan's working set
_ZOOM_POINTS = 17  # alpha points per refinement round of best_alpha_bound
_ALPHA_TOL = 1e-12  # where round(alpha, 12) merges the tangent keys


def _g_asym_and_deriv(x, alpha):
    """g = 1 - h(1/2 + s/2) with s = sqrt(x^2/4 - alpha^2), and dg/dx,
    elementwise.  g is 0 where s^2 <= 0 and 1 where 1/2 + s/2 rounds to 1;
    dg/dx is 0 outside 0 < s^2 < 1 and where 1/2 + s/2 rounds to 1."""
    s2 = x * x / 4.0 - alpha * alpha
    s = np.sqrt(np.maximum(s2, 0.0))
    u = 0.5 + 0.5 * s
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 1.0 - (-u * np.log2(u) - (1.0 - u) * np.log2(1.0 - u))
        dg = -np.log2((1.0 - u) / u) * x / (8.0 * s)
    top = u >= 1.0
    return (np.where(s2 <= 0.0, 0.0, np.where(top, 1.0, g)),
            np.where((s2 <= 0.0) | (s2 >= 1.0) | top, 0.0, dg))


def _g_asym(x, alpha):
    return _g_asym_and_deriv(x, alpha)[0]


def _tangency(x, alpha):
    g, dg = _g_asym_and_deriv(x, alpha)
    return dg * (x - 2.0) - g


def _tangent_block(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tangents for one block of lanes (one alpha each): scan a 1200-point x
    grid, linear plus log-clustered at the quantum bound, for the first
    sign change of the tangency residual, then bisect every bracketed lane
    until its midpoint rounds onto an endpoint."""
    qb = 2.0 * np.hypot(1.0, alpha)
    xs = np.concatenate([
        np.linspace(2.0 + 1e-9, qb, 800, axis=1),
        qb[:, None] - (qb - 2.0)[:, None] * np.logspace(-13, 0, 400),
    ], axis=1)
    # repeated x (from the clip) cannot form a sign change, so no dedup
    xs = np.sort(np.clip(xs, 2.0 + 1e-12, (qb - 1e-16)[:, None]), axis=1)
    fs = _tangency(xs, alpha[:, None])
    crossing = (fs[:, :-1] < 0.0) & (fs[:, 1:] >= 0.0)
    bracketed = crossing.any(axis=1)
    first = np.argmax(crossing, axis=1)
    lanes = np.arange(alpha.size)
    a, b = xs[lanes, first], xs[lanes, first + 1]
    for _ in range(200):
        m = 0.5 * (a + b)
        live = bracketed & (m != a) & (m != b)
        if not live.any():
            break
        below = _tangency(m, alpha) < 0.0
        a = np.where(live & below, m, a)
        b = np.where(live & ~below, m, b)
    bstar = 0.5 * (a + b)
    found = bracketed & (np.abs(_tangency(bstar, alpha)) <= 1e-10)
    with np.errstate(divide="ignore"):
        chord = 1.0 / (qb - 2.0)
    return (np.where(found, bstar, qb),
            np.where(found, _g_asym_and_deriv(bstar, alpha)[1], chord))


def _asym_tangents(alpha) -> tuple[np.ndarray, np.ndarray]:
    """(beta*, slope) of the tangent line through (2, 0) to g(., |alpha|)
    for a 1-d array of alpha, solved _TANGENT_LANES lanes at a time.

    When the tangency point is numerically indistinguishable from the
    quantum bound qb (small alpha), the chord from (2, 0) to (qb, 1) is the
    envelope.
    """
    alpha = np.abs(np.asarray(alpha, dtype=float))
    if not np.all(np.isfinite(alpha)):
        raise ValidationError("alpha must be finite")
    bstar, slope = np.empty_like(alpha), np.empty_like(alpha)
    for i in range(0, alpha.size, _TANGENT_LANES):
        block = slice(i, i + _TANGENT_LANES)
        bstar[block], slope[block] = _tangent_block(alpha[block])
    return bstar, slope


@functools.lru_cache(maxsize=4096)
def asym_tangent(alpha: float) -> tuple[float, float]:
    """(beta*, slope) of the tangent line through (2, 0) to g for |alpha| < 1.

    A memoized scalar wrapper over the batched solver `_asym_tangents`.
    best_alpha_bound calls that solver directly on arrays of alpha (and its
    beta_fn on arrays of alpha), so its search does not pass through this
    cache.  When the tangency point is numerically indistinguishable from
    the quantum bound (small alpha), the chord from (2, 0) to (qb, 1) is the
    envelope.
    """
    bstar, slope = _asym_tangents([alpha])
    return float(bstar[0]), float(slope[0])


def _tangents_for(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tangents keyed by round(alpha, 12), as asym_chsh_one_outcome keys
    them, where 1e-12 <= alpha < 1 (NaN elsewhere, where none is used)."""
    bstar, slope = np.full(alpha.shape, np.nan), np.full(alpha.shape, np.nan)
    need = (alpha >= 1e-12) & (alpha < 1.0)
    keys, inverse = np.unique(np.round(alpha[need], 12), return_inverse=True)
    b, s = _asym_tangents(keys)
    bstar[need], slope[need] = b[inverse], s[inverse]
    return bstar, slope


def _asym_one_outcome(beta, alpha, bstar, slope):
    """Elementwise bound at violations beta <= qb for alpha >= 0: 0 for
    alpha < 1e-12, g above the tangent point (and for alpha >= 1), the
    tangent line (floored at 0) below it."""
    with np.errstate(invalid="ignore"):
        line = np.maximum(slope * (beta - 2.0), 0.0)
    out = np.where((alpha < 1.0) & (beta < bstar), line, _g_asym(beta, alpha))
    return np.where(alpha < 1e-12, 0.0, out)


def asym_chsh_one_outcome(beta: float, alpha: float) -> float:
    """Tight one-outcome bound for the asymmetric CHSH inequality; piecewise
    linear below beta* when |alpha| < 1, g(beta) otherwise."""
    if not np.isfinite(alpha):
        raise ValidationError(f"alpha={alpha!r} is not finite")
    alpha = abs(alpha)
    qb = 2.0 * np.hypot(1.0, alpha)
    _check_beta(beta, qb, repr(qb))
    beta = min(beta, qb)
    bstar, slope = asym_tangent(round(alpha, 12)) if 1e-12 <= alpha < 1.0 \
        else (np.nan, np.nan)
    return float(_asym_one_outcome(beta, alpha, bstar, slope))


@functools.lru_cache(maxsize=8)
def _grid_tangents(alpha_lo: float, alpha_hi: float,
                   grid_points: int) -> tuple[np.ndarray, tuple]:
    grid = np.linspace(alpha_lo, alpha_hi, grid_points)
    tangents = _tangents_for(np.abs(grid))
    for arr in (grid, *tangents):
        arr.flags.writeable = False  # shared by every caller in the process
    return grid, tangents


def _alpha_values(beta_fn, alphas: np.ndarray, tangents=None) -> np.ndarray:
    """asym_chsh_one_outcome(min(beta_fn(alpha), qb), alpha) for an array of
    alpha, with beta_fn called once on the whole array."""
    beta = np.minimum(beta_fn(alphas), 2.0 * np.hypot(1.0, alphas))
    if not np.all(np.isfinite(beta)):
        raise ValidationError("beta_fn returned a non-finite violation")
    alpha = np.abs(alphas)
    if tangents is None:
        tangents = _tangents_for(alpha)
    return _asym_one_outcome(beta, alpha, *tangents)


def best_alpha_bound(beta_fn: Callable[[np.ndarray], np.ndarray],
                     alpha_lo: float = 0.0, alpha_hi: float = 4.0,
                     grid_points: int = 401) -> tuple[float, float]:
    """Maximize asym_chsh_one_outcome(beta_fn(alpha), alpha) over alpha.

    beta_fn maps an array of alpha to the achievable violations (at the
    caller's noise level), elementwise.  The whole grid is evaluated in one
    batch, its tangents solved once per process; the best grid cell is then
    zoomed in batches of _ZOOM_POINTS until the alpha bracket is narrower
    than 1e-12.  Never returns less than the alpha=1 value.
    """
    grid, tangents = _grid_tangents(alpha_lo, alpha_hi, grid_points)
    vals = _alpha_values(beta_fn, grid, tangents)
    i = int(np.argmax(vals))
    best = (vals[i], grid[i])  # (value, alpha): ties go to the larger alpha
    k0, k1 = max(i - 1, 0), min(i + 1, grid_points - 1)
    lo, hi, v_lo, v_hi = grid[k0], grid[k1], vals[k0], vals[k1]
    while hi - lo >= _ALPHA_TOL:
        pts = np.linspace(lo, hi, _ZOOM_POINTS)
        v = np.concatenate([[v_lo], _alpha_values(beta_fn, pts[1:-1]), [v_hi]])
        j = int(np.argmax(v))
        best = max(best, (v[j], pts[j]))
        k0, k1 = max(j - 1, 0), min(j + 1, _ZOOM_POINTS - 1)
        lo, hi, v_lo, v_hi = pts[k0], pts[k1], v[k0], v[k1]
    if alpha_lo <= 1.0 <= alpha_hi:
        best = max(best, (_alpha_values(beta_fn, np.array([1.0]))[0], 1.0))
    return float(best[1]), float(best[0])


# ---------------------------------------------------------------------------
# recycled-input CHSH two-outcome bound (conjectured)

def colbeck_g1(x: float) -> float:
    return 1.0 + h(min(0.5 + x / 8.0, 1.0)) - 2.0 * h(min(0.5 + SQRT2 * x / 8.0, 1.0))


def _colbeck_g1_deriv(x: float) -> float:
    return (hprime(0.5 + x / 8.0) / 8.0
            - (SQRT2 / 4.0) * hprime(0.5 + SQRT2 * x / 8.0))


@functools.lru_cache(maxsize=1)
def solve_beta_star_colbeck() -> float:
    def f(x):
        return _colbeck_g1_deriv(x) * (x - 2.0) - colbeck_g1(x)

    return find_root(f, 2.0 + 1e-6, 2.0 * SQRT2 - 1e-9, scan_points=1000, tol=1e-11)


def colbeck_recycled_two_outcome(beta: float) -> float:
    """Conjectured bound on H(AB|XYE) for CHSH with recycled inputs:
    linear below beta*_C, g1 above."""
    _check_beta(beta, 2.0 * SQRT2, "2*sqrt2")
    if beta <= 2.0:
        return 0.0
    beta = min(beta, 2.0 * SQRT2)
    bstar = solve_beta_star_colbeck()
    if beta <= bstar:
        return _colbeck_g1_deriv(bstar) * (beta - 2.0)
    return colbeck_g1(beta)

