"""Closed-form conditional-entropy lower bounds as functions of the Bell
violation, with the roots they require (all from qmath.bracketed_roots).

Each one/two-outcome bound is 0 at the classical bound of its inequality and
clamps to 0 below it, since the rate formulas evaluate there routinely.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable

import numpy as np

from .errors import ValidationError
from .qmath import binary_entropy as h
from .qmath import binary_entropy_deriv as hprime
from .qmath import bracketed_root, bracketed_roots, shannon_entropy

__all__ = ["holz_one_outcome", "eta", "theta", "theta_x_domain", "solve_x", "theta_at_optimum",
           "solve_beta_star_holz", "holz_two_outcome", "parity_chsh_one_outcome",
           "mabk_one_outcome", "mabk_f", "mabk_two_outcome", "asym_tangent",
           "asym_chsh_one_outcome", "best_alpha_bound", "colbeck_g1", "solve_beta_star_colbeck",
           "colbeck_recycled_two_outcome"]

SQRT2 = np.sqrt(2.0)
_DOMAIN_SLACK = 1e-9


def _check_beta(beta: float, qb: float, qb_name: str) -> None:
    """Reject a non-finite beta or one above the quantum bound qb."""
    if not np.isfinite(beta):
        raise ValidationError(f"beta={float(beta)!r} is not finite")
    if beta > qb + _DOMAIN_SLACK:
        raise ValidationError(f"beta={float(beta)!r} above the quantum bound {qb_name}")


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
    return bracketed_root(functools.partial(_dtheta_dx, beta), a, b)


def theta_at_optimum(beta: float) -> float:
    if beta >= 1.5:
        return theta(1.5, 0.5)
    return theta(beta, solve_x(beta))


def _dtheta_dbeta(beta: float) -> float:
    # total derivative along x(beta), step 2e-6; equals the partial one at the stationary x
    return (theta_at_optimum(beta + 2e-6) - theta_at_optimum(beta - 2e-6)) / (2 * 2e-6)


@functools.lru_cache(maxsize=1)
def solve_beta_star_holz() -> float:
    """Violation where the tangent to theta(beta, x(beta)) passes through
    (sqrt2, 1); the conjectured curve is linear below it."""
    def tangency(b):
        return _dtheta_dbeta(b) * (b - SQRT2) - (theta_at_optimum(b) - 1.0)

    return bracketed_root(tangency, 1.42, 1.4995)


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

_ZOOM_POINTS = 17  # alpha points per refinement round of best_alpha_bound
_ALPHA_TOL = 1e-12  # where round(alpha, 12) merges the tangent keys
_TANGENT_MEMO_SIZE = 4096  # entries of _TANGENT_MEMO, and of the public asym_tangent's cache
# round(alpha, 12) -> (beta*, slope), oldest first: the one tangent cache of
# asym_chsh_one_outcome and best_alpha_bound, read and filled by _tangents_for
_TANGENT_MEMO: dict[float, tuple[float, float]] = {}


def _g_asym(x, alpha):
    """g = 1 - h(1/2 + s/2) with s = sqrt(x^2/4 - alpha^2), elementwise: 0
    where s^2 <= 0 and 1 where 1/2 + s/2 rounds to 1."""
    s2 = x * x / 4.0 - alpha * alpha
    u = 0.5 + 0.5 * np.sqrt(np.maximum(s2, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 1.0 - (-u * np.log2(u) - (1.0 - u) * np.log2(1.0 - u))
    return np.where(s2 <= 0.0, 0.0, np.where(u >= 1.0, 1.0, g))


def _asym_tangents(alpha) -> tuple[np.ndarray, np.ndarray]:
    """(beta*, slope) of the tangent line through (2, 0) to g(., |alpha|)
    for a 1-d array of alpha.

    The residual F = g'(x)(x - 2) - g is formed from d = qb - x, exact by
    Sterbenz (qb/2 < 2 <= x <= qb), so nothing cancels as x -> qb.  F
    changes sign once on [2, qb), and one qmath.bracketed_roots call solves
    every lane bracketed on [2, nextafter(qb, 2)]; the slope is
    g(beta*)/(beta* - 2), since g' jumps between floats a few ulps below
    qb.  An unbracketed lane has its tangent point within one ulp of qb,
    where the chord from (2, 0) to (qb, 1) is the tangent.
    """
    alpha = np.abs(np.asarray(alpha, dtype=float))
    if not np.all(np.isfinite(alpha)):
        raise ValidationError("alpha must be finite")
    qb = 2.0 * np.hypot(1.0, alpha)

    def g_and_residual(x, qb):
        d = qb - x
        v = d * (2.0 * qb - d) / 4.0  # 1 - s^2
        s = np.sqrt(1.0 - v)
        w = v / (2.0 * (1.0 + s))  # 1 - u
        log_u, log_w = np.log1p(-w), np.log(w)
        g = 1.0 + ((1.0 - w) * log_u + w * log_w) / np.log(2.0)
        dg = (log_u - log_w) / np.log(2.0) * x / (8.0 * s)
        return g, dg * (x - 2.0) - g

    lo, hi = np.full_like(qb, 2.0), np.nextafter(qb, 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # d = 0 where qb rounds to 2
        bracketed = (g_and_residual(lo, qb)[1] <= 0.0) & (g_and_residual(hi, qb)[1] > 0.0)
        slope = 1.0 / (qb - 2.0)
    lanes = np.flatnonzero(bracketed)
    bstar = qb.copy()
    bstar[lanes] = bracketed_roots(lambda x: g_and_residual(x, qb[lanes])[1],
                                   lo[lanes], hi[lanes])
    slope[lanes] = g_and_residual(bstar[lanes], qb[lanes])[0] / (bstar[lanes] - 2.0)
    return bstar, slope


@functools.lru_cache(maxsize=_TANGENT_MEMO_SIZE)
def asym_tangent(alpha: float) -> tuple[float, float]:
    """(beta*, slope) of the tangent line through (2, 0) to g, for
    1e-12 <= |alpha| < 1 (ValidationError elsewhere): one `_asym_tangents`
    lane, in its own lru_cache of at most 4096 entries.  The library reads
    `_tangents_for`'s memo instead, keyed by round(alpha, 12)."""
    if not 1e-12 <= abs(alpha) < 1.0:
        raise ValidationError(f"alpha={float(alpha)!r} outside 1e-12 <= |alpha| < 1")
    bstar, slope = _asym_tangents([alpha])
    return float(bstar[0]), float(slope[0])


def _tangents_for(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tangents of an array of alpha >= 0, keyed by round(alpha, 12), where
    1e-12 <= alpha < 1 (NaN elsewhere, where none is used).

    Keys are read from the process-wide _TANGENT_MEMO; the missing ones are
    solved in one _asym_tangents call and then added, the oldest entries
    going beyond _TANGENT_MEMO_SIZE.  Every lane of that solver depends on
    its own alpha only, so a key gets the same bits in any batch, and
    asym_chsh_one_outcome and best_alpha_bound share them."""
    bstar, slope = np.full(alpha.shape, np.nan), np.full(alpha.shape, np.nan)
    need = (alpha >= 1e-12) & (alpha < 1.0)
    keys, inverse = np.unique(np.round(alpha[need], 12), return_inverse=True)
    keys = keys.tolist()
    tangents = [_TANGENT_MEMO.get(k) for k in keys]
    miss = [k for k, t in zip(keys, tangents) if t is None]
    if miss:
        b, s = _asym_tangents(miss)
        solved = dict(zip(miss, zip(b.tolist(), s.tolist())))
        tangents = [solved[k] if t is None else t for k, t in zip(keys, tangents)]
        _TANGENT_MEMO.update(solved)
        excess = max(len(_TANGENT_MEMO) - _TANGENT_MEMO_SIZE, 0)
        for k in list(itertools.islice(_TANGENT_MEMO, excess)):
            del _TANGENT_MEMO[k]
    b, s = np.array(tangents, dtype=float).reshape(-1, 2).T
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
    _check_beta(beta, qb, repr(float(qb)))
    beta = min(beta, qb)
    bstar, slope = _tangents_for(np.array([alpha]))
    return float(_asym_one_outcome(beta, alpha, bstar[0], slope[0]))


_ALPHA_GRID = np.linspace(0.0, 4.0, 401)  # best_alpha_bound's first batch
_ALPHA_GRID.flags.writeable = False


@functools.lru_cache(maxsize=1)
def _grid_tangents() -> tuple[np.ndarray, np.ndarray]:
    tangents = _tangents_for(_ALPHA_GRID)
    for arr in tangents:
        arr.flags.writeable = False  # shared by every caller in the process
    return tangents


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


def best_alpha_bound(beta_fn: Callable[[np.ndarray], np.ndarray]
                     ) -> tuple[float, float]:
    """Maximize asym_chsh_one_outcome(beta_fn(alpha), alpha) over alpha.

    beta_fn maps an array of alpha to the achievable violations (at the
    caller's noise level), elementwise.  The 401-point grid on [0, 4] is
    evaluated in one batch, its tangents solved once per process; the best
    grid cell is then zoomed in batches of _ZOOM_POINTS until the alpha
    bracket is narrower than 1e-12.  The zoom tangents come from
    _tangents_for's memo (at most 4096 alphas per process), so a search
    next to an earlier one solves only the alphas it has not seen.  Never
    returns less than the alpha=1 value.
    """
    grid = _ALPHA_GRID
    vals = _alpha_values(beta_fn, grid, _grid_tangents())
    i = int(np.argmax(vals))
    best = (vals[i], grid[i])  # (value, alpha): ties go to the larger alpha
    k0, k1 = max(i - 1, 0), min(i + 1, grid.size - 1)
    lo, hi, v_lo, v_hi = grid[k0], grid[k1], vals[k0], vals[k1]
    while hi - lo >= _ALPHA_TOL:
        pts = np.linspace(lo, hi, _ZOOM_POINTS)
        v = np.concatenate([[v_lo], _alpha_values(beta_fn, pts[1:-1]), [v_hi]])
        j = int(np.argmax(v))
        best = max(best, (v[j], pts[j]))
        k0, k1 = max(j - 1, 0), min(j + 1, _ZOOM_POINTS - 1)
        lo, hi, v_lo, v_hi = pts[k0], pts[k1], v[k0], v[k1]
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

    return bracketed_root(f, 2.0 + 1e-6, 2.0 * SQRT2 - 1e-9)


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

