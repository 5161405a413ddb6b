"""Closed-form conditional-entropy lower bounds as functions of the Bell
violation, with the roots they require (all from qmath.bracketed_roots).

Every bound curve takes a float and returns a float, or takes an array of
violations and returns an array of the same shape, each value bit for bit
the one-point value.  One decorator, `_curve`, keeps each curve's domain: it
refuses a non-finite beta or one above the quantum bound (naming the first
as a plain float), gives 0 at or below the classical bound, since the rate
formulas evaluate there routinely, and clamps beta to the quantum bound.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import ValidationError
from .qmath import _first
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


def _curve(lo: float, qb: float, qb_name: str):
    """Make fn, elementwise on a 1-d array of beta in (lo, qb], a bound
    curve on a float or an array of beta: a non-finite beta or one above
    qb + 1e-9 is refused, beta <= lo gives 0, and beta is clamped to qb."""
    def decorate(fn):
        @functools.wraps(fn)
        def curve(beta):
            flat = np.asarray(beta, dtype=float).ravel()
            bad = ~(np.isfinite(flat) & (flat <= qb + _DOMAIN_SLACK))
            if bad.any():
                first = _first(flat, bad)
                raise ValidationError(f"beta={first!r} is not finite" if not np.isfinite(first)
                                      else f"beta={first!r} above the quantum bound {qb_name}")
            out = np.zeros(flat.shape)
            live = flat > lo
            if live.any():
                out[live] = fn(np.minimum(flat[live], qb))
            return float(out[0]) if np.ndim(beta) == 0 else out.reshape(np.shape(beta))
        return curve
    return decorate


# ---------------------------------------------------------------------------
# Holz one-outcome (tight)

@_curve(1.0, 1.5, "3/2")
def holz_one_outcome(beta):
    """1 - h[(beta + 1 + sqrt(beta^2 + 2 beta - 3))/4] on [1, 3/2]; 0 below 1."""
    return 1.0 - h(0.25 * (beta + 1.0 + np.sqrt(beta * beta + 2.0 * beta - 3.0)))


# ---------------------------------------------------------------------------
# Holz two-outcome (conjectured): eta / tangent segment / theta(beta, x(beta))

def eta(beta):
    s = np.sqrt(np.maximum(beta * beta - 1.0, 0.0))
    return 2.0 - shannon_entropy([(1 + s) / 4, (1 + s) / 4, (1 - s) / 4, (1 - s) / 4])


def theta(beta, x):
    pa = (beta * (2.0 - beta) - x * x) / (8.0 * (beta - 1.0))
    pb = ((beta - 1.0) * (beta + 3.0) + x * x - 1.0) / (8.0 * (beta - 1.0))
    d = beta - x
    arg = (2.0 * (1.0 - x) - d * d) / (4.0 * x * (beta - 1.0))
    bad = ~((pa >= -1e-12) & (pb >= -1e-12) & (arg >= -1e-9) & (arg <= 1.0 + 1e-9))
    if bad.any():
        raise ValidationError(f"(beta={_first(beta, bad)!r}, x={_first(x, bad)!r})"
                              " outside the theta domain")
    return shannon_entropy([pa, pa, pb, pb]) - h(np.clip(arg, 0.0, 1.0))


def theta_x_domain(beta):
    """Interval of x where all four weights and the binary-entropy argument
    of theta(beta, .) are valid probabilities (beta up to 3/2 + 1e-9)."""
    beta = np.asarray(beta, dtype=float)
    bad = ~((beta > SQRT2) & (beta <= 1.5 + _DOMAIN_SLACK))
    if bad.any():
        raise ValidationError(f"beta={_first(beta, bad)!r} outside (sqrt2, 3/2]")
    half = np.sqrt(np.maximum(3.0 - 2.0 * beta, 0.0))
    lo = (beta - 1.0) - half
    hi = np.minimum((beta - 1.0) + half, np.sqrt(beta * (2.0 - beta)))
    return lo, hi


def _dtheta_dx(beta, x):
    c, xx, d = beta - 1.0, x * x, beta - x
    pa = (beta * (2.0 - beta) - xx) / (8.0 * c)
    pb = (c * (beta + 3.0) + xx - 1.0) / (8.0 * c)
    num = 2.0 * (1.0 - x) - d * d
    arg = num / (4.0 * x * c)
    darg = ((2.0 * d - 2.0) * x - num) / (4.0 * xx * c)
    t1 = (x / (2.0 * c)) * np.log2(pa / pb)
    inside = (arg > 0.0) & (arg < 1.0)
    # h' blows up logarithmically at the domain edge; only the sign matters
    edge = np.where(darg != 0.0, np.copysign(np.inf, darg), 0.0)
    return t1 - np.where(inside, hprime(np.where(inside, arg, 0.5)) * darg, edge)


def solve_x(beta):
    """Stationary point of theta(beta, .) in x, i.e. the branch of the
    transcendental equation d(theta)/dx = 0 that is continuous in beta and
    reaches x=1/2 at beta=3/2; elementwise, one bracketed_roots call.

    Near beta -> 3/2 the stationary point merges with the upper domain edge
    faster than double precision resolves; the edge is returned there.
    """
    beta = np.asarray(beta, dtype=float)
    lo, hi = theta_x_domain(beta)
    lo, hi = lo + (hi - lo) * 1e-9, hi - (hi - lo) * 1e-9
    flo, fhi = _dtheta_dx(beta, lo), _dtheta_dx(beta, hi)
    x = np.where(flo >= 0.0, lo, hi)
    root = ~(flo >= 0.0) & ~(fhi <= 0.0)
    x[root] = bracketed_roots(lambda t: _dtheta_dx(beta[root], t), lo[root], hi[root])
    return np.where(beta < 1.5, x, 0.5)[()]


def theta_at_optimum(beta):
    beta = np.minimum(beta, 1.5)
    return theta(beta, solve_x(beta))


@functools.lru_cache(maxsize=1)
def solve_beta_star_holz() -> float:
    """Violation where the tangent to theta(beta, x(beta)) passes through
    (sqrt2, 1), its slope a central difference (step 2e-6) along x(beta);
    the conjectured curve is linear below it."""
    def tangency(b):
        lo, mid, hi = theta_at_optimum(np.array([b - 2e-6, b, b + 2e-6]))
        return (hi - lo) / (2 * 2e-6) * (b - SQRT2) - (mid - 1.0)

    return bracketed_root(tangency, 1.42, 1.4995)


# solve_beta_star_holz(), shipped so that no process spends the 17 ms of its
# nested root solves; tests/test_bounds.py re-derives it bit for bit
_HOLZ_BETA_STAR = 1.4898242537521285


@functools.lru_cache(maxsize=1)
def _holz_tangent_slope() -> float:
    return (theta_at_optimum(_HOLZ_BETA_STAR) - 1.0) / (_HOLZ_BETA_STAR - SQRT2)


@_curve(1.0, 1.5, "3/2")
def holz_two_outcome(beta):
    """Conjectured tight bound on the two-outcome entropy for the Holz test:
    eta on [1, sqrt2], a tangent segment on (sqrt2, beta*], theta above."""
    out = eta(np.minimum(beta, SQRT2))
    line = beta > SQRT2
    if line.any():
        out[line] = _holz_tangent_slope() * (beta[line] - SQRT2) + 1.0
        top = beta > _HOLZ_BETA_STAR
        if top.any():
            out[top] = theta_at_optimum(beta[top])
    return out


# ---------------------------------------------------------------------------
# Parity-CHSH one-outcome (tight)

@_curve(1.0, SQRT2, "sqrt2")
def parity_chsh_one_outcome(beta):
    return 1.0 - h(0.5 + 0.5 * np.sqrt(beta * beta - 1.0))


# ---------------------------------------------------------------------------
# MABK one- and two-outcome

@_curve(2.0 * SQRT2, 4.0, "4")
def mabk_one_outcome(beta):
    return 1.0 - h(0.5 + 0.5 * np.sqrt(beta * beta / 8.0 - 1.0))


def mabk_f(beta):
    return 0.25 - (np.sqrt(3.0) / 24.0) * np.sqrt(np.maximum(beta * beta - 4.0, 0.0))


@_curve(2.0, 4.0, "4")
def mabk_two_outcome(beta):
    f = mabk_f(beta)
    return 2.0 - shannon_entropy([1.0 - 3.0 * f, f, f, f])


# ---------------------------------------------------------------------------
# asymmetric CHSH one-outcome

_ZOOM_POINTS = 17  # alpha points per refinement round of best_alpha_bound
_LANE_BLOCK = 128  # scales per lockstep search: its (scales, 401) arrays take 0.4 MB each
_ALPHA_TOL = 1e-12  # where round(alpha, 12) merges the tangent keys
_TANGENT_MEMO_SIZE = 4096  # entries of _TANGENT_MEMO, and of the public asym_tangent's cache
# round(alpha, 12) -> (beta*, slope), oldest first: the one tangent cache of
# asym_chsh_one_outcome and best_alpha_bound, read and filled by _tangents_for
_TANGENT_MEMO: dict[float, tuple[float, float]] = {}


def _g_asym(x, alpha):
    """g = 1 - h(1/2 + s/2), s = sqrt(x^2/4 - alpha^2), elementwise; 0 where s^2 <= 0."""
    return 1.0 - h(0.5 + 0.5 * np.sqrt(np.maximum(x * x / 4.0 - alpha * alpha, 0.0)))


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


def asym_chsh_one_outcome(beta, alpha: float):
    """Tight one-outcome bound for the asymmetric CHSH inequality; piecewise
    linear below beta* when |alpha| < 1, g(beta) otherwise."""
    if not np.isfinite(alpha):
        raise ValidationError(f"alpha={float(alpha)!r} is not finite")
    alpha = abs(float(alpha))
    qb = 2.0 * np.hypot(1.0, alpha)

    @_curve(2.0 * max(1.0, alpha), qb, repr(float(qb)))
    def curve(beta):
        return _asym_one_outcome(beta, alpha, *_tangents_for(np.array([alpha])))

    return curve(beta)


_ALPHA_GRID = np.linspace(0.0, 4.0, 401)  # best_alpha_bound's first batch
_ALPHA_GRID.flags.writeable = False


@functools.lru_cache(maxsize=1)
def _grid_tangents() -> tuple[np.ndarray, np.ndarray]:
    tangents = _tangents_for(_ALPHA_GRID)
    for arr in tangents:
        arr.flags.writeable = False  # shared by every caller in the process
    return tangents


def _alpha_values(scale, alpha: np.ndarray, tangents=None) -> np.ndarray:
    """asym_chsh_one_outcome at the honest violation qb * scale for an array
    of alpha >= 0, scale broadcast against it; qb * scale <= qb, as every
    scale lies in [0, 1]."""
    beta = 2.0 * np.hypot(1.0, alpha) * scale
    if tangents is None:
        tangents = _tangents_for(alpha)
    return _asym_one_outcome(beta, alpha, *tangents)


def _keep_better(best_v, best_a, lanes, v, a) -> None:
    """best = max(best, (v, a)) on each of lanes, as tuples compare: ties go
    to the larger alpha."""
    better = (v > best_v[lanes]) | ((v == best_v[lanes]) & (a > best_a[lanes]))
    best_v[lanes[better]], best_a[lanes[better]] = v[better], a[better]


def best_alpha_bound(scale) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, bound) arrays: the maximum over alpha of
    asym_chsh_one_outcome(2 sqrt(1 + alpha^2) s, alpha) for each honest
    scale s of the 1-d array scale, s in [0, 1] (ValidationError elsewhere).

    The scales are searched in lockstep, _LANE_BLOCK at a time, and a
    scale's bits do not depend on the others.  The 401-point grid on [0, 4]
    is evaluated in one (scales, 401) batch, its tangents solved once per
    process; each scale's best grid cell is then zoomed in _ZOOM_POINTS
    points until its alpha bracket is narrower than 1e-12, one _tangents_for
    call a round for all the scales still zooming.  The zoom tangents come
    from _tangents_for's memo (at most 4096 alphas per process), so a
    search next to an earlier one solves only the alphas it has not seen.
    Never returns less than the alpha=1 value.
    """
    scale = np.asarray(scale, dtype=float)
    if scale.ndim != 1:
        raise ValidationError(f"expected a 1-d array of honest scales, got shape {scale.shape}")
    bad = ~((scale >= 0.0) & (scale <= 1.0))
    if bad.any():
        raise ValidationError(f"honest scale {_first(scale, bad)!r} outside [0, 1]")
    alpha, bound = np.empty(scale.size), np.empty(scale.size)
    for b in range(0, scale.size, _LANE_BLOCK):
        alpha[b:b + _LANE_BLOCK], bound[b:b + _LANE_BLOCK] = _lockstep_search(
            scale[b:b + _LANE_BLOCK])
    return alpha, bound


def _lockstep_search(scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lanes = np.arange(scale.size)
    grid = _ALPHA_GRID
    vals = _alpha_values(scale[:, None], grid, _grid_tangents())
    i = np.argmax(vals, axis=1)
    best_v, best_a = vals[lanes, i], grid[i]
    k0, k1 = np.maximum(i - 1, 0), np.minimum(i + 1, grid.size - 1)
    # the live lanes' brackets and the values at their ends
    live, lo, hi, v_lo, v_hi = lanes, grid[k0], grid[k1], vals[lanes, k0], vals[lanes, k1]
    steps = np.arange(float(_ZOOM_POINTS))
    keep = hi - lo >= _ALPHA_TOL
    while keep.any():
        live, lo, hi, v_lo, v_hi = (x[keep] for x in (live, lo, hi, v_lo, v_hi))
        rows = np.arange(live.size)
        # np.linspace(lo, hi, _ZOOM_POINTS) on every lane, its arithmetic spelled out
        pts = steps * ((hi - lo) / (_ZOOM_POINTS - 1))[:, None] + lo[:, None]
        pts[:, -1] = hi
        v = np.concatenate([v_lo[:, None], _alpha_values(scale[live, None], pts[:, 1:-1]),
                            v_hi[:, None]], axis=1)
        j = np.argmax(v, axis=1)
        _keep_better(best_v, best_a, live, v[rows, j], pts[rows, j])
        k0, k1 = np.maximum(j - 1, 0), np.minimum(j + 1, _ZOOM_POINTS - 1)
        lo, hi, v_lo, v_hi = pts[rows, k0], pts[rows, k1], v[rows, k0], v[rows, k1]
        keep = hi - lo >= _ALPHA_TOL
    ones = np.ones(scale.size)
    _keep_better(best_v, best_a, lanes, _alpha_values(scale, ones), ones)
    return best_a, best_v


# ---------------------------------------------------------------------------
# recycled-input CHSH two-outcome bound (conjectured)

def colbeck_g1(x):
    return (1.0 + h(np.minimum(0.5 + x / 8.0, 1.0))
            - 2.0 * h(np.minimum(0.5 + SQRT2 * x / 8.0, 1.0)))


def _colbeck_g1_deriv(x: float) -> float:
    return (hprime(0.5 + x / 8.0) / 8.0
            - (SQRT2 / 4.0) * hprime(0.5 + SQRT2 * x / 8.0))


@functools.lru_cache(maxsize=1)
def solve_beta_star_colbeck() -> float:
    def f(x):
        return _colbeck_g1_deriv(x) * (x - 2.0) - colbeck_g1(x)

    return bracketed_root(f, 2.0 + 1e-6, 2.0 * SQRT2 - 1e-9)


@_curve(2.0, 2.0 * SQRT2, "2*sqrt2")
def colbeck_recycled_two_outcome(beta):
    """Conjectured bound on H(AB|XYE) for CHSH with recycled inputs:
    linear below beta*_C, g1 above."""
    bstar = solve_beta_star_colbeck()
    return np.where(beta <= bstar, _colbeck_g1_deriv(bstar) * (beta - 2.0), colbeck_g1(beta))
