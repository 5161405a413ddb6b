"""Closed-form conditional-entropy lower bounds as functions of the Bell
violation, with the roots they require (all from qmath.bracketed_roots).

Every bound curve takes a float and returns a float, or takes an array of
violations and returns an array of the same shape, each value bit for bit
the one-point value.  One decorator, `_curve`, keeps each curve's domain: it
refuses a non-finite beta or one above the quantum bound (naming the first
as a plain float), gives 0 at or below the classical bound, since the rate
formulas evaluate there routinely, and clamps beta to the quantum bound.

Every asymmetric-CHSH tangent comes from `_tangent_at`, in closed form in t,
tanh(t) the s-value of the tangent point.  `asym_tangent`, cached by the exact
alpha, finds its alpha's t as a root in one cell of a first grid of 64 t,
computed at import; `best_alpha_bound`, the maximum over alpha, starts from
that grid and solves no root.  Both form g only at or above the tangent point.
"""

from __future__ import annotations

import functools
import sys

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


# solve_beta_star_holz() and the slope of its tangent, (theta_at_optimum(beta*)
# - 1)/(beta* - sqrt2), shipped so that no process spends the root solves of
# either; tests/test_bounds.py re-derives both bit for bit
_HOLZ_BETA_STAR = 1.4898242537521285
_HOLZ_SLOPE = float.fromhex("0x1.1a64fe362d31bp+3")


@_curve(1.0, 1.5, "3/2")
def holz_two_outcome(beta):
    """Conjectured tight bound on the two-outcome entropy for the Holz test:
    eta on [1, sqrt2], a tangent segment on (sqrt2, beta*], theta above."""
    out = eta(np.minimum(beta, SQRT2))
    line = beta > SQRT2
    if line.any():
        out[line] = _HOLZ_SLOPE * (beta[line] - SQRT2) + 1.0
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

_GRID_POINTS = 64  # t points of best_alpha_bound's first batch, after t = 0
_ZOOM_POINTS = 65  # t points per refinement round of best_alpha_bound
# t bracket width at which a lane stops zooming, about sqrt(eps): the bound,
# quadratic in t at an interior maximum, moves by rounding alone below it.
# A round narrows a bracket 32-fold, so the first grid's (0.58) takes 5.
_ZOOM_STOP = 2.0**-25
_LANE_BLOCK = 128  # scales per lockstep search, bounding its (scales, points) arrays
_T_EDGE = float(np.arctanh(1.0 - 2.0**-53))  # r = tanh(t) = 1 - 2^-53, where alpha ~ 0.27


def _g_asym(x, alpha):
    """g = 1 - h(1/2 + s/2), s = sqrt(x^2/4 - alpha^2), elementwise; 0 where s^2 <= 0."""
    return 1.0 - h(0.5 + 0.5 * np.sqrt(np.maximum(x * x / 4.0 - alpha * alpha, 0.0)))


def _g_near_qb(x, qb):
    """g at violations 2 <= x < qb of the alpha whose quantum bound is qb,
    formed from d = qb - x, exact by Sterbenz (qb/2 < 2 <= x <= qb), so
    nothing cancels as x -> qb."""
    d = qb - x
    v = d * (2.0 * qb - d) / 4.0  # 1 - s^2
    w = v / (2.0 * (1.0 + np.sqrt(1.0 - v)))  # 1 - u, u = (1 + s)/2
    return 1.0 + ((1.0 - w) * np.log1p(-w) + w * np.log(w)) / np.log(2.0)


def _chord(bstar, qb):
    """(beta*, slope) of the line from (2, 0) through g at beta*, clipped to
    qb: where beta* rounds to qb, the chord to (qb, 1)."""
    bstar = np.minimum(bstar, qb)
    with np.errstate(divide="ignore", invalid="ignore"):  # d = 0 at qb, where g = 1
        g = np.where(bstar < qb, _g_near_qb(bstar, qb), 1.0)
        return bstar, g / (bstar - 2.0)


def _tangent_at(t):
    """(alpha, beta*, slope) of the tangent whose point has s = r = tanh(t),
    in closed form, for an array of t in (0, _T_EDGE].

    With u = (1 + r)/2 and g = 1 - h(u), the tangency g'(x)(x - 2) = g reads
    x(x - 2) = 8 r g / log2(u/(1 - u)) = c, where log2(u/(1 - u)) = 2t/ln 2:
    beta* = 1 + sqrt(1 + c) and alpha = sqrt(beta*^2/4 - r^2).  Nothing
    cancels as r -> 0: ln2 g = r t - log1p(2 sinh^2(t/2)), d = beta* - 2 =
    c/(1 + sqrt(1 + c)) and alpha^2 = sech^2 t + d + d^2/4.  The slope is the
    chord g(beta*)/(beta* - 2) at the rounded alpha (_chord): beta* misses
    that alpha's tangent point by the rounding alone, where the chord's
    slope is stationary, so rounding alpha cannot lift the line above
    alpha's own tangent."""
    alpha, d = _alpha_at(t)
    return alpha, *_chord(2.0 + d, 2.0 * np.hypot(1.0, alpha))


def _alpha_at(t):
    """(alpha, d = beta* - 2) of _tangent_at's tangent at t, without the
    chord: all that a root in t reads."""
    r = np.tanh(t)
    half = np.sinh(0.5 * t)
    c = 4.0 * r * (r * t - np.log1p(2.0 * half * half)) / t
    d = c / (1.0 + np.sqrt(1.0 + c))
    return np.sqrt(1.0 / np.cosh(t) ** 2 + d + 0.25 * d * d), d


def _first_grid():
    """best_alpha_bound's first grid, the same for every scale, read-only:
    t = 0 (alpha = 1, no tangent) and _GRID_POINTS points up to _T_EDGE,
    and (alpha, beta*, slope) there."""
    t = np.linspace(0.0, _T_EDGE, _GRID_POINTS + 1)
    grid = (t, *(np.append(first, x) for first, x in zip((1.0, np.nan, np.nan),
                                                          _tangent_at(t[1:]))))
    for x in grid:
        x.setflags(write=False)
    return grid


_GRID_T, _GRID_ALPHA, _GRID_BSTAR, _GRID_SLOPE = _first_grid()


def _asym_tangents(alpha) -> tuple[np.ndarray, np.ndarray]:
    """(beta*, slope) of the tangent line through (2, 0) to g(., |alpha|)
    for a 1-d array of alpha, read from _tangent_at.

    alpha(t) falls strictly from 1 (t -> 0) to _GRID_ALPHA[-1] (about 0.27)
    at _T_EDGE, so each alpha in (_GRID_ALPHA[-1], 1) lies in the first-grid
    cell with alpha(t_lo) >= alpha > alpha(t_hi), and one
    qmath.bracketed_roots call finds every lane's root t* of alpha - alpha(t)
    there, reading alpha(t) alone (_alpha_at; the first cell starts at
    5e-324: t = 0 is 0/0).  beta* is read at t*, and its chord slope is
    formed at alpha's own quantum bound qb, not at alpha(t*)'s.  Any other
    alpha has no tangent point (alpha >= 1) or one within one ulp of qb,
    and takes the chord from (2, 0) to (qb, 1).
    """
    alpha = np.abs(np.asarray(alpha, dtype=float))
    if not np.all(np.isfinite(alpha)):
        raise ValidationError("alpha must be finite")
    qb = 2.0 * np.hypot(1.0, alpha)
    bstar = qb.copy()
    root = (alpha > _GRID_ALPHA[-1]) & (alpha < 1.0)
    a = alpha[root]
    cell = np.searchsorted(-_GRID_ALPHA, -a, side="right")
    lo, hi = np.maximum(_GRID_T[cell - 1], 5e-324), _GRID_T[cell]
    bstar[root] = _tangent_at(bracketed_roots(lambda t: a - _alpha_at(t)[0], lo, hi))[1]
    return _chord(bstar, qb)


@functools.lru_cache(maxsize=4096)
def asym_tangent(alpha: float) -> tuple[float, float]:
    """(beta*, slope) of the tangent line through (2, 0) to g, for
    1e-12 <= |alpha| < 1 (ValidationError elsewhere): one `_asym_tangents`
    lane, a root in t on `_tangent_at`, cached by the exact alpha, not a
    rounded key (at most 4096 entries).  asym_chsh_one_outcome reads its
    tangent here, so the bound of an alpha is that alpha's own;
    best_alpha_bound reads none."""
    if not 1e-12 <= abs(alpha) < 1.0:
        raise ValidationError(f"alpha={float(alpha)!r} outside 1e-12 <= |alpha| < 1")
    bstar, slope = _asym_tangents([alpha])
    return float(bstar[0]), float(slope[0])


def _asym_one_outcome(beta, alpha, bstar, slope):
    """Elementwise bound at violations beta <= qb for alpha >= 0: 0 for
    alpha < 1e-12, g above the tangent point (and for alpha >= 1), the
    tangent line (floored at 0) below it; g is formed only where it is kept."""
    beta, alpha, bstar, slope = np.broadcast_arrays(beta, alpha, bstar, slope)
    with np.errstate(invalid="ignore"):
        out = np.maximum(slope * (beta - 2.0), 0.0, out=np.empty(beta.shape))
    g_side = ~((alpha < 1.0) & (beta < bstar))
    if g_side.any():
        out[g_side] = _g_asym(beta[g_side], alpha[g_side])
    out[alpha < 1e-12] = 0.0
    return out


def asym_chsh_one_outcome(beta, alpha: float):
    """Tight one-outcome bound for the asymmetric CHSH inequality; piecewise
    linear below beta* when |alpha| < 1, g(beta) otherwise."""
    if not np.isfinite(alpha):
        raise ValidationError(f"alpha={float(alpha)!r} is not finite")
    # hypot(1, alpha) is |alpha| this far out, so qb overflows exactly above here
    if abs(alpha) > sys.float_info.max / 2.0:
        raise ValidationError(f"alpha={float(alpha)!r} has no finite quantum bound")
    alpha = abs(float(alpha))
    qb = 2.0 * np.hypot(1.0, alpha)

    @_curve(2.0 * max(1.0, alpha), qb, repr(float(qb)))
    def curve(beta):
        tangent = asym_tangent(alpha) if 1e-12 <= alpha < 1.0 else (np.nan, np.nan)
        return _asym_one_outcome(beta, alpha, *tangent)

    return curve(beta)


def _values(scale, alpha, bstar, slope) -> np.ndarray:
    """The bound of alpha, with its tangent, at the honest violation qb * scale <= qb."""
    return _asym_one_outcome(2.0 * np.hypot(1.0, alpha) * scale, alpha, bstar, slope)


def _keep_better(best_v, best_a, lanes, v, a) -> None:
    """best = max(best, (v, a)) on each of lanes, as tuples compare: ties go
    to the larger alpha."""
    better = (v > best_v[lanes]) | ((v == best_v[lanes]) & (a > best_a[lanes]))
    best_v[lanes[better]], best_a[lanes[better]] = v[better], a[better]


def best_alpha_bound(scale) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, bound) arrays: the maximum over alpha >= 0 of
    f(alpha) = asym_chsh_one_outcome(2 sqrt(1 + alpha^2) s, alpha) for each
    honest scale s of the 1-d array scale, s in [0, 1] (ValidationError
    elsewhere).

    The search runs over t = atanh(r), r = sqrt(beta*^2/4 - alpha^2) the
    s-value of the tangent point, which gives alpha and its tangent in
    closed form (_tangent_at): no root is solved.  It misses no alpha:
    - alpha(t) is continuous, from 1 (t -> 0) down to about 0.27 at
      _T_EDGE (r = 1 - 2^-53), past which the tangent point rounds to qb.
    - Below that edge the bound is the chord value (qb s - 2)/(qb - 2),
      which increases with alpha, so the edge bounds it.
    - For alpha >= 1 the bound is g at the s-value
      sqrt((1 + alpha^2) s^2 - alpha^2), which decreases with alpha; so does
      the g side of every alpha < 1.
    Hence the maximum is max(0, f(1), sup_t f(alpha(t))).

    The scales are searched in lockstep, _LANE_BLOCK at a time, and a
    scale's bits do not depend on the others.  The grid of t = 0 (alpha = 1)
    and _GRID_POINTS points up to _T_EDGE, whose tangents are module
    constants, is one batch; each scale's best cell is then zoomed in
    _ZOOM_POINTS points, one batch a round for every scale still zooming,
    written into rows allocated once per search, until the ends of its t
    bracket have the same alpha or lie at most _ZOOM_STOP (about sqrt(eps))
    apart: at most 5 rounds.  Near an interior maximum the bound is
    quadratic in t, so further rounds would move it by rounding alone (a
    search zoomed until no float lay inside its bracket was at most 6.7e-16
    higher, its alpha at most 1.5e-9 away, on 5001 p per noise kind).  g is
    formed only at points on its side of the tangent point.  Ties go to the
    larger alpha.
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
    best_v, best_a = np.full(scale.size, -np.inf), np.zeros(scale.size)
    # each live lane's row of t, and the alphas and values there: the first
    # grid, then zoom rows written into arrays allocated once
    live = np.arange(scale.size)
    t, a = (np.broadcast_to(x, (scale.size, x.size)) for x in (_GRID_T, _GRID_ALPHA))
    v = _values(scale[:, None], _GRID_ALPHA, _GRID_BSTAR, _GRID_SLOPE)
    zoom_t, zoom_a, zoom_v = (np.empty((scale.size, _ZOOM_POINTS)) for _ in range(3))
    steps = np.arange(float(_ZOOM_POINTS))
    while True:
        rows = np.arange(live.size)
        j = np.argmax(v, axis=1)
        _keep_better(best_v, best_a, live, v[rows, j], a[rows, j])
        # the best point's neighbours: each lane's t bracket, and the alphas and values there
        jl, jh = np.maximum(j - 1, 0), np.minimum(j + 1, t.shape[1] - 1)
        lo, hi, a_lo, a_hi = t[rows, jl], t[rows, jh], a[rows, jl], a[rows, jh]
        keep = (a_lo != a_hi) & (hi - lo > _ZOOM_STOP)
        if not keep.any():
            return best_a, best_v
        v_lo, v_hi = v[rows, jl], v[rows, jh]
        live, lo, hi, a_lo, a_hi, v_lo, v_hi = (
            x[keep] for x in (live, lo, hi, a_lo, a_hi, v_lo, v_hi))
        t, a, v = zoom_t[:live.size], zoom_a[:live.size], zoom_v[:live.size]
        # np.linspace(lo, hi, _ZOOM_POINTS) on every lane, its arithmetic spelled out
        np.multiply(steps, ((hi - lo) / (_ZOOM_POINTS - 1))[:, None], out=t)
        t += lo[:, None]
        t[:, -1] = hi
        alpha, bstar, slope = _tangent_at(t[:, 1:-1])
        a[:, 0], a[:, 1:-1], a[:, -1] = a_lo, alpha, a_hi
        v[:, 0], v[:, 1:-1], v[:, -1] = v_lo, _values(scale[live, None], alpha, bstar, slope), v_hi


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


# solve_beta_star_colbeck(), shipped so that no process spends its root solve;
# tests/test_bounds.py re-derives it bit for bit
_COLBECK_BETA_STAR = float.fromhex("0x1.604a2a49513a7p+1")


@_curve(2.0, 2.0 * SQRT2, "2*sqrt2")
def colbeck_recycled_two_outcome(beta):
    """Conjectured bound on H(AB|XYE) for CHSH with recycled inputs:
    linear below beta*_C, g1 above."""
    bstar = _COLBECK_BETA_STAR
    return np.where(beta <= bstar, _colbeck_g1_deriv(bstar) * (beta - 2.0), colbeck_g1(beta))
