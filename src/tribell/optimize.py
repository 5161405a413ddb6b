"""Non-convex entropy minimizations at fixed Bell violation (Holz,
Parity-CHSH, CHSH) and convex-hull post-processing.

The search is a multi-start L-BFGS over an interior feasible
parametrization: block eigenvalues enter through normalized squares of free
variables, angles are unconstrained, states above the Bell constraint are
mixed down onto it, an augmented-Lagrangian penalty steers the search back
from below, and the starts and end points are snapped to feasibility.  One
driver (`_multistart`) serves two search families and builds their
results, solving a whole beta grid in one lockstep batch; each family
supplies a row function giving the Bell value alone (for the feasibility
snap), one kernel giving the penalized objective with its analytic
gradient, Bell value and entropy, its structured starts, and
`argmin(x, beta)`, which turns a winning row into the result's argmin and
achieved Bell value.  For Holz the value is the angle-maximized reduced
form `bell._block_vbar` and the entropy is closed-form in the 2x2 Gram
blocks of Charlie's conditional states (`_two_outcome_entropy`), both on
the column layout of `states._block_trig`; Parity-CHSH is CHSH's search at
2 beta (`minimize_parity_two_outcome`).  Identical seed and config give
bit-identical results.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from .bell import _block_vbar, spec_by_name
from .errors import ValidationError
from .states import (_COS2T, _COSB, _COSH, _COST, _SIN2T, _SINB, _SINH, _SINT,
                     BlockDiagState, _block_correlators, _block_lambdas, _block_trig,
                     _block_zxx, _sum4, tau_state)

__all__ = ["OptConfig", "OptResult", "minimize_holz_two_outcome", "minimize_parity_two_outcome",
           "minimize_chsh_two_outcome", "MINIMIZERS", "sweep_two_outcome", "convex_hull_lower",
           "hull_value", "hull_knots"]

# search schedule, fixed: three L-BFGS stages at the penalty weights
# PENALTIES, capped at a family's iterations per stage (BLOCK_ITERS,
# CHSH_ITERS), each going on from where the last stopped with its multipliers
# updated; the starts and the last stage's end points are snapped to
# feasibility
PENALTIES = (1e3, 8e3, 6.4e4)
BLOCK_ITERS = (100, 40, 40)
CHSH_ITERS = (200, 60, 60)
MARGIN = 1e-9  # the penalty aims this far above beta, so end points land feasible
MEMORY = 6  # curvature pairs kept per restart
ARMIJO = 1e-4
MAX_STEP = 0.5  # largest trial move of one variable
STEP_FLOOR = 1e-12
FEASIBILITY_TOL = 1e-7
JITTER = 1e-3  # the search starts this far (standard deviation) from the starts
LANE_CAP = 4096  # most restarts (over all betas) sweep_two_outcome searches at once


def _xlog2x(a: np.ndarray) -> np.ndarray:
    safe = np.where(a > 1e-18, a, 1.0)
    return a * np.log2(safe)


def _dxlog2x(a: np.ndarray) -> np.ndarray:
    """The derivative of _xlog2x, 0 where it is 0."""
    live = a > 1e-18
    return np.where(live, np.log2(np.where(live, a, 1.0)) + 1.0 / np.log(2.0), 0.0)


def _weights(z: np.ndarray, k: int) -> np.ndarray:
    """Normalized squares of the first k variables of every row."""
    w = z[:, :k] ** 2
    s = w.sum(axis=1, keepdims=True)
    s = np.where(s <= 0.0, 1.0, s)
    return w / s


def _beta_scale(v: np.ndarray, beta) -> np.ndarray:
    """Mixing weight s that brings a degree-1 homogeneous Bell value v down to
    beta wherever v > beta (see _mixed), and 1.0 (beta / beta) elsewhere,
    NaN included."""
    return beta / np.fmax(v, beta)


def _mixed(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row-wise s * w + (1 - s) * uniform for weights w (n, ...)."""
    s = s.reshape((-1,) + (1,) * (w.ndim - 1))
    return s * w + (1.0 - s) / w[0].size


def _penalty(v: np.ndarray, beta, pw: float, mu):
    """The augmented-Lagrangian penalty (pw * gap + mu) * gap on the
    shortfall gap of the Bell value v below beta + MARGIN, with multipliers
    mu, and its derivative in v."""
    gap = np.maximum(beta + MARGIN - v, 0.0)
    return (pw * gap + mu) * gap, np.where(gap > 0.0, -2.0 * pw * gap - mu, 0.0)


# The Holz objective works on columns: 13 rows of variables (8
# weights, the four angles t[j, k], Bob's angle b0) by n rows, with the
# trig rows of states._block_trig.  Sums over the 8 weights are written out
# pairwise, the order numpy's reductions take.
_PLUS_MINUS = np.array([1.0, -1.0])[:, None]
_SIGN_J, _SIGN_K = _PLUS_MINUS[:, None], _PLUS_MINUS[None]  # Z on Bob's, Charlie's bit
_SIGN_JK = _SIGN_J * _SIGN_K


def _sum8(x: np.ndarray) -> np.ndarray:
    return ((x[0] + x[1]) + (x[2] + x[3])) + ((x[4] + x[5]) + (x[6] + x[7]))


def _gram(rho: np.ndarray, trig: np.ndarray):
    """Charlie's 2x2 Gram blocks G[0, o] on columns rho (2, 2, 2, n): the
    weights D[0, j, k], the diagonals g (o, k, n), the off-diagonal g01,
    the discriminant (o, n) and the eigenvalues (o, +-, n), clipped at 0.
    D[1, j, k] is D[0, ~j, ~k] with its operands commuted, so G[1, o] is
    G[0, 1-o] with its diagonal swapped and has the same eigenvalues bit for
    bit."""
    lam0, lam1 = _block_lambdas(rho, trig)
    diag = 0.5 * (lam0 + lam1)  # D[0, j, k]
    cs = trig[_COSH::_SINH - _COSH] ** 2  # Bob's eigenvector weights cu, su
    g = cs[:, None] * diag[0] + cs[::-1, None] * diag[1]  # diagonal of G[0, o]: (o, k, n)
    g01 = trig[_SINB] * _block_zxx(rho[0] - rho[1], trig) / 8.0
    tr = g[:, 0] + g[:, 1]
    disc = np.sqrt((g[:, 0] - g[:, 1]) ** 2 + 4.0 * g01 ** 2)
    # (tr +- disc) / 2 as tr + (+-1 * disc): (o, +-, n)
    e = np.maximum((tr[:, None] + _PLUS_MINUS * disc[:, None]) / 2.0, 0.0)
    return diag, g, g01, disc, e


def _gram_entropy(rho: np.ndarray, e: np.ndarray) -> np.ndarray:
    """H(A0 B0|E) from the weights rho (2, 2, 2, n) and the eigenvalues e of
    G[0, 0] and G[0, 1] (_gram): the pairwise 8-term sum of the eigenvalue
    entropies is S + S."""
    x = _xlog2x(e)
    half = (x[0, 0] + x[0, 1]) + (x[1, 0] + x[1, 1])
    return _sum8(_xlog2x(rho.reshape(8, -1))) - (half + half)


def _block_entropy(rho: np.ndarray, trig: np.ndarray) -> np.ndarray:
    """H(A0 B0|E) on columns rho (2, 2, 2, n); see _two_outcome_entropy."""
    return _gram_entropy(rho, _gram(rho, trig)[-1])


def _block_rho(w: np.ndarray) -> np.ndarray:
    """_weights on columns: squared weights (8, n) -> rho (2, 2, 2, n)."""
    s = _sum8(w)
    return (w / np.where(s <= 0.0, 1.0, s)).reshape(2, 2, 2, -1)


def _block_columns(z: np.ndarray):
    """Rows z (n, 13) -> (rho (2, 2, 2, n), trig (20, n))."""
    zt = z.T
    return _block_rho(zt[:8] ** 2), _block_trig(zt[8:])


def _two_outcome_entropy(rho: np.ndarray, t: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """H(A0 B0|E) for block-diagonal states, Alice measuring Z and Bob the
    x-z observable at angle b0.  Eve purifies ABC, so given (A0, B0) = (a, o)
    her state has the spectrum of Charlie's 2x2 Gram block <a, u_o|rho|a, u_o>:
    its diagonal mixes the weights D[a, j, k] (half a GHZ-basis weight of
    block (j, k), half one of (~j, ~k)) over Bob's bit j by cos^2(b0/2),
    sin^2(b0/2), and its off-diagonal entry is +-sin(b0) ZXX / 8."""
    angles = np.concatenate([np.reshape(t, (-1, 4)).T, np.reshape(b0, (1, -1))])
    return _block_entropy(np.moveaxis(rho, 0, -1), _block_trig(angles))


def _block_vbar_grad(rho: np.ndarray, trig: np.ndarray):
    """_block_vbar (the same bits) with its partials in rho (2, 2, 2, n), in
    t (2, 2, n) and in b0."""
    xxx, zxx, zzi, ziz, izz = _block_correlators(rho, trig)
    sb, cb = trig[_SINB], trig[_COSB]
    hh, m = zxx ** 2 + xxx ** 2, ziz + cb * izz
    r = np.sqrt(sb * sb * hh + m ** 2)
    v = r - cb * zzi
    inv_r = 1.0 / np.where(r > 0.0, r, np.inf)
    inv = sb * sb * inv_r  # d v / d(zxx, xxx), over them
    d_ziz = m * inv_r
    d_izz = cb * d_ziz
    d_b0 = sb * cb * hh * inv_r - sb * izz * d_ziz
    # the correlators are sums over (j, k) of d cos2t with signs, d sin2t
    # and the signed totals
    c2t, s2t = trig[_COS2T].reshape(2, 2, -1), trig[_SIN2T].reshape(2, 2, -1)
    d_zxx = zxx * inv
    cos_part = xxx * inv - _SIGN_J * cb + _SIGN_K * d_ziz  # d v / d(d cos2t)
    lin = c2t * cos_part + s2t * d_zxx
    tot = _SIGN_JK * d_izz
    d_t = 2.0 * (rho[0] - rho[1]) * (c2t * d_zxx - s2t * cos_part)
    return v, np.stack([tot + lin, tot - lin]), d_t, d_b0 + sb * zzi


def _block_entropy_grad(rs: np.ndarray, trig: np.ndarray):
    """_block_entropy of columns rs with its partials in rs (2, 2, 2, n), in
    t (2, 2, n) and in b0, through the 2x2 Gram spectra; where a block's
    discriminant vanishes (below _xlog2x's cutoff) the eigenvalues coincide
    and only the trace moves them."""
    diag, g, g01, disc, e = _gram(rs, trig)
    # dS/dg for the half-sum S = sum over (o, +-) of xlog2x(eigenvalue)
    le = _dxlog2x(e)
    live = disc > 1e-18
    over_disc = np.where(live, 0.5 * (le[:, 0] - le[:, 1]) / np.where(live, disc, 1.0), 0.0)
    d_g = (0.5 * (le[:, 0] + le[:, 1])[:, None]
           + _PLUS_MINUS * (over_disc * (g[:, 0] - g[:, 1]))[:, None])  # (o, k, n)
    d_g01 = 4.0 * g01 * (over_disc[0] + over_disc[1])
    cs = trig[_COSH::_SINH - _COSH] ** 2
    d_diag = 0.5 * np.stack([(cs[:, None] * d_g).sum(0), (cs[::-1, None] * d_g).sum(0)])
    d_cs = (d_g * diag).sum(axis=(0, 1)), (d_g * diag[::-1]).sum(axis=(0, 1))  # d cu, d su
    sb, cb = trig[_SINB], trig[_COSB]
    d_zxx = d_g01 * sb / 8.0
    ct2, st2 = trig[_COST].reshape(2, 2, -1) ** 2, trig[_SINT].reshape(2, 2, -1) ** 2
    s2t, c2t = trig[_SIN2T].reshape(2, 2, -1), trig[_COS2T].reshape(2, 2, -1)
    p, q = d_diag, d_diag[::-1, ::-1]  # through lambda[0] and lambda[1]
    d_rs = np.stack([ct2 * p + st2 * q + s2t * d_zxx, st2 * p + ct2 * q - s2t * d_zxx])
    diff = rs[0] - rs[1]
    d_t = diff * (2.0 * c2t * d_zxx - s2t * (p - q))
    d_b0 = 0.5 * sb * (d_cs[1] - d_cs[0]) + d_g01 * cb * _sum4(diff * s2t) / 8.0
    return _gram_entropy(rs, e), _dxlog2x(rs) - 2.0 * d_rs, -2.0 * d_t, -2.0 * d_b0


def _block_value_grad(z: np.ndarray, beta, pw: float, mu):
    """The penalized objective of rows z (n, 13), the entropy of each row's
    state mixed down to beta plus _penalty of its Bell value, its gradient
    (n, 13) by the chain rule through the normalized squared weights, the
    Bell value and the mixing, then the Bell value and the entropy."""
    zt = z.T
    w = zt[:8] ** 2
    norm = _sum8(w)
    norm = np.where(norm <= 0.0, 1.0, norm)
    rho = (w / norm).reshape(2, 2, 2, -1)
    trig = _block_trig(zt[8:])
    v, dv_rho, dv_t, dv_b0 = _block_vbar_grad(rho, trig)
    s = _beta_scale(v, beta)
    ent, de_rs, de_t, de_b0 = _block_entropy_grad(s * rho + (1.0 - s) / 8, trig)
    pen, k = _penalty(v, beta, pw, mu)
    # d f / d v: the penalty's, and through s = beta / v above beta
    k = k + np.where(v > beta, -s / np.fmax(v, beta), 0.0) * _sum8(
        (de_rs * (rho - 0.125)).reshape(8, -1))
    d_rho = (s * de_rs + k * dv_rho).reshape(8, -1)
    d_w = (d_rho - _sum8(d_rho * rho.reshape(8, -1))) / norm
    grad = np.concatenate([2.0 * zt[:8] * d_w, (de_t + k * dv_t).reshape(4, -1),
                           (de_b0 + k * dv_b0)[None]])
    return ent + pen, grad.T, v, ent


@dataclass(frozen=True)
class OptConfig:
    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "seed"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                operator.index(value)
            except TypeError:
                raise ValidationError(f"{name}={value!r} is not an integer") from None
        if self.restarts < 1:
            raise ValidationError(f"restarts={self.restarts!r} must be at least 1")
        if self.seed < 0:
            raise ValidationError(f"seed={self.seed!r} must be non-negative")


@dataclass
class OptResult:
    entropy: float
    argmin: dict
    achieved_beta: float
    converged: bool
    restarts_used: int
    beta_target: float


def _lbfgs_lockstep(value_grad, x0: np.ndarray, iters: int) -> np.ndarray:
    """L-BFGS (Nocedal and Wright, Numerical Optimization, ch. 7) run on all
    restarts x0 (m, d) in lockstep: every iteration makes one batched call
    `value_grad(x, lanes)` -> (values (k,), gradients (k, d)) on the trial
    points x of the k restarts `lanes` still moving.  A restart whose trial
    point fails the Armijo test keeps its direction and tries a 4x shorter
    step on the next iteration; one that passes moves there and takes a new
    direction from the two-loop recursion, its first trial move capped at
    MAX_STEP per variable.  All restarts share one slot of the curvature
    history per iteration: a restart that did not move, or whose pair has no
    positive curvature, stores an inert pair (1 / s.y = 0).  A restart
    retires once its trial move is below STEP_FLOOR."""
    x = x0.copy()
    m, d = x.shape
    f, g = value_grad(x, np.arange(m))
    s_hist, y_hist = np.zeros((MEMORY, m, d)), np.zeros((MEMORY, m, d))
    inv_sy = np.zeros((MEMORY, m))
    gamma = np.ones(m)  # initial inverse-Hessian scale, s.y / y.y of the last pair
    p = -g
    step = np.minimum(1.0, MAX_STEP / np.max(np.abs(p), axis=1, initial=1e-300))
    slope = np.einsum("ij,ij->i", g, p)
    for it in range(iters):
        idx = np.flatnonzero(step * np.max(np.abs(p), axis=1) > STEP_FLOOR)
        if not idx.size:
            break
        xt = x[idx] + step[idx, None] * p[idx]
        ft, gt = value_grad(xt, idx)
        ok = ft <= f[idx] + ARMIJO * step[idx] * slope[idx]
        step[idx[~ok]] *= 0.25
        moved = idx[ok]
        slot = it % MEMORY
        s_hist[slot], y_hist[slot], inv_sy[slot] = 0.0, 0.0, 0.0
        if not moved.size:
            continue
        s, y = xt[ok] - x[moved], gt[ok] - g[moved]
        sy, yy = np.einsum("ij,ij->i", s, y), np.einsum("ij,ij->i", y, y)
        curved = sy > 1e-12 * yy
        kept = moved[curved]
        s_hist[slot, kept], y_hist[slot, kept] = s[curved], y[curved]
        inv_sy[slot, kept] = 1.0 / sy[curved]
        gamma[kept] = sy[curved] / yy[curved]
        x[moved], f[moved], g[moved] = xt[ok], ft[ok], gt[ok]
        # the two-loop recursion, newest pair first, on every restart
        q = g.copy()
        order = [(slot - j) % MEMORY for j in range(MEMORY)]
        alphas = []
        for k in order:
            a = inv_sy[k] * np.einsum("ij,ij->i", s_hist[k], q)
            q -= a[:, None] * y_hist[k]
            alphas.append(a)
        q *= gamma[:, None]
        for k, a in zip(order[::-1], alphas[::-1]):
            q += (a - inv_sy[k] * np.einsum("ij,ij->i", y_hist[k], q))[:, None] * s_hist[k]
        pm = -q[moved]
        sl = np.einsum("ij,ij->i", g[moved], pm)
        # not a descent direction: forget the restart's pairs, go downhill
        lost = sl >= 0.0
        if np.any(lost):
            inv_sy[:, moved[lost]] = 0.0
            gamma[moved[lost]] = 1.0
            pm[lost] = -g[moved[lost]]
            sl[lost] = -np.einsum("ij,ij->i", pm[lost], pm[lost])
        p[moved], slope[moved] = pm, sl
        step[moved] = np.minimum(1.0, MAX_STEP / np.max(np.abs(pm), axis=1, initial=1e-300))
    return x


def _snap_to_anchor(x: np.ndarray, anchor: np.ndarray, beta, value) -> np.ndarray:
    """Restore feasibility of every row, a deficit beta - value(row) <= 0,
    by bisecting along the segment towards a known feasible anchor; anchor
    is one row or one per row of x, beta a scalar or one per row.  One value
    call serves two bisection levels: it takes the midpoint and both quarter
    points, and the second level reads the quarter point its bracket picks.
    The bisection stops after 80 levels, or once every lane's midpoint
    rounds onto an end: lo is infeasible, so no lane's hi, all it returns,
    can move after that."""
    beta = np.broadcast_to(beta, len(x))
    bad = beta - value(x) > 0.0
    if not np.any(bad):
        return x
    xb = x[bad]
    n = len(xb)
    lo, hi = np.zeros(n), np.ones(n)
    seg = np.broadcast_to(anchor, x.shape)[bad] - xb
    xb3, seg3, beta3 = np.tile(xb, (3, 1)), np.tile(seg, (3, 1)), np.tile(beta[bad], 3)
    for level in range(80):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        if level % 2 == 0:
            t = np.concatenate([mid, 0.5 * (lo + mid), 0.5 * (mid + hi)])
            oks = (beta3 - value(xb3 + t[:, None] * seg3) <= 0.0).reshape(3, n)
            ok = oks[0]
        else:  # mid is the quarter point on the side the last level kept
            ok = np.where(oks[0], oks[1], oks[2])
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    x = x.copy()
    x[bad] = xb + hi[:, None] * seg
    return x


def _check_beta(ineq: str, beta: float) -> float:
    """beta clamped to the quantum bound; ValidationError outside
    (local bound, quantum bound + 1e-9]."""
    spec = spec_by_name(ineq)
    lo, qb = spec.local_bound, spec.quantum_bound
    if not lo < beta <= qb + 1e-9:
        raise ValidationError(f"beta={beta!r} outside ({lo!r}, {qb!r}] for {ineq}")
    return min(beta, qb)


def _random_starts(seed: int, count: int, weights: int, angles) -> list:
    """`count` seeded starts: `weights` standard normals, then for every
    (low, high, size) in `angles` that many uniform draws."""
    starts = []
    for child in np.random.SeedSequence(seed).spawn(max(count, 0)):
        rng = np.random.default_rng(child)
        starts.append(np.concatenate(
            [rng.normal(size=weights)]
            + [rng.uniform(lo, hi, size=k) for lo, hi, k in angles]))
    return starts


def _pack(weights, *angles) -> np.ndarray:
    """Search variables: square roots of the weights, then the angles."""
    return np.concatenate([np.sqrt(np.clip(np.ravel(weights), 0.0, None))]
                          + [np.ravel(a) for a in angles])


def _multistart(betas: list, cfg: OptConfig, value, value_grad, starts: list, layout,
                argmin, iters) -> list[OptResult]:
    """Best-of-restarts local search for the entropy subject to the Bell
    value reaching beta, for every beta of `betas` in one lockstep batch:
    each beta is a group of cfg.restarts lanes, and each lane carries its
    own beta, so a group's result has the bits of a search at its beta
    alone.  `value_grad(z, beta, pw, mu)` gives, for rows z and beta one per
    row, the penalized objective, its gradient, the Bell value and the
    entropy of each row's state mixed down to beta, so the constraint is
    exactly eliminated on the feasible side.  On the infeasible side an
    augmented-Lagrangian penalty (_penalty) steers back: after every L-BFGS
    stage each restart's multiplier grows by the penalty's slope at its end
    point, so the next stage ends on the constraint rather than a penalty
    width below it.  Stage i runs iters[i] iterations at PENALTIES[i] from
    where the last one stopped.  The starts and the last stage's end points
    are snapped to feasibility along the segment to their group's first
    start, by the Bell values `value(z)` alone (the same bits as
    value_grad's), and kept by value_grad's Bell value and entropy.  The
    snap is the one feasibility mechanism: the stages run a fixed schedule,
    and a winner whose deficit still exceeds FEASIBILITY_TOL is reported
    unconverged.  `starts` holds every beta's structured starts, the first
    of them feasible; the same seeded random starts, laid out as `layout`
    (see _random_starts), fill every group up to cfg.restarts, and every
    group gets the same seeded jitter.
    `argmin(x, beta)` gives a group's winning row's (argmin dict, achieved
    Bell value) for its OptResult.
    """
    r = cfg.restarts
    rand = _random_starts(cfg.seed, r - min(map(len, starts)), *layout)
    x = np.array([row for group in starts for row in (group + rand)[:r]], dtype=float)
    beta, anchor = np.repeat(betas, r), np.repeat(x[::r], r, axis=0)
    best_x, best_raw, best_feas = x.copy(), np.full(len(x), np.inf), np.zeros(len(x), bool)

    def remember(xc):
        """Keep every restart's best point, feasible ones first."""
        _, _, v, raw = value_grad(xc, beta, 0.0, 0.0)
        feas = beta - v <= FEASIBILITY_TOL
        better = (feas & ~best_feas) | ((feas == best_feas) & (raw < best_raw))
        best_x[better] = xc[better]
        best_raw[better] = raw[better]
        best_feas[better] = feas[better]

    remember(_snap_to_anchor(x, anchor, beta, value))
    # the search leaves the starts by a seeded JITTER: a start with zero
    # weights or at a saddle of the Bell value has a zero gradient there
    jitter = np.random.default_rng(cfg.seed).standard_normal((r, x.shape[1]))
    x = x + JITTER * np.tile(jitter, (len(betas), 1))
    mu = np.zeros(len(x))
    for pw, n in zip(PENALTIES, iters):
        x = _lbfgs_lockstep(lambda z, lanes: value_grad(z, beta[lanes], pw, mu[lanes])[:2], x, n)
        mu += 2.0 * pw * np.maximum(beta - value(x) + MARGIN, 0.0)
    remember(_snap_to_anchor(x, anchor, beta, value))
    results = []
    for lo, b in zip(range(0, len(x), r), betas):
        i = lo + int(np.lexsort((best_raw[lo:lo + r], ~best_feas[lo:lo + r]))[0])
        arg, achieved = argmin(best_x[i], b)
        results.append(OptResult(entropy=float(np.clip(best_raw[i], 0.0, 2.0)), argmin=arg,
                                 achieved_beta=achieved, converged=bool(best_feas[i]),
                                 restarts_used=r, beta_target=b))
    return results


# ---------------------------------------------------------------------------
# Holz: GHZ-block states and Bob's angle b0

def _block_starts(beta: float) -> list:
    """GHZ at its optimal b0 (the feasible anchor), the tau family at beta,
    a two-eigenvalue state with rotated blocks, and the uniform state."""
    ghz_rho = np.zeros((2, 2, 2))
    ghz_rho[0, 0, 0] = 1.0
    nu = min(0.25 * (beta + 1.0 + np.sqrt(max(beta * beta + 2 * beta - 3.0, 0.0))), 1.0)
    tau = tau_state(max(nu, 0.5))
    two_block = np.zeros((2, 2, 2))
    two_block[0, 0, 0] = nu
    two_block[1, 0, 0] = 1.0 - nu
    return [_pack(ghz_rho, np.zeros((2, 2)), 2 * np.pi / 3),
            _pack(tau.rho, tau.t, np.arctan2(np.sqrt(max(4 * nu * nu - 1.0, 1e-12)), -1.0)),
            _pack(two_block, np.full((2, 2), 0.3), 2 * np.pi / 3),
            _pack(np.full((2, 2, 2), 0.125), np.full((2, 2), 0.2), np.pi / 2)]


def _block_family(betas: list, cfg: OptConfig) -> list[OptResult]:
    def argmin(x, beta):
        rho, trig = _block_columns(x[None, :])
        s = _beta_scale(_block_vbar(rho, trig), beta)
        rho_s = s * rho + (1.0 - s) / 8
        state = BlockDiagState(rho_s[..., 0], x[8:12].reshape(2, 2))
        return ({"rho": state.rho, "t": state.t, "b0": float(x[12])},
                float(_block_vbar(rho_s, trig)[0]))
    return _multistart(
        betas, cfg, lambda z: _block_vbar(*_block_columns(z)), _block_value_grad,
        [_block_starts(b) for b in betas],
        (8, [(-np.pi / 2, np.pi / 2, 4), (0.0, np.pi, 1)]), argmin, BLOCK_ITERS)


def minimize_holz_two_outcome(beta: float, cfg: OptConfig = OptConfig()) -> OptResult:
    """Minimize H(A0 B0|E) over block-diagonal states and the angle b0 subject
    to the angle-maximized Holz value reaching beta."""
    return sweep_two_outcome("holz", [beta], cfg)[0]


# ---------------------------------------------------------------------------
# CHSH, and Parity-CHSH as CHSH at 2 beta: Bell-diagonal states and four
# x-y measurement angles

def _chsh_corr(lam: np.ndarray, z: np.ndarray, a: int, b: int) -> np.ndarray:
    """<A_a B_b> for Bell-diagonal weights lam and the angles z[:, 4:8]."""
    pa, pb = z[:, 4 + a], z[:, 6 + b]
    return (np.cos(pa + pb) * (lam[:, 0] - lam[:, 2])
            + np.cos(pa - pb) * (lam[:, 1] - lam[:, 3]))


def _chsh_terms(z: np.ndarray):
    """(weights, CHSH value) of every row."""
    lam = _weights(z, 4)
    return lam, (_chsh_corr(lam, z, 0, 0) + _chsh_corr(lam, z, 0, 1)
                 + _chsh_corr(lam, z, 1, 0) - _chsh_corr(lam, z, 1, 1))


_CHSH_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])  # the CHSH terms, [a, b]
_A0B0 = np.array([[1.0, 0.0], [0.0, 0.0]])


def _chsh_value_grad(z: np.ndarray, beta, pw: float, mu):
    """The penalized objective of rows z (n, 8), its gradient (n, 8) on the
    (n, a, b) correlator terms, the CHSH value and the entropy
    1 + h(2p) - H({lambda_ij}) of the weights mixed towards uniform so the
    (linear) CHSH value hits beta."""
    lam = _weights(z, 4)
    plus, minus = z[:, 4:6, None] + z[:, None, 6:8], z[:, 4:6, None] - z[:, None, 6:8]
    d1, d2 = (lam[:, 0] - lam[:, 2])[:, None, None], (lam[:, 1] - lam[:, 3])[:, None, None]
    cp, cm = np.cos(plus), np.cos(minus)
    corr = cp * d1 + cm * d2
    a0b0 = corr[:, 0, 0]
    v = a0b0 + corr[:, 0, 1] + corr[:, 1, 0] - corr[:, 1, 1]
    s = _beta_scale(v, beta)
    q = np.clip((1.0 + s * a0b0) / 2.0, 0.0, 1.0)  # 2p
    mix = _mixed(lam, s)
    pen, k = _penalty(v, beta, pw, mu)
    ent = 1.0 + (-_xlog2x(q) - _xlog2x(1.0 - q)) + _xlog2x(mix).sum(axis=1)
    d_q = _dxlog2x(1.0 - q) - _dxlog2x(q)
    d_mix = _dxlog2x(mix)
    d_s = (d_mix * (lam - 0.25)).sum(axis=1) + d_q * a0b0 / 2.0
    k = k + np.where(v > beta, -s / np.fmax(v, beta), 0.0) * d_s  # d f / d v
    w = (d_q * s / 2.0)[:, None, None] * _A0B0 + k[:, None, None] * _CHSH_SIGNS  # d f / d corr
    d1_, d2_ = (w * cp).sum(axis=(1, 2)), (w * cm).sum(axis=(1, 2))
    d_lam = s[:, None] * d_mix + np.column_stack([d1_, d2_, -d1_, -d2_])
    norm = (z[:, :4] ** 2).sum(axis=1, keepdims=True)
    d_w = (d_lam - (d_lam * lam).sum(axis=1, keepdims=True)) / np.where(norm <= 0.0, 1.0, norm)
    d_plus, d_minus = -w * np.sin(plus) * d1, -w * np.sin(minus) * d2
    return ent + pen, np.column_stack([2.0 * z[:, :4] * d_w, (d_plus + d_minus).sum(axis=2),
                                       (d_plus - d_minus).sum(axis=1)]), v, ent


def _chsh_family(betas: list, cfg: OptConfig) -> list[OptResult]:
    starts = [np.array([1.0, 0, 0, 0, 0.0, np.pi / 2, -np.pi / 4, np.pi / 4]),  # v = 2 sqrt2
              np.array([np.sqrt(0.5), np.sqrt(0.5), 0, 0, 0, 0, 0, 0])]

    def argmin(x, beta):
        lam, v = _chsh_terms(x[None, :])
        lam_s = _mixed(lam, _beta_scale(v, beta))
        return ({"lambdas": lam_s[0].reshape(2, 2), "phi": x[4:8].copy()},
                float(min(v[0], beta)))
    return _multistart(betas, cfg, lambda z: _chsh_terms(z)[1], _chsh_value_grad,
                       [starts] * len(betas), (4, [(-np.pi, np.pi, 4)]), argmin, CHSH_ITERS)


def minimize_chsh_two_outcome(beta: float, cfg: OptConfig = OptConfig()) -> OptResult:
    """Minimize 1 + h(2p) - H({lambda_ij}) over Bell-diagonal states and four
    x-y measurement angles subject to the CHSH value equalling beta."""
    return sweep_two_outcome("chsh", [beta], cfg)[0]


def _parity_family(betas: list, cfg: OptConfig) -> list[OptResult]:
    """CHSH's results at 2 beta, the achieved value halved (exactly)."""
    return [replace(r, achieved_beta=r.achieved_beta / 2.0, beta_target=b)
            for r, b in zip(_chsh_family([2.0 * b for b in betas], cfg), betas)]


def minimize_parity_two_outcome(beta: float, cfg: OptConfig = OptConfig()) -> OptResult:
    """Minimize H(A0 B0|E) subject to the Parity-CHSH value reaching beta:
    exactly CHSH's solve at 2 beta.  Parity-CHSH is <A0 B+> + <A1 B- C0>,
    B+- = (B0 +- B1)/2; A0 x 1 and A1 x C0 are two +-1 observables of one
    party (A, C), so beta = CHSH(A0, A1 C0; B0, B1)/2 and every strategy is
    an (AC | B) CHSH strategy at 2 beta with the same key pair (A0, B0) and
    the same purification: H(A0 B0|E) is at least CHSH's minimum at 2 beta.
    The argmin reaches it: CHSH's `lambdas` (A and B's Bell-diagonal
    weights) and `phi` (the x-y angles a0, a1, b0, b1), with Charlie in |+>
    measuring C0 = C1 = X, give Parity-CHSH value `achieved_beta` and
    H(A0 B0|E) `entropy`."""
    return sweep_two_outcome("parity-chsh", [beta], cfg)[0]


MINIMIZERS = {
    "holz": minimize_holz_two_outcome,
    "parity-chsh": minimize_parity_two_outcome,
    "chsh": minimize_chsh_two_outcome,
}


_FAMILIES = {"holz": _block_family, "parity-chsh": _parity_family, "chsh": _chsh_family}


def sweep_two_outcome(ineq: str, betas, cfg: OptConfig = OptConfig()) -> list[OptResult]:
    """Minimize at every beta, each result the bits of MINIMIZERS[ineq](beta,
    cfg) whatever the grid's order or spacing, in input order.  The betas are
    solved cold in lockstep batches of whole betas, at most LANE_CAP
    restarts each (one beta at least); every beta is checked before the
    first solve."""
    if ineq not in _FAMILIES:
        raise ValidationError(f"no two-outcome minimizer for {ineq!r}")
    betas = [_check_beta(ineq, float(b)) for b in betas]
    per = max(1, LANE_CAP // cfg.restarts)
    return [res for i in range(0, len(betas), per)
            for res in _FAMILIES[ineq](betas[i:i + per], cfg)]


# ---------------------------------------------------------------------------
# convex hull of a sampled curve

def convex_hull_lower(points) -> np.ndarray:
    """Lower convex envelope of (x, y) samples, as hull vertices sorted by x.

    Collinear runs are kept, so convex input is returned unchanged.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValidationError("need at least 3 (x, y) points")
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    pts = pts[np.r_[True, np.diff(pts[:, 0]) != 0.0]]  # lowest y per x
    hull: list[np.ndarray] = []
    for p in pts:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross < 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return np.array(hull)


def hull_value(hull: np.ndarray, x) -> np.ndarray:
    return np.interp(x, hull[:, 0], hull[:, 1])


def hull_knots(hull: np.ndarray, slope_tol: float = 1e-6) -> np.ndarray:
    """x-coordinates where the hull's slope strictly increases."""
    xs, ys = hull[:, 0], hull[:, 1]
    slopes = np.diff(ys) / np.diff(xs)
    out = [xs[i + 1] for i in range(len(slopes) - 1)
           if slopes[i + 1] - slopes[i] > slope_tol]
    return np.array(out)
