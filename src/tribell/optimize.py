"""Non-convex entropy minimizations at fixed Bell violation (Holz,
Parity-CHSH, CHSH), convex-hull post-processing, and tightness sweeps.

The search is a multi-start derivative-free pattern search over an interior
feasible parametrization: block eigenvalues enter through normalized squares
of free variables, angles are unconstrained, and the Bell constraint is
enforced by a quadratic penalty that is doubled whenever a local solve ends
infeasible.  Identical seed and config give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bell import _vbar
from .errors import ValidationError
from .qmath import binary_entropy as h
from .states import BlockDiagState, tau_state
from . import bounds as bounds_mod
from .centropy import cond_entropy

SQRT2 = np.sqrt(2.0)

# eigenvector assembly templates for the GHZ-block family: each of the 8
# eigenvector columns has 4 nonzero computational components, +-cos(t)/sqrt2
# or +-sin(t)/sqrt2 of its block
_ROWS, _COLS, _BLOCK, _KIND, _SIGN = [], [], [], [], []
for _j in (0, 1):
    for _k in (0, 1):
        _blk = 2 * _j + _k
        _m0 = (0 << 2) | (_j << 1) | _k
        _m1 = (1 << 2) | (_j << 1) | _k
        _r_jk = (0 << 2) | (_j << 1) | _k
        _r_njk = (1 << 2) | ((1 - _j) << 1) | (1 - _k)
        _r_nj = (0 << 2) | ((1 - _j) << 1) | (1 - _k)
        _r_neg = (1 << 2) | (_j << 1) | _k
        for col, entries in (
            (_m0, [(_r_jk, 0, +1), (_r_njk, 0, +1), (_r_nj, 1, +1), (_r_neg, 1, -1)]),
            (_m1, [(_r_jk, 1, -1), (_r_njk, 1, -1), (_r_nj, 0, +1), (_r_neg, 0, -1)]),
        ):
            for row, kind, sign in entries:
                _ROWS.append(row)
                _COLS.append(col)
                _BLOCK.append(_blk)
                _KIND.append(kind)
                _SIGN.append(sign)
_ROWS = np.array(_ROWS)
_COLS = np.array(_COLS)
_BLOCK = np.array(_BLOCK)
_KIND = np.array(_KIND)
_SIGN = np.array(_SIGN, dtype=float) / SQRT2


def _xlog2x(a: np.ndarray) -> np.ndarray:
    safe = np.where(a > 1e-18, a, 1.0)
    return a * np.log2(safe)


def _h_vec(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return -_xlog2x(x) - _xlog2x(1.0 - x)


def _split_block_vars(z: np.ndarray):
    """z: (n, 13) -> (rho (n,2,2,2), t (n,2,2), b0 (n,))."""
    w = z[:, :8] ** 2
    s = w.sum(axis=1, keepdims=True)
    s = np.where(s <= 0.0, 1.0, s)
    rho = (w / s).reshape(-1, 2, 2, 2)
    t = z[:, 8:12].reshape(-1, 2, 2)
    return rho, t, z[:, 12]


def _two_outcome_entropy(rho: np.ndarray, t: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """H(A0 B0|E) for block-diagonal states, Alice measuring Z and Bob the
    x-z observable at angle b0; assembled from rank-2 Eve blocks per outcome."""
    n = rho.shape[0]
    cs, sn = np.cos(t).reshape(n, 4), np.sin(t).reshape(n, 4)
    pick = np.where(_KIND[None, :] == 0, cs[:, _BLOCK], sn[:, _BLOCK])
    coef = _SIGN[None, :] * pick
    V = np.zeros((n, 8, 8))
    V[:, _ROWS, _COLS] = coef
    W = V * np.sqrt(rho.reshape(n, 8))[:, None, :]
    Wr = W.reshape(n, 2, 2, 2, 8)
    half = 0.5 * b0
    u = np.empty((n, 2, 2))
    u[:, 0, 0] = np.cos(half)
    u[:, 0, 1] = np.sin(half)
    u[:, 1, 0] = np.sin(half)
    u[:, 1, 1] = -np.cos(half)
    T = np.einsum("nob,nabcm->naocm", u, Wr)
    G = np.einsum("naocm,naodm->naocd", T, T)
    g00, g11, g01 = G[..., 0, 0], G[..., 1, 1], G[..., 0, 1]
    tr = g00 + g11
    disc = np.sqrt(np.clip((g00 - g11) ** 2 + 4.0 * g01 ** 2, 0.0, None))
    lam = np.stack([(tr + disc) / 2.0, (tr - disc) / 2.0], axis=-1).reshape(n, -1)
    lam = np.clip(lam, 0.0, None)
    h_blocks = -_xlog2x(lam).sum(axis=1)
    h_e = -_xlog2x(rho.reshape(n, 8)).sum(axis=1)
    return h_blocks - h_e


def _canonicalize_block_vars(z: np.ndarray) -> np.ndarray:
    """Enforce rho_0jk >= rho_1jk row-wise (swapping a block's eigenvalues
    rotates its t by pi/2; the represented state is unchanged)."""
    z = z.copy()
    w = z[:, :8].reshape(-1, 2, 4) ** 2
    swap = w[:, 0, :] < w[:, 1, :]
    if np.any(swap):
        w0 = z[:, :8].reshape(-1, 2, 4)
        swapped = np.where(swap[:, None, :], w0[:, ::-1, :], w0)
        z[:, :8] = swapped.reshape(-1, 8)
        z[:, 8:12] = np.where(swap, z[:, 8:12] + np.pi / 2, z[:, 8:12])
    return z


@dataclass(frozen=True)
class OptConfig:
    restarts: int = 64
    seed: int = 0
    penalty: float = 1e3
    penalty_growth: float = 8.0
    penalty_rounds: int = 3
    radius: float = 0.3
    refine_radius: float = 3e-3
    radius_floor: float = 1e-9
    main_polls: int = 400
    refine_polls: int = 160
    feasibility_tol: float = 1e-7

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError(f"restarts={self.restarts!r} must be at least 1")


@dataclass
class OptResult:
    entropy: float
    argmin: dict
    achieved_beta: float
    converged: bool
    restarts_used: int
    beta_target: float
    ineq: str

    def state(self) -> Optional[BlockDiagState]:
        if "rho" in self.argmin:
            return BlockDiagState(self.argmin["rho"], self.argmin["t"])
        return None


def _pattern_search_lockstep(f_batch, x0: np.ndarray, cfg: OptConfig,
                             radius: float, max_polls: int,
                             canon: Optional[Callable] = None) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate pattern search run on all restarts simultaneously.

    Every poll step evaluates the +-radius coordinate moves of every active
    restart in a single batched objective call; each restart accepts its best
    improving move, shrinking its own radius when stuck or when improvements
    become marginal.
    """
    x = x0.copy()
    m, d = x.shape
    fx = f_batch(x).copy()
    r = np.full(m, float(radius))
    steps = np.concatenate([np.eye(d), -np.eye(d)])  # (2d, d)
    for _ in range(max_polls):
        active = r > cfg.radius_floor
        if not np.any(active):
            break
        idx = np.where(active)[0]
        cands = x[idx, None, :] + r[idx, None, None] * steps[None, :, :]
        vals = f_batch(cands.reshape(-1, d)).reshape(len(idx), 2 * d)
        j = np.argmin(vals, axis=1)
        best = vals[np.arange(len(idx)), j]
        gain = fx[idx] - best
        improved = gain > 1e-14
        moved = idx[improved]
        if moved.size:
            x[moved] = cands[improved, j[improved], :]
            fx[moved] = best[improved]
            if canon is not None:
                x[moved] = canon(x[moved])
            # marginal gains no longer hold the radius up
            r[moved] = np.where(gain[improved] > 1e-7 * (1.0 + r[moved]),
                                r[moved], r[moved] * 0.5)
        stuck = idx[~improved]
        r[stuck] *= 0.5
    return x, fx


def _snap_to_anchor(x: np.ndarray, anchor: np.ndarray, deficit_batch) -> np.ndarray:
    """Restore feasibility of every row by bisecting along the segment towards
    a known feasible anchor (deficit <= 0 means feasible)."""
    bad = deficit_batch(x) > 0.0
    if not np.any(bad):
        return x
    xb = x[bad]
    lo = np.zeros(len(xb))
    hi = np.ones(len(xb))
    seg = anchor[None, :] - xb
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        ok = deficit_batch(xb + mid[:, None] * seg) <= 0.0
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    x = x.copy()
    x[bad] = xb + hi[:, None] * seg
    return x


def _multistart(f_batch_factory, starts, cfg: OptConfig, deficit_batch, canon=None):
    """Best-of-restarts local search.  The Bell constraint is exactly
    eliminated on the feasible side (scale-free direction, inside the
    objective); on the infeasible side a quadratic penalty steers back and
    final points are snapped to feasibility along the segment to the first
    start, which is always a feasible anchor."""
    x = np.array(starts, dtype=float)
    anchor = x[0].copy()
    raw_f = f_batch_factory(0.0)

    best_x, best_raw, best_feas = None, None, None

    def remember(xc):
        nonlocal best_x, best_raw, best_feas
        raw = raw_f(xc)
        feas = deficit_batch(xc) <= cfg.feasibility_tol
        if best_x is None:
            best_x, best_raw, best_feas = xc.copy(), raw.copy(), feas.copy()
            return
        better = (feas & ~best_feas) | ((feas == best_feas) & (raw < best_raw))
        best_x[better] = xc[better]
        best_raw[better] = raw[better]
        best_feas[better] = feas[better]

    remember(_snap_to_anchor(x, anchor, deficit_batch))
    x, _ = _pattern_search_lockstep(f_batch_factory(cfg.penalty), x, cfg,
                                    radius=cfg.radius, max_polls=cfg.main_polls,
                                    canon=canon)
    x = _snap_to_anchor(x, anchor, deficit_batch)
    remember(x)
    pw = cfg.penalty * cfg.penalty_growth
    for _ in range(max(cfg.penalty_rounds - 1, 0)):
        x, _ = _pattern_search_lockstep(f_batch_factory(pw), x, cfg,
                                        radius=cfg.refine_radius,
                                        max_polls=cfg.refine_polls, canon=canon)
        x = _snap_to_anchor(x, anchor, deficit_batch)
        remember(x)
        if np.all(deficit_batch(x) <= 0.0):
            break
        pw *= cfg.penalty_growth
    # polish the winners once more at a tight radius and huge weight
    x, _ = _pattern_search_lockstep(f_batch_factory(cfg.penalty * 1e4), best_x,
                                    cfg, radius=1e-4,
                                    max_polls=cfg.refine_polls, canon=canon)
    x = _snap_to_anchor(x, anchor, deficit_batch)
    remember(x)
    order = np.lexsort((best_raw, ~best_feas))
    i = int(order[0])
    return best_x[i], float(best_raw[i]), bool(best_feas[i])


def pack_block_vars(rho, t, b0) -> np.ndarray:
    z = np.empty(13)
    z[:8] = np.sqrt(np.clip(np.asarray(rho, dtype=float).reshape(-1), 0.0, None))
    z[8:12] = np.asarray(t, dtype=float).reshape(-1)
    z[12] = b0
    return z


def pack_chsh_vars(lambdas, phi) -> np.ndarray:
    z = np.empty(8)
    z[:4] = np.sqrt(np.clip(np.asarray(lambdas, dtype=float).reshape(-1), 0.0, None))
    z[4:8] = np.asarray(phi, dtype=float).reshape(-1)
    return z


def _pack_warm(res: "OptResult") -> np.ndarray:
    if "rho" in res.argmin:
        return pack_block_vars(res.argmin["rho"], res.argmin["t"], res.argmin["b0"])
    return pack_chsh_vars(res.argmin["lambdas"], res.argmin["phi"])


def _block_starts(beta: float, parity: bool, cfg: OptConfig):
    starts = []
    pack = pack_block_vars

    ghz_rho = np.zeros((2, 2, 2))
    ghz_rho[0, 0, 0] = 1.0
    if parity:
        nu = min(0.5 * (1.0 + np.sqrt(max(beta * beta - 1.0, 0.0))), 1.0)
        b0_tau = np.arctan2(max(2 * nu - 1, 1e-6), -1.0)
        starts.append(pack(ghz_rho, np.zeros((2, 2)), 3 * np.pi / 4))
    else:
        nu = min(0.25 * (beta + 1.0 + np.sqrt(max(beta * beta + 2 * beta - 3.0, 0.0))), 1.0)
        b0_tau = np.arctan2(np.sqrt(max(4 * nu * nu - 1.0, 1e-12)), -1.0)
        starts.append(pack(ghz_rho, np.zeros((2, 2)), 2 * np.pi / 3))
    tau = tau_state(max(nu, 0.5))
    starts.append(pack(tau.rho, tau.t, b0_tau))
    two_block = np.zeros((2, 2, 2))
    two_block[0, 0, 0] = nu
    two_block[1, 0, 0] = 1.0 - nu
    starts.append(pack(two_block, np.full((2, 2), 0.3), 2 * np.pi / 3))
    starts.append(pack(np.full((2, 2, 2), 0.125), np.full((2, 2), 0.2), np.pi / 2))

    ss = np.random.SeedSequence(cfg.seed)
    for child in ss.spawn(max(cfg.restarts - len(starts), 0)):
        rng = np.random.default_rng(child)
        z = np.empty(13)
        z[:8] = rng.normal(size=8)
        z[8:12] = rng.uniform(-np.pi / 2, np.pi / 2, size=4)
        z[12] = rng.uniform(0.0, np.pi)
        starts.append(z)
    return starts[: cfg.restarts]


def _scale_rho_to_beta(rho: np.ndarray, v: np.ndarray, beta: float) -> np.ndarray:
    """Mix towards the maximally mixed block state so the (degree-1
    homogeneous) Bell value drops exactly to beta wherever v >= beta."""
    s = np.where(v > beta, beta / np.where(v > 0.0, v, 1.0), 1.0)
    return s[:, None, None, None] * rho + (1.0 - s[:, None, None, None]) / 8.0


def _minimize_block_family(beta: float, cfg: OptConfig, parity: bool,
                           warm_starts=None) -> OptResult:
    spec_name = "parity-chsh" if parity else "holz"
    qb = SQRT2 if parity else 1.5
    if not 1.0 < beta <= qb + 1e-9:
        raise ValidationError(f"beta={beta!r} outside (1, {qb!r}]")
    beta = min(beta, qb)

    def factory(pw):
        def f(z):
            rho, t, b0 = _split_block_vars(z)
            v = _vbar(rho, t, b0, parity)
            ent = _two_outcome_entropy(_scale_rho_to_beta(rho, v, beta), t, b0)
            gap = np.clip(beta - v, 0.0, None)
            return ent + pw * gap * gap
        return f

    def deficit(x):
        rho, t, b0 = _split_block_vars(x)
        return beta - _vbar(rho, t, b0, parity)

    starts = _block_starts(beta, parity, cfg)
    if warm_starts:
        starts[1:1] = [_pack_warm(w) if isinstance(w, OptResult) else np.asarray(w)
                       for w in warm_starts]
    x, raw, feasible = _multistart(factory, starts, cfg, deficit,
                                   canon=_canonicalize_block_vars)
    rho, t, b0 = _split_block_vars(x[None, :])
    v = _vbar(rho, t, b0, parity)
    rho_s = _scale_rho_to_beta(rho, v, beta)
    state = BlockDiagState(rho_s[0], t[0])
    achieved = float(_vbar(rho_s, t, b0, parity)[0])
    return OptResult(
        entropy=float(np.clip(raw, 0.0, 2.0)),
        argmin={"rho": state.rho, "t": state.t, "b0": float(b0[0])},
        achieved_beta=achieved,
        converged=feasible,
        restarts_used=len(starts),
        beta_target=beta,
        ineq=spec_name,
    )


def minimize_holz_two_outcome(beta: float, cfg: OptConfig = OptConfig(),
                              warm_starts=None) -> OptResult:
    """Minimize H(A0 B0|E) over block-diagonal states and the angle b0 subject
    to the angle-maximized Holz value reaching beta."""
    return _minimize_block_family(beta, cfg, parity=False, warm_starts=warm_starts)


def minimize_parity_two_outcome(beta: float, cfg: OptConfig = OptConfig(),
                                warm_starts=None) -> OptResult:
    """Same machinery with Charlie's difference angle frozen at zero."""
    return _minimize_block_family(beta, cfg, parity=True, warm_starts=warm_starts)


def _chsh_parts(z: np.ndarray, beta: float):
    """(scaled entropy, raw Bell value, scaled weights); wherever the raw
    value exceeds beta the Bell-diagonal weights are mixed towards uniform so
    the (linear) value hits beta exactly."""
    w = z[:, :4] ** 2
    s = w.sum(axis=1, keepdims=True)
    s = np.where(s <= 0.0, 1.0, s)
    lam = w / s
    pa0, pa1, pb0, pb1 = z[:, 4], z[:, 5], z[:, 6], z[:, 7]
    d1 = lam[:, 0] - lam[:, 2]
    d2 = lam[:, 1] - lam[:, 3]

    def corr(pa, pb):
        return np.cos(pa + pb) * d1 + np.cos(pa - pb) * d2

    c00 = corr(pa0, pb0)
    v = c00 + corr(pa0, pb1) + corr(pa1, pb0) - corr(pa1, pb1)
    scale = np.where(v > beta, beta / np.where(v > 0.0, v, 1.0), 1.0)
    lam_s = scale[:, None] * lam + (1.0 - scale[:, None]) / 4.0
    p = (1.0 + scale * c00) / 4.0
    ent = 1.0 + _h_vec(2.0 * p) + _xlog2x(lam_s).sum(axis=1)
    return ent, v, lam_s


def minimize_chsh_two_outcome(beta: float, cfg: OptConfig = OptConfig(),
                              warm_starts=None) -> OptResult:
    """Minimize 1 + h(2p) - H({lambda_ij}) over Bell-diagonal states and four
    x-y measurement angles subject to the CHSH value equalling beta."""
    if not 2.0 < beta <= 2.0 * SQRT2 + 1e-9:
        raise ValidationError(f"beta={beta!r} outside (2, 2*sqrt2]")
    beta = min(beta, 2.0 * SQRT2)

    def factory(pw):
        def f(z):
            ent, v, _ = _chsh_parts(z, beta)
            gap = np.clip(beta - v, 0.0, None)
            return ent + pw * gap * gap
        return f

    def deficit(x):
        _, v, _ = _chsh_parts(x, beta)
        return beta - v

    starts = []
    z = np.zeros(8)
    z[0] = 1.0
    z[4:8] = [0.0, np.pi / 2, -np.pi / 4, np.pi / 4]  # feasible anchor, v = 2*sqrt2
    starts.append(z)
    z = np.zeros(8)
    z[0] = z[1] = np.sqrt(0.5)
    starts.append(z)
    ss = np.random.SeedSequence(cfg.seed)
    for child in ss.spawn(max(cfg.restarts - len(starts), 0)):
        rng = np.random.default_rng(child)
        z = np.empty(8)
        z[:4] = rng.normal(size=4)
        z[4:] = rng.uniform(-np.pi, np.pi, size=4)
        starts.append(z)
    starts = starts[: cfg.restarts]
    if warm_starts:
        starts[1:1] = [_pack_warm(w) if isinstance(w, OptResult) else np.asarray(w)
                       for w in warm_starts]

    x, raw, feasible = _multistart(factory, starts, cfg, deficit)
    _, v, lam_s = _chsh_parts(x[None, :], beta)
    return OptResult(
        entropy=float(np.clip(raw, 0.0, 2.0)),
        argmin={"lambdas": lam_s[0].reshape(2, 2), "phi": x[4:8].copy()},
        achieved_beta=float(min(v[0], beta)),
        converged=feasible,
        restarts_used=len(starts),
        beta_target=beta,
        ineq="chsh",
    )


MINIMIZERS = {
    "holz": minimize_holz_two_outcome,
    "parity-chsh": minimize_parity_two_outcome,
    "chsh": minimize_chsh_two_outcome,
}


def sweep_two_outcome(ineq: str, betas, cfg: OptConfig = OptConfig()) -> list[OptResult]:
    """Minimize at every beta in the grid, warm-starting each solve is not
    needed: restarts include structured feasible seeds per point."""
    if ineq not in MINIMIZERS:
        raise ValidationError(f"no two-outcome minimizer for {ineq!r}")
    return [MINIMIZERS[ineq](float(b), cfg) for b in betas]


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


# ---------------------------------------------------------------------------
# tightness verification sweeps

@dataclass
class TightnessReport:
    ineq: str
    nu: np.ndarray
    cond_entropy_err: np.ndarray
    bound_err: np.ndarray
    tolerance: float = 1e-9
    rows: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(np.max(self.cond_entropy_err) <= self.tolerance
                    and np.max(self.bound_err) <= self.tolerance)


def verify_tightness(ineq: str, nu_grid) -> TightnessReport:
    """Check that tau(nu) attains the one-outcome bound of the given
    inequality: cond_entropy(tau(nu), Z) and the analytic bound evaluated at
    the family's maximal violation must both equal 1 - h(nu)."""
    if ineq not in ("holz", "parity-chsh"):
        raise ValidationError("tightness families exist for holz and parity-chsh")
    nus = np.asarray(list(nu_grid), dtype=float)
    ent_err = np.empty(len(nus))
    bound_err = np.empty(len(nus))
    rows = []
    z_obs = np.array([[1, 0], [0, -1]], dtype=complex)
    for i, nu in enumerate(nus):
        expected = 1.0 - h(nu)
        state = tau_state(nu)
        ce = cond_entropy(state.to_matrix(), [0], [z_obs])
        if ineq == "holz":
            beta_nu = 2.0 * nu + 1.0 / (2.0 * nu) - 1.0
            bnd = bounds_mod.holz_one_outcome(min(beta_nu, 1.5))
        else:
            beta_nu = np.hypot(2.0 * nu - 1.0, 1.0)
            bnd = bounds_mod.parity_chsh_one_outcome(min(beta_nu, SQRT2))
        ent_err[i] = abs(ce - expected)
        bound_err[i] = abs(bnd - expected)
        rows.append((float(nu), float(beta_nu), float(ce), float(bnd), float(expected)))
    return TightnessReport(ineq, nus, ent_err, bound_err, rows=rows)
