"""Non-convex entropy minimizations at fixed Bell violation (Holz,
Parity-CHSH, CHSH), convex-hull post-processing, and tightness sweeps.

The search is a multi-start derivative-free pattern search over an interior
feasible parametrization: block eigenvalues enter through normalized squares
of free variables, angles are unconstrained, and the Bell constraint is
enforced by a quadratic penalty that grows whenever a local solve ends
infeasible.  One driver (`_multistart`) serves all three inequalities; each
supplies its Bell value, one pass giving value and entropy together, and its
structured starts.  The Holz/Parity entropy is closed-form in the 2x2 Gram
blocks of Charlie's conditional states (`_two_outcome_entropy`).  Identical
seed and config give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bell import _vbar, spec_by_name
from .centropy import cond_entropy
from .errors import ValidationError
from .qmath import binary_entropy as h
from .rates import bound_curve
from .states import BlockDiagState, tau_state

# search schedule: a main pattern-search stage at PENALTY, then up to
# PENALTY_ROUNDS - 1 refine stages, each PENALTY_GROWTH times heavier, then a
# polish of the winners at PENALTY * 1e4
PENALTY = 1e3
PENALTY_GROWTH = 8.0
PENALTY_ROUNDS = 3
RADIUS = 0.3
REFINE_RADIUS = 3e-3
RADIUS_FLOOR = 1e-9
MAIN_POLLS = 400
REFINE_POLLS = 160
FEASIBILITY_TOL = 1e-7


def _xlog2x(a: np.ndarray) -> np.ndarray:
    safe = np.where(a > 1e-18, a, 1.0)
    return a * np.log2(safe)


def _weights(z: np.ndarray, k: int) -> np.ndarray:
    """Normalized squares of the first k variables of every row."""
    w = z[:, :k] ** 2
    s = w.sum(axis=1, keepdims=True)
    s = np.where(s <= 0.0, 1.0, s)
    return w / s


def _beta_scale(v: np.ndarray, beta: float) -> np.ndarray:
    """Mixing weight s that brings a degree-1 homogeneous Bell value v down to
    beta wherever v > beta (see _mixed)."""
    return np.where(v > beta, beta / np.where(v > 0.0, v, 1.0), 1.0)


def _mixed(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row-wise s * w + (1 - s) * uniform for weights w (n, ...)."""
    s = s.reshape((-1,) + (1,) * (w.ndim - 1))
    return s * w + (1.0 - s) / w[0].size


def _split_block_vars(z: np.ndarray):
    """z: (n, 13) -> (rho (n,2,2,2), t (n,2,2), b0 (n,))."""
    rho = _weights(z, 8).reshape(-1, 2, 2, 2)
    t = z[:, 8:12].reshape(-1, 2, 2)
    return rho, t, z[:, 12]


def _two_outcome_entropy(rho: np.ndarray, t: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """H(A0 B0|E) for block-diagonal states, Alice measuring Z and Bob the
    x-z observable at angle b0.  Eve purifies ABC, so given (A0, B0) = (a, o)
    her state has the spectrum of Charlie's 2x2 Gram block <a, u_o|rho|a, u_o>:
    its diagonal mixes the weights D[a, j, k] (half a GHZ-basis weight of
    block (j, k), half one of (~j, ~k)) over Bob's bit j by cos^2(b0/2),
    sin^2(b0/2), and its off-diagonal entry is +-sin(b0) ZXX / 8."""
    n = rho.shape[0]
    c2, s2 = np.cos(t) ** 2, np.sin(t) ** 2
    lam0 = c2 * rho[:, 0] + s2 * rho[:, 1]  # GHZ-basis weight of (0, j, k)
    lam1 = s2 * rho[:, 0] + c2 * rho[:, 1]  # GHZ-basis weight of (1, ~j, ~k)
    diag = 0.5 * np.stack([lam0 + lam1[:, ::-1, ::-1],
                           lam1 + lam0[:, ::-1, ::-1]], axis=1)  # D[a, j, k]
    cu = np.cos(0.5 * b0)[:, None, None] ** 2  # Bob's eigenvector weights
    su = np.sin(0.5 * b0)[:, None, None] ** 2
    g = np.stack([cu * diag[:, :, 0] + su * diag[:, :, 1],
                  su * diag[:, :, 0] + cu * diag[:, :, 1]], axis=2)  # G[a, o][k, k]
    zxx = (np.sin(2.0 * t) * (rho[:, 0] - rho[:, 1])).sum(axis=(1, 2))
    g01 = (np.sin(b0) * zxx / 8.0)[:, None, None]
    tr = g[..., 0] + g[..., 1]
    disc = np.sqrt((g[..., 0] - g[..., 1]) ** 2 + 4.0 * g01 ** 2)
    lam = np.clip(np.stack([(tr + disc) / 2.0, (tr - disc) / 2.0], axis=-1), 0.0, None)
    return _xlog2x(rho.reshape(n, 8)).sum(axis=1) - _xlog2x(lam.reshape(n, 8)).sum(axis=1)


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

    def __post_init__(self):
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
    ineq: str

    def state(self) -> Optional[BlockDiagState]:
        if "rho" in self.argmin:
            return BlockDiagState(self.argmin["rho"], self.argmin["t"])
        return None


def _pattern_search_lockstep(f_batch, x0: np.ndarray, radius: float,
                             max_polls: int, canon: Optional[Callable] = None
                             ) -> tuple[np.ndarray, np.ndarray]:
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
        active = r > RADIUS_FLOOR
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


def _pack_warm(res: OptResult) -> np.ndarray:
    a = res.argmin
    if "rho" in a:
        return _pack(a["rho"], a["t"], a["b0"])
    return _pack(a["lambdas"], a["phi"])


def _multistart(beta: float, cfg: OptConfig, warm_starts, value, evaluate,
                starts: list, layout, canon=None):
    """Best-of-restarts local search for the entropy subject to the Bell
    value reaching beta.  `evaluate(z, beta)` gives every row's Bell value and
    the entropy of its state mixed down to beta, so the constraint is exactly
    eliminated on the feasible side; on the infeasible side a quadratic
    penalty steers back and final points are snapped to feasibility along the
    segment to the first start, which needs only `value(z)`.
    `starts` are the inequality's structured starts, the first of them
    feasible; seeded random ones laid out as `layout` (see _random_starts)
    fill them up to cfg.restarts, and the warm starts go in after the first.
    Returns (x, entropy, feasible, restarts used).
    """
    starts = starts + _random_starts(cfg.seed, cfg.restarts - len(starts), *layout)
    starts = starts[: cfg.restarts]
    starts[1:1] = [_pack_warm(w) for w in warm_starts or ()]
    x = np.array(starts, dtype=float)
    anchor = x[0].copy()

    def deficit(z):
        return beta - value(z)

    def penalized(pw):
        def f(z):
            v, ent = evaluate(z, beta)
            gap = np.clip(beta - v, 0.0, None)
            return ent + pw * gap * gap
        return f

    best_x, best_raw, best_feas = x.copy(), np.full(len(x), np.inf), np.zeros(len(x), bool)

    def remember(xc):
        """Keep every restart's best point; returns the rows' deficits."""
        v, raw = evaluate(xc, beta)
        feas = beta - v <= FEASIBILITY_TOL
        better = (feas & ~best_feas) | ((feas == best_feas) & (raw < best_raw))
        best_x[better] = xc[better]
        best_raw[better] = raw[better]
        best_feas[better] = feas[better]
        return beta - v

    remember(_snap_to_anchor(x, anchor, deficit))
    x, _ = _pattern_search_lockstep(penalized(PENALTY), x, RADIUS, MAIN_POLLS,
                                    canon)
    x = _snap_to_anchor(x, anchor, deficit)
    remember(x)
    pw = PENALTY * PENALTY_GROWTH
    for _ in range(PENALTY_ROUNDS - 1):
        x, _ = _pattern_search_lockstep(penalized(pw), x, REFINE_RADIUS,
                                        REFINE_POLLS, canon)
        x = _snap_to_anchor(x, anchor, deficit)
        if np.all(remember(x) <= 0.0):
            break
        pw *= PENALTY_GROWTH
    # polish the winners once more at a tight radius and huge weight
    x, _ = _pattern_search_lockstep(penalized(PENALTY * 1e4), best_x, 1e-4,
                                    REFINE_POLLS, canon)
    x = _snap_to_anchor(x, anchor, deficit)
    remember(x)
    i = int(np.lexsort((best_raw, ~best_feas))[0])
    return best_x[i], float(best_raw[i]), bool(best_feas[i]), len(starts)


# ---------------------------------------------------------------------------
# Holz and Parity-CHSH: GHZ-block states and Bob's angle b0

def _block_starts(beta: float, parity: bool) -> list:
    """GHZ at its optimal b0 (the feasible anchor), the tau family at beta,
    a two-eigenvalue state with rotated blocks, and the uniform state."""
    ghz_rho = np.zeros((2, 2, 2))
    ghz_rho[0, 0, 0] = 1.0
    if parity:
        nu = min(0.5 * (1.0 + np.sqrt(max(beta * beta - 1.0, 0.0))), 1.0)
        b0_tau = np.arctan2(max(2 * nu - 1, 1e-6), -1.0)
        b0_ghz = 3 * np.pi / 4
    else:
        nu = min(0.25 * (beta + 1.0 + np.sqrt(max(beta * beta + 2 * beta - 3.0, 0.0))), 1.0)
        b0_tau = np.arctan2(np.sqrt(max(4 * nu * nu - 1.0, 1e-12)), -1.0)
        b0_ghz = 2 * np.pi / 3
    tau = tau_state(max(nu, 0.5))
    two_block = np.zeros((2, 2, 2))
    two_block[0, 0, 0] = nu
    two_block[1, 0, 0] = 1.0 - nu
    return [_pack(ghz_rho, np.zeros((2, 2)), b0_ghz),
            _pack(tau.rho, tau.t, b0_tau),
            _pack(two_block, np.full((2, 2), 0.3), 2 * np.pi / 3),
            _pack(np.full((2, 2, 2), 0.125), np.full((2, 2), 0.2), np.pi / 2)]


def _minimize_block_family(ineq: str, beta: float, cfg: OptConfig,
                           warm_starts) -> OptResult:
    parity = ineq == "parity-chsh"

    def value(z):
        return _vbar(*_split_block_vars(z), parity)

    def evaluate(z, beta):
        rho, t, b0 = _split_block_vars(z)
        v = _vbar(rho, t, b0, parity)
        return v, _two_outcome_entropy(_mixed(rho, _beta_scale(v, beta)), t, b0)

    beta = _check_beta(ineq, beta)
    x, raw, feasible, used = _multistart(
        beta, cfg, warm_starts, value, evaluate, _block_starts(beta, parity),
        (8, [(-np.pi / 2, np.pi / 2, 4), (0.0, np.pi, 1)]), _canonicalize_block_vars)
    rho, t, b0 = _split_block_vars(x[None, :])
    rho_s = _mixed(rho, _beta_scale(value(x[None, :]), beta))
    state = BlockDiagState(rho_s[0], t[0])
    return OptResult(
        entropy=float(np.clip(raw, 0.0, 2.0)),
        argmin={"rho": state.rho, "t": state.t, "b0": float(b0[0])},
        achieved_beta=float(_vbar(rho_s, t, b0, parity)[0]),
        converged=feasible,
        restarts_used=used,
        beta_target=beta,
        ineq=ineq,
    )


def minimize_holz_two_outcome(beta: float, cfg: OptConfig = OptConfig(),
                              warm_starts=None) -> OptResult:
    """Minimize H(A0 B0|E) over block-diagonal states and the angle b0 subject
    to the angle-maximized Holz value reaching beta."""
    return _minimize_block_family("holz", beta, cfg, warm_starts)


def minimize_parity_two_outcome(beta: float, cfg: OptConfig = OptConfig(),
                                warm_starts=None) -> OptResult:
    """Same machinery with Charlie's difference angle frozen at zero."""
    return _minimize_block_family("parity-chsh", beta, cfg, warm_starts)


# ---------------------------------------------------------------------------
# CHSH: Bell-diagonal states and four x-y measurement angles

def _chsh_corr(lam: np.ndarray, z: np.ndarray, a: int, b: int) -> np.ndarray:
    """<A_a B_b> for Bell-diagonal weights lam and the angles z[:, 4:8]."""
    pa, pb = z[:, 4 + a], z[:, 6 + b]
    return (np.cos(pa + pb) * (lam[:, 0] - lam[:, 2])
            + np.cos(pa - pb) * (lam[:, 1] - lam[:, 3]))


def _chsh_terms(z: np.ndarray):
    """(weights, <A0 B0>, CHSH value) of every row."""
    lam = _weights(z, 4)
    a0b0 = _chsh_corr(lam, z, 0, 0)
    return lam, a0b0, (a0b0 + _chsh_corr(lam, z, 0, 1)
                       + _chsh_corr(lam, z, 1, 0) - _chsh_corr(lam, z, 1, 1))


def _chsh_evaluate(z: np.ndarray, beta: float):
    """CHSH value, and 1 + h(2p) - H({lambda_ij}) of the weights mixed
    towards uniform so the (linear) CHSH value hits beta."""
    lam, a0b0, v = _chsh_terms(z)
    s = _beta_scale(v, beta)
    q = np.clip((1.0 + s * a0b0) / 2.0, 0.0, 1.0)  # 2p
    return v, 1.0 + (-_xlog2x(q) - _xlog2x(1.0 - q)) + _xlog2x(_mixed(lam, s)).sum(axis=1)


def minimize_chsh_two_outcome(beta: float, cfg: OptConfig = OptConfig(),
                              warm_starts=None) -> OptResult:
    """Minimize 1 + h(2p) - H({lambda_ij}) over Bell-diagonal states and four
    x-y measurement angles subject to the CHSH value equalling beta."""
    beta = _check_beta("chsh", beta)
    starts = [np.array([1.0, 0, 0, 0, 0.0, np.pi / 2, -np.pi / 4, np.pi / 4]),  # v = 2 sqrt2
              np.array([np.sqrt(0.5), np.sqrt(0.5), 0, 0, 0, 0, 0, 0])]
    x, raw, feasible, used = _multistart(beta, cfg, warm_starts,
                                         lambda z: _chsh_terms(z)[2],
                                         _chsh_evaluate, starts,
                                         (4, [(-np.pi, np.pi, 4)]))
    lam, _, v = _chsh_terms(x[None, :])
    lam_s = _mixed(lam, _beta_scale(v, beta))
    return OptResult(
        entropy=float(np.clip(raw, 0.0, 2.0)),
        argmin={"lambdas": lam_s[0].reshape(2, 2), "phi": x[4:8].copy()},
        achieved_beta=float(min(v[0], beta)),
        converged=feasible,
        restarts_used=used,
        beta_target=beta,
        ineq="chsh",
    )


MINIMIZERS = {
    "holz": minimize_holz_two_outcome,
    "parity-chsh": minimize_parity_two_outcome,
    "chsh": minimize_chsh_two_outcome,
}


def sweep_two_outcome(ineq: str, betas, cfg: OptConfig = OptConfig()) -> list[OptResult]:
    """Minimize at every beta in the given order, warm-starting each solve
    from the previous result; every beta is checked before the first solve."""
    if ineq not in MINIMIZERS:
        raise ValidationError(f"no two-outcome minimizer for {ineq!r}")
    betas = [float(b) for b in betas]
    for b in betas:
        _check_beta(ineq, b)
    results = []
    for b in betas:
        results.append(MINIMIZERS[ineq](b, cfg, warm_starts=results[-1:]))
    return results


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
    curve = bound_curve(spec_by_name(ineq), "one")
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
        else:
            beta_nu = np.hypot(2.0 * nu - 1.0, 1.0)
        bnd = curve.fn(beta_nu)
        ent_err[i] = abs(ce - expected)
        bound_err[i] = abs(bnd - expected)
        rows.append((float(nu), float(beta_nu), float(ce), float(bnd), float(expected)))
    return TightnessReport(ineq, nus, ent_err, bound_err, rows=rows)
