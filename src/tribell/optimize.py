"""Non-convex entropy minimizations at fixed Bell violation (Holz,
Parity-CHSH, CHSH) and convex-hull post-processing.

The search is a multi-start derivative-free pattern search over an interior
feasible parametrization: block eigenvalues enter through normalized squares
of free variables, angles are unconstrained, a quadratic penalty steers the
search back towards the Bell constraint, and every stage's end points are
snapped to feasibility.  One driver (`_multistart`) serves all three
inequalities and builds their results; each supplies one row evaluation
giving Bell value and entropy together, one giving the Bell value alone (for
the feasibility snap), a poll giving both for every candidate of a
coordinate poll, its structured starts, and `argmin(x)`, which turns the
winning row into the result's argmin and achieved Bell value.  For
Holz and Parity-CHSH the value is the angle-maximized reduced form
`bell._block_vbar` and the entropy is closed-form in the 2x2 Gram blocks of
Charlie's conditional states (`_two_outcome_entropy`); one kernel on the
column layout of `states._block_trig` evaluates both for single rows and
polls alike.  Identical seed and config give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bell import _block_vbar, spec_by_name
from .errors import ValidationError
from .states import (_ANGLE_ROWS, _COSH, _SINB, _SINH, BlockDiagState,
                     _block_lambdas, _block_trig, _block_zxx, tau_state)

__all__ = ["OptConfig", "OptResult", "minimize_holz_two_outcome", "minimize_parity_two_outcome",
           "minimize_chsh_two_outcome", "MINIMIZERS", "sweep_two_outcome", "convex_hull_lower",
           "hull_value", "hull_knots"]

# search schedule, fixed: a main pattern-search stage at PENALTY, a refine
# stage at REFINE_PENALTY, then a polish of the winners at PENALTY * 1e4;
# each stage's end points are snapped to feasibility
PENALTY = 1e3
REFINE_PENALTY = 8e3
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
    beta wherever v > beta (see _mixed), and 1.0 (beta / beta) elsewhere,
    NaN included."""
    return beta / np.fmax(v, beta)


def _mixed(w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row-wise s * w + (1 - s) * uniform for weights w (n, ...)."""
    s = s.reshape((-1,) + (1,) * (w.ndim - 1))
    return s * w + (1.0 - s) / w[0].size


# The Holz/Parity objective works on columns: 13 rows of variables (8
# weights, the four angles t[j, k], Bob's angle b0) by n candidates, with the
# trig rows of states._block_trig.  Sums over the 8 weights are written out
# pairwise, the order numpy's reductions take.
_PLUS_MINUS = np.array([1.0, -1.0])[:, None]


def _sum8(x: np.ndarray) -> np.ndarray:
    return ((x[0] + x[1]) + (x[2] + x[3])) + ((x[4] + x[5]) + (x[6] + x[7]))


def _block_entropy(rho: np.ndarray, trig: np.ndarray) -> np.ndarray:
    """H(A0 B0|E) on columns rho (2, 2, 2, n); see _two_outcome_entropy.
    D[1, j, k] is D[0, ~j, ~k] with its operands commuted, so G[1, o] is
    G[0, 1-o] with its diagonal swapped and has the same eigenvalues bit for
    bit: only G[0, 0] and G[0, 1] are solved, and the pairwise 8-term sum of
    the eigenvalue entropies is S + S."""
    lam0, lam1 = _block_lambdas(rho, trig)
    diag = 0.5 * (lam0 + lam1)  # D[0, j, k]
    cs = trig[_COSH::_SINH - _COSH] ** 2  # Bob's eigenvector weights cu, su
    g = cs[:, None] * diag[0] + cs[::-1, None] * diag[1]  # diagonal of G[0, o]: (o, k, n)
    g01 = trig[_SINB] * _block_zxx(rho[0] - rho[1], trig) / 8.0
    tr = g[:, 0] + g[:, 1]
    disc = np.sqrt((g[:, 0] - g[:, 1]) ** 2 + 4.0 * g01 ** 2)
    # (tr +- disc) / 2 as tr + (+-1 * disc): (o, +-, n)
    e = _xlog2x(np.maximum((tr[:, None] + _PLUS_MINUS * disc[:, None]) / 2.0, 0.0))
    half = (e[0, 0] + e[0, 1]) + (e[1, 0] + e[1, 1])
    return _sum8(_xlog2x(rho.reshape(8, -1))) - (half + half)


def _block_rho(w: np.ndarray) -> np.ndarray:
    """_weights on columns: squared weights (8, n) -> rho (2, 2, 2, n)."""
    s = _sum8(w)
    return (w / np.where(s <= 0.0, 1.0, s)).reshape(2, 2, 2, -1)


def _block_columns(z: np.ndarray):
    """Rows z (n, 13) -> (rho (2, 2, 2, n), trig (20, n))."""
    zt = z.T
    return _block_rho(zt[:8] ** 2), _block_trig(zt[8:])


def _block_kernel(rho: np.ndarray, trig: np.ndarray, beta: float, parity: bool):
    """Bell value of every column, and the entropy of its state mixed down
    to beta."""
    v = _block_vbar(rho, trig, parity)
    s = _beta_scale(v, beta)
    return v, _block_entropy(s * rho + (1.0 - s) / 8, trig)


def _block_evaluate(z: np.ndarray, beta: float, parity: bool):
    """The kernel on rows z (n, 13): (value, entropy), each (n,)."""
    return _block_kernel(*_block_columns(z), beta, parity)


# A poll candidate moves one variable by +r or -r (see _poll_steps), so per
# restart each variable takes three values, x + r * _STEP3.  _POLL_INDEX
# (13, 26) picks, for every variable and candidate, which; the gathers below
# apply it to the 8 weight rows and to the 20 trig rows (by the variable
# behind each), as flat indices into the rows of (row, value) for np.take.
_STEP3 = np.array([0.0, 1.0, -1.0])
_POLL_INDEX = np.hstack([np.eye(13, dtype=np.intp), 2 * np.eye(13, dtype=np.intp)])
_WEIGHT_GATHER = (3 * np.arange(8)[:, None] + _POLL_INDEX[:8]).ravel()
_TRIG_GATHER = (3 * np.arange(20)[:, None] + _POLL_INDEX[8 + np.tile(_ANGLE_ROWS, 2)]).ravel()


def _block_poll(x: np.ndarray, r: np.ndarray, beta: float, parity: bool):
    """The kernel on every candidate of a coordinate poll of the restarts
    x (k, 13) at radii r (k,): (value, entropy), each (k, 26).  Squares and
    trig are taken of the three values per variable and gathered into the
    candidates.  Where a candidate leaves a variable alone this holds
    x + 0.0, and the -e half of the materialized candidates x + -0.0: they
    differ only in the sign of a zero, which the objective never sees
    (weights enter squared, angles through cosines and squared or absolute
    sines)."""
    u = x.T[:, None, :] + r * _STEP3[:, None]  # (13, 3, k)
    rho = _block_rho((u[:8] ** 2).reshape(24, -1).take(_WEIGHT_GATHER, axis=0).reshape(8, -1))
    trig = _block_trig(u[8:].reshape(5, -1)).reshape(60, -1).take(_TRIG_GATHER, axis=0)
    trig = trig.reshape(20, -1)
    v, ent = _block_kernel(rho, trig, beta, parity)
    return v.reshape(26, -1).T, ent.reshape(26, -1).T


def _two_outcome_entropy(rho: np.ndarray, t: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """H(A0 B0|E) for block-diagonal states, Alice measuring Z and Bob the
    x-z observable at angle b0.  Eve purifies ABC, so given (A0, B0) = (a, o)
    her state has the spectrum of Charlie's 2x2 Gram block <a, u_o|rho|a, u_o>:
    its diagonal mixes the weights D[a, j, k] (half a GHZ-basis weight of
    block (j, k), half one of (~j, ~k)) over Bob's bit j by cos^2(b0/2),
    sin^2(b0/2), and its off-diagonal entry is +-sin(b0) ZXX / 8."""
    angles = np.concatenate([np.reshape(t, (-1, 4)).T, np.reshape(b0, (1, -1))])
    return _block_entropy(np.moveaxis(rho, 0, -1), _block_trig(angles))


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


def _poll_steps(d: int) -> np.ndarray:
    """The 2d moves of a coordinate poll: +e_0 ... +e_{d-1}, -e_0 ... -e_{d-1}."""
    return np.concatenate([np.eye(d), -np.eye(d)])


def _pattern_search_lockstep(poll, x0: np.ndarray, f0: np.ndarray, radius: float,
                             max_polls: int, canon: Optional[Callable] = None
                             ) -> np.ndarray:
    """Coordinate pattern search run on all restarts simultaneously.

    Every poll step evaluates the +-radius coordinate moves of every active
    restart in a single batched call, `poll(x, r)` -> the (k, 2d) objective
    values of the candidates x + r * step of k restarts (steps in
    _poll_steps order); f0 holds the values at x0.  Each restart accepts its
    best improving move, shrinking its own radius when stuck or when
    improvements become marginal.
    """
    x = x0.copy()
    m, d = x.shape
    fx = f0.copy()
    r = np.full(m, float(radius))
    steps = _poll_steps(d)
    for _ in range(max_polls):
        idx = np.flatnonzero(r > RADIUS_FLOOR)
        if not idx.size:
            break
        vals = poll(x[idx], r[idx])
        j = np.argmin(vals, axis=1)
        best = vals[np.arange(len(idx)), j]
        gain = fx[idx] - best
        improved = gain > 1e-14
        moved = idx[improved]
        if moved.size:
            xm = x[moved] + r[moved, None] * steps[j[improved]]
            x[moved] = xm if canon is None else canon(xm)
            fx[moved] = best[improved]
            # marginal gains no longer hold the radius up
            r[moved] = np.where(gain[improved] > 1e-7 * (1.0 + r[moved]),
                                r[moved], r[moved] * 0.5)
        stuck = idx[~improved]
        r[stuck] *= 0.5
    return x


def _penalized(v: np.ndarray, ent: np.ndarray, beta: float, pw: float) -> np.ndarray:
    """Entropy plus pw times the squared shortfall of the Bell value."""
    gap = np.maximum(beta - v, 0.0)
    return ent + pw * gap * gap


def _materialized_poll(evaluate, d: int):
    """The generic poll: `evaluate` on every candidate row."""
    steps = _poll_steps(d)

    def poll(x, r, beta):
        cands = x[:, None, :] + r[:, None, None] * steps
        v, ent = evaluate(cands.reshape(-1, d), beta)
        return v.reshape(len(x), 2 * d), ent.reshape(len(x), 2 * d)
    return poll


def _snap_to_anchor(x: np.ndarray, anchor: np.ndarray, deficit_batch) -> np.ndarray:
    """Restore feasibility of every row by bisecting along the segment towards
    a known feasible anchor (deficit <= 0 means feasible).  One deficit call
    serves two bisection levels: it takes the midpoint and both quarter
    points, and the second level reads the quarter point its bracket picks.
    The bisection stops after 80 levels, or once every lane's midpoint
    rounds onto an end: lo is infeasible, so no lane's hi, all it returns,
    can move after that."""
    bad = deficit_batch(x) > 0.0
    if not np.any(bad):
        return x
    xb = x[bad]
    n = len(xb)
    lo, hi = np.zeros(n), np.ones(n)
    seg = anchor[None, :] - xb
    xb3, seg3 = np.tile(xb, (3, 1)), np.tile(seg, (3, 1))
    for level in range(80):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        if level % 2 == 0:
            t = np.concatenate([mid, 0.5 * (lo + mid), 0.5 * (mid + hi)])
            oks = (deficit_batch(xb3 + t[:, None] * seg3) <= 0.0).reshape(3, n)
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


def _pack_warm(res: OptResult) -> np.ndarray:
    a = res.argmin
    if "rho" in a:
        return _pack(a["rho"], a["t"], a["b0"])
    return _pack(a["lambdas"], a["phi"])


def _multistart(beta: float, cfg: OptConfig, warm_starts, evaluate, value, poll,
                starts: list, layout, argmin, canon=None) -> OptResult:
    """Best-of-restarts local search for the entropy subject to the Bell
    value reaching beta.  `evaluate(z, beta)` gives every row's Bell value and
    the entropy of its state mixed down to beta, so the constraint is exactly
    eliminated on the feasible side; on the infeasible side a quadratic
    penalty steers back, and the end points of every stage are snapped to
    feasibility along the segment to the first start, by the Bell values
    `value(z)` alone (the same bits as evaluate's).  The snap is the one
    feasibility mechanism: the stages run a fixed schedule, and a winner
    whose deficit still exceeds FEASIBILITY_TOL is reported unconverged.
    `poll(x, r, beta)` gives evaluate's pair for the (k, 2d) candidates of a
    coordinate poll (_pattern_search_lockstep).  `starts` are the
    inequality's structured starts, the first of them feasible; seeded random
    ones laid out as `layout` (see _random_starts) fill them up to
    cfg.restarts, and the warm starts go in after the first.  `argmin(x)`
    gives the winning row's (argmin dict, achieved Bell value) for the
    returned OptResult.
    """
    starts = starts + _random_starts(cfg.seed, cfg.restarts - len(starts), *layout)
    starts = starts[: cfg.restarts]
    starts[1:1] = [_pack_warm(w) for w in warm_starts or ()]
    x = np.array(starts, dtype=float)
    anchor = x[0].copy()
    # A poll's temporaries (under 1 KB per candidate) would otherwise grow
    # glibc's heap past its trim threshold and be faulted back in on every
    # poll.  Freeing a block that malloc served by mmap raises its mmap and
    # trim thresholds to the block's size (mallopt(3)), so the heap stays
    # mapped; the block itself is never touched.
    block = np.empty(min(len(x) * x.shape[1] * 256, 1 << 21))  # 2d x 1 KB a row, <= 16 MB
    del block

    def deficit(z):
        return beta - value(z)

    def search(x0, pw, radius, polls):
        return _pattern_search_lockstep(
            lambda xa, ra: _penalized(*poll(xa, ra, beta), beta, pw),
            x0, _penalized(*evaluate(x0, beta), beta, pw), radius, polls, canon)

    best_x, best_raw, best_feas = x.copy(), np.full(len(x), np.inf), np.zeros(len(x), bool)

    def remember(xc):
        """Keep every restart's best point, feasible ones first."""
        v, raw = evaluate(xc, beta)
        feas = beta - v <= FEASIBILITY_TOL
        better = (feas & ~best_feas) | ((feas == best_feas) & (raw < best_raw))
        best_x[better] = xc[better]
        best_raw[better] = raw[better]
        best_feas[better] = feas[better]

    remember(_snap_to_anchor(x, anchor, deficit))
    x = _snap_to_anchor(search(x, PENALTY, RADIUS, MAIN_POLLS), anchor, deficit)
    remember(x)
    x = search(x, REFINE_PENALTY, REFINE_RADIUS, REFINE_POLLS)
    remember(_snap_to_anchor(x, anchor, deficit))
    # polish the winners once more at a tight radius and huge weight
    x = search(best_x, PENALTY * 1e4, 1e-4, REFINE_POLLS)
    remember(_snap_to_anchor(x, anchor, deficit))
    i = int(np.lexsort((best_raw, ~best_feas))[0])
    arg, achieved = argmin(best_x[i])
    return OptResult(entropy=float(np.clip(best_raw[i], 0.0, 2.0)), argmin=arg,
                     achieved_beta=achieved, converged=bool(best_feas[i]),
                     restarts_used=len(starts), beta_target=beta)


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
    beta = _check_beta(ineq, beta)

    def argmin(x):
        rho, trig = _block_columns(x[None, :])
        s = _beta_scale(_block_vbar(rho, trig, parity), beta)
        rho_s = s * rho + (1.0 - s) / 8
        state = BlockDiagState(rho_s[..., 0], x[8:12].reshape(2, 2))
        return ({"rho": state.rho, "t": state.t, "b0": float(x[12])},
                float(_block_vbar(rho_s, trig, parity)[0]))
    return _multistart(
        beta, cfg, warm_starts,
        lambda z, beta: _block_evaluate(z, beta, parity),
        lambda z: _block_vbar(*_block_columns(z), parity),
        lambda x, r, beta: _block_poll(x, r, beta, parity),
        _block_starts(beta, parity),
        (8, [(-np.pi / 2, np.pi / 2, 4), (0.0, np.pi, 1)]), argmin, _canonicalize_block_vars)


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

    def argmin(x):
        lam, _, v = _chsh_terms(x[None, :])
        lam_s = _mixed(lam, _beta_scale(v, beta))
        return ({"lambdas": lam_s[0].reshape(2, 2), "phi": x[4:8].copy()},
                float(min(v[0], beta)))
    return _multistart(beta, cfg, warm_starts, _chsh_evaluate, lambda z: _chsh_terms(z)[2],
                       _materialized_poll(_chsh_evaluate, 8), starts,
                       (4, [(-np.pi, np.pi, 4)]), argmin)


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
