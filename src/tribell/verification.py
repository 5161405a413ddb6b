"""Property suites behind the CLI `verify` command: sampled operator
inequalities, the Appendix C identities, the tau-family tightness sweeps,
and bound-curve shape checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .bell import (_block_reduced_value, asym_chsh, bell_terms, bell_values, chsh, holz, mabk,
                   parity_chsh, reduced_angles, spec_by_name)
from .centropy import cond_entropies
from .errors import ValidationError
from .qmath import binary_entropy as h, eig_hermitian, kron_all
from .rates import bound_curve
from .states import X, Y, Z, _block_correlators, _block_matrices, _block_trig, _sorted_blocks

__all__ = ["CHECK_TOL", "KNOWN_NONCONVEX", "CheckResult", "random_density_matrices",
           "check_appendix_b", "check_appendix_c", "check_uncertainty", "check_quantum_bounds",
           "TightnessReport", "verify_tightness", "check_tightness", "check_bound_curves",
           "check_reduced_value_consistency", "run_all"]

SQRT2 = np.sqrt(2.0)
# the largest violation a sampled, swept or certified property may show and still pass
CHECK_TOL = 1e-9

# the analytic MABK two-outcome bound is genuinely concave in a small window
# above its classical bound; its convexity check is reported but expected to fail
KNOWN_NONCONVEX = ("mabk-two",)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    expected_failure: bool = False

    def __post_init__(self):
        # numpy comparisons give numpy bools, which json cannot serialize
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "expected_failure", bool(self.expected_failure))


def _block_draws(rng: np.random.Generator, count: int):
    """count unsorted block states as columns rho (2, 2, 2, n), t (2, 2, n):
    Dirichlet eigenvalues of concentration 0.35 and 1.0 in turn, a mix of
    near-pure and broad states, and every t uniform on (-pi/2, pi/2)."""
    g = rng.standard_gamma(np.where(np.arange(count) % 2 == 0, 0.35, 1.0), (2, 2, 2, count))
    return g / g.sum(axis=(0, 1, 2)), rng.uniform(-np.pi / 2, np.pi / 2, (2, 2, count))


def _tau_columns(nu: np.ndarray):
    """tau(nu) as unsorted columns rho (2, 2, 2, n), t (2, 2, n): nu on
    (0,0,0), 1-nu on (1,0,0), which block (1,1) holds as its eigenvalue
    rho[0, 1, 1] rotated by t = pi/2."""
    rho, t = np.zeros((2, 2, 2, nu.size)), np.zeros((2, 2, nu.size))
    rho[0, 0, 0], rho[0, 1, 1], t[1, 1] = nu, 1.0 - nu, np.pi / 2
    return rho, t


def _trig(t: np.ndarray, b0) -> np.ndarray:
    """states._block_trig of the columns t (2, 2, n) with Bob's angles b0."""
    return _block_trig(np.vstack([t.reshape(4, -1), np.broadcast_to(b0, t.shape[-1:])]))


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ValidationError(f"samples={samples!r} is below 1")


def random_density_matrices(count: int, dim: int, seed: int) -> np.ndarray:
    """count random (dim, dim) density matrices rho = G G^dagger / tr(G G^dagger)
    with complex Ginibre G (real and imaginary parts standard normal), the
    Hilbert-Schmidt measure; the real parts of all count G are drawn before
    any imaginary part.  count = 0 gives an empty (0, dim, dim) stack."""
    if count < 0:
        raise ValidationError(f"count={count!r} is negative")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    rho = g @ g.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def _appendix_b_draws(samples: int, seed: int):
    """check_appendix_b's unsorted columns rho (2, 2, 2, n), t (2, 2, n) and
    angle rows a1, bm, cm (n,): samples // 2 random block states and
    angles, then the rest noisy tau(nu)-like states with angles jittered
    around the family's optimum.  The first of those is tau(nu)'s optimum
    itself, no noise and no jitter, where beta = 2 nu + 1/(2 nu) - 1 > 1 and
    the inequality is tight."""
    rng = np.random.default_rng(seed)
    rand, near = samples // 2, samples - samples // 2
    rho_r, t_r = _block_draws(rng, rand)
    ang_r = rng.uniform(0.0, 2.0 * np.pi, (3, rand))
    nu, eps = rng.uniform(0.5, 1.0, near), rng.uniform(0.0, 0.15, near)
    jitter = rng.normal(0.0, np.array([0.15] * 4 + [0.3] * 3)[:, None], (7, near))
    eps[0], jitter[:, 0] = 0.0, 0.0
    rho, t = _tau_columns(nu)
    rho, t = (1.0 - eps) * rho + eps / 8.0, t + jitter[:4].reshape(2, 2, near)
    ang = np.stack([np.full(near, np.pi / 2),
                    np.arctan2(1.0, np.sqrt(np.maximum(4 * nu * nu - 1.0, 1e-12))),
                    np.arcsin(np.minimum(1.0 / (2 * nu), 1.0))]) + jitter[4:]
    return (np.concatenate([rho_r, rho / rho.sum(axis=(0, 1, 2))], axis=-1),
            np.concatenate([t_r, t], axis=-1), *np.concatenate([ang_r, ang], axis=1))


def check_appendix_b(samples: int = 10_000, seed: int = 11) -> CheckResult:
    """|<XXX>| >= beta/2 - 1/2 + sqrt(beta^2 + 2 beta - 3)/2 whenever the
    reduced Holz value beta exceeds 1.

    Half the draws are fully random block states and angles; the other half
    are jittered near-optimal configurations so that the violating side
    (beta > 1, where the inequality is nontrivial) is well sampled, and one
    of them is the tau(nu) optimum, where the inequality is tight.
    """
    _require_samples(samples)
    rhos, ts, a1, bm, cm = _appendix_b_draws(samples, seed)
    rhos, ts = _sorted_blocks(rhos, ts)
    # Bob's drawn angle bm is the reduced frame's b0 - pi/2
    trig = _trig(ts, bm + np.pi / 2)
    beta = _block_reduced_value(rhos, trig, a1, cm)
    xxx = _block_correlators(rhos, trig)[0]
    side = beta > 1.0
    used = int(np.count_nonzero(side))
    beta = beta[side]
    rhs = beta / 2.0 - 0.5 + 0.5 * np.sqrt(beta * beta + 2.0 * beta - 3.0)
    worst = float(np.min(np.abs(xxx[side]) - rhs, initial=np.inf))
    passed = used > 0 and worst >= -CHECK_TOL
    return CheckResult("appendix-b-xxx-vs-beta", passed,
                       f"{used} violating-side samples, min margin {worst:.3e}")


# Appendix C's pairs (A, B), each of two anticommuting Pauli strings
_APPENDIX_C_PAIRS = (((X, X, X), (X, X, Y)), ((X, Y, Y), (X, Y, X)))


def check_appendix_c() -> CheckResult:
    """<XXX>^2+<XXY>^2 <= 1 and <XYY>^2+<XYX>^2 <= 1 on every 3-qubit state.

    Hermitian A, B with A^2 = B^2 = 1 and AB + BA = 0 make every
    A cos t + B sin t an involution, so <A> cos t + <B> sin t <= 1 for all t,
    and the maximum over t is sqrt(<A>^2 + <B>^2).  A's +1 eigenvector
    attains the bound 1."""
    devs, sums = [], []
    for ops in _APPENDIX_C_PAIRS:
        a, b = (kron_all(*m) for m in ops)
        one = np.eye(len(a))
        devs += [a - a.conj().T, b - b.conj().T, a @ a - one, b @ b - one, a @ b + b @ a]
        psi = np.linalg.eigh(a)[1][:, -1]
        sums.append(sum(np.vdot(psi, m @ psi).real ** 2 for m in (a, b)))
    worst = float(np.max(np.abs(devs)))  # a NaN fails the check
    passed = worst <= CHECK_TOL and all(abs(s - 1.0) <= CHECK_TOL for s in sums)
    return CheckResult("appendix-c-pair-correlators", passed,
                       f"max anticommutator/involution deviation {worst:.3e}, "
                       f"attained sums {sums[0]:.12f}, {sums[1]:.12f}")


def check_uncertainty(samples: int = 1_000, seed: int = 17) -> CheckResult:
    """H(Z|E) >= 1 - h((1+|<XXX>|)/2) on block-diagonal states: the first a
    tau(nu) state, where <XXX> = 2 nu - 1, H(Z|E) = 1 - h(nu) and the
    relation is tight, the rest random."""
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    rho, t = _block_draws(rng, samples)
    rho[..., :1], t[..., :1] = _tau_columns(rng.uniform(0.5, 1.0, 1))
    rho, t = _sorted_blocks(rho, t)
    lhs = cond_entropies(_block_matrices(rho, t), [0], Z[None])
    xxx = _block_correlators(rho, _trig(t, 0.0))[0]
    rhs = 1.0 - h((1.0 + np.abs(xxx)) / 2.0)
    worst = float(np.min(lhs - rhs))
    return CheckResult("uncertainty-relation", worst >= -CHECK_TOL,
                       f"min margin {worst:.3e}")


def check_quantum_bounds(samples: int = 500, seed: int = 19) -> CheckResult:
    """No state exceeds the quantum bound at the honest settings row and at
    samples random rows, and the honest row attains it.

    At fixed settings the largest Bell value over all states is lambda_max
    of the Bell operator.  One-sided except for the symmetric MABK and CHSH
    (-lambda_min too): the asymmetric functionals reach values below
    -quantum_bound already with classical strategies.
    """
    _require_samples(samples)
    rng = np.random.default_rng(seed)
    worst, gap = -np.inf, 0.0
    for name in ("holz", "parity-chsh", "mabk", "chsh"):
        spec = spec_by_name(name)
        rows = np.vstack([spec.angles, rng.uniform(0.0, 2.0 * np.pi, (samples, 2 * spec.parties))])
        op = sum(coef * ops for coef, ops in bell_terms(spec, rows, spec.plane))
        w = eig_hermitian(op)
        top = np.maximum(w[:, 0], -w[:, -1]) if name in ("mabk", "chsh") else w[:, 0]
        worst = max(worst, float(np.max(top)) - spec.quantum_bound)
        gap = max(gap, abs(float(top[0]) - spec.quantum_bound))
    return CheckResult("quantum-bound-sanity", worst <= CHECK_TOL and gap <= CHECK_TOL,
                       f"max overshoot {worst:.3e}, "
                       f"honest rows attain each bound within {gap:.3e}")


@dataclass
class TightnessReport:
    ineq: str
    nu: np.ndarray
    cond_entropy_err: np.ndarray
    bound_err: np.ndarray
    rows: list

    @property
    def passed(self) -> bool:
        return bool(np.max(self.cond_entropy_err) <= CHECK_TOL
                    and np.max(self.bound_err) <= CHECK_TOL)


def verify_tightness(ineq: str, nu_grid) -> TightnessReport:
    """Check that tau(nu) attains the one-outcome bound of the given
    inequality: H(Z|E) of tau(nu) and the analytic bound evaluated at the
    family's maximal violation must both equal 1 - h(nu)."""
    if ineq not in ("holz", "parity-chsh"):
        raise ValidationError("tightness families exist for holz and parity-chsh")
    curve = bound_curve(spec_by_name(ineq), "one")
    nus = np.asarray(list(nu_grid), dtype=float)
    if not nus.size:
        raise ValidationError("verify_tightness needs at least one nu")
    if not np.all((nus >= 0.5) & (nus <= 1.0)):
        raise ValidationError(f"nu outside [1/2, 1] in {nus!r}")
    expected = 1.0 - h(nus)
    ce = cond_entropies(_block_matrices(*_sorted_blocks(*_tau_columns(nus))), [0], Z[None])
    beta = (2.0 * nus + 1.0 / (2.0 * nus) - 1.0 if ineq == "holz"
            else np.hypot(2.0 * nus - 1.0, 1.0))  # the family's maximal violation
    bnd = curve.fn(beta)
    rows = [tuple(map(float, row)) for row in zip(nus, beta, ce, bnd, expected)]
    return TightnessReport(ineq, nus, np.abs(ce - expected), np.abs(bnd - expected), rows)


def check_tightness() -> CheckResult:
    nus = np.linspace(0.5, 1.0, 50)
    detail = []
    ok = True
    for ineq in ("holz", "parity-chsh"):
        rep = verify_tightness(ineq, nus)
        ok &= rep.passed
        detail.append(f"{ineq}: max entropy err {np.max(rep.cond_entropy_err):.2e}, "
                      f"max bound err {np.max(rep.bound_err):.2e}")
    return CheckResult("tau-family-tightness", ok, "; ".join(detail))


def check_bound_curves(grid: int = 200) -> list[CheckResult]:
    """Zero at the classical bound, the expected value at the quantum bound,
    monotone, and convex (second differences >= -1e-7) for every analytical
    curve of the registry."""
    if grid < 3:
        raise ValidationError(f"grid={grid!r}: second differences need at least 3 points")
    expected = [  # (spec, outcome, value at the quantum bound)
        (holz(), "one", 1.0),
        (holz(), "two", bounds.theta_at_optimum(1.5)),
        (parity_chsh(), "one", 1.0),
        (mabk(), "one", 1.0),
        (mabk(), "two", 2.0),
        (chsh(), "recycled", bounds.colbeck_g1(2.0 * SQRT2)),
    ] + [(asym_chsh(alpha), "one", 1.0) for alpha in (0.5, 1.0, 2.0)]
    out = []
    for spec, outcome, max_value in expected:
        curve = bound_curve(spec, outcome)
        lo, hi = curve.domain
        xs = np.linspace(lo, hi, grid)
        ys = curve.fn(xs)
        d2min = float(np.min(ys[:-2] - 2.0 * ys[1:-1] + ys[2:]))
        mono = bool(np.all(np.diff(ys) >= -1e-12))
        zero_ok = abs(ys[0]) <= 1e-9
        max_ok = abs(ys[-1] - max_value) <= 1e-9
        convex_ok = d2min >= -1e-7
        passed = mono and zero_ok and max_ok and convex_ok
        expected_failure = (not convex_ok) and mono and zero_ok and max_ok \
            and curve.name in KNOWN_NONCONVEX
        out.append(CheckResult(
            f"curve-shape:{curve.name}", passed,
            f"min 2nd-diff {d2min:.3e}, monotone {mono}, "
            f"f(lo)={ys[0]:.3e}, f(hi)={ys[-1]:.9f} (expect {max_value:.9f})",
            expected_failure=expected_failure))
    return out


def check_reduced_value_consistency() -> CheckResult:
    """holz_reduced_value agrees with the full Bell functional (100 draws)."""
    rng = np.random.default_rng(23)
    rho, t = _sorted_blocks(*_block_draws(rng, 100))
    b0, a1, cm = rng.uniform(0.0, 2.0 * np.pi, size=(100, 3)).T
    red = _block_reduced_value(rho, _trig(t, b0), a1, cm)
    full = bell_values(holz(), _block_matrices(rho, t), reduced_angles(b0, a1, cm))
    worst = float(np.max(np.abs(red - full), initial=0.0))
    return CheckResult("reduced-vs-full-holz", worst <= CHECK_TOL,
                       f"max |reduced - full| {worst:.3e}")


def run_all(samples: int = 10_000, seed: int = 11) -> list[CheckResult]:
    results = [
        check_appendix_b(samples, seed),
        check_appendix_c(),
        check_uncertainty(max(samples // 10, 100), seed + 4),
        check_quantum_bounds(max(samples // 20, 50), seed + 6),
        check_tightness(),
        check_reduced_value_consistency(),
    ]
    results.extend(check_bound_curves())
    return results
