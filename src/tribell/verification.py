"""Property suites behind the CLI `verify` command: sampled operator
inequalities, tightness sweeps, and bound-curve shape checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .bell import (asym_chsh, bell_value, chsh, holz, holz_reduced_value, mabk,
                   parity_chsh, spec_by_name)
from .centropy import cond_entropy
from .optimize import verify_tightness
from .qmath import binary_entropy as h
from .rates import bound_curve
from .states import BlockDiagState, Z, _block_correlators, settings_from_angles

SQRT2 = np.sqrt(2.0)

# the analytic MABK two-outcome bound is genuinely concave in a small window
# above its classical bound; its convexity check is reported but expected to fail
KNOWN_NONCONVEX = ("mabk-two",)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    expected_failure: bool = False

    @property
    def ok(self) -> bool:
        return self.passed or self.expected_failure


def random_block_states(count: int, seed: int):
    """Deterministic mix of broad and near-pure GHZ-block-diagonal states."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        conc = 0.35 if i % 2 == 0 else 1.0
        rho = rng.dirichlet([conc] * 8).reshape(2, 2, 2)
        t = rng.uniform(-np.pi / 2, np.pi / 2, size=(2, 2))
        out.append(BlockDiagState(rho, t))
    return out


def random_density_matrices(count: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    rho = g @ g.conj().transpose(0, 2, 1)
    tr = np.trace(rho, axis1=1, axis2=2).real
    return rho / tr[:, None, None]


def check_appendix_b(samples: int = 10_000, seed: int = 11,
                     tol: float = 1e-9) -> CheckResult:
    """|<XXX>| >= beta/2 - 1/2 + sqrt(beta^2 + 2 beta - 3)/2 whenever the
    reduced Holz value beta exceeds 1.

    Half the draws are fully random block states and angles; the other half
    are jittered near-optimal configurations so that the violating side
    (beta > 1, where the inequality is nontrivial) is well sampled.
    """
    rng = np.random.default_rng(seed)
    rhos, ts = np.empty((samples, 2, 2, 2)), np.empty((samples, 2, 2))
    angles = np.empty((3, samples))
    for i in range(samples):
        if i % 2 == 0:
            conc = 0.35 if i % 4 == 0 else 1.0
            rho = rng.dirichlet([conc] * 8).reshape(2, 2, 2)
            t = rng.uniform(-np.pi / 2, np.pi / 2, size=(2, 2))
            a1, bm, cm = rng.uniform(0.0, 2.0 * np.pi, size=3)
        else:
            # tau-like state plus noise, angles jittered around its optimum
            nu = rng.uniform(0.5, 1.0)
            eps = rng.uniform(0.0, 0.15)
            rho = np.full((2, 2, 2), eps / 8.0)
            rho[0, 0, 0] += (1.0 - eps) * nu
            rho[0, 1, 1] += (1.0 - eps) * (1.0 - nu)
            rho = rho / rho.sum()
            t = rng.normal(0.0, 0.15, size=(2, 2))
            t[1, 1] += np.pi / 2
            a1 = np.pi / 2 + rng.normal(0.0, 0.3)
            bm = np.arctan2(1.0, np.sqrt(max(4 * nu * nu - 1.0, 1e-12))) \
                + rng.normal(0.0, 0.3)
            cm = np.arcsin(min(1.0 / (2 * nu), 1.0)) + rng.normal(0.0, 0.3)
        st = BlockDiagState(rho, t)
        rhos[i], ts[i], angles[:, i] = st.rho, st.t, (a1, bm, cm)
    xxx, zxx, zzi, ziz, izz = _block_correlators(rhos, ts)
    a1, bm, cm = angles
    beta = ((np.cos(a1) * zxx + np.sin(a1) * xxx) * np.cos(bm) * np.cos(cm)
            + np.sin(bm) * zzi + np.sin(cm) * ziz - np.sin(bm) * np.sin(cm) * izz)
    side = beta > 1.0
    used = int(np.count_nonzero(side))
    beta = beta[side]
    rhs = beta / 2.0 - 0.5 + 0.5 * np.sqrt(beta * beta + 2.0 * beta - 3.0)
    worst = float(np.min(np.abs(xxx[side]) - rhs, initial=np.inf))
    passed = used > 0 and worst >= -tol
    return CheckResult("appendix-b-xxx-vs-beta", passed,
                       f"{used} violating-side samples, min margin {worst:.3e}")


def check_appendix_c(samples: int = 10_000, seed: int = 13,
                     tol: float = 1e-9) -> CheckResult:
    """<XXX>^2+<XXY>^2 <= 1 and <XYY>^2+<XYX>^2 <= 1 on random 3-qubit states."""
    from .qmath import kron_all
    from .states import X, Y

    rho = random_density_matrices(samples, 8, seed)
    ops = [kron_all(X, X, X), kron_all(X, X, Y), kron_all(X, Y, Y), kron_all(X, Y, X)]
    vals = [np.einsum("sij,ji->s", rho, op).real for op in ops]
    m1 = np.max(vals[0] ** 2 + vals[1] ** 2)
    m2 = np.max(vals[2] ** 2 + vals[3] ** 2)
    passed = m1 <= 1.0 + tol and m2 <= 1.0 + tol
    return CheckResult("appendix-c-pair-correlators", passed,
                       f"max sums {m1:.12f}, {m2:.12f}")


def check_uncertainty(samples: int = 1_000, seed: int = 17,
                      tol: float = 1e-9) -> CheckResult:
    """H(Z|E) >= 1 - h((1+|<XXX>|)/2) on random block-diagonal states."""
    states = random_block_states(samples, seed)
    lhs = np.array([cond_entropy(st.to_matrix(), [0], [Z]) for st in states])
    xxx = _block_correlators(np.array([st.rho for st in states]),
                             np.array([st.t for st in states]))[0]
    rhs = np.array([1.0 - h((1.0 + abs(x)) / 2.0) for x in xxx])
    worst = float(np.min(lhs - rhs))
    return CheckResult("uncertainty-relation", worst >= -tol,
                       f"min margin {worst:.3e}")


def check_quantum_bounds(samples: int = 500, seed: int = 19,
                         tol: float = 1e-9) -> CheckResult:
    """beta never exceeds the quantum bound on random states and settings.

    One-sided: the asymmetric functionals reach values below -quantum_bound
    already with classical strategies, so only the upper bound is universal.
    """
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for offset, name in enumerate(("holz", "parity-chsh", "mabk", "chsh")):
        spec = spec_by_name(name)
        dim = 2 ** spec.parties
        rhos = random_density_matrices(samples, dim, seed + 100 + offset)
        symmetric = name in ("mabk", "chsh")
        for rho in rhos:
            angles = rng.uniform(0.0, 2.0 * np.pi, size=6)
            plane = "xy" if name == "mabk" else "xz"
            if spec.parties == 3:
                st = settings_from_angles(*angles, plane=plane)
            else:
                st = settings_from_angles(*angles[:4], plane=plane)
            beta = bell_value(spec, rho, st).beta
            top = abs(beta) if symmetric else beta
            worst = max(worst, top - spec.quantum_bound)
    return CheckResult("quantum-bound-sanity", worst <= tol,
                       f"max overshoot {worst:.3e}")


def check_tightness(points: int = 50, tol: float = 1e-9) -> CheckResult:
    nus = np.linspace(0.5, 1.0, points)
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
        ys = np.array([curve.fn(x) for x in xs])
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


def check_reduced_value_consistency(samples: int = 100, seed: int = 23,
                                    tol: float = 1e-9) -> CheckResult:
    """holz_reduced_value agrees with the full Bell functional."""
    from .bell import reduced_settings

    rng = np.random.default_rng(seed)
    states = random_block_states(samples, seed)
    spec = spec_by_name("holz")
    worst = 0.0
    for st in states:
        b0, a1, cm = rng.uniform(0.0, 2.0 * np.pi, size=3)
        red = holz_reduced_value(st, b0, a1, cm)
        full = bell_value(spec, st.to_matrix(), reduced_settings(b0, a1, cm)).beta
        worst = max(worst, abs(red - full))
    return CheckResult("reduced-vs-full-holz", worst <= tol,
                       f"max |reduced - full| {worst:.3e}")


def run_all(samples: int = 10_000, seed: int = 11) -> list[CheckResult]:
    results = [
        check_appendix_b(samples, seed),
        check_appendix_c(samples, seed + 2),
        check_uncertainty(max(samples // 10, 100), seed + 4),
        check_quantum_bounds(max(samples // 20, 50), seed + 6),
        check_tightness(),
        check_reduced_value_consistency(),
    ]
    results.extend(check_bound_curves())
    return results
