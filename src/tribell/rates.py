"""DICKA conference-key rates, DIRE net-randomness rates, QBER models, and
threshold finding in the depolarization parameter p.

Rates are signed; thresholds are located by bisecting the signed rate.  The
two-outcome bounds for Parity-CHSH and CHSH are numeric curves produced by
the optimizer, shipped as a monotone 200-point table and linearly
interpolated (regenerate via the CLI).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from . import bounds
from .bell import BellSpec, bell_value, spec_by_name
from .errors import NumericError, ValidationError
from .qmath import binary_entropy as h
from .states import NoiseModel, ghz_state, optimal_settings

GAMMA_DEFAULT = 3.3e-4  # the 0.033% test-round fraction used in the figures
SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class RateResult:
    rate: float
    beta_at_p: float
    bound_used: str
    conjectured: bool = False

    @property
    def flags(self) -> tuple[str, ...]:
        out = []
        if self.conjectured:
            out.append("conjectured")
        if self.bound_used.startswith("numeric"):
            out.append("non-certified")
        return tuple(out)


def qber(noise: NoiseModel) -> float:
    """Pairwise key-bit error rate Q of the honest strategy."""
    if noise.kind == "local":
        return (1.0 - noise.p ** 2) / 2.0
    return (1.0 - noise.p) / 2.0


def qber_from_state(noise: NoiseModel, parties: int = 3) -> float:
    """Q computed from first principles: the Z(x)Z disagreement probability of
    the first two parties on the depolarized GHZ/Bell state."""
    rho = noise.apply(ghz_state(parties), parties)
    from .states import Z

    obs = [Z, Z] + [None] * (parties - 2)
    from .bell import correlator

    return (1.0 - correlator(rho, obs)) / 2.0


def _noisy_state(spec: BellSpec, noise: NoiseModel):
    return noise.apply(ghz_state(spec.parties), spec.parties)


def beta_of_p(spec: BellSpec, noise: NoiseModel) -> float:
    """Bell value of the honest strategy: optimal settings on the depolarized
    GHZ (or Bell) state."""
    return bell_value(spec, _noisy_state(spec, noise), optimal_settings(spec)).beta


def beta_of_p_closed_form(spec: BellSpec, noise: NoiseModel) -> float:
    """Closed forms of the honest violations (cross-checked against beta_of_p)."""
    p = noise.p
    glob = noise.kind == "global"
    if spec.kind == "holz":
        return 1.5 * p if glob else 0.75 * (p ** 3 + p ** 2)
    if spec.kind == "parity-chsh":
        return SQRT2 * p if glob else (p ** 3 + p ** 2) / SQRT2
    if spec.kind == "mabk":
        return 4.0 * p if glob else 4.0 * p ** 3
    if spec.kind == "asym-chsh":
        qb = 2.0 * np.hypot(1.0, spec.alpha)
        return qb * p if glob else qb * p ** 2
    raise ValidationError(f"unknown inequality {spec.kind!r}")


# ---------------------------------------------------------------------------
# numeric two-outcome tables (Parity-CHSH and CHSH spot-checking curves)

TABLE_ENV = "TRIBELL_TABLES"


@lru_cache(maxsize=1)
def _load_tables() -> dict:
    path = os.environ.get(TABLE_ENV)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    ref = resources.files("tribell").joinpath("data/two_outcome_numeric.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def two_outcome_numeric(ineq: str, beta: float) -> float:
    """Interpolated numeric H(A0 B0|E) lower curve for parity-chsh or chsh."""
    tables = _load_tables()["curves"]
    if ineq not in tables:
        raise ValidationError(f"no numeric two-outcome table for {ineq!r}")
    tab = tables[ineq]
    grid = np.asarray(tab["beta"], dtype=float)
    vals = np.asarray(tab["value"], dtype=float)
    if beta <= grid[0]:
        return 0.0
    return float(np.interp(beta, grid, vals))


def generate_two_outcome_table(ineq: str, points: int = 200,
                               restarts: int = 16, seed: int = 7) -> dict:
    """Regenerate one numeric curve with the optimizer (descending beta with
    warm starts), made monotone and pinned to 0 at the classical bound."""
    from . import optimize

    if ineq == "parity-chsh":
        lo, hi, minimizer = 1.0, SQRT2, optimize.minimize_parity_two_outcome
    elif ineq == "chsh":
        lo, hi, minimizer = 2.0, 2.0 * SQRT2, optimize.minimize_chsh_two_outcome
    else:
        raise ValidationError(f"no numeric two-outcome curve for {ineq!r}")
    grid = np.linspace(lo, hi, points)
    cfg = optimize.OptConfig(restarts=restarts, seed=seed)
    values = np.zeros(points)
    warm = None
    for i in range(points - 1, 0, -1):
        res = minimizer(float(grid[i]), cfg, warm_starts=warm)
        values[i] = res.entropy
        warm = [res]
    values = np.maximum.accumulate(values)
    values[0] = 0.0
    return {"beta": grid.tolist(), "value": values.tolist(),
            "restarts": restarts, "seed": seed}


# ---------------------------------------------------------------------------
# rates

def dicka_rate(spec: BellSpec, noise: NoiseModel) -> RateResult:
    """Asymptotic conference key rate: one-outcome bound minus h(Q).

    The asym-CHSH path runs two concatenated two-party protocols, so its rate
    carries a factor 1/2 and the bound is maximized over alpha at each p.
    """
    q = qber(noise)
    if spec.kind == "holz":
        beta = min(beta_of_p(spec, noise), 1.5)
        return RateResult(bounds.holz_one_outcome(beta) - h(q), beta, "holz-one")
    if spec.kind == "parity-chsh":
        beta = min(beta_of_p(spec, noise), SQRT2)
        return RateResult(bounds.parity_chsh_one_outcome(beta) - h(q), beta,
                          "parity-chsh-one")
    if spec.kind == "asym-chsh":
        if abs(spec.alpha - 1.0) > 1e-12:
            raise ValidationError(
                "DICKA maximizes the asym-chsh bound over alpha; alpha must be 1")
        scale = noise.p if noise.kind == "global" else noise.p ** 2

        def beta_fn(alpha):
            return 2.0 * np.hypot(1.0, alpha) * scale

        alpha, bound = bounds.best_alpha_bound(beta_fn)
        return RateResult(0.5 * (bound - h(q)), beta_fn(alpha),
                          f"asym-chsh-one(alpha={alpha:.9g})")
    if spec.kind == "mabk":
        raise ValidationError(
            "MABK cannot be used in a DICKA protocol (no shared key-generation"
            " measurement achieves large violations)")
    raise ValidationError(f"unknown inequality {spec.kind!r}")


def _two_outcome_bound(spec: BellSpec, beta: float) -> tuple[float, str, bool]:
    if spec.kind == "mabk":
        return bounds.mabk_two_outcome(min(beta, 4.0)), "mabk-two", False
    if spec.kind == "holz":
        return bounds.holz_two_outcome(min(beta, 1.5)), "holz-two", True
    if spec.kind == "parity-chsh":
        return two_outcome_numeric("parity-chsh", min(beta, SQRT2)), \
            "numeric:parity-chsh-two", False
    if spec.kind == "asym-chsh":
        if abs(spec.alpha - 1.0) > 1e-12:
            raise ValidationError("two-outcome DIRE curves exist only for alpha=1")
        return two_outcome_numeric("chsh", min(beta, 2.0 * SQRT2)), \
            "numeric:chsh-two", False
    raise ValidationError(f"unknown inequality {spec.kind!r}")


def dire_rate_spot(spec: BellSpec, noise: NoiseModel,
                   gamma: float = GAMMA_DEFAULT) -> RateResult:
    """Spot-checking net randomness rate: H2(beta(p)) - r*gamma - h(gamma)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma={gamma!r} outside [0, 1]")
    beta = beta_of_p(spec, noise)
    bound, used, conjectured = _two_outcome_bound(spec, beta)
    rate = bound - spec.input_bits * gamma - h(gamma)
    return RateResult(rate, beta, used, conjectured)


def dire_rate_recycled(noise: NoiseModel) -> RateResult:
    """Recycled-input CHSH protocol: the conjectured H(AB|XYE) bound, no test
    cost."""
    spec = spec_by_name("chsh")
    beta = min(beta_of_p(spec, noise), 2.0 * SQRT2)
    return RateResult(bounds.colbeck_recycled_two_outcome(beta), beta,
                      "colbeck-recycled", conjectured=True)


def threshold_p(rate_fn, bracket: tuple[float, float] = (0.0, 1.0),
                tol: float = 1e-6) -> float:
    """Smallest p in the bracket where the signed rate turns positive."""
    lo, hi = bracket
    r_lo, r_hi = rate_fn(lo), rate_fn(hi)
    if not (r_lo <= 0.0 < r_hi):
        raise NumericError(
            f"rate does not change sign on [{lo}, {hi}]: "
            f"rate({lo})={r_lo:.6g}, rate({hi})={r_hi:.6g}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if rate_fn(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rate_function(kind: str, ineq: str, noise_kind: str,
                  gamma: float = 0.0, alpha: float = 1.0):
    """p -> signed rate closure for threshold finding and sweeps."""
    spec = spec_by_name(ineq, alpha)

    def fn(p: float) -> float:
        noise = NoiseModel(noise_kind, p)
        if kind == "dicka":
            return dicka_rate(spec, noise).rate
        if kind == "dire-spot":
            return dire_rate_spot(spec, noise, gamma).rate
        if kind == "dire-recycled":
            return dire_rate_recycled(noise).rate
        raise ValidationError(f"unknown rate kind {kind!r}")

    return fn
