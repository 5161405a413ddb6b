"""DICKA conference-key rates, DIRE net-randomness rates, QBER models,
threshold finding in the depolarization parameter p, and the registry that
picks the entropy bound curve for each inequality and outcome.

Rates are signed; thresholds are located by bisecting the signed rate.  The
two-outcome bounds for Parity-CHSH and CHSH are numeric curves produced by
the optimizer, shipped as a monotone 200-point table and linearly
interpolated (regenerate via the CLI).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources
from pathlib import Path
from typing import Callable

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
    flags: tuple[str, ...] = ()  # the bound curve's flags

    @property
    def conjectured(self) -> bool:
        return "conjectured" in self.flags


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
NUMERIC_CURVES = ("parity-chsh", "chsh")


@lru_cache(maxsize=1)
def _load_tables() -> dict:
    """The numeric curves from the file named by $TRIBELL_TABLES, else the
    shipped one; ValidationError names a file that is unusable."""
    path = os.environ.get(TABLE_ENV)
    source = Path(path) if path else \
        resources.files("tribell").joinpath("data/two_outcome_numeric.json")
    try:
        with source.open("r", encoding="utf-8") as fh:
            data = json.load(fh)
        for ineq in NUMERIC_CURVES:
            spec = spec_by_name(ineq)
            beta = np.asarray(data["curves"][ineq]["beta"], dtype=float)
            value = np.asarray(data["curves"][ineq]["value"], dtype=float)
            if beta.ndim != 1 or beta.shape != value.shape or beta.size < 2:
                raise ValueError(f"{ineq}: 'beta' and 'value' differ in length")
            if not np.all(np.diff(beta) > 0.0):
                raise ValueError(f"{ineq}: beta is not strictly increasing")
            if max(abs(beta[0] - spec.local_bound),
                   abs(beta[-1] - spec.quantum_bound)) > 1e-12:
                raise ValueError(f"{ineq}: beta must run from {spec.local_bound:g}"
                                 f" to {spec.quantum_bound:.17g}")
            if value[0] != 0.0:
                raise ValueError(f"{ineq}: first value {value[0]:g} is not 0")
            if not (np.all((value >= 0.0) & (value <= 2.0))
                    and np.all(np.diff(value) >= 0.0)):
                raise ValueError(f"{ineq}: values leave [0, 2] or decrease")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(
            f"unusable table file {source}: {type(exc).__name__}: {exc}") from exc
    return data


def two_outcome_numeric(ineq: str, beta: float) -> float:
    """Interpolated numeric H(A0 B0|E) lower curve for parity-chsh or chsh."""
    if ineq not in NUMERIC_CURVES:
        raise ValidationError(f"no numeric two-outcome table for {ineq!r}")
    qb = spec_by_name(ineq).quantum_bound
    bounds._check_beta(beta, qb, repr(float(qb)))
    tab = _load_tables()["curves"][ineq]
    # 0 below the classical bound: the tables start at 0 there
    return float(np.interp(beta, tab["beta"], tab["value"]))


def generate_two_outcome_table(ineq: str, points: int = 200,
                               restarts: int = 16, seed: int = 7) -> dict:
    """Regenerate one numeric curve with the optimizer (descending beta with
    warm starts), made monotone and pinned to 0 at the classical bound."""
    from . import optimize

    if ineq not in NUMERIC_CURVES:
        raise ValidationError(f"no numeric two-outcome curve for {ineq!r}")
    spec = spec_by_name(ineq)
    minimizer = optimize.MINIMIZERS[ineq]
    grid = np.linspace(spec.local_bound, spec.quantum_bound, points)
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
# the bound-curve registry

@dataclass(frozen=True)
class BoundCurve:
    """An entropy bound on `domain` = (local bound, quantum bound); `fn`
    rejects a non-finite beta or one above the domain and clamps beta to it."""

    name: str
    fn: Callable[[float], float]
    domain: tuple[float, float]
    flags: tuple[str, ...] = ()


def bound_curve(spec: BellSpec, outcome: str) -> BoundCurve:
    """The entropy bound of an inequality for one outcome: "one" bounds
    H(A0|E) (DICKA), "two" H(A0 B0|E) (spot-checking DIRE) and "recycled"
    H(AB|XYE) (the recycled-input CHSH protocol)."""
    alpha = spec.alpha
    curves = {
        ("holz", "one"): ("holz-one", bounds.holz_one_outcome, ()),
        ("holz", "two"): ("holz-two", bounds.holz_two_outcome, ("conjectured",)),
        ("parity-chsh", "one"): ("parity-chsh-one",
                                 bounds.parity_chsh_one_outcome, ()),
        ("parity-chsh", "two"): ("numeric:parity-chsh-two",
                                 partial(two_outcome_numeric, "parity-chsh"),
                                 ("non-certified",)),
        ("mabk", "one"): ("mabk-one", bounds.mabk_one_outcome, ()),
        ("mabk", "two"): ("mabk-two", bounds.mabk_two_outcome, ()),
        ("asym-chsh", "one"): (f"asym-chsh-one(alpha={alpha!r})",
                               partial(bounds.asym_chsh_one_outcome, alpha=alpha),
                               ()),
    }
    if spec.kind == "asym-chsh" and abs(alpha - 1.0) <= 1e-12:  # CHSH
        curves[("asym-chsh", "two")] = ("numeric:chsh-two",
                                        partial(two_outcome_numeric, "chsh"),
                                        ("non-certified",))
        curves[("asym-chsh", "recycled")] = ("colbeck-recycled",
                                             bounds.colbeck_recycled_two_outcome,
                                             ("conjectured",))
    key = (spec.kind, outcome)
    if key not in curves:
        raise ValidationError(f"no {outcome!r} bound for {spec.kind}, alpha={alpha!r}"
                              " (the recycled-input bound exists only for chsh, the"
                              " asym-chsh two-outcome curve only for alpha=1)")
    name, raw, flags = curves[key]
    lo, qb = spec.local_bound, spec.quantum_bound

    def fn(beta: float) -> float:
        bounds._check_beta(beta, qb, repr(float(qb)))
        return raw(min(beta, qb))

    return BoundCurve(name, fn, (lo, qb), flags)


# ---------------------------------------------------------------------------
# rates

RATE_KINDS = ("dicka", "dire-spot", "dire-recycled")


def best_alpha_one_outcome(noise: NoiseModel) -> tuple[float, float, float]:
    """(alpha, bound, beta) maximizing the asym-CHSH one-outcome bound at the
    honest violation 2 sqrt(1 + alpha^2) p (global) or p^2 (local)."""
    scale = noise.p if noise.kind == "global" else noise.p ** 2

    def beta_fn(alpha):
        return 2.0 * np.hypot(1.0, alpha) * scale

    alpha, bound = bounds.best_alpha_bound(beta_fn)
    return alpha, bound, beta_fn(alpha)


def dicka_rate(spec: BellSpec, noise: NoiseModel) -> RateResult:
    """Asymptotic conference key rate: one-outcome bound minus h(Q).

    The asym-CHSH path runs two concatenated two-party protocols, so its rate
    carries a factor 1/2 and the bound is maximized over alpha at each p.
    """
    if spec.kind == "mabk":
        raise ValidationError(
            "MABK cannot be used in a DICKA protocol (no shared key-generation"
            " measurement achieves large violations)")
    q = qber(noise)
    if spec.kind == "asym-chsh":
        if abs(spec.alpha - 1.0) > 1e-12:
            raise ValidationError(
                "DICKA maximizes the asym-chsh bound over alpha; alpha must be 1")
        alpha, bound, beta = best_alpha_one_outcome(noise)
        return RateResult(0.5 * (bound - h(q)), beta,
                          f"asym-chsh-one(alpha={alpha:.9g})")
    curve = bound_curve(spec, "one")
    beta = beta_of_p(spec, noise)
    return RateResult(curve.fn(beta) - h(q), beta, curve.name, curve.flags)


def dire_rate_spot(spec: BellSpec, noise: NoiseModel,
                   gamma: float = GAMMA_DEFAULT) -> RateResult:
    """Spot-checking net randomness rate: H2(beta(p)) - r*gamma - h(gamma)."""
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma={gamma!r} outside [0, 1]")
    curve = bound_curve(spec, "two")
    beta = beta_of_p(spec, noise)
    rate = curve.fn(beta) - spec.input_bits * gamma - h(gamma)
    return RateResult(rate, beta, curve.name, curve.flags)


def dire_rate_recycled(noise: NoiseModel) -> RateResult:
    """Recycled-input CHSH protocol: the conjectured H(AB|XYE) bound, no test
    cost."""
    spec = spec_by_name("chsh")
    curve = bound_curve(spec, "recycled")
    beta = beta_of_p(spec, noise)
    return RateResult(curve.fn(beta), beta, curve.name, curve.flags)


def rate(kind: str, spec: BellSpec, noise: NoiseModel,
         gamma: float = GAMMA_DEFAULT) -> RateResult:
    """The rate of one of RATE_KINDS; gamma is dire-spot's test fraction."""
    if kind == "dicka":
        return dicka_rate(spec, noise)
    if kind == "dire-spot":
        return dire_rate_spot(spec, noise, gamma)
    if kind == "dire-recycled":
        return dire_rate_recycled(noise)
    raise ValidationError(f"unknown rate kind {kind!r}")


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
    return lambda p: rate(kind, spec, NoiseModel(noise_kind, p), gamma).rate
