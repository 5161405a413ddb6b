"""DICKA conference-key rates, DIRE net-randomness rates, QBER models,
threshold finding in the depolarization parameter p, and the registry that
picks the entropy bound curve for each inequality and outcome.

Rates are signed; a threshold is the sign change of the signed rate, found
to the last ulp by qmath.bracketed_root.  A grid of p is computed on stacks
of states (betas_of_p, rate_grid), or for asym-CHSH DICKA in one lockstep
alpha search (best_alpha_one_outcome), each value the one-point value bit
for bit.  The two-outcome bounds for Parity-CHSH and CHSH are numeric curves
produced by the optimizer, shipped as a monotone 200-point table and
linearly interpolated (regenerate via the CLI).
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

from . import bounds, optimize, qmath
from .bell import BellSpec, BellValue, _check_beta, bell_terms, spec_by_name
from .errors import ValidationError
from .qmath import binary_entropy as h
from .states import (NoiseModel, _check_noise_kind, _check_ps, _global_channel,
                     _local_channel, ghz_state)

__all__ = ["GAMMA_DEFAULT", "RateResult", "qber", "beta_of_p", "betas_of_p",
           "beta_of_p_closed_form", "TABLE_ENV", "NUMERIC_CURVES", "two_outcome_numeric",
           "generate_two_outcome_table", "BoundCurve", "bound_curve", "RATE_KINDS",
           "best_alpha_one_outcome", "rate", "rate_grid", "threshold_p", "rate_function"]

GAMMA_DEFAULT = 3.3e-4  # the 0.033% test-round fraction used in the figures
SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class RateResult:
    rate: float
    beta_at_p: float
    bound_used: str
    flags: tuple[str, ...] = ()  # the bound curve's flags


def qber(noise: NoiseModel) -> float:
    """Pairwise key-bit error rate Q of the honest strategy."""
    return _qber(noise.kind, noise.p)


def _qber(noise_kind: str, p: float) -> float:
    if noise_kind == "local":
        return (1.0 - p ** 2) / 2.0
    return (1.0 - p) / 2.0


@lru_cache(maxsize=64)  # asym-chsh specs carry an arbitrary alpha
def _honest_terms(spec: BellSpec) -> tuple[tuple[float, ...], np.ndarray]:
    """The Bell terms of spec's honest settings row: their coefficients, and
    their observable strings as one read-only (terms, 1, d, d) stack."""
    terms = bell_terms(spec, spec.angles, spec.plane)
    ops = np.stack([op for _, op in terms])[:, None]
    ops.setflags(write=False)
    return tuple(coef for coef, _ in terms), ops


@lru_cache(maxsize=4)
def _noiseless(parties: int) -> np.ndarray:
    """The read-only GHZ (or Bell) state of `parties` qubits."""
    rho = ghz_state(parties)
    rho.setflags(write=False)
    return rho


def _honest_betas(spec: BellSpec, noise_kind: str, p) -> np.ndarray:
    """The honest Bell values at a checked p, a float or an (n, 1, 1) column
    of them: shape (1,) or (n,).  Every p takes the same path, the noise
    channel, then Tr[rho O] per term, summed left to right, so a grid's
    values are the one-point values bit for bit."""
    rho = _noiseless(spec.parties)
    rho = (_local_channel(rho, p, spec.parties) if noise_kind == "local"
           else _global_channel(rho, p))
    coefs, ops = _honest_terms(spec)
    traces = (rho @ ops).trace(axis1=-2, axis2=-1)  # (terms, points)
    imag = np.abs(traces.imag).max(initial=0.0)
    if imag > 1e-10:
        raise ValidationError(f"correlator has imaginary part {imag:.3e}")
    total = None
    for coef, val in zip(coefs, traces.real):
        term = coef * val
        total = term if total is None else total + term
    return total


def beta_of_p(spec: BellSpec, noise: NoiseModel) -> float:
    """Bell value of the honest strategy: spec's settings row on the
    depolarized GHZ (or Bell) state; the one-point case of betas_of_p."""
    return BellValue(float(_honest_betas(spec, noise.kind, float(noise.p))[0]), spec).beta


def _checked_grid(noise_kind: str, ps) -> np.ndarray:
    """ps as a 1-d float array, each p in [0, 1], and a known noise kind."""
    ps = np.asarray(ps, dtype=float)
    if ps.ndim != 1:
        raise ValidationError(f"expected a 1-d grid of p, got shape {ps.shape}")
    _check_noise_kind(noise_kind)
    _check_ps(ps)
    return ps


# grid points per kernel call: the largest temporary, the three Pauli
# products of every state, stays at 98 KB (3 x 32 8x8 complex matrices)
_GRID_BLOCK = 32


def betas_of_p(spec: BellSpec, noise_kind: str, ps) -> np.ndarray:
    """beta_of_p at every p of the 1-d ps under one noise kind, computed on
    stacks of states; each value equals beta_of_p's bit for bit."""
    ps = _checked_grid(noise_kind, ps)
    if ps.size == 0:
        return np.empty(0)
    betas = np.concatenate([_honest_betas(spec, noise_kind, ps[i:i + _GRID_BLOCK, None, None])
                            for i in range(0, ps.size, _GRID_BLOCK)])
    _check_beta(float(betas.min()), float(betas.max()), spec)  # NaN propagates
    return betas


def beta_of_p_closed_form(spec: BellSpec, noise: NoiseModel) -> float:
    """Closed forms of the honest violations (cross-checked against beta_of_p)."""
    p = noise.p
    if noise.kind == "global":
        return spec.quantum_bound * p
    if spec.kind == "holz":
        return 0.75 * (p ** 3 + p ** 2)
    if spec.kind == "parity-chsh":
        return (p ** 3 + p ** 2) / SQRT2
    if spec.kind == "mabk":
        return 4.0 * p ** 3
    if spec.kind == "asym-chsh":
        return spec.quantum_bound * p ** 2
    raise ValidationError(f"no closed form for {spec.kind!r}")


# ---------------------------------------------------------------------------
# numeric two-outcome tables (Parity-CHSH and CHSH spot-checking curves)

TABLE_ENV = "TRIBELL_TABLES"
NUMERIC_CURVES = ("parity-chsh", "chsh")
_SPECS = {ineq: spec_by_name(ineq) for ineq in NUMERIC_CURVES}


@lru_cache(maxsize=1)
def _load_tables() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The numeric curves, ineq -> read-only (beta, value) knot arrays, from
    the file named by $TRIBELL_TABLES, else the shipped one; ValidationError
    names a file that is unusable."""
    path = os.environ.get(TABLE_ENV)
    source = Path(path) if path else \
        resources.files("tribell").joinpath("data/two_outcome_numeric.json")
    try:
        with source.open("r", encoding="utf-8") as fh:
            data = json.load(fh)
        tables = {}
        for ineq in NUMERIC_CURVES:
            spec = spec_by_name(ineq)
            beta = np.asarray(data["curves"][ineq]["beta"], dtype=float)
            value = np.asarray(data["curves"][ineq]["value"], dtype=float)
            if beta.ndim != 1 or beta.shape != value.shape:
                raise ValueError(f"{ineq}: 'beta' and 'value' differ in length")
            if beta.size < 2:
                raise ValueError(f"{ineq}: {beta.size} point(s), a table needs"
                                 " at least 2")
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
            beta.flags.writeable = value.flags.writeable = False
            tables[ineq] = beta, value
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(
            f"unusable table file {source}: {type(exc).__name__}: {exc}") from exc
    return tables


def two_outcome_numeric(ineq: str, beta):
    """Interpolated numeric H(A0 B0|E) lower curve for parity-chsh or chsh;
    its tables start at 0 at the classical bound."""
    if ineq not in NUMERIC_CURVES:
        raise ValidationError(f"no numeric two-outcome table for {ineq!r}")
    spec = _SPECS[ineq]

    @bounds._curve(spec.local_bound, spec.quantum_bound, repr(float(spec.quantum_bound)))
    def curve(beta):
        return np.interp(beta, *_load_tables()[ineq])

    return curve(beta)


def generate_two_outcome_table(ineq: str, points: int, restarts: int, seed: int) -> dict:
    """Regenerate one numeric curve with the optimizer, made monotone and
    pinned to 0 at the classical bound; the points above it are one batched
    `optimize.sweep_two_outcome` call, each the single solve at its beta."""
    if ineq not in NUMERIC_CURVES:
        raise ValidationError(f"no numeric two-outcome curve for {ineq!r}")
    if points < 2:
        raise ValidationError(f"a table needs at least 2 points, got {points}")
    spec = spec_by_name(ineq)
    grid = np.linspace(spec.local_bound, spec.quantum_bound, points)
    cfg = optimize.OptConfig(restarts=restarts, seed=seed)
    solved = optimize.sweep_two_outcome(ineq, grid[1:], cfg)
    values = np.maximum.accumulate([0.0] + [r.entropy for r in solved])
    return {"beta": grid.tolist(), "value": values.tolist(),
            "restarts": restarts, "seed": seed}


# ---------------------------------------------------------------------------
# the bound-curve registry

@dataclass(frozen=True)
class BoundCurve:
    """An entropy bound on `domain` = (local bound, quantum bound); `fn` is
    the curve function itself, which takes a float or an array of beta,
    rejects a non-finite beta or one above the domain and clamps beta to it."""

    name: str
    fn: Callable
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
    name, fn, flags = curves[key]
    return BoundCurve(name, fn, (spec.local_bound, spec.quantum_bound), flags)


# ---------------------------------------------------------------------------
# rates

RATE_KINDS = ("dicka", "dire-spot", "dire-recycled")


def best_alpha_one_outcome(noise_kind: str, ps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, bound, beta) arrays maximizing the asym-CHSH one-outcome bound
    at each p of the 1-d ps, at the honest violation 2 sqrt(1 + alpha^2) p
    (global) or p^2 (local): one best_alpha_bound search for the grid."""
    ps = _checked_grid(noise_kind, ps)
    # C pow, as p ** 2 on a float; ps * ps differs from it in the last bit at some p
    scale = ps if noise_kind == "global" else np.float_power(ps, 2.0)
    alpha, bound = bounds.best_alpha_bound(scale)
    return alpha, bound, 2.0 * np.hypot(1.0, alpha) * scale


def _rate_curve(kind: str, spec: BellSpec, gamma: float) -> BoundCurve | None:
    """Check a rate's kind, inequality and gamma in [0, 1] (dire-spot's test
    fraction, checked for every kind), and return the bound curve it reads:
    None for asym-CHSH DICKA, which maximizes its bound over alpha at each p."""
    if not 0.0 <= gamma <= 1.0:
        raise ValidationError(f"gamma={gamma!r} outside [0, 1]")
    if kind == "dicka":
        if spec.kind == "mabk":
            raise ValidationError(
                "MABK cannot be used in a DICKA protocol (no shared key-generation"
                " measurement achieves large violations)")
        if spec.kind != "asym-chsh":
            return bound_curve(spec, "one")
        if abs(spec.alpha - 1.0) > 1e-12:
            raise ValidationError(
                "DICKA maximizes the asym-chsh bound over alpha; alpha must be 1")
        return None
    if kind == "dire-spot":
        return bound_curve(spec, "two")
    if kind == "dire-recycled":
        return bound_curve(spec, "recycled")
    raise ValidationError(f"unknown rate kind {kind!r}")


def rate(kind: str, spec: BellSpec, noise: NoiseModel,
         gamma: float = GAMMA_DEFAULT) -> RateResult:
    """The rate of one of RATE_KINDS at noise, the one-point case of
    rate_grid; gamma in [0, 1] is dire-spot's test fraction, and is
    range-checked for every kind."""
    return rate_grid(kind, spec, noise.kind, [noise.p], gamma)[0]


def rate_grid(kind: str, spec: BellSpec, noise_kind: str, ps,
              gamma: float = GAMMA_DEFAULT) -> list[RateResult]:
    """rate at every p of the 1-d ps under one noise kind, from one betas_of_p
    and one curve.fn call: DICKA is the one-outcome bound minus h(Q);
    DIRE-spot the two-outcome bound minus the test cost r*gamma + h(gamma);
    DIRE-recycled the recycled-input bound.  asym-CHSH DICKA instead takes
    its bound maximized over alpha at every p, from one best_alpha_one_outcome
    call, and runs two concatenated two-party protocols, so its rate carries
    a factor 1/2."""
    curve = _rate_curve(kind, spec, gamma)
    if curve is None:
        alpha, bound, betas = best_alpha_one_outcome(noise_kind, ps)
        values = 0.5 * (bound - h([_qber(noise_kind, p) for p in ps]))
        return [RateResult(value, beta, f"asym-chsh-one(alpha={a:.9g})")
                for value, beta, a in zip(values.tolist(), betas.tolist(), alpha.tolist())]
    betas = betas_of_p(spec, noise_kind, ps)
    values = curve.fn(betas)
    if kind == "dicka":
        values = values - h([_qber(noise_kind, p) for p in ps])
    elif kind == "dire-spot":
        values = values - spec.input_bits * gamma - h(gamma)
    return [RateResult(value, beta, curve.name, curve.flags)
            for value, beta in zip(values.tolist(), betas.tolist())]


def threshold_p(rate_fn) -> float:
    """Smallest p evaluated in [0, 1] whose signed rate is positive, one ulp
    above the largest p evaluated whose rate is not; NumericError unless
    rate_fn(0) <= 0 < rate_fn(1)."""
    return qmath.bracketed_root(rate_fn, 0.0, 1.0)


def rate_function(kind: str, ineq: str, noise_kind: str, gamma: float = 0.0):
    """p -> signed rate closure for threshold finding and sweeps."""
    spec = spec_by_name(ineq)
    return lambda p: rate(kind, spec, NoiseModel(noise_kind, p), gamma).rate
