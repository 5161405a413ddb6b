"""DICKA conference-key rates, DIRE net-randomness rates, QBER models,
threshold finding in the depolarization parameter p, and the registry that
picks the entropy bound curve for each inequality and outcome.

Rates are signed; a threshold is the sign change of the signed rate, found
to the last ulp: by one qmath.bracketed_roots (ITP) lane for a DICKA rate,
which is smooth across its threshold, its two ends one rate_grid call; by
qmath.grid_sign_change, 16 p per rate_grid call, for a DIRE rate, which is
flat below its threshold (its bound is 0 there), where ITP can only
bisect, and whose 16 points on stacks of states cost about as much as two
single ones; asym-CHSH DICKA's two thresholds come from one root in the
honest correlator s, kept for the process.  Every function of p takes
(noise_kind, p); a grid of p is computed on stacks of states (betas_of_p,
rate_grid; the honest Bell values are bell's one sum over the honest
row's cached terms), or for asym-CHSH DICKA in one lockstep alpha search
(best_alpha_one_outcome), each value the one-point value bit for bit.
The two-outcome bounds for Parity-CHSH and CHSH are numeric curves
produced by the optimizer, shipped as a monotone 200-point table and
linearly interpolated (regenerate via the CLI).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from . import bounds, optimize, qmath
from .bell import BellSpec, _bell_sum, _check_beta, asym_chsh, bell_terms, spec_by_name
from .errors import NumericError, ValidationError
from .qmath import binary_entropy as h
from .states import _check_ps, _global_channel, _local_channel, ghz_state

__all__ = ["GAMMA_DEFAULT", "RateResult", "qber", "betas_of_p", "beta_of_p_closed_form",
           "TABLE_ENV", "NUMERIC_CURVES", "two_outcome_numeric", "generate_two_outcome_table",
           "BoundCurve", "bound_curve", "RATE_KINDS", "best_alpha_one_outcome", "rate_curve",
           "rate_grid", "threshold_p"]

GAMMA_DEFAULT = 3.3e-4  # the 0.033% test-round fraction used in the figures
SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class RateResult:
    rate: float
    beta_at_p: float
    bound_used: str
    flags: tuple[str, ...] = ()  # the bound curve's flags


@lru_cache(maxsize=64)  # asym-chsh specs carry an arbitrary alpha
def _honest_terms(spec: BellSpec) -> tuple[tuple[float, ...], np.ndarray]:
    """The Bell terms of spec's honest settings row: their coefficients, and
    their observable strings as one read-only (terms, 1, d, d) stack."""
    coefs, ops = zip(*bell_terms(spec, np.array(spec.angles)[None], spec.plane))
    ops = np.stack(ops)
    ops.setflags(write=False)
    return coefs, ops


@lru_cache(maxsize=4)
def _noiseless(parties: int) -> np.ndarray:
    """The read-only GHZ (or Bell) state of `parties` qubits."""
    rho = ghz_state(parties)
    rho.setflags(write=False)
    return rho


def _honest_betas(spec: BellSpec, noise_kind: str, p) -> np.ndarray:
    """The honest Bell values, shape (n,), at an (n, 1, 1) column of checked
    p.  Every p takes the same path, the noise channel, then bell's sum of
    the terms: a grid's values are the one-point values, bit for bit."""
    rho = _noiseless(spec.parties)
    rho = (_local_channel(rho, p, spec.parties) if noise_kind == "local"
           else _global_channel(rho, p))
    return _bell_sum(rho, *_honest_terms(spec))


def _checked_grid(noise_kind: str, ps) -> np.ndarray:
    """ps as a 1-d float array, each p in [0, 1], and a known noise kind."""
    ps = np.asarray(ps, dtype=float)
    if ps.ndim != 1:
        raise ValidationError(f"expected a 1-d grid of p, got shape {ps.shape}")
    if noise_kind not in ("local", "global"):
        raise ValidationError(f"unknown noise kind {noise_kind!r}")
    _check_ps(ps)
    return ps


def _honest_scale(noise_kind: str, ps: np.ndarray) -> np.ndarray:
    """s = <Z Z>, two parties' honest correlator, at every p of the checked
    grid ps: p under global noise, p^2 under local."""
    # C pow, as p ** 2 on a float; ps ** 2 and ps * ps differ from it in the last bit at some p
    return ps if noise_kind == "global" else np.float_power(ps, 2.0)


def _qber(scale: np.ndarray) -> np.ndarray:
    """The QBER (1 - s)/2 at the honest correlators s."""
    return (1.0 - scale) / 2.0


def qber(noise_kind: str, p):
    """Pairwise key-bit error rate Q of the honest strategy at p, a float or
    a 1-d grid of them, elementwise: a float for a float."""
    q = _qber(_honest_scale(noise_kind, _checked_grid(noise_kind, np.atleast_1d(p))))
    return float(q[0]) if np.ndim(p) == 0 else q


# grid points per kernel call: the largest temporary, the three Pauli
# products of every state, stays at 98 KB (3 x 32 8x8 complex matrices)
_GRID_BLOCK = 32


def betas_of_p(spec: BellSpec, noise_kind: str, ps) -> np.ndarray:
    """The honest Bell value, spec's settings row on the depolarized GHZ (or
    Bell) state, at every p of the 1-d ps under one noise kind, computed on
    stacks of states; each value is the one-point grid's bit for bit."""
    return _betas(spec, noise_kind, _checked_grid(noise_kind, ps))


def _betas(spec: BellSpec, noise_kind: str, ps: np.ndarray) -> np.ndarray:
    """betas_of_p on the checked grid ps."""
    if ps.size == 0:
        return np.empty(0)
    betas = np.concatenate([_honest_betas(spec, noise_kind, ps[i:i + _GRID_BLOCK, None, None])
                            for i in range(0, ps.size, _GRID_BLOCK)])
    _check_beta(float(betas.min()), float(betas.max()), spec)  # NaN propagates
    return betas


def beta_of_p_closed_form(spec: BellSpec, noise_kind: str, p: float) -> float:
    """Closed forms of the honest violations (cross-checked against betas_of_p)."""
    p = float(_checked_grid(noise_kind, [p])[0])
    if noise_kind == "global":
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

    @bounds._curve(spec.local_bound, spec.quantum_bound, repr(spec.quantum_bound))
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
_THRESHOLD_POINTS = 16  # p per rate_grid call in a threshold's grid_sign_change search


def best_alpha_one_outcome(noise_kind: str, ps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha, bound, beta) arrays maximizing the asym-CHSH one-outcome bound
    at each p of the 1-d ps, at the honest violation 2 sqrt(1 + alpha^2) s
    (_honest_scale): one best_alpha_bound search for the grid."""
    return _best_alpha(_honest_scale(noise_kind, _checked_grid(noise_kind, ps)))


def _best_alpha(scale: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """best_alpha_one_outcome at the honest correlators scale."""
    alpha, bound = bounds.best_alpha_bound(scale)
    return alpha, bound, 2.0 * np.hypot(1.0, alpha) * scale


def rate_curve(kind: str, spec: BellSpec, gamma: float) -> BoundCurve | None:
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


def rate_grid(kind: str, spec: BellSpec, noise_kind: str, ps,
              gamma: float = GAMMA_DEFAULT) -> list[RateResult]:
    """The rate of one of RATE_KINDS at every p of the 1-d ps, each that of
    the one-point grid [p] bit for bit, from one betas_of_p and one fn call;
    gamma in [0, 1], dire-spot's test fraction, is checked for every kind.
    DICKA is the one-outcome bound minus h(Q); DIRE-spot the two-outcome
    bound minus the test cost r*gamma + h(gamma); DIRE-recycled the
    recycled-input bound.  asym-CHSH DICKA instead maximizes its bound over
    alpha at every p in one best_alpha_one_outcome call, and runs two
    concatenated two-party protocols, so its rate carries a factor 1/2."""
    curve = rate_curve(kind, spec, gamma)
    ps = _checked_grid(noise_kind, ps)
    if curve is None:
        scale = _honest_scale(noise_kind, ps)
        alpha, bound, betas = _best_alpha(scale)
        values = 0.5 * (bound - h(_qber(scale)))
        return [RateResult(value, beta, f"asym-chsh-one(alpha={a:.9g})")
                for value, beta, a in zip(values.tolist(), betas.tolist(), alpha.tolist())]
    betas = _betas(spec, noise_kind, ps)
    values = curve.fn(betas)
    if kind == "dicka":
        values = values - h(_qber(_honest_scale(noise_kind, ps)))
    elif kind == "dire-spot":
        values = values - spec.input_bits * gamma - h(gamma)
    return [RateResult(value, beta, curve.name, curve.flags)
            for value, beta in zip(values.tolist(), betas.tolist())]


class _NoSignChange(NumericError):
    """A signed rate that does not change sign on p in [0, 1]; args are its
    values at p = 0 and 1."""


def _signed_rates(kind: str, spec: BellSpec, noise_kind: str, gamma: float, ps) -> np.ndarray:
    """The signed rates of rate_grid at the 1-d ps, as an array."""
    return np.array([r.rate for r in rate_grid(kind, spec, noise_kind, ps, gamma)])


def _sign_change(kind: str, rates_at) -> float:
    """threshold_p's search on rates_at, the signed rates at a 1-d array of
    p: ITP for a DICKA rate, grid_sign_change for a DIRE one.  One call
    takes the rates at p = 0 and 1, raising _NoSignChange with them unless
    they bracket a sign change, and the search reads them as its first
    values; any other failure passes through."""
    ends = rates_at(np.array([0.0, 1.0]))
    r0, r1 = ends.tolist()
    if not r0 <= 0.0 < r1:
        raise _NoSignChange(r0, r1)
    first = [ends[:1], ends[1:]] if kind == "dicka" else [ends]  # the search's first calls

    def f(ps):
        return first.pop(0) if first else rates_at(ps)

    if kind == "dicka":
        return float(qmath.bracketed_roots(f, [0.0], [1.0])[0])
    return qmath.grid_sign_change(f, 0.0, 1.0, _THRESHOLD_POINTS)


@lru_cache(maxsize=1)
def _asym_dicka_root() -> float:
    """s*, the sign change of the asym-CHSH DICKA rate in the honest
    correlator s, which is the only way that rate reads p (_honest_scale):
    the ITP search of the global threshold, where s = p.  It depends on no
    gamma, noise kind or spec (asym-chsh at alpha = 1 is chsh), so a
    process solves it once; a failure is not kept."""
    return _sign_change("dicka", partial(_signed_rates, "dicka", asym_chsh(1.0), "global", 0.0))


def _least_p(noise_kind: str, s: float) -> float:
    """The smallest float p with _honest_scale(noise_kind, p) >= s, s in
    (0, 1]: s under global noise, sqrt(s) or a float neighbour of it under
    local noise (sqrt(s) alone can be an ulp low)."""
    def scale(p):
        return float(_honest_scale(noise_kind, np.array([p]))[0])

    p = s if noise_kind == "global" else math.sqrt(s)
    while p > 0.0 and scale(below := float(np.nextafter(p, 0.0))) >= s:
        p = below
    while scale(p) < s:
        p = float(np.nextafter(p, 1.0))
    return p


def threshold_p(kind: str, spec: BellSpec, noise_kind: str, gamma: float = 0.0) -> float:
    """Smallest p evaluated in [0, 1] whose signed rate is positive, one ulp
    above the largest p evaluated whose rate is not.  One two-point
    rate_grid call gives the rates at p = 0 and 1: unless rate(0) <= 0 <
    rate(1) it is a NumericError naming the rate and both values, and
    otherwise the search reads them as its first values.

    A DICKA rate is smooth across its threshold, so one bracketed_roots lane
    (ITP) reaches it: the two ends, then 10-12 one-point steps.  A DIRE rate
    is flat below its threshold (its bound is 0 there), where ITP has
    nothing to interpolate and bisects; on stacks of states
    _THRESHOLD_POINTS points cost about two single ones, so its search is
    grid_sign_change, one rate_grid call of that many points a round.  Near
    a threshold a rate changes sign once between adjacent floats, so both
    searches end on the same p.

    The asym-CHSH (and CHSH) DICKA rate reads p only through the honest
    correlator s, p under global noise and p^2 under local, so both of its
    thresholds come from one root s* in s, kept for the process: the
    global threshold is s*, the local one the smallest float p whose s is
    at least s*.  The second of them in a process calls no rate_grid; two
    separate `tribell threshold` runs each solve the root.  Every argument
    is checked before the kept root is read."""
    curve = rate_curve(kind, spec, gamma)
    _checked_grid(noise_kind, [])  # the noise kind, which the kept root would skip
    try:
        if curve is None:
            return _least_p(noise_kind, _asym_dicka_root())
        return _sign_change(kind, partial(_signed_rates, kind, spec, noise_kind, gamma))
    except _NoSignChange as exc:
        name = spec.kind if spec.kind != "asym-chsh" else f"asym-chsh(alpha={spec.alpha!r})"
        at0, at1 = exc.args
        raise NumericError(
            f"the {kind} rate of {name} under {noise_kind} noise at gamma={gamma!r}"
            f" does not change sign on p in [0, 1]: rate(p=0)={at0:.6g},"
            f" rate(p=1)={at1:.6g}") from None
