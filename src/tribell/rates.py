"""DICKA conference-key rates, DIRE net-randomness rates, QBER models,
threshold finding in the depolarization parameter p, and the registry that
picks the entropy bound curve for each inequality and outcome.

Rates are signed; a threshold is the sign change of the signed rate
between two adjacent floats p, found by _sign_change on rate_grid's own
rates: one call at p = 0, a start or two and 1, then calls of several p
each, strictly inside the bracket the calls before proved (its midpoint,
its secant point and points either side of it, or all its floats once
there are at most 16), until its ends are adjacent floats.
asym-CHSH DICKA's two thresholds come from one root in the honest
correlator s, kept for the process, which starts at its shipped value.
Every function of p takes (noise_kind, p); a grid of p is computed at
once, each value the one-point value bit for bit.  The honest Bell values
(betas_of_p, rate_grid) are the closed form clamped to the quantum bound
under local noise, which builds no state, and bell's one sum over the
honest row's cached terms on stacks of noisy states under global noise;
asym-CHSH DICKA runs one lockstep alpha search (best_alpha_one_outcome).
rate_grid returns one RateResult per grid, float arrays of its rates and
honest violations with the bound curve named once, and builds nothing per
point.  The two-outcome bounds for Parity-CHSH and CHSH are numeric
curves produced by the optimizer, shipped as a monotone 200-point table
and linearly interpolated (regenerate via the CLI).
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

from . import bounds, optimize
from .bell import BellSpec, _bell_sum, _check_beta, asym_chsh, bell_terms, spec_by_name
from .errors import NumericError, ValidationError
from .qmath import binary_entropy as h
from .states import _check_ps, _global_channel, ghz_state

__all__ = ["GAMMA_DEFAULT", "RateResult", "qber", "betas_of_p", "beta_of_p_closed_form",
           "TABLE_ENV", "NUMERIC_CURVES", "two_outcome_numeric", "generate_two_outcome_table",
           "BoundCurve", "bound_curve", "RATE_KINDS", "best_alpha_one_outcome", "rate_curve",
           "rate_grid", "threshold_p"]

GAMMA_DEFAULT = 3.3e-4  # the 0.033% test-round fraction used in the figures
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class RateResult:
    """The rate of one rate_grid call: the float arrays rate and beta_at_p,
    one value per p of its grid, and once for the grid the name and flags
    of the bound curve they rest on."""

    rate: np.ndarray
    beta_at_p: np.ndarray
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


def _global_betas(spec: BellSpec, p) -> np.ndarray:
    """The honest Bell values under global noise, shape (n,), at an (n, 1,
    1) column of checked p: the noise channel, then bell's sum of the terms,
    the same path for every p, so a grid's values are the one-point values
    bit for bit."""
    return _bell_sum(_global_channel(_noiseless(spec.parties), p), *_honest_terms(spec))


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
    grid ps (or at one float p): p under global noise, p^2 under local."""
    # p * p, one IEEE product, the same bits on every platform (C pow, as
    # p ** 2 on a float, is not correctly rounded in every libm)
    return ps if noise_kind == "global" else ps * ps


def _qber(scale: np.ndarray) -> np.ndarray:
    """The QBER (1 - s)/2 at the honest correlators s."""
    return (1.0 - scale) / 2.0


def qber(noise_kind: str, p):
    """Pairwise key-bit error rate Q of the honest strategy at p, a float or
    a 1-d grid of them, elementwise: a float for a float."""
    q = _qber(_honest_scale(noise_kind, _checked_grid(noise_kind, np.atleast_1d(p))))
    return float(q[0]) if np.ndim(p) == 0 else q


# grid points per kernel call of the global-noise matrix path: the largest
# temporary, bell._bell_sum's rho @ ops (terms, 32, d, d) complex, stays at
# 128 KiB (Holz's and MABK's 4 terms on 8x8 states)
_GRID_BLOCK = 32


def betas_of_p(spec: BellSpec, noise_kind: str, ps) -> np.ndarray:
    """The honest Bell value, spec's settings row on the depolarized GHZ (or
    Bell) state, at every p of the 1-d ps under one noise kind; each value
    is the one-point grid's bit for bit.  Under local noise it is the closed
    form clamped to the quantum bound, and no state is built; under global
    noise it is computed on stacks of noisy states."""
    return _betas(spec, noise_kind, _checked_grid(noise_kind, ps))


def _betas(spec: BellSpec, noise_kind: str, ps: np.ndarray) -> np.ndarray:
    """betas_of_p on the checked grid ps."""
    if ps.size == 0:
        return np.empty(0)
    if noise_kind == "local":
        betas = np.minimum(_closed_form(spec, noise_kind, ps), spec.quantum_bound)
    else:
        # the global closed form moves figure bytes recorded in the
        # benchmark's golden digests, so it waits for a change that
        # re-records them; until then global noise keeps the matrix path
        betas = np.concatenate([_global_betas(spec, ps[i:i + _GRID_BLOCK, None, None])
                                for i in range(0, ps.size, _GRID_BLOCK)])
    _check_beta(float(betas.min()), float(betas.max()), spec)  # NaN propagates
    return betas


def beta_of_p_closed_form(spec: BellSpec, noise_kind: str, p):
    """Closed forms of the honest violations at p, a float or a 1-d grid of
    them, elementwise: a float for a float.  betas_of_p reads them, clamped
    to the quantum bound, under local noise; under global noise they are
    cross-checked against its matrix path."""
    betas = _closed_form(spec, noise_kind, _checked_grid(noise_kind, np.atleast_1d(p)))
    return float(betas[0]) if np.ndim(p) == 0 else betas


def _closed_form(spec: BellSpec, noise_kind: str, ps: np.ndarray) -> np.ndarray:
    """beta_of_p_closed_form on the checked grid ps, or at one float p, p^2
    and p^3 taken as the IEEE products p * p and (p * p) * p."""
    if noise_kind == "global":
        return spec.quantum_bound * ps
    p2 = ps * ps
    p3 = p2 * ps
    if spec.kind == "holz":
        return 0.75 * (p3 + p2)
    if spec.kind == "parity-chsh":
        return (p3 + p2) / SQRT2
    if spec.kind == "mabk":
        return 4.0 * p3
    if spec.kind == "asym-chsh":
        return spec.quantum_bound * p2
    raise ValidationError(f"no closed form for {spec.kind!r}")


# ---------------------------------------------------------------------------
# numeric two-outcome tables (Parity-CHSH and CHSH spot-checking curves)

TABLE_ENV = "TRIBELL_TABLES"
NUMERIC_CURVES = ("parity-chsh", "chsh")


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


def _numeric_curve(ineq: str) -> Callable:
    """The bound curve of ineq's numeric table, which it reads (_load_tables)
    on every call, so a table file is first read on first use."""
    spec = spec_by_name(ineq)

    @bounds._curve(spec.local_bound, spec.quantum_bound, repr(spec.quantum_bound))
    def curve(beta):
        return np.interp(beta, *_load_tables()[ineq])

    return curve


_NUMERIC = {ineq: _numeric_curve(ineq) for ineq in NUMERIC_CURVES}  # decorated once


def two_outcome_numeric(ineq: str, beta):
    """Interpolated numeric H(A0 B0|E) lower curve for parity-chsh or chsh;
    its tables start at 0 at the classical bound."""
    if ineq not in NUMERIC_CURVES:
        raise ValidationError(f"no numeric two-outcome table for {ineq!r}")
    return _NUMERIC[ineq](beta)


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
        ("parity-chsh", "two"): ("numeric:parity-chsh-two", _NUMERIC["parity-chsh"],
                                 ("non-certified",)),
        ("mabk", "one"): ("mabk-one", bounds.mabk_one_outcome, ()),
        ("mabk", "two"): ("mabk-two", bounds.mabk_two_outcome, ()),
        ("asym-chsh", "one"): (f"asym-chsh-one(alpha={alpha!r})",
                               partial(bounds.asym_chsh_one_outcome, alpha=alpha),
                               ()),
    }
    if spec.kind == "asym-chsh" and abs(alpha - 1.0) <= 1e-12:  # CHSH
        curves[("asym-chsh", "two")] = ("numeric:chsh-two", _NUMERIC["chsh"],
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
# s*, the asym-CHSH DICKA rate's sign change in the honest correlator s
# (_asym_dicka_root), shipped so that no process spends 11 alpha searches
# on it; tests/test_rates.py re-derives it bit for bit with the full search
_ASYM_DICKA_ROOT = float.fromhex("0x1.b40ad1fd76d8dp-1")
# the most floats _least_float walks from its guess; every guess it is
# given lands within a float or two of its answer
_LEAST_FLOAT_STEPS = 64
# _probes: the most floats inside a bracket that one call evaluates whole,
# and the offsets around the secant point, as fractions of the width
_SCAN = 16
_OFFSETS = tuple(s * 2.0 ** -e for e in (2, 7, 12) for s in (-1.0, 1.0))


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
              gamma: float = GAMMA_DEFAULT) -> RateResult:
    """The rate of one of RATE_KINDS at every p of the 1-d ps, one RateResult
    whose rate and beta_at_p arrays hold each p's value, that of the
    one-point grid [p] bit for bit, from one betas_of_p and one fn call;
    gamma in [0, 1], dire-spot's test fraction, is checked for every kind.
    DICKA is the one-outcome bound minus h(Q); DIRE-spot the two-outcome
    bound minus the test cost r*gamma + h(gamma); DIRE-recycled the
    recycled-input bound.  asym-CHSH DICKA instead maximizes its bound over
    alpha at every p in one best_alpha_one_outcome call, and runs two
    concatenated two-party protocols, so its rate carries a factor 1/2."""
    curve = rate_curve(kind, spec, gamma)
    values, betas = _rates(kind, spec, curve, noise_kind, gamma, _checked_grid(noise_kind, ps))
    if curve is None:
        return RateResult(values, betas, "asym-chsh-one(best alpha)")
    return RateResult(values, betas, curve.name, curve.flags)


def _rates(kind: str, spec: BellSpec, curve: BoundCurve | None, noise_kind: str, gamma: float,
           ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rate_grid's signed rates and honest violations at the checked grid
    ps, curve the one rate_curve returns."""
    if curve is None:
        scale = _honest_scale(noise_kind, ps)
        _, bound, betas = _best_alpha(scale)
        return 0.5 * (bound - h(_qber(scale))), betas
    betas = _betas(spec, noise_kind, ps)
    values = curve.fn(betas)
    if kind == "dicka":
        values = values - h(_qber(_honest_scale(noise_kind, ps)))
    elif kind == "dire-spot":
        values = values - spec.input_bits * gamma - h(gamma)
    return values, betas


class _NoSignChange(NumericError):
    """A signed rate that does not change sign on p in [0, 1]; args are its
    values at p = 0 and 1."""


def _sign_change(rates_at, starts) -> float:
    """The smallest p evaluated whose signed rate is positive, one ulp above
    one whose rate is not; rates_at maps a 1-d array of p to a pair whose
    first item is their rates, as a _rates partial does.  One call takes the
    rates at [0, *starts, 1], starts increasing in (0, 1), and raises
    _NoSignChange with the rates r0, r1 at p = 0 and 1 unless r0 <= 0 < r1;
    any other failure passes through.  The first of those points whose rate
    is not <= 0 (a NaN is the high side) and the point below it bracket the
    sign change.  Every later call takes the rates at _probes, sorted
    distinct floats strictly inside the bracket, which the same rule then
    narrows to two of its points, until they are adjacent floats: the upper
    one is the result.  Where the sign of the rate is monotone in p over
    the bracket, that is its one sign change, whichever points were
    probed."""
    ps = [0.0, *starts, 1.0]
    values = rates_at(np.array(ps))[0].tolist()
    if not values[0] <= 0.0 < values[-1]:
        raise _NoSignChange(values[0], values[-1])
    while True:
        k = next(i for i, r in enumerate(values) if not r <= 0.0)
        (lo, hi), (r_lo, r_hi) = ps[k - 1:k + 1], values[k - 1:k + 1]
        probes = _probes(lo, hi, r_lo, r_hi)
        if not probes:
            return hi
        ps = [lo, *probes, hi]
        values = [r_lo, *rates_at(np.array(probes))[0].tolist(), r_hi]


def _probes(lo: float, hi: float, r_lo: float, r_hi: float) -> list[float]:
    """The p _sign_change evaluates next in its bracket [lo, hi], whose ends
    have the rates r_lo <= 0 and r_hi (> 0 or NaN): every float strictly
    inside if there are at most _SCAN, else the midpoint, so that each call
    at least halves the bracket, the secant point (the midpoint where a
    rate is not finite), moved one ulp inside if it lies on an end, and
    _OFFSETS of the width either side of it, sorted and distinct."""
    inside, p = [], math.nextafter(lo, hi)
    while p < hi and len(inside) <= _SCAN:
        inside.append(p)
        p = math.nextafter(p, hi)
    if len(inside) <= _SCAN:
        return inside
    mid, width = 0.5 * (lo + hi), hi - lo
    at = lo - r_lo / (r_hi - r_lo) * width if math.isfinite(r_lo + r_hi) else mid
    at = min(max(at, math.nextafter(lo, hi)), math.nextafter(hi, lo))
    return sorted({x for x in (mid, at, *(at + d * width for d in _OFFSETS))
                   if lo < x < hi})


def _classical_p(spec: BellSpec, noise_kind: str) -> float:
    """p_cl, the largest float p whose closed-form honest violation is at
    most the local bound, from the closed form alone, on Python floats:
    eight Newton steps from p = 1 (each slope a difference over 2^-26)
    land within an ulp or two of it, and _least_float walks to the first
    float above it."""
    p, h = 1.0, 2.0 ** -26
    for _ in range(8):  # the closed forms are increasing and convex: p falls to the root
        at_p = _closed_form(spec, noise_kind, p)
        p -= (at_p - spec.local_bound) * h / (at_p - _closed_form(spec, noise_kind, p - h))
    return math.nextafter(_least_float(
        lambda x: _closed_form(spec, noise_kind, x) > spec.local_bound, p), 0.0)


@lru_cache(maxsize=1)
def _asym_dicka_root() -> float:
    """s*, the sign change of the asym-CHSH DICKA rate in the honest
    correlator s, which is the only way that rate reads p (_honest_scale):
    its global threshold, where s = p.  It depends on no gamma, noise kind
    or spec (asym-chsh at alpha = 1 is chsh).  _sign_change checks the
    shipped _ASYM_DICKA_ROOT in one call at it, the float below it and the
    ends (one best_alpha_bound search), and searches the bracket that call
    proved if the root is off; a process keeps the result, and a failure is
    not kept."""
    return _sign_change(partial(_rates, "dicka", asym_chsh(1.0), None, "global", 0.0),
                        (float(np.nextafter(_ASYM_DICKA_ROOT, 0.0)), _ASYM_DICKA_ROOT))


def _least_p(noise_kind: str, s: float) -> float:
    """The smallest float p with _honest_scale(noise_kind, p) >= s, s in
    (0, 1]: s under global noise, sqrt(s) or a float neighbour of it under
    local noise (sqrt(s) alone can be an ulp low)."""
    return _least_float(lambda p: _honest_scale(noise_kind, p) >= s,
                        s if noise_kind == "global" else math.sqrt(s))


def _least_float(above, p: float) -> float:
    """The smallest float in [0, 1] at which above holds, a predicate that
    holds from some float on and at 1, walked to float by float from the
    guess p, a few ulps from it; a NumericError names a guess from which
    _LEAST_FLOAT_STEPS steps do not reach it."""
    guess = p
    for _ in range(_LEAST_FLOAT_STEPS):
        if p > 0.0 and above(below := math.nextafter(p, 0.0)):
            p = below
        elif above(p):
            return p
        else:
            p = math.nextafter(p, 1.0)
    raise NumericError(f"the least float search from the guess p={guess!r} walked"
                       f" {_LEAST_FLOAT_STEPS} floats without reaching its answer")


def threshold_p(kind: str, spec: BellSpec, noise_kind: str, gamma: float = 0.0) -> float:
    """Smallest p evaluated in [0, 1] whose signed rate is positive, one ulp
    above a p whose rate is not: _sign_change on rate_grid's own rates.  Its
    first call takes the rates at p = 0 and 1 with its starts: unless
    rate(0) <= 0 < rate(1) it is a NumericError naming the rate and both
    values.

    A rate that reads a bound curve starts at p_cl, the largest float whose
    closed-form violation is at most the local bound (_classical_p): the
    rate is <= 0 there, its bound 0 and the terms it subtracts >= 0, so the
    search narrows [p_cl, 1], or [0, p_cl] if the rate at p_cl is positive.
    Where the rate is 0 at p_cl (DIRE at gamma = 0), the secant point is
    p_cl, moved one ulp inside: often the threshold, in the second call.
    Neither p_cl nor the points probed supply a value, so a threshold keeps
    its bits wherever the sign of the rate is monotone in p.

    The asym-CHSH (and CHSH) DICKA rate reads p only through the honest
    correlator s, p under global noise and p^2 under local, so both of its
    thresholds come from one root s* in s, kept for the process: the
    global threshold is s*, the local one the smallest float p whose s is
    at least s*.  Its starts are the shipped s* and the float below it, so
    the root costs one alpha search and the second threshold in a process
    none.  Every argument is checked before the kept root is read."""
    curve = rate_curve(kind, spec, gamma)
    _checked_grid(noise_kind, [])  # the noise kind, which the kept root would skip
    try:
        if curve is None:
            return _least_p(noise_kind, _asym_dicka_root())
        return _sign_change(partial(_rates, kind, spec, curve, noise_kind, gamma),
                            (_classical_p(spec, noise_kind),))
    except _NoSignChange as exc:
        name = spec.kind if spec.kind != "asym-chsh" else f"asym-chsh(alpha={spec.alpha!r})"
        at0, at1 = exc.args
        raise NumericError(
            f"the {kind} rate of {name} under {noise_kind} noise at gamma={gamma!r}"
            f" does not change sign on p in [0, 1]: rate(p=0)={at0:.6g},"
            f" rate(p=1)={at1:.6g}") from None
