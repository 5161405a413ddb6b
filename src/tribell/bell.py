"""Bell functionals: correlators and Bell values for the Holz, Parity-CHSH,
MABK and asymmetric-CHSH inequalities, plus the reduced Holz forms used by
the entropy optimizer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidationError
from .qmath import as_matrix, kron_all
from .states import (_COSB, _SINB, BlockDiagState, MeasurementSettings,
                     _block_correlators, obs_matrix)

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class BellSpec:
    """One Bell inequality: its bounds and the per-test-round input-bit cost r."""

    kind: str  # "holz" | "parity-chsh" | "mabk" | "asym-chsh"
    local_bound: float
    quantum_bound: float
    input_bits: int
    alpha: float = 1.0

    def __post_init__(self):
        if self.local_bound >= self.quantum_bound:
            raise ValidationError("local bound must lie below the quantum bound")

    @property
    def parties(self) -> int:
        return 2 if self.kind == "asym-chsh" else 3


def holz() -> BellSpec:
    return BellSpec("holz", 1.0, 1.5, 3)


def parity_chsh() -> BellSpec:
    return BellSpec("parity-chsh", 1.0, SQRT2, 2)


def mabk() -> BellSpec:
    return BellSpec("mabk", 2.0, 4.0, 3)


def asym_chsh(alpha: float = 1.0) -> BellSpec:
    local = 2.0 * max(1.0, abs(alpha))
    return BellSpec("asym-chsh", local, 2.0 * np.hypot(1.0, alpha), 2, alpha=float(alpha))


def chsh() -> BellSpec:
    return asym_chsh(1.0)


def spec_by_name(name: str, alpha: float = 1.0) -> BellSpec:
    table = {
        "holz": holz,
        "parity-chsh": parity_chsh,
        "mabk": mabk,
        "chsh": chsh,
    }
    if name in table:
        return table[name]()
    if name == "asym-chsh":
        return asym_chsh(alpha)
    raise ValidationError(f"unknown inequality {name!r}")


@dataclass(frozen=True)
class BellValue:
    beta: float
    spec: BellSpec

    def __post_init__(self):
        # one-sided: asymmetric functionals (Holz, Parity-CHSH) reach values
        # below -quantum_bound already classically
        if self.beta > self.spec.quantum_bound + 1e-9:
            raise ValidationError(
                f"beta={self.beta!r} exceeds the quantum bound "
                f"{self.spec.quantum_bound!r}"
            )


def _expectation(rho: np.ndarray, terms) -> float:
    """sum_k c_k Tr[rho O_k] over (c_k, O_k) terms, summed left to right;
    every trace is checked for shape and a vanishing imaginary part."""
    total = None
    for coef, op in terms:
        if op.shape != rho.shape:
            raise ValidationError(
                f"operator dim {op.shape[0]} != state dim {rho.shape[0]}")
        val = complex(np.trace(rho @ op))
        if abs(val.imag) > 1e-10:
            raise ValidationError(f"correlator has imaginary part {val.imag:.3e}")
        term = coef * val.real
        total = term if total is None else total + term
    return total


def correlator(rho, observables) -> float:
    """Tr[rho (O_1 x O_2 x ...)]; entries of `observables` may be None (identity)."""
    rho = as_matrix(rho)
    return _expectation(rho, [(1.0, kron_all(*(obs_matrix(o) for o in observables)))])


def bell_terms(spec: BellSpec, settings: MeasurementSettings) -> list[tuple[float, np.ndarray]]:
    """The Bell operator as (coefficient, observable string) terms; their
    weighted expectations, summed in this order, give the Bell value."""
    a0, a1 = (o.matrix for o in settings.alice)
    b0, b1 = (o.matrix for o in settings.bob)
    if spec.kind == "asym-chsh":
        al = spec.alpha
        terms = [(al, [a0, b0]), (al, [a0, b1]), (1.0, [a1, b0]), (-1.0, [a1, b1])]
    else:
        if settings.charlie is None:
            raise ValidationError(f"{spec.kind} needs settings for three parties")
        c0, c1 = (o.matrix for o in settings.charlie)
        bp, bm = settings.b_plus(), settings.b_minus()
        if spec.kind == "holz":
            cp, cm = settings.c_plus(), settings.c_minus()
            terms = [(1.0, [a1, bp, cp]), (-1.0, [a0, bm, None]),
                     (-1.0, [a0, None, cm]), (-1.0, [None, bm, cm])]
        elif spec.kind == "parity-chsh":
            terms = [(1.0, [a1, bm, c0]), (1.0, [a0, bp, None])]
        elif spec.kind == "mabk":
            terms = [(1.0, [a0, b0, c1]), (1.0, [a0, b1, c0]),
                     (1.0, [a1, b0, c0]), (-1.0, [a1, b1, c1])]
        else:
            raise ValidationError(f"unknown inequality kind {spec.kind!r}")
    return [(coef, kron_all(*(obs_matrix(o) for o in string)))
            for coef, string in terms]


def bell_value(spec: BellSpec, rho, settings: MeasurementSettings) -> BellValue:
    rho = as_matrix(rho)
    dim = 2 ** spec.parties
    if rho.shape[0] != dim:
        raise ValidationError(
            f"{spec.kind} needs a {spec.parties}-qubit state, got dim {rho.shape[0]}"
        )
    return BellValue(_expectation(rho, bell_terms(spec, settings)), spec)


def _block_reduced_value(rho: np.ndarray, trig: np.ndarray, a1, c_minus) -> np.ndarray:
    """holz_reduced_value on the columns rho (2, 2, 2, n) and trig (20, n)
    of states._block_trig, whose b0 row holds Bob's angle."""
    xxx, zxx, zzi, ziz, izz = _block_correlators(rho, trig)
    sb, cb, sc = trig[_SINB], trig[_COSB], np.sin(c_minus)
    return ((np.cos(a1) * zxx + np.sin(a1) * xxx) * sb * np.cos(c_minus)
            - cb * zzi + sc * ziz + cb * sc * izz)


def _block_vbar(rho: np.ndarray, trig: np.ndarray, parity: bool) -> np.ndarray:
    """The reduced value on columns, maximized over a1 and c- (Holz,
    parity=False) or over a1 with c- frozen at 0 (Parity-CHSH)."""
    xxx, zxx, zzi, ziz, izz = _block_correlators(rho, trig)
    sb, cb = trig[_SINB], trig[_COSB]
    if parity:
        return np.abs(sb) * np.hypot(zxx, xxx) - cb * zzi
    return np.sqrt(sb * sb * (zxx ** 2 + xxx ** 2) + (ziz + cb * izz) ** 2) - cb * zzi


def holz_reduced_value(state: BlockDiagState, b0: float, a1: float, c_minus: float) -> float:
    """Holz Bell value in the reduced frame (a0=0, b+=c+=pi/2, b1=pi-b0)."""
    return float(_block_reduced_value(*state._columns(b0), a1, c_minus)[0])


def holz_vbar(state: BlockDiagState, b0: float) -> float:
    """Maximum of the reduced Holz value over the free angles a1 and c-."""
    return float(_block_vbar(*state._columns(b0), parity=False)[0])


def parity_vbar(state: BlockDiagState, b0: float) -> float:
    """Parity-CHSH analogue of holz_vbar: the reduced value with c- frozen at 0,
    maximized over a1 only."""
    return float(_block_vbar(*state._columns(b0), parity=True)[0])


def reduced_settings(b0: float, a1: float, c_minus: float) -> MeasurementSettings:
    """Full six-angle settings matching the reduced Holz parametrization."""
    from .states import settings_from_angles

    return settings_from_angles(
        0.0, a1,
        b0, np.pi - b0,
        np.pi / 2 + c_minus, np.pi / 2 - c_minus,
    )
