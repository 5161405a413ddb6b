"""Bell functionals: Bell values for the Holz, Parity-CHSH, MABK and
asymmetric-CHSH inequalities, plus the reduced Holz forms used by the
entropy optimizer.

Each inequality is one BellSpec, made by its named constructor: its bounds,
its terms and the honest settings row that reaches the quantum bound on the
noiseless GHZ/Phi+ state.  Settings are angle rows, each party's two angles
in turn in one plane (see states.observable_matrices).  bell_terms gives the
Bell operator of rows of settings, and one sum of its terms, Re Tr[rho O_k]
added in spec order, gives every Bell value: bell_values' n (state, row)
pairs, bell_value's one, and the honest values of rates.betas_of_p."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qmath import _check_psd, as_matrix, eig_hermitian, ensure_density_matrix
from .states import _COSB, _SINB, I2, BlockDiagState, _block_correlators, observable_matrices

__all__ = ["BellSpec", "holz", "parity_chsh", "mabk", "asym_chsh", "chsh", "INEQUALITIES",
           "spec_by_name", "BellValue", "bell_terms", "bell_value", "bell_values",
           "holz_reduced_value", "reduced_angles"]

SQRT2 = np.sqrt(2.0)
_OBSERVABLES = (0, 1, "+", "-", None)


@dataclass(frozen=True)
class BellSpec:
    """One Bell inequality: its bounds, the per-test-round input-bit cost r,
    its terms and its honest settings row.

    terms are (coefficient, one observable per party), summed in this
    order; a party's observable is 0 or 1 (its two settings), "+" or "-"
    (half their sum or difference) or None (the identity).  angles, each
    party's two angles in turn in the Bloch plane `plane`, reach the quantum
    bound on the noiseless GHZ/Phi+ state."""

    kind: str  # "holz" | "parity-chsh" | "mabk" | "asym-chsh"
    local_bound: float
    quantum_bound: float
    input_bits: int
    terms: tuple
    angles: tuple
    plane: str = "xz"
    alpha: float = 1.0

    def __post_init__(self):
        # stored as tuples, so a spec made from lists hashes (rates caches by spec),
        # and the bounds as plain floats, so messages print them as floats
        for name in ("local_bound", "quantum_bound", "alpha"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "angles", tuple(self.angles))
        object.__setattr__(self, "terms", tuple((coef, tuple(string))
                                                for coef, string in self.terms))
        if not all(map(math.isfinite, (self.local_bound, self.quantum_bound, self.alpha))):
            raise ValidationError(f"non-finite bound or alpha in {self!r}")
        if self.local_bound >= self.quantum_bound:
            raise ValidationError("local bound must lie below the quantum bound")
        if self.plane not in ("xz", "xy"):
            raise ValidationError(f"unknown plane {self.plane!r}")
        if not self.angles or len(self.angles) % 2 or not all(map(math.isfinite, self.angles)):
            raise ValidationError(f"settings row {self.angles!r} is not two finite angles"
                                  " per party")
        if not self.terms:
            raise ValidationError("an inequality needs at least one term")
        for coef, string in self.terms:
            if not math.isfinite(coef) or len(string) != self.parties \
                    or not all(o in _OBSERVABLES for o in string):
                raise ValidationError(f"term {(coef, string)!r}: need a finite coefficient and"
                                      f" one of {_OBSERVABLES} per party ({self.parties})")

    @property
    def parties(self) -> int:
        return len(self.angles) // 2


def holz() -> BellSpec:
    # A0=Z, A1=X; B+=C+=(sqrt3/2)X, B-=C-=-(1/2)Z  => b0=c0=2pi/3, b1=c1=pi/3
    return BellSpec("holz", 1.0, 1.5, 3,
                    ((1.0, (1, "+", "+")), (-1.0, (0, "-", None)),
                     (-1.0, (0, None, "-")), (-1.0, (None, "-", "-"))),
                    (0.0, np.pi / 2, 2 * np.pi / 3, np.pi / 3, 2 * np.pi / 3, np.pi / 3))


def parity_chsh() -> BellSpec:
    # A0=Z, A1=X; B+=(1/sqrt2)Z, B-=(1/sqrt2)X; C0=C1=X
    return BellSpec("parity-chsh", 1.0, SQRT2, 2,
                    ((1.0, (1, "-", 0)), (1.0, (0, "+", None))),
                    (0.0, np.pi / 2, np.pi / 4, -np.pi / 4, np.pi / 2, np.pi / 2))


def mabk() -> BellSpec:
    # x-y plane: A0=B0=Y, A1=B1=X, C0=-Y, C1=-X
    return BellSpec("mabk", 2.0, 4.0, 3,
                    ((1.0, (0, 0, 1)), (1.0, (0, 1, 0)), (1.0, (1, 0, 0)), (-1.0, (1, 1, 1))),
                    (np.pi / 2, 0.0, np.pi / 2, 0.0, 3 * np.pi / 2, np.pi), "xy")


def asym_chsh(alpha: float = 1.0) -> BellSpec:
    alpha = float(alpha)
    # BellSpec's local < quantum bound over 2, before a product can overflow
    if math.isfinite(alpha) and not np.hypot(1.0, alpha) > max(1.0, abs(alpha)):
        raise ValidationError(f"alpha={alpha!r} leaves the local bound at the quantum bound")
    b = float(np.arctan2(1.0, alpha))  # A0=Z, A1=X; B0, B1 at +-b from Z
    return BellSpec("asym-chsh", 2.0 * max(1.0, abs(alpha)), 2.0 * np.hypot(1.0, alpha), 2,
                    ((alpha, (0, 0)), (alpha, (0, 1)), (1.0, (1, 0)), (-1.0, (1, 1))),
                    (0.0, np.pi / 2, b, -b), alpha=alpha)


def chsh() -> BellSpec:
    return asym_chsh(1.0)


# every inequality by its CLI name
INEQUALITIES = {"holz": holz, "parity-chsh": parity_chsh, "mabk": mabk, "chsh": chsh,
                "asym-chsh": asym_chsh}


def spec_by_name(name: str, alpha: float = 1.0) -> BellSpec:
    """The named inequality; alpha is asym-chsh's and must be 1 for any other."""
    if name == "asym-chsh":
        return asym_chsh(alpha)
    if alpha != 1.0:
        raise ValidationError(f"{name} takes no alpha, got alpha={alpha!r}")
    if name not in INEQUALITIES:
        raise ValidationError(f"unknown inequality {name!r}")
    return INEQUALITIES[name]()


def _check_beta(lo: float, hi: float, spec: BellSpec) -> None:
    """Bell values from lo to hi must be finite and, one-sided, at most the
    quantum bound: asymmetric functionals (Holz, Parity-CHSH) reach values
    below -quantum_bound already classically."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"non-finite Bell value in [{lo!r}, {hi!r}]")
    if hi > spec.quantum_bound + 1e-9:
        raise ValidationError(
            f"beta={hi!r} exceeds the quantum bound {spec.quantum_bound!r}")


@dataclass(frozen=True)
class BellValue:
    beta: float
    spec: BellSpec

    def __post_init__(self):
        _check_beta(self.beta, self.beta, self.spec)


def _party_observables(pair: np.ndarray) -> dict:
    """A party's two observables, pair (..., 2, 2, 2), by their name in
    BellSpec.terms (None, the identity, aside)."""
    o0, o1 = pair[..., 0, :, :], pair[..., 1, :, :]
    return {0: o0, 1: o1, "+": 0.5 * (o0 + o1), "-": 0.5 * (o0 - o1)}


def _kron_rows(mats) -> np.ndarray:
    """kron_all of matrices (..., 2, 2) row by row: the same products in the
    same order, so each row is kron_all's matrix bit for bit."""
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        m = np.asarray(m, dtype=complex)
        d = out.shape[-1] * m.shape[-1]
        out = out[..., :, None, :, None] * m[..., None, :, None, :]
        out = out.reshape(out.shape[:-4] + (d, d))
    return out


def bell_terms(spec: BellSpec, angles, plane: str | None = None
               ) -> list[tuple[float, np.ndarray]]:
    """The Bell operators of settings rows angles (..., 2 * parties) as
    (coefficient, observable strings (..., d, d)) terms, in spec.terms
    order; the plane defaults to spec.plane.  A one-row call gives the
    kron_all products of that row's observables, bit for bit."""
    angles = np.asarray(angles, dtype=float)
    if angles.ndim == 0 or angles.shape[-1] != 2 * spec.parties:
        raise ValidationError(f"expected angles of shape (..., {2 * spec.parties}),"
                              f" got {angles.shape}")
    obs = observable_matrices(spec.plane if plane is None else plane, angles)
    obs = obs.reshape(angles.shape[:-1] + (spec.parties, 2, 2, 2))
    named = [_party_observables(obs[..., q, :, :, :]) for q in range(spec.parties)]
    return [(coef, _kron_rows(I2 if o is None else named[q][o] for q, o in enumerate(string)))
            for coef, string in spec.terms]


def _bell_sum(rho: np.ndarray, coefs, ops: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] Re Tr[rho ops[k]] for states rho (..., d, d) and the
    stack ops (terms, ..., d, d) of bell_terms' observable strings, the
    terms added in order.  The imaginary parts must vanish."""
    if ops.shape[-1] != rho.shape[-1]:
        raise ValidationError(f"operator dim {ops.shape[-1]} != state dim {rho.shape[-1]}")
    traces = (rho @ ops).trace(axis1=-2, axis2=-1)
    imag = np.abs(traces.imag).max(initial=0.0)
    if imag > 1e-10:
        raise ValidationError(f"correlator has imaginary part {imag:.3e}")
    total = None
    for coef, val in zip(coefs, traces.real):
        term = coef * val
        total = term if total is None else total + term
    return total


def bell_values(spec: BellSpec, rho, angles, plane: str | None = None) -> np.ndarray:
    """Bell values of n (state, settings) rows: density matrices rho (n, d,
    d) and angles (n, 2 * parties), each party's two angles in turn in one
    plane (spec.plane by default).  Each rho must be a state: Hermitian, of
    unit trace and PSD (no eigenvalue below -EIG_NEGATIVE_TOL).  Checked as
    BellValue checks one."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 3 or rho.shape[1] != rho.shape[2]:
        raise ValidationError(f"expected a stack of square matrices, got shape {rho.shape}")
    if rho.shape[1] != 2 ** spec.parties:
        raise ValidationError(
            f"{spec.kind} needs a {spec.parties}-qubit state, got dim {rho.shape[1]}")
    rho = ensure_density_matrix(rho)
    _check_psd(eig_hermitian(rho))
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (rho.shape[0], 2 * spec.parties):
        raise ValidationError(f"expected angles of shape {(rho.shape[0], 2 * spec.parties)},"
                              f" got {angles.shape}")
    coefs, ops = zip(*bell_terms(spec, angles, plane))
    beta = _bell_sum(rho, coefs, np.stack(ops))
    if beta.size:
        _check_beta(float(np.min(beta)), float(np.max(beta)), spec)  # NaN propagates
    return beta


def bell_value(spec: BellSpec, rho, angles, plane: str | None = None) -> BellValue:
    """The Bell value of one state under one settings row: the one-row case
    of bell_values."""
    rows = np.asarray(angles, dtype=float)[None]
    return BellValue(float(bell_values(spec, as_matrix(rho)[None], rows, plane)[0]), spec)


def _block_reduced_value(rho: np.ndarray, trig: np.ndarray, a1, c_minus) -> np.ndarray:
    """holz_reduced_value on the columns rho (2, 2, 2, n) and trig (20, n)
    of states._block_trig, whose b0 row holds Bob's angle."""
    xxx, zxx, zzi, ziz, izz = _block_correlators(rho, trig)
    sb, cb, sc = trig[_SINB], trig[_COSB], np.sin(c_minus)
    return ((np.cos(a1) * zxx + np.sin(a1) * xxx) * sb * np.cos(c_minus)
            - cb * zzi + sc * ziz + cb * sc * izz)


def _block_vbar(rho: np.ndarray, trig: np.ndarray) -> np.ndarray:
    """The reduced Holz value on columns, maximized over a1 and c-."""
    xxx, zxx, zzi, ziz, izz = _block_correlators(rho, trig)
    sb, cb = trig[_SINB], trig[_COSB]
    return np.sqrt(sb * sb * (zxx ** 2 + xxx ** 2) + (ziz + cb * izz) ** 2) - cb * zzi


def holz_reduced_value(state: BlockDiagState, b0: float, a1: float, c_minus: float) -> float:
    """Holz Bell value in the reduced frame (a0=0, b+=c+=pi/2, b1=pi-b0)."""
    for name, angle in (("b0", b0), ("a1", a1), ("c_minus", c_minus)):
        if not np.isfinite(angle):
            raise ValidationError(f"{name}={angle!r} is not finite")
    return float(_block_reduced_value(*state._columns(b0), a1, c_minus)[0])


def reduced_angles(b0, a1, c_minus) -> np.ndarray:
    """The six angles (a0, a1, b0, b1, c0, c1) of the reduced Holz
    parametrization, along the last axis for arrays of (b0, a1, c_minus)."""
    b0, a1, c_minus = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                            for x in (b0, a1, c_minus)))
    return np.stack([np.zeros_like(b0), a1, b0, np.pi - b0,
                     np.pi / 2 + c_minus, np.pi / 2 - c_minus], axis=-1)
