"""Exact conditional von Neumann entropy H(outcomes|E) for small states.

Eve always holds the full purifying system of the shared state.  The joint
classical-quantum state of the outcomes and Eve is never materialized: one
Eve-conditional block is assembled per outcome and diagonalized on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ValidationError
from .qmath import (
    EIG_NEGATIVE_TOL,
    eig_hermitian,
    ensure_density_matrix,
    kron_all,
)
from .states import I2, obs_matrix

RANK_TOL = 1e-12
INVOLUTION_TOL = 1e-10


def _spectrum(rho) -> tuple[np.ndarray, np.ndarray]:
    rho = ensure_density_matrix(rho)
    w, v = eig_hermitian(rho)
    if np.any(w < -EIG_NEGATIVE_TOL):
        raise ValidationError(f"state is not PSD (eigenvalue {w.min():.3e})")
    keep = w > RANK_TOL
    return w[keep], v[:, keep]


def purify(rho) -> np.ndarray:
    """Purification of rho on the doubled space; the purifying register has
    dimension rank(rho) padded to a power of two."""
    w, v = _spectrum(rho)
    rank = len(w)
    d_e = 1
    while d_e < rank:
        d_e *= 2
    psi = np.zeros((rho.shape[0], d_e), dtype=complex)
    psi[:, :rank] = v * np.sqrt(w)
    return psi.reshape(-1)


@dataclass(frozen=True)
class CqDecomposition:
    """Outcome probabilities and the matching unnormalized Eve conditionals."""

    outcome_probs: np.ndarray
    eve_conditionals: list  # one PSD matrix per outcome, traces sum to 1

    def __post_init__(self):
        tot = sum(float(np.trace(m).real) for m in self.eve_conditionals)
        if abs(tot - 1.0) > 1e-9:
            raise ValidationError(f"conditional traces sum to {tot!r}")


def _measurement_projectors(observables) -> list:
    projs = []
    for o in observables:
        m = obs_matrix(o)
        if np.max(np.abs(m @ m - I2)) > INVOLUTION_TOL:
            raise ValidationError("observable is not an involution")
        projs.append(((I2 + m) / 2.0, (I2 - m) / 2.0))
    return projs


def cq_decomposition(rho, measured_parties, observables) -> CqDecomposition:
    """Measure the given parties on a purification of rho; Eve keeps the rest.

    Eve's unnormalized conditional for outcome o has entries
    sqrt(w_m w_m') <m'| Pi_o |m> over the eigenbasis {|m>} of rho.
    """
    return _cq_decomposition(rho, measured_parties, observables)[1]


def _cq_decomposition(rho, measured_parties, observables):
    """cq_decomposition, and the nonzero eigenvalues of rho it was built from."""
    measured = [int(q) for q in measured_parties]
    if not measured:
        raise ValidationError("measured_parties must be non-empty")
    if len(measured) != len(set(measured)):
        raise ValidationError("duplicate party index")
    if len(observables) != len(measured):
        raise ValidationError("need exactly one observable per measured party")
    w, v = _spectrum(rho)
    n = int(round(np.log2(rho.shape[0])))
    if 2 ** n != rho.shape[0]:
        raise ValidationError("state dimension is not a power of two")
    if measured and (min(measured) < 0 or max(measured) >= n):
        raise ValidationError(f"party index out of range for {n} qubits")
    projs = _measurement_projectors(observables)
    sqw = np.sqrt(w)
    probs, blocks = [], []
    for outcome in product((0, 1), repeat=len(measured)):
        ops = [I2] * n
        for idx, (q, o) in enumerate(zip(measured, outcome)):
            ops[q] = projs[idx][o]
        pi = kron_all(*ops)
        g = v.conj().T @ pi @ v
        block = np.outer(sqw, sqw) * g
        blocks.append(block)
        probs.append(float(np.trace(block).real))
    return w, CqDecomposition(np.array(probs), blocks)


def _block_entropy(blocks) -> float:
    total = 0.0
    for b in blocks:
        w, _ = eig_hermitian(b)
        if np.any(w < -EIG_NEGATIVE_TOL):
            raise ValidationError(f"conditional block not PSD ({w.min():.3e})")
        w = w[w > RANK_TOL]
        if w.size:
            total += float(-(w * np.log2(w)).sum())
    return total


def cond_entropy(rho, measured_parties, observables) -> float:
    """H(outcomes|E) in bits, E being the purifying system of rho."""
    w, cq = _cq_decomposition(rho, measured_parties, observables)
    h_e = float(-(w * np.log2(w)).sum())
    return _block_entropy(cq.eve_conditionals) - h_e
