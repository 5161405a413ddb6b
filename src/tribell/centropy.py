"""Exact conditional von Neumann entropy H(outcomes|E) for small states.

Eve holds a purification of the shared state rho.  Measuring the projector
Pi_o leaves her the unnormalized state sqrt(rho) Pi_o sqrt(rho), whose
nonzero spectrum is that of Pi_o rho Pi_o, so
H(outcomes|E) = sum_o S(Pi_o rho Pi_o) - S(rho) and no purification is built.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import ValidationError
from .qmath import (
    HERMITIAN_TOL,
    eig_hermitian,
    ensure_density_matrix,
    kron_all,
    spectrum_entropy,
)
from .states import I2, obs_matrix

INVOLUTION_TOL = 1e-10


def _entropy(m) -> float:
    """-Tr m log2 m in bits (qmath.spectrum_entropy of its eigenvalues)."""
    return float(spectrum_entropy(eig_hermitian(m)[0]))


def _measurement_projectors(observables) -> list:
    projs = []
    for i, o in enumerate(observables):
        m = obs_matrix(o)
        if m.shape != (2, 2):
            raise ValidationError(f"observable {i} has shape {m.shape}, not (2, 2)")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValidationError(f"observable {i} is not Hermitian")
        if np.max(np.abs(m @ m - I2)) > INVOLUTION_TOL:
            raise ValidationError(f"observable {i} is not an involution")
        projs.append(((I2 + m) / 2.0, (I2 - m) / 2.0))
    return projs


def cond_entropy(rho, measured_parties, observables) -> float:
    """H(outcomes|E) in bits, E holding a purification of rho."""
    measured = [int(q) for q in measured_parties]
    if not measured:
        raise ValidationError("measured_parties must be non-empty")
    if len(measured) != len(set(measured)):
        raise ValidationError("duplicate party index")
    if len(observables) != len(measured):
        raise ValidationError("need exactly one observable per measured party")
    rho = ensure_density_matrix(rho)
    n = int(round(np.log2(rho.shape[0])))
    if 2 ** n != rho.shape[0]:
        raise ValidationError("state dimension is not a power of two")
    if min(measured) < 0 or max(measured) >= n:
        raise ValidationError(f"party index out of range for {n} qubits")
    projs = _measurement_projectors(observables)
    # projectors can amplify the anti-Hermitian part ensure_density_matrix
    # tolerates past what eig_hermitian accepts; keep the Hermitian part
    rho = (rho + rho.conj().T) / 2.0
    h_rho = _entropy(rho)
    total = 0.0
    for outcome in product((0, 1), repeat=len(measured)):
        ops = [I2] * n
        for q, pair, o in zip(measured, projs, outcome):
            ops[q] = pair[o]
        pi = kron_all(*ops)
        total += _entropy(pi @ rho @ pi)
    return total - h_rho
