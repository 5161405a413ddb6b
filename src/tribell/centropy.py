"""Exact conditional von Neumann entropy H(outcomes|E) for small states.

Eve holds a purification of rho.  Measuring the projector Pi_o leaves her a
state with the nonzero spectrum of Pi_o rho Pi_o, so H(outcomes|E) =
sum_o S(Pi_o rho Pi_o) - S(rho).  Each measured party's projectors (1 +- O)/2
have rank one, |u><u|, so Pi_o rho Pi_o has the nonzero spectrum of the block
<u_o|rho|u_o> on the unmeasured qubits: only rho is diagonalized at full size.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .qmath import (_LETTERS, HERMITIAN_TOL, as_matrix, eig_hermitian, ensure_density_matrix,
                    spectrum_entropy)
from .states import I2

__all__ = ["INVOLUTION_TOL", "cond_entropies", "cond_entropy"]

INVOLUTION_TOL = 1e-10


def _outcome_projectors(obs: np.ndarray) -> np.ndarray:
    """(1 + O)/2 and (1 - O)/2 of the observables obs (..., k, 2, 2),
    stacked (..., k, 2, 2, 2).  Each O must be a Hermitian involution other
    than +-1, so that both of its projectors have rank one."""
    adj = np.swapaxes(obs, -1, -2).conj()
    # a Hermitian involution has trace -2, 0 or 2, and only +-1 has |trace| 2
    for bad, what in (
            (np.max(np.abs(obs - adj), axis=(-2, -1)) > HERMITIAN_TOL, "is not Hermitian"),
            (np.max(np.abs(obs @ obs - I2), axis=(-2, -1)) > INVOLUTION_TOL,
             "is not an involution"),
            (np.abs(obs[..., 0, 0] + obs[..., 1, 1]) > 1.0,
             "is +-1, whose outcome projectors do not have rank one")):
        if np.any(bad):
            raise ValidationError(f"observable {np.argwhere(bad)[0, -1]} {what}")
    signs = np.array([1.0, -1.0])[:, None, None]
    return 0.5 * (I2 + signs * (0.5 * (obs + adj))[..., None, :, :])


def cond_entropies(rho, measured_parties, observables) -> np.ndarray:
    """H(outcomes|E) in bits of each state in the stack rho (n, d, d), E
    holding a purification, when party measured_parties[i] measures the
    observable observables[..., i, :, :]: observables (k, 2, 2) are shared
    by every state, (n, k, 2, 2) are one set per state."""
    rho = ensure_density_matrix(rho)
    if rho.ndim != 3:
        raise ValidationError(f"expected a stack of states (n, d, d), got shape {rho.shape}")
    n, d = rho.shape[:2]
    if d < 1 or d & (d - 1):
        raise ValidationError("state dimension is not a power of two")
    qubits = d.bit_length() - 1
    measured = [int(q) for q in measured_parties]
    if not measured:
        raise ValidationError("measured_parties must be non-empty")
    if len(measured) != len(set(measured)):
        raise ValidationError("duplicate party index")
    if min(measured) < 0 or max(measured) >= qubits:
        raise ValidationError(f"party index out of range for {qubits} qubits")
    k = len(measured)
    obs = np.asarray(observables, dtype=complex)
    if obs.shape not in ((k, 2, 2), (n, k, 2, 2)):
        raise ValidationError(f"need exactly one observable per measured party: shape "
                              f"{(k, 2, 2)} or {(n, k, 2, 2)}, not {obs.shape}")
    proj = _outcome_projectors(obs)
    # projectors can amplify the anti-Hermitian part ensure_density_matrix
    # tolerates past what eig_hermitian accepts; keep the Hermitian part
    rho = (rho + np.swapaxes(rho, 1, 2).conj()) / 2.0
    h_rho = spectrum_entropy(eig_hermitian(rho))
    # block_o[r, c] = sum P_o[j, i] rho[(i, r), (j, c)]: the partial trace
    # of (P_o x 1) rho over the measured qubits; upper case marks columns
    rows, outs = _LETTERS[:qubits], _LETTERS[qubits:qubits + k]
    rest = "".join(rows[q] for q in range(qubits) if q not in measured)
    subs = ["..." + rows + rows.upper()] + ["..." + o + rows[q].upper() + rows[q]
                                            for o, q in zip(outs, measured)]
    blocks = np.einsum(",".join(subs) + "->..." + outs + rest + rest.upper(),
                       rho.reshape((n,) + (2,) * (2 * qubits)), *np.moveaxis(proj, -4, 0),
                       optimize="greedy").reshape(n, 2 ** k, 2 ** len(rest), 2 ** len(rest))
    return spectrum_entropy(eig_hermitian(blocks)).sum(axis=1) - h_rho


def cond_entropy(rho, measured_parties, observables) -> float:
    """H(outcomes|E) in bits of one state rho: the one-state case of
    cond_entropies, with one 2x2 observable matrix per measured party."""
    ops = [as_matrix(o) for o in observables]
    for i, m in enumerate(ops):
        if m.shape != (2, 2):
            raise ValidationError(f"observable {i} has shape {m.shape}, not (2, 2)")
    return float(cond_entropies(as_matrix(rho)[None], measured_parties,
                                np.reshape(ops, (-1, 2, 2)))[0])
