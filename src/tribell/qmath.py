"""Dense complex linear algebra on small matrices, entropy primitives and
the bracketed sign-change search.

All entropies are base-2 (bits).  Matrices are plain complex numpy arrays;
dimensions are capped at 64 (six qubits), which is all the rest of the
library ever needs.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError

__all__ = ["MAX_DIM", "HERMITIAN_TOL", "TRACE_TOL", "EIG_NEGATIVE_TOL", "RANK_TOL", "as_matrix",
           "ensure_hermitian", "ensure_density_matrix", "kron_all", "eig_hermitian",
           "spectrum_entropy", "binary_entropy", "binary_entropy_deriv",
           "validate_probability_vector", "shannon_entropy", "bracketed_roots", "bracketed_root"]

MAX_DIM = 64
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-9
EIG_NEGATIVE_TOL = 1e-10
RANK_TOL = 1e-12  # eigenvalues at or below it count as zero in entropies
_LETTERS = "abcdefghijklmnopqrstuvwxyz"  # einsum subscripts, one per axis


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def ensure_hermitian(a) -> np.ndarray:
    """A square matrix, or a stack (..., d, d) of them, checked Hermitian."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"expected square matrices, got shape {m.shape}")
    dev = np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), initial=0.0)
    if dev > HERMITIAN_TOL:
        raise ValidationError(
            f"matrix is not Hermitian (max deviation {dev:.3e} > {HERMITIAN_TOL:.0e})")
    return m


def ensure_density_matrix(a) -> np.ndarray:
    """Validate Hermiticity and unit trace of a matrix or a stack of them;
    PSD is checked where eigenvalues are taken (_check_psd)."""
    m = ensure_hermitian(a)
    tr = np.trace(m, axis1=-2, axis2=-1).real.ravel()
    bad = np.flatnonzero(np.abs(tr - 1.0) > TRACE_TOL)
    if bad.size:
        raise ValidationError(f"trace is {float(tr[bad[0]])!r}, expected 1 within {TRACE_TOL:.0e}")
    return m


def kron_all(*mats) -> np.ndarray:
    """Kronecker product of square matrices, left to right, or of stacks
    (..., d, d) of them row by row, the stacks broadcasting.  Each entry is
    one product of one entry per factor, taken left to right, so 2-D
    factors give numpy's kron bit for bit; no factors give the 1x1
    identity, and an output dimension above 4096 is refused."""
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        m = np.asarray(m, dtype=complex)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValidationError(f"expected square matrices, got shape {m.shape}")
        d = out.shape[-1] * m.shape[-1]
        if d > 4096:
            raise ValidationError("kron output dimension exceeds 4096")
        out = out[..., :, None, :, None] * m[..., None, :, None, :]
        out = out.reshape(out.shape[:-4] + (d, d))
    return out


def eig_hermitian(h) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of a stack (..., d, d) of them,
    descending along the last axis (LAPACK via np.linalg.eigvalsh)."""
    a = ensure_hermitian(h)
    n = a.shape[-1]
    if n > MAX_DIM:
        raise ValidationError(f"dimension {n} exceeds the {MAX_DIM} limit")
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigvalsh failed on {n}x{n} matrices: {exc}") from exc
    return w[..., ::-1]


def _check_psd(w) -> None:
    """ValidationError unless every eigenvalue in w is at least -EIG_NEGATIVE_TOL."""
    if np.any(w < -EIG_NEGATIVE_TOL):
        raise ValidationError(f"state is not PSD (eigenvalue {w.min():.3e})")


def spectrum_entropy(w) -> np.ndarray:
    """-sum w log2 w in bits along the last axis of an eigenvalue spectrum
    w; eigenvalues at or below RANK_TOL are dropped, and one below
    -EIG_NEGATIVE_TOL raises.  Where the dropped eigenvalues come last (a
    descending spectrum), the masked sum gives the bits of summing the kept
    terms alone."""
    w = np.asarray(w, dtype=float)
    _check_psd(w)
    kept = w > RANK_TOL
    terms = w * np.log2(np.where(kept, w, 1.0))
    return -np.add.reduce(terms, axis=-1, where=kept, initial=0.0)


def _float_or_array(out):
    """A float for a 0-d result, else the array itself."""
    return float(out) if out.ndim == 0 else out


def _first(values, bad) -> float:
    """The first value where the mask bad holds, as a plain float."""
    return float(np.broadcast_to(values, np.shape(bad)).flat[np.argmax(bad)])


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x) elementwise, a float for a float,
    with the 0 log 0 := 0 convention; x may lie up to 1e-12 outside [0, 1]."""
    x = np.asarray(x, dtype=float)[()]  # a numpy scalar for a float: cheaper arithmetic
    ok = (x >= -1e-12) & (x <= 1.0 + 1e-12)
    if not ok.all():
        raise ValidationError(f"binary_entropy argument {_first(x, ~ok)!r} outside [0, 1]")
    inner = (x > 0.0) & (x < 1.0)
    x = np.where(inner, x, 0.5)[()]
    return _float_or_array(np.where(inner, -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x), 0.0))


def binary_entropy_deriv(x):
    """h'(x) = log2((1-x)/x) elementwise for x in (0, 1), a float for a float."""
    x = np.asarray(x, dtype=float)
    ok = (x > 0.0) & (x < 1.0)
    if not ok.all():
        raise ValidationError(f"binary_entropy_deriv argument {_first(x, ~ok)!r} outside (0, 1)")
    return _float_or_array(np.log2((1.0 - x) / x))


def validate_probability_vector(weights) -> np.ndarray:
    """weights as floats, probability vectors along the first axis: negatives
    down to -1e-12 clip to 0, and each sum must be 1 within 1e-9."""
    w = np.asarray(weights, dtype=float)
    if (w < -1e-12).any():
        raise ValidationError(f"negative weight {w.min():.3e} beyond tolerance")
    w = np.maximum(w, 0.0)
    total = w.sum(axis=0)
    off = np.abs(total - 1.0) > 1e-9
    if off.any():
        raise ValidationError(f"weights sum to {_first(total, off)!r}, expected 1 within 1e-09")
    return w


def shannon_entropy(weights):
    """Shannon entropy in bits of each probability vector along the first axis
    (a float for one vector); zero weights count 0, the terms summed in order."""
    w = validate_probability_vector(weights)
    return _float_or_array(-np.sum(w * np.log2(np.where(w > 0.0, w, 1.0)), axis=0))


def _check_bracket(x1, x2, f1, f2) -> None:
    """NumericError naming the first lane, in the flat order of the lanes,
    where f(lo) <= 0 < f(hi) fails; 0-d lo and hi are one lane."""
    bad = ~((f1 <= 0.0) & (f2 > 0.0))
    if bad.any():
        raise NumericError(
            f"f does not change sign on [{_first(x1, bad)!r}, {_first(x2, bad)!r}]: "
            f"f(lo)={_first(f1, bad):.6g}, f(hi)={_first(f2, bad):.6g}")


def bracketed_roots(f, lo, hi) -> np.ndarray:
    """Sign changes of f, one per lane, to the last ulp: ITP (Oliveira and
    Takahashi, ACM TOMS 47, 2020; k1 = 0.2/(hi - lo), k2 = 2, n0 = 1) around
    Chandrupatla's inverse quadratic interpolation (Adv. Eng. Softw. 28, 1997).

    f maps an array of x (one per lane) to values elementwise, with
    f(lo) <= 0 < f(hi) in every lane; a flat zero is the low side (negate
    a decreasing f).  A lane stops when its midpoint rounds onto an
    endpoint and returns its upper end, the smallest x evaluated with
    f(x) > 0.  ITP keeps each bracket within one halving of bisection's;
    a point that rounds onto an endpoint moves one ulp inside, which ends
    a lane whose newest point has f = 0 next to the edge of {f > 0}.
    Every lane count, 0-d lo and hi too, steps the same numpy lockstep,
    each lane's points its own: a lane's points, root and NumericError
    text do not depend on the other lanes.  Under np.errstate, k1
    overflows to inf on a subnormal bracket and the first width cap is
    NaN on a reversed one (lo > hi); either lane then bisects.
    """
    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f1, f2 = f(x1), f(x2)
    _check_bracket(x1, x2, f1, f2)
    x3, f3 = x1, np.full_like(x1, np.nan)  # x1: newest end, x3: dropped
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        k1 = 0.2 / (x2 - x1)
        ulp = np.spacing(np.maximum(np.abs(x1), np.abs(x2)))
        cap = ulp * 2.0 ** np.ceil(np.log2((x2 - x1) / ulp))  # ITP's next width cap
        while True:
            a, b = np.minimum(x1, x2), np.maximum(x1, x2)
            mid, width = 0.5 * (a + b), b - a
            if ((mid == a) | (mid == b)).all():
                return np.where(f1 <= 0.0, x2, x1)
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                 + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            guess = np.where(iqi, x1 + t * (x2 - x1), mid)
            r, cap = np.maximum(cap - 0.5 * width, 0.0), 0.5 * cap
            step = np.maximum(np.abs(mid - guess) - k1 * width * width, 0.0)
            x = mid - np.sign(mid - guess) * np.minimum(step, r)
            x = np.where(np.isnan(x), mid,  # np.clip's values, with less overhead
                         np.minimum(np.maximum(x, np.nextafter(a, b)), np.nextafter(b, a)))
            y = f(x)
            same = (y <= 0.0) == (f1 <= 0.0)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, y


def bracketed_root(f, lo: float, hi: float) -> float:
    """bracketed_roots for one lane, with f mapping a float to a float."""
    return float(bracketed_roots(lambda x: np.float64(f(float(x))), float(lo), float(hi)))
