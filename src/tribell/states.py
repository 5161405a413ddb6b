"""State and measurement constructors: GHZ/Bell states, depolarizing noise,
the GHZ-basis block-diagonal family, and the observables of angle rows.

A measurement setting is one row of angles, each party's two angles in turn,
with one Bloch plane for every angle ("xz": Z cos + X sin, "xy": X cos +
Y sin); `observable_matrices` turns rows into 2x2 observables.  Each
inequality's honest row is defined with its terms, in bell."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .qmath import as_matrix, kron_all

__all__ = ["I2", "X", "Y", "Z", "ghz_vector", "ghz_state", "depolarize_local",
           "depolarize_global", "observable_matrices", "BlockDiagState", "tau_state"]

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

SQRT2 = np.sqrt(2.0)


def ghz_vector(qubit_count: int = 3) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2); qubit_count=2 gives the Bell state Phi+."""
    if qubit_count < 2:
        raise ValidationError("need at least 2 qubits")
    v = np.zeros(2 ** qubit_count, dtype=complex)
    v[0] = v[-1] = 1.0 / SQRT2
    return v


def ghz_state(qubit_count: int = 3) -> np.ndarray:
    v = ghz_vector(qubit_count)
    return np.outer(v, v.conj())


def _check_p(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarization parameter p={float(p)!r} outside [0, 1]")
    return float(p)


def _check_ps(ps: np.ndarray) -> None:
    """_check_p on every p of an array at once, naming the first bad one (NaN fails)."""
    bad = ~((ps >= 0.0) & (ps <= 1.0))
    if bad.any():
        _check_p(ps[bad][0])


def depolarize_local(rho, p: float, qubit_count: int) -> np.ndarray:
    """Apply sigma -> p*sigma + (1-p)*I/2 independently to every qubit.

    Implemented as the exact Pauli mixture
    (1+3p)/4 * sigma + (1-p)/4 * (X sigma X + Y sigma Y + Z sigma Z) per qubit.
    """
    p = _check_p(p)
    rho = as_matrix(rho)
    if rho.shape[0] != 2 ** qubit_count:
        raise ValidationError(f"dimension {rho.shape[0]} != 2^{qubit_count}")
    return _local_channel(rho, p, qubit_count)[0]


def _local_channel(rho: np.ndarray, p, qubit_count: int) -> np.ndarray:
    """depolarize_local's Pauli mixture at a checked p, a float or an (n, 1, 1)
    column of them: the (1, d, d) or (n, d, d) stack of the outputs."""
    c0 = (1.0 + 3.0 * p) / 4.0
    c1 = (1.0 - p) / 4.0
    out = rho
    for ops in _pauli_strings(qubit_count):
        # (X, Y, Z) as one stack: the three products op @ out @ op, summed in turn
        out = c0 * out + c1 * sum(ops @ out @ ops)
    return out


@lru_cache(maxsize=4)
def _pauli_strings(qubit_count: int) -> tuple[np.ndarray, ...]:
    """Per qubit q, the strings X_q, Y_q, Z_q with identities on every other
    qubit, as one read-only (3, 1, d, d) stack, built once per qubit count."""
    paulis = np.stack([X, Y, Z])
    strings = tuple(kron_all(*(paulis if j == q else I2 for j in range(qubit_count)))[:, None]
                    for q in range(qubit_count))
    for ops in strings:
        ops.setflags(write=False)
    return strings


def depolarize_global(rho, p: float) -> np.ndarray:
    """p*rho + (1-p)*I/dim."""
    p = _check_p(p)
    return _global_channel(as_matrix(rho), p)


def _global_channel(rho: np.ndarray, p) -> np.ndarray:
    """depolarize_global at a checked p, a float or an (n, 1, 1) column."""
    d = rho.shape[-1]
    return p * rho + (1.0 - p) * np.eye(d, dtype=complex) / d


def observable_matrices(plane: str, angles) -> np.ndarray:
    """The observables of an array of angles in one plane, stacked: shape
    angles.shape + (2, 2)."""
    if plane not in ("xz", "xy"):
        raise ValidationError(f"unknown plane {plane!r}")
    angles = np.asarray(angles, dtype=float)
    if not np.all(np.isfinite(angles)):
        raise ValidationError(f"non-finite observable angle in {angles!r}")
    c = np.cos(angles)[..., None, None]
    s = np.sin(angles)[..., None, None]
    if plane == "xz":
        return c * Z + s * X
    return c * X + s * Y


# The block-diagonal family on columns: rho (2, 2, 2, n) for n states, and
# the cos and sin rows of their stacked angles (2t, t, b0, b0/2), Bob's angle
# b0 included, laid out as below.  Sums over the (2, 2) blocks run left to
# right, the order numpy's reductions take.
_COS2T, _COST, _COSB, _COSH = slice(0, 4), slice(4, 8), 8, 9
_SIN2T, _SINT, _SINB, _SINH = slice(10, 14), slice(14, 18), 18, 19
_ANGLE_ROWS = np.array([0, 1, 2, 3, 0, 1, 2, 3, 4, 4])  # the angle behind each
_ANGLE_SCALE = np.array([2.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5])[:, None]


def _block_trig(a: np.ndarray) -> np.ndarray:
    """(5, n) angles t00, t01, t10, t11, b0 -> the (20, n) cos and sin rows
    of the stacked (2t, t, b0, b0/2)."""
    ang = a.take(_ANGLE_ROWS, axis=0) * _ANGLE_SCALE  # 1.0 * t is t
    out = np.empty((20, ang.shape[1]))
    np.cos(ang, out=out[:10])
    np.sin(ang, out=out[10:])
    return out


def _sum4(x: np.ndarray) -> np.ndarray:
    return ((x[0, 0] + x[0, 1]) + x[1, 0]) + x[1, 1]


def _block_zxx(d: np.ndarray, trig: np.ndarray) -> np.ndarray:
    """<ZXX> from the eigenvalue differences d = rho[0] - rho[1] (2, 2, n)."""
    return _sum4(d * trig[_SIN2T].reshape(2, 2, -1))


def _block_correlators(rho: np.ndarray, trig: np.ndarray):
    """(XXX, ZXX, ZZI, ZIZ, IZZ) of the columns rho (2, 2, 2, n), trig
    (20, n), each (n,); Z on Bob's bit j and on Charlie's bit k enters as a
    subtraction."""
    d, tot = rho[0] - rho[1], rho[0] + rho[1]
    p = d * trig[_COS2T].reshape(2, 2, -1)
    xxx, zxx = _sum4(p), _block_zxx(d, trig)
    zzi = ((p[0, 0] + p[0, 1]) - p[1, 0]) - p[1, 1]
    ziz = ((p[0, 0] - p[0, 1]) + p[1, 0]) - p[1, 1]
    izz = ((tot[0, 0] - tot[0, 1]) - tot[1, 0]) + tot[1, 1]
    return xxx, zxx, zzi, ziz, izz


def _block_lambdas(rho: np.ndarray, trig: np.ndarray):
    """GHZ-basis weights of the columns, (lambda[0], lambda[1]) each (2, 2, n)."""
    ct, st = trig[_COST].reshape(2, 2, -1) ** 2, trig[_SINT].reshape(2, 2, -1) ** 2
    lam1 = st * rho[0] + ct * rho[1]  # block (j, k)'s weight of (1, ~j, ~k)
    return ct * rho[0] + st * rho[1], lam1[::-1, ::-1]


def _block_eigenvectors(t: np.ndarray) -> np.ndarray:
    """The eigenvectors of n block states as columns, index i*4+j*2+k for
    rho[i, j, k]: t (n,2,2) -> (n,8,8).  Block
    b = 2j+k mixes the GHZ-basis elements (0,j,k) and (1,~j,~k), whose
    nonzero components sit on rows b, 7-b and 3-b, 4+b."""
    n = t.shape[0]
    # times 1/sqrt2, the GHZ-basis entries, so the columns equal
    # cos(t) psi0 + sin(t) psi1 bit for bit
    c = np.cos(t).reshape(n, 4) * (1.0 / SQRT2)
    s = np.sin(t).reshape(n, 4) * (1.0 / SQRT2)
    b = np.arange(4)
    v = np.zeros((n, 8, 8))
    # column b: cos(t) psi0 + sin(t) psi1; column 4+b: -sin(t) psi0 + cos(t) psi1
    v[:, b, b] = v[:, 7 - b, b] = v[:, 3 - b, 4 + b] = c
    v[:, 3 - b, b] = s
    v[:, 4 + b, b] = v[:, b, 4 + b] = v[:, 7 - b, 4 + b] = -s
    v[:, 4 + b, 4 + b] = -c
    return v


def _block_matrices(rho: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The columns rho (2, 2, 2, n), t (2, 2, n) as n real 8x8 density
    matrices in the computational basis, (n, 8, 8)."""
    v = _block_eigenvectors(np.moveaxis(t, -1, 0))
    w = np.moveaxis(rho, -1, 0).reshape(-1, 1, 8)
    return (v * w) @ np.swapaxes(v, 1, 2)


def _sorted_blocks(rho: np.ndarray, t: np.ndarray):
    """Check and order the columns rho (2, 2, 2, n), t (2, 2, n) of n block
    states: every block eigenvalue >= -1e-10 (then clipped at 0), each
    state's eigenvalues sum to 1 within 1e-10, every t is finite, and
    rho[0, j, k] >= rho[1, j, k], where swapping a block's eigenvalues
    rotates its t by pi/2.  A NaN fails these checks.  Returns new arrays."""
    bad = ~(rho >= -1e-10)
    if np.any(bad):
        raise ValidationError(f"block eigenvalue {rho[bad][0]:.3e} is negative or NaN")
    rho = np.clip(rho, 0.0, None)
    total = rho.sum(axis=(0, 1, 2))
    bad = ~(np.abs(total - 1.0) <= 1e-10)
    if np.any(bad):
        raise ValidationError(f"block eigenvalues sum to {total[bad][0]!r}")
    bad = ~np.isfinite(t)
    if np.any(bad):
        raise ValidationError(f"block angle {t[bad][0]:.3e} is not finite")
    swap = rho[0] < rho[1]
    r0 = np.where(swap, rho[1], rho[0])
    r1 = np.where(swap, rho[0], rho[1])
    return np.stack([r0, r1]), np.where(swap, t + np.pi / 2, t)


@dataclass(frozen=True)
class BlockDiagState:
    """Three-qubit state block-diagonal in the GHZ basis.

    Canonical coordinates are the per-block eigenvalues rho[i, j, k] (block
    (j, k) couples the basis elements (0,j,k) and (1,~j,~k); i labels the two
    eigenvalues, sorted so rho[0,j,k] >= rho[1,j,k]) and the eigenvector
    rotation angles t[j, k].  The {lambda_ijk, r_jk} coordinates of the
    matrix representation are a derived view.
    """

    rho: np.ndarray = field(repr=False)  # shape (2, 2, 2)
    t: np.ndarray = field(repr=False)    # shape (2, 2)

    def __post_init__(self):
        rho, t = _sorted_blocks(np.asarray(self.rho, dtype=float).reshape(2, 2, 2, 1),
                                np.asarray(self.t, dtype=float).reshape(2, 2, 1))
        object.__setattr__(self, "rho", rho[..., 0])
        object.__setattr__(self, "t", t[..., 0])

    @classmethod
    def from_lambda_r(cls, lambdas, r) -> "BlockDiagState":
        """Build from GHZ-basis weights lambda[i,j,k] and real coherences r[j,k]."""
        lam = np.asarray(lambdas, dtype=float).reshape(2, 2, 2)
        r = np.asarray(r, dtype=float).reshape(2, 2)
        rho = np.zeros((2, 2, 2))
        t = np.zeros((2, 2))
        for j in (0, 1):
            for k in (0, 1):
                l0 = lam[0, j, k]
                l1 = lam[1, 1 - j, 1 - k]
                s = np.hypot(l0 - l1, 2.0 * r[j, k])
                rho[0, j, k] = 0.5 * (l0 + l1 + s)
                rho[1, j, k] = 0.5 * (l0 + l1 - s)
                t[j, k] = 0.5 * np.arctan2(2.0 * r[j, k], l0 - l1)
        return cls(rho, t)

    def _columns(self, b0: float = 0.0):
        """This state, with Bob's angle b0, as one column: (rho, trig)."""
        return self.rho[..., None], _block_trig(np.append(self.t, b0)[:, None])

    @property
    def lambdas(self) -> np.ndarray:
        """GHZ-basis diagonal weights lambda[i, j, k]."""
        return np.stack(_block_lambdas(*self._columns()))[..., 0]

    @property
    def r(self) -> np.ndarray:
        """Real coherences r[j, k] between (0,j,k) and (1,~j,~k)."""
        return 0.5 * np.sin(2.0 * self.t) * (self.rho[0] - self.rho[1])

    def to_matrix(self) -> np.ndarray:
        return _block_matrices(self.rho[..., None], self.t[..., None])[0] + 0j

    def correlators(self) -> dict[str, float]:
        """The five expectation values entering the reduced Holz Bell value."""
        vals = _block_correlators(*self._columns())
        names = ("XXX", "ZXX", "ZZI", "ZIZ", "IZZ")
        return {k: float(v[0]) for k, v in zip(names, vals)}


def tau_state(nu: float) -> BlockDiagState:
    """Two-eigenvalue tightness family: nu on (0,0,0), 1-nu on (1,0,0)."""
    if not 0.5 <= nu <= 1.0:
        raise ValidationError(f"nu={nu!r} outside [1/2, 1]")
    lam = np.zeros((2, 2, 2))
    lam[0, 0, 0] = nu
    lam[1, 0, 0] = 1.0 - nu
    return BlockDiagState.from_lambda_r(lam, np.zeros((2, 2)))
