"""qmath: linear algebra primitives and entropies against naive oracles."""

import numpy as np
import pytest

from tribell import qmath
from tribell.errors import NumericError, ValidationError

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def naive_kron(a, b):
    """Index-expansion oracle for the Kronecker product."""
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n * m, n * m), dtype=complex)
    for i1 in range(n):
        for j1 in range(n):
            for i2 in range(m):
                for j2 in range(m):
                    out[i1 * m + i2, j1 * m + j2] = a[i1, j1] * b[i2, j2]
    return out


def naive_partial_trace(rho, n, keep):
    """Direct-summation oracle over computational-basis indices."""
    keep = sorted(keep)
    traced = [q for q in range(n) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)

    def bits(x, qubits):
        return tuple((x >> (n - 1 - q)) & 1 for q in qubits)

    for i in range(2 ** n):
        for j in range(2 ** n):
            if bits(i, traced) != bits(j, traced):
                continue
            bi = bits(i, keep)
            bj = bits(j, keep)
            ii = sum(b << (len(keep) - 1 - q) for q, b in enumerate(bi))
            jj = sum(b << (len(keep) - 1 - q) for q, b in enumerate(bj))
            out[ii, jj] += rho[i, j]
    return out


def partial_trace(rho, qubit_count, keep):
    """Oracle: trace out all qubits not in `keep` (qubit 0 is the leftmost
    tensor factor), contracting each traced qubit's row and column axes."""
    rho = qmath.as_matrix(rho)
    if rho.shape[0] != 2 ** qubit_count:
        raise ValidationError(f"dimension {rho.shape[0]} != 2^{qubit_count}")
    keep = sorted(set(int(q) for q in keep))
    if not keep:
        raise ValidationError("keep must be non-empty")
    if keep[0] < 0 or keep[-1] >= qubit_count:
        raise IndexError(f"keep={keep} out of range for {qubit_count} qubits")
    t = rho.reshape([2] * (2 * qubit_count))
    for q in sorted(set(range(qubit_count)) - set(keep), reverse=True):
        t = np.trace(t, axis1=q, axis2=q + (t.ndim // 2))
    d = 2 ** len(keep)
    return t.reshape(d, d)


def von_neumann_entropy(rho):
    """-Tr[rho log2 rho] from the library's pieces, as cond_entropies takes
    S(rho): a checked density matrix, its spectrum, then spectrum_entropy."""
    return float(qmath.spectrum_entropy(qmath.eig_hermitian(qmath.ensure_density_matrix(rho))))


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestKron:
    def test_identity(self):
        assert np.allclose(qmath.kron_all(I2, I2), np.eye(4))
        np.testing.assert_array_equal(qmath.kron_all(), np.eye(1))

    def test_diagonal_product(self):
        assert np.allclose(qmath.kron_all(Z, Z), np.diag([1, -1, -1, 1]))

    def test_associativity_vs_index_expansion(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        left = qmath.kron_all(qmath.kron_all(X, Z), a)
        right = qmath.kron_all(X, qmath.kron_all(Z, a))
        oracle = naive_kron(naive_kron(X, Z), a)
        assert np.allclose(left, right)
        assert np.allclose(left, oracle)
        np.testing.assert_array_equal(qmath.kron_all(X, Z, a), left)
        # stacks (5, 2, 2) multiply row by row, each row np.kron's bit for bit
        a, b, c = (rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
                   for _ in range(3))
        got = qmath.kron_all(a, b, c)
        assert got.shape == (5, 8, 8)
        for i in range(5):
            want = np.kron(np.kron(a[i], b[i]), c[i])
            for row in (qmath.kron_all(a[i], b[i], c[i]), want):
                np.testing.assert_array_equal(got[i].view(np.uint64), row.view(np.uint64))
        # a (2, 2) factor broadcasts against the (5, 2, 2) stacks
        got = qmath.kron_all(X, b, I2)
        assert got.shape == (5, 8, 8)
        for i in range(5):
            want = np.kron(np.kron(X, b[i]), I2)
            np.testing.assert_array_equal(got[i].view(np.uint64), want.view(np.uint64))

    def test_size_cap(self):
        with pytest.raises(ValidationError):
            qmath.kron_all(np.eye(64), np.eye(128))
        with pytest.raises(ValidationError, match="square"):
            qmath.kron_all(X, np.ones((2, 3)))
        with pytest.raises(ValidationError, match="square"):
            qmath.kron_all(np.ones(2))


class TestPartialTrace:
    """The partial-trace oracle of the depolarizing and purification tests."""

    def test_product_state(self):
        rng = np.random.default_rng(5)
        ra, rb = random_density(rng, 2), random_density(rng, 2)
        joint = qmath.kron_all(ra, rb)
        assert np.allclose(partial_trace(joint, 2, {0}), ra)
        assert np.allclose(partial_trace(joint, 2, {1}), rb)

    def test_bell_state_marginal(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        phi = np.outer(v, v.conj())
        assert np.allclose(partial_trace(phi, 2, {0}), np.eye(2) / 2)

    def test_random_states_vs_direct_summation(self):
        rng = np.random.default_rng(7)
        options = [[0], [1], [2], [0, 1], [0, 2], [1, 2]]
        for _ in range(100):
            rho = random_density(rng, 8)
            keep = options[rng.integers(len(options))]
            got = partial_trace(rho, 3, keep)
            want = naive_partial_trace(rho, 3, keep)
            assert np.allclose(got, want, atol=1e-12)
            assert abs(np.trace(got) - np.trace(rho)) < 1e-12

    def test_keep_out_of_range(self):
        with pytest.raises(IndexError):
            partial_trace(np.eye(4) / 4, 2, {2})

    def test_keep_empty(self):
        with pytest.raises(ValidationError):
            partial_trace(np.eye(4) / 4, 2, set())


class TestEigHermitian:
    def test_pauli_z(self):
        assert np.allclose(qmath.eig_hermitian(Z), [1, -1])

    def test_already_diagonal_sorted_descending(self):
        assert np.allclose(qmath.eig_hermitian(np.diag([3.0, 1.0, 2.0])), [3, 2, 1])

    def test_spectrum_of_rotated_diagonal_descending(self):
        # U diag(w) U^dagger for random unitaries U, one matrix and stacks
        rng = np.random.default_rng(11)
        for shape in [(8,)] * 10 + [(64,), (5, 8), (3, 2, 4)]:
            d = shape[-1]
            g = rng.normal(size=shape[:-1] + (d, d)) + 1j * rng.normal(size=shape[:-1] + (d, d))
            u, _ = np.linalg.qr(g)
            w = np.sort(rng.normal(size=shape))[..., ::-1]
            hm = (u * w[..., None, :]) @ np.swapaxes(u, -1, -2).conj()
            hm = (hm + np.swapaxes(hm, -1, -2).conj()) / 2
            got = qmath.eig_hermitian(hm)
            assert got.shape == shape
            assert np.max(np.abs(got - w)) < 1e-9
            assert np.all(np.diff(got, axis=-1) <= 0.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            qmath.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_dimension_cap(self):
        with pytest.raises(ValidationError, match="limit"):
            qmath.eig_hermitian(np.eye(65))
        with pytest.raises(ValidationError, match="limit"):
            qmath.eig_hermitian(np.stack([np.eye(65)] * 2))

    def test_linalg_error_becomes_numeric_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericError, match="did not converge"):
            qmath.eig_hermitian(Z)

    def test_stack_validation(self):
        good = np.stack([Z, np.eye(2)])
        with pytest.raises(ValidationError, match="not Hermitian"):
            qmath.eig_hermitian(np.stack([good, [Z, [[0, 1], [0, 0]]]]))
        with pytest.raises(ValidationError, match="square"):
            qmath.eig_hermitian(np.zeros((2, 2, 3)))
        with pytest.raises(ValidationError, match="trace is 2.0"):
            qmath.ensure_density_matrix(np.stack([np.eye(2) / 2, np.eye(2)]))


class TestSpectrumEntropy:
    def test_along_last_axis(self):
        rng = np.random.default_rng(4)
        w = rng.dirichlet([0.5] * 4, size=(3, 2))
        got = qmath.spectrum_entropy(w)
        assert got.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            assert got[idx] == pytest.approx(-np.sum(w[idx] * np.log2(w[idx])), abs=1e-15)

    def test_drops_at_or_below_rank_tol(self):
        assert qmath.spectrum_entropy([0.5, 0.5, qmath.RANK_TOL, 0.0, -1e-11]) == 1.0
        assert qmath.spectrum_entropy([0.0, 0.0]) == 0.0

    def test_descending_spectrum_bits_equal_kept_terms_alone(self):
        # cond_entropy's entropies keep the bits of summing the kept terms
        rng = np.random.default_rng(6)
        for _ in range(2000):
            m = rng.choice([2, 4, 8, 16])
            k = rng.integers(1, m + 1)
            w = np.sort(np.concatenate([rng.dirichlet([0.5] * k),
                                        rng.uniform(-1e-13, 1e-12, m - k)]))[::-1]
            kept = w[w > qmath.RANK_TOL]
            want = -(kept * np.log2(kept)).sum()
            got = qmath.spectrum_entropy(w)
            assert got.view(np.uint64) == np.float64(want).view(np.uint64)

    def test_negative_eigenvalue_raises(self):
        with pytest.raises(ValidationError, match="not PSD"):
            qmath.spectrum_entropy([[0.5, 0.5], [1.0 + 2e-10, -2e-10]])


class TestVonNeumann:
    """S(rho) as the library computes it."""

    def test_tiny_eigenvalues_dropped(self):
        # 1e-13 * log2(1e-13) would add 4.3e-12 bits
        got = von_neumann_entropy(np.diag([1.0 - 1e-13, 1e-13]))
        assert got == float(qmath.spectrum_entropy([1.0 - 1e-13]))
        assert got < 1e-12

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_two_level_example(self):
        # -sum lambda log2 lambda at (3/4, 1/4), evaluated independently
        expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        got = von_neumann_entropy(np.diag([0.75, 0.25]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.811278, abs=1e-6)

    def test_trace_validation(self):
        with pytest.raises(ValidationError):
            von_neumann_entropy(np.eye(2))

    def test_not_psd(self):
        with pytest.raises(ValidationError):
            von_neumann_entropy(np.diag([1.5, -0.5]))

    def test_range_on_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            d = rng.choice([2, 4, 8])
            s = von_neumann_entropy(random_density(rng, d))
            assert -1e-12 <= s <= np.log2(d) + 1e-12


class TestBinaryEntropy:
    def test_half(self):
        assert qmath.binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert qmath.binary_entropy(0.0) == 0.0
        assert qmath.binary_entropy(1.0) == 0.0

    def test_quarter(self):
        expected = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
        assert qmath.binary_entropy(0.25) == pytest.approx(expected, abs=1e-15)
        assert qmath.binary_entropy(0.25) == pytest.approx(0.811278, abs=1e-6)

    def test_symmetry_grid(self):
        xs = np.linspace(0.0, 1.0, 1000)
        for x in xs:
            assert abs(qmath.binary_entropy(x) - qmath.binary_entropy(1 - x)) <= 1e-12

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            qmath.binary_entropy(1.1)


def _scalar_h(x):
    """The scalar binary entropy, 0 log 0 := 0, as the oracle of the array one."""
    x = min(max(x, 0.0), 1.0)
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


class TestBinaryEntropyElementwise:
    XS = np.concatenate([[-1e-12, 0.0, 1e-300, 0.5, 1.0, 1.0 + 1e-12],
                         np.random.default_rng(3).random(2000)])

    def test_array_equals_points_bit_for_bit(self):
        got = qmath.binary_entropy(self.XS)
        want = np.array([_scalar_h(x) for x in self.XS.tolist()])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_float_in_float_out(self):
        assert type(qmath.binary_entropy(0.25)) is float
        assert type(qmath.binary_entropy(np.float64(0.25))) is float
        assert type(qmath.binary_entropy_deriv(0.25)) is float
        assert qmath.binary_entropy(self.XS.reshape(2, -1)).shape == (2, self.XS.size // 2)

    def test_deriv_array_equals_points(self):
        xs = self.XS[(self.XS > 0.0) & (self.XS < 1.0)]
        want = np.array([np.log2((1.0 - x) / x) for x in xs.tolist()])
        np.testing.assert_array_equal(qmath.binary_entropy_deriv(xs), want)

    @pytest.mark.parametrize("fn, xs, message", [
        (qmath.binary_entropy, [0.5, np.nan, 1.5], "argument nan outside [0, 1]"),
        (qmath.binary_entropy, [0.5, 1.5, np.nan], "argument 1.5 outside [0, 1]"),
        (qmath.binary_entropy, [0.2, -1e-9], "argument -1e-09 outside [0, 1]"),
        (qmath.binary_entropy_deriv, [0.5, 1.0], "argument 1.0 outside (0, 1)"),
        (qmath.binary_entropy_deriv, np.float64(0.0), "argument 0.0 outside (0, 1)"),
    ])
    def test_first_bad_value_named_as_plain_float(self, fn, xs, message):
        with pytest.raises(ValidationError) as exc:
            fn(np.asarray(xs))
        assert str(exc.value).endswith(message)
        assert "np." not in str(exc.value)


class TestShannonEntropy:
    def test_deterministic(self):
        assert qmath.shannon_entropy([1, 0, 0, 0]) == 0.0

    def test_uniform(self):
        assert qmath.shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)

    def test_mabk_distribution_at_three(self):
        # distribution {1-3f, f, f, f} with f = 1/4 - sqrt(3)/24 * sqrt(5)
        f = 0.25 - np.sqrt(3) / 24 * np.sqrt(5.0)
        ps = [1 - 3 * f, f, f, f]
        oracle = -sum(p * np.log2(p) for p in ps)
        assert qmath.shannon_entropy(ps) == pytest.approx(oracle, abs=1e-12)
        assert qmath.shannon_entropy(ps) == pytest.approx(1.2568913, abs=1e-6)

    def test_negative_weight(self):
        with pytest.raises(ValidationError):
            qmath.shannon_entropy([1.1, -0.1])

    def test_sum_validation(self):
        with pytest.raises(ValidationError, match=r"^weights sum to 0\.9, expected"):
            qmath.shannon_entropy([0.5, 0.4])

    def test_columns_equal_vectors_bit_for_bit(self):
        rng = np.random.default_rng(4)
        w = rng.dirichlet([0.5] * 4, size=500).T
        w[:2, :50] = 0.0  # zero weights first, as theta's at its domain edge
        w[2:, :50] = 0.5
        got = qmath.shannon_entropy(w)
        want = np.array([qmath.shannon_entropy(col) for col in w.T])
        assert type(qmath.shannon_entropy(w[:, 0])) is float and got.shape == (500,)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        oracle = [-sum(p * np.log2(p) for p in col if p > 0.0) for col in w.T.tolist()]
        np.testing.assert_array_equal(got, oracle)
