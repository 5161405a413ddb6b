"""states: GHZ basis, depolarization channels, block-diagonal family and
the observables of angle rows."""

import numpy as np
import pytest

from tribell import bell, qmath, states
from tribell.errors import ValidationError
from tribell.states import BlockDiagState, ghz_state, tau_state

from test_qmath import partial_trace, von_neumann_entropy

I2, X, Y, Z = states.I2, states.X, states.Y, states.Z


def ghz_basis_vector(i, j, k):
    """Oracle: the GHZ-basis element (|0,j,k> + (-1)^i |1,~j,~k>)/sqrt(2)."""
    if not all(b in (0, 1) for b in (i, j, k)):
        raise ValidationError("bits must be 0 or 1")
    v = np.zeros(8, dtype=complex)
    v[(0 << 2) | (j << 1) | k] = 1.0 / np.sqrt(2.0)
    v[(1 << 2) | ((1 - j) << 1) | (1 - k)] = (-1.0) ** i / np.sqrt(2.0)
    return v


def ghz_basis_state(i, j, k):
    """Oracle: the rank-1 projector onto the GHZ-basis element (i, j, k)."""
    v = ghz_basis_vector(i, j, k)
    return np.outer(v, v.conj())


def _embed_identity_half(reduced, q, n):
    """I/2 at qubit q tensored with `reduced` on the remaining qubits."""
    d = 2 ** n
    out = np.zeros((d, d), dtype=complex)
    kept = [i for i in range(n) if i != q]
    for i in range(d):
        for j in range(d):
            bi = [(i >> (n - 1 - k)) & 1 for k in range(n)]
            bj = [(j >> (n - 1 - k)) & 1 for k in range(n)]
            if bi[q] != bj[q]:
                continue
            ri = sum(bi[k] << (len(kept) - 1 - a) for a, k in enumerate(kept))
            rj = sum(bj[k] << (len(kept) - 1 - a) for a, k in enumerate(kept))
            out[i, j] = 0.5 * reduced[ri, rj]
    return out


def naive_local_depolarize(rho, p, n):
    """Oracle: per qubit, rho -> p*rho + (1-p) * (I/2 (x) tr_qubit(rho))."""
    out = rho.copy()
    for q in range(n):
        keep = [i for i in range(n) if i != q]
        reduced = partial_trace(out, n, keep)
        out = p * out + (1 - p) * _embed_identity_half(reduced, q, n)
    return out


class TestGhzBasis:
    def test_000_is_ghz(self):
        assert np.allclose(ghz_basis_state(0, 0, 0), ghz_state(3))

    def test_orthonormality_all_pairs(self):
        vs = [ghz_basis_vector(i, j, k)
              for i in (0, 1) for j in (0, 1) for k in (0, 1)]
        for a in range(8):
            for b in range(8):
                ip = np.vdot(vs[a], vs[b])
                assert abs(ip - (1.0 if a == b else 0.0)) < 1e-12

    def test_xxx_eigenrelation(self):
        xxx = qmath.kron_all(X, X, X)
        for i in (0, 1):
            for j in (0, 1):
                for k in (0, 1):
                    v = ghz_basis_vector(i, j, k)
                    assert np.allclose(xxx @ v, (-1.0) ** i * v)

    def test_bad_bits(self):
        with pytest.raises(ValidationError):
            ghz_basis_state(2, 0, 0)


class TestDepolarize:
    def test_local_identity_at_p1(self):
        rho = ghz_state(3)
        assert np.allclose(states.depolarize_local(rho, 1.0, 3), rho)

    def test_local_fully_mixed_at_p0(self):
        rho = ghz_state(3)
        assert np.allclose(states.depolarize_local(rho, 0.0, 3), np.eye(8) / 8)

    def test_local_ghz_correlators(self):
        noisy = states.depolarize_local(ghz_state(3), 0.9, 3)
        xxx = qmath.kron_all(X, X, X)
        zzi = qmath.kron_all(Z, Z, I2)
        assert np.trace(noisy @ xxx).real == pytest.approx(0.729, abs=1e-12)
        assert np.trace(noisy @ zzi).real == pytest.approx(0.81, abs=1e-12)

    def test_local_vs_channel_oracle(self):
        rng = np.random.default_rng(23)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        for p in (0.0, 0.3, 0.8, 1.0):
            got = states.depolarize_local(rho, p, 3)
            want = naive_local_depolarize(rho, p, 3)
            assert np.allclose(got, want, atol=1e-12)
            assert abs(np.trace(got) - 1.0) < 1e-12

    def test_local_composition(self):
        rho = ghz_state(3)
        a = states.depolarize_local(states.depolarize_local(rho, 0.9, 3), 0.8, 3)
        b = states.depolarize_local(rho, 0.72, 3)
        assert np.allclose(a, b, atol=1e-12)

    def test_global_endpoints(self):
        rho = ghz_state(3)
        assert np.allclose(states.depolarize_global(rho, 1.0), rho)
        assert np.allclose(states.depolarize_global(rho, 0.0), np.eye(8) / 8)

    def test_global_scales_traceless_correlators(self):
        rho = ghz_state(3)
        noisy = states.depolarize_global(rho, 0.8)
        for ops in ([X, X, X], [Z, Z, I2], [X, Y, Y], [Z, I2, Z]):
            op = qmath.kron_all(*ops)
            clean = np.trace(rho @ op).real
            assert np.trace(noisy @ op).real == pytest.approx(0.8 * clean, abs=1e-12)

    def test_p_out_of_range(self):
        with pytest.raises(ValidationError):
            states.depolarize_local(ghz_state(3), 1.2, 3)
        with pytest.raises(ValidationError):
            states.depolarize_global(ghz_state(3), -0.1)
        for p in (2.0, np.nan):
            with pytest.raises(ValidationError, match="outside"):
                states.depolarize_local(ghz_state(3), p, 3)
            with pytest.raises(ValidationError, match="outside"):
                states.depolarize_global(ghz_state(3), p)


class TestObservable:
    """observable_matrices: the 2x2 observables of angle arrays."""

    def test_involutions(self):
        for plane in ("xz", "xy"):
            for angle in np.linspace(0, 2 * np.pi, 37):
                m = states.observable_matrices(plane, angle)
                assert np.max(np.abs(m @ m - I2)) < 1e-12
                assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_plane_conventions(self):
        assert np.allclose(states.observable_matrices("xz", 0.0), Z)
        assert np.allclose(states.observable_matrices("xz", np.pi / 2), X)
        assert np.allclose(states.observable_matrices("xy", 0.0), X)
        assert np.allclose(states.observable_matrices("xy", np.pi / 2), Y)

    def test_bad_plane(self):
        with pytest.raises(ValidationError):
            states.observable_matrices("yz", 0.0)
        with pytest.raises(ValidationError):
            states.observable_matrices("yz", [0.0])

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle(self, angle):
        with pytest.raises(ValidationError, match="non-finite"):
            states.observable_matrices("xz", angle)
        with pytest.raises(ValidationError, match="non-finite"):
            states.observable_matrices("xy", [0.0, angle])

    @pytest.mark.parametrize("plane", ["xz", "xy"])
    def test_stack_bits_equal_single_matrices(self, plane):
        angles = np.concatenate([np.linspace(0, 2 * np.pi, 13),
                                 np.random.default_rng(8).uniform(-9, 9, 200)])
        stack = states.observable_matrices(plane, angles.reshape(-1, 1))
        assert stack.shape == (len(angles), 1, 2, 2)
        for a, m in zip(angles, stack[:, 0]):
            c, s = np.cos(a), np.sin(a)
            want = c * Z + s * X if plane == "xz" else c * X + s * Y
            np.testing.assert_array_equal(m.view(np.uint64), want.view(np.uint64))
            np.testing.assert_array_equal(states.observable_matrices(plane, a).view(np.uint64),
                                          want.view(np.uint64))


class TestMeasurementSettings:
    """A settings row: each party's two angles in turn, in one plane."""

    def test_combo_matrices_match_angle_formulas(self):
        # a party's "+" and "-" observables, half the sum and difference of
        # its pair, against the half-sum and half-difference angles
        rng = np.random.default_rng(29)
        for _ in range(50):
            a0, a1, b0, b1, c0, c1 = rng.uniform(0, 2 * np.pi, 6)
            obs = states.observable_matrices("xz", [[b0, b1], [c0, c1]])
            bob, charlie = (bell._party_observables(pair) for pair in obs)
            bp, bm = 0.5 * (b0 + b1), 0.5 * (b0 - b1)
            want_bp = np.cos(bm) * (np.cos(bp) * Z + np.sin(bp) * X)
            want_bm = -np.sin(bm) * (np.sin(bp) * Z - np.cos(bp) * X)
            assert np.max(np.abs(bob["+"] - want_bp)) < 1e-12
            assert np.max(np.abs(bob["-"] - want_bm)) < 1e-12
            cp, cm = 0.5 * (c0 + c1), 0.5 * (c0 - c1)
            want_cp = np.cos(cm) * (np.cos(cp) * Z + np.sin(cp) * X)
            assert np.max(np.abs(charlie["+"] - want_cp)) < 1e-12

    def test_bipartite_has_no_charlie(self):
        # four angles are two parties' settings, not the three Holz needs
        with pytest.raises(ValidationError, match="angles of shape"):
            bell.bell_terms(bell.holz(), [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="angles of shape"):
            bell.bell_value(bell.holz(), ghz_state(3), [0.0, 1.0, 2.0, 3.0])


class TestBlockDiagState:
    def test_round_trip_lambda_r(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            rho = rng.dirichlet([0.7] * 8).reshape(2, 2, 2)
            t = rng.uniform(-np.pi / 2, np.pi / 2, size=(2, 2))
            st = BlockDiagState(rho, t)
            back = BlockDiagState.from_lambda_r(st.lambdas, st.r)
            assert np.max(np.abs(back.rho - st.rho)) < 1e-9
            assert np.max(np.abs(back.to_matrix() - st.to_matrix())) < 1e-9

    def test_lambdas_bits_equal_double_loop(self):
        rng = np.random.default_rng(41)
        sts = [tau_state(0.75), tau_state(1.0),
               BlockDiagState(np.full(8, 0.125), [[0.0, np.pi / 2], [-np.pi / 2, -0.0]])]
        sts += [BlockDiagState(rng.dirichlet([0.7] * 8).reshape(2, 2, 2),
                               rng.uniform(-np.pi, np.pi, size=(2, 2))) for _ in range(200)]
        for st in sts:
            lam = np.zeros((2, 2, 2))
            c2, s2 = np.cos(st.t) ** 2, np.sin(st.t) ** 2
            for j in (0, 1):
                for k in (0, 1):
                    lam[0, j, k] = c2[j, k] * st.rho[0, j, k] + s2[j, k] * st.rho[1, j, k]
                    lam[1, 1 - j, 1 - k] = (s2[j, k] * st.rho[0, j, k]
                                            + c2[j, k] * st.rho[1, j, k])
            np.testing.assert_array_equal(st.lambdas.view(np.uint64), lam.view(np.uint64))

    def test_matrix_is_valid_state_with_block_support(self):
        rng = np.random.default_rng(37)
        izz = qmath.kron_all(I2, Z, Z)
        basis = np.column_stack([ghz_basis_vector(i, j, k)
                                 for i in (0, 1) for j in (0, 1) for k in (0, 1)])
        for _ in range(100):
            st = BlockDiagState(rng.dirichlet([0.5] * 8).reshape(2, 2, 2),
                                rng.uniform(-2, 2, size=(2, 2)))
            m = st.to_matrix()
            assert abs(np.trace(m) - 1.0) < 1e-12
            assert qmath.eig_hermitian(m).min() > -1e-10
            assert np.max(np.abs(m @ izz - izz @ m)) < 1e-12
            # GHZ-basis representation: only diagonal and (0jk)<->(1,~j,~k)
            g = basis.conj().T @ m @ basis
            for a in range(8):
                for b in range(8):
                    ia, ja, ka = a >> 2, (a >> 1) & 1, a & 1
                    ib, jb, kb = b >> 2, (b >> 1) & 1, b & 1
                    allowed = (a == b) or (ia != ib and ja != jb and ka != kb)
                    if not allowed:
                        assert abs(g[a, b]) < 1e-12

    def test_eigenvectors_match_ghz_basis_rotation(self):
        # reference: column (i,j,k) rotates psi0 = |GHZ_0jk>, psi1 =
        # |GHZ_1,~j,~k> by t[j,k]; the batched builder gives the same bits
        rng = np.random.default_rng(41)
        t = rng.uniform(-4, 4, size=(50, 2, 2))
        fast = states._block_eigenvectors(t)
        for n in range(len(t)):
            ref = np.zeros((8, 8))
            for j in (0, 1):
                for k in (0, 1):
                    c, s = np.cos(t[n, j, k]), np.sin(t[n, j, k])
                    psi0 = ghz_basis_vector(0, j, k).real
                    psi1 = ghz_basis_vector(1, 1 - j, 1 - k).real
                    ref[:, 2 * j + k] = c * psi0 + s * psi1
                    ref[:, 4 + 2 * j + k] = -s * psi0 + c * psi1
            assert np.array_equal(fast[n], ref)

    def test_eigen_convention_enforced(self):
        rho = np.zeros((2, 2, 2))
        rho[0, 0, 0] = 0.2
        rho[1, 0, 0] = 0.8
        st = BlockDiagState(rho, np.zeros((2, 2)))
        assert np.all(st.rho[0] >= st.rho[1] - 1e-15)
        # same matrix as the unsorted input
        direct = (0.2 * ghz_basis_state(0, 0, 0)
                  + 0.8 * np.outer(ghz_basis_vector(1, 1, 1),
                                   ghz_basis_vector(1, 1, 1)))
        assert np.max(np.abs(st.to_matrix() - direct)) < 1e-12

    def test_sorted_blocks_batch_equals_single_states(self):
        rng = np.random.default_rng(12)
        n = 300
        rho = rng.dirichlet([0.5] * 8, size=n).T.reshape(2, 2, 2, n)
        rho[:, 0, 1, :5] = 0.0625  # equal pairs stay in place
        rho /= rho.sum(axis=(0, 1, 2))
        t = rng.uniform(-np.pi, np.pi, size=(2, 2, n))
        swap = rho[0] < rho[1]
        assert swap.any() and (~swap).any()
        got_rho, got_t = states._sorted_blocks(rho, t)
        for i in range(n):
            st = BlockDiagState(rho[..., i], t[..., i])
            for a, b in ((got_rho[..., i], st.rho), (got_t[..., i], st.t)):
                np.testing.assert_array_equal(np.ascontiguousarray(a).view(np.uint64),
                                              b.view(np.uint64))
        np.testing.assert_array_equal(got_rho[0], np.maximum(rho[0], rho[1]))
        np.testing.assert_array_equal(got_t, np.where(swap, t + np.pi / 2, t))

    def test_sorted_blocks_checks_every_column(self):
        rho = np.full((2, 2, 2, 3), 0.125)
        rho[0, 0, 0, 2] = 0.2
        with pytest.raises(ValidationError, match="sum to"):
            states._sorted_blocks(rho, np.zeros((2, 2, 3)))

    def test_nan_eigenvalue_rejected(self):
        with pytest.raises(ValidationError, match=r"^block eigenvalue nan is negative or NaN$"):
            BlockDiagState(np.full((2, 2, 2), np.nan), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_angle_rejected(self, bad):
        t = np.zeros((2, 2))
        t[1, 0] = bad
        with pytest.raises(ValidationError, match=rf"^block angle {bad} is not finite$"):
            BlockDiagState(tau_state(0.8).rho, t)

    def test_validation(self):
        with pytest.raises(ValidationError):
            BlockDiagState(np.full((2, 2, 2), 0.2), np.zeros((2, 2)))
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = 1.5
        bad[1, 0, 0] = -0.5
        with pytest.raises(ValidationError):
            BlockDiagState(bad, np.zeros((2, 2)))


class TestTauState:
    def test_endpoint_ghz(self):
        assert np.max(np.abs(tau_state(1.0).to_matrix() - ghz_state(3))) < 1e-12

    def test_equal_mixture(self):
        m = tau_state(0.5).to_matrix()
        want = 0.5 * ghz_basis_state(0, 0, 0) + 0.5 * np.outer(
            ghz_basis_vector(1, 0, 0), ghz_basis_vector(1, 0, 0))
        assert np.max(np.abs(m - want)) < 1e-12

    def test_three_quarters(self):
        st = tau_state(0.75)
        w = np.sort(st.rho.ravel())[::-1]
        assert np.allclose(w[:2], [0.75, 0.25])
        assert von_neumann_entropy(st.to_matrix()) == pytest.approx(
            0.811278, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValidationError):
            tau_state(0.4)
        with pytest.raises(ValidationError):
            tau_state(1.01)
