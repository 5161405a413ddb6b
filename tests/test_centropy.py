"""centropy: exact conditional entropies, validated against an independent
oracle that purifies the state, measures the purification and diagonalizes
Eve's conditionals with numpy's own eigensolver."""

from itertools import product

import numpy as np
import pytest

from tribell import centropy, qmath, states
from tribell.centropy import cond_entropy
from tribell.errors import NumericError, ValidationError
from tribell.states import ghz_state, tau_state

from test_qmath import partial_trace

I2, X, Y, Z = states.I2, states.X, states.Y, states.Z


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def projector(n, measured, observables, outcome):
    """Pi_o on n qubits: (1 +- O) / 2 on each measured party, 1 elsewhere."""
    ops = [np.eye(2, dtype=complex)] * n
    for q, o, bit in zip(measured, observables, outcome):
        ops[q] = (np.eye(2) + (1 if bit == 0 else -1) * o) / 2.0
    pi = np.eye(1, dtype=complex)
    for op in ops:
        pi = np.kron(pi, op)
    return pi


def entropy(m):
    lam = np.linalg.eigvalsh(m)
    lam = lam[lam > 1e-13]
    return float(-(lam * np.log2(lam)).sum())


def oracle_purify(rho):
    """sum_m sqrt(w_m) |m>|m> over the eigenbasis of rho; the purifying
    register has dimension rank(rho) padded to a power of two."""
    w, v = np.linalg.eigh(rho)
    keep = w > 1e-12
    w, v = w[keep], v[:, keep]
    d_e = 1
    while d_e < len(w):
        d_e *= 2
    psi = np.zeros((rho.shape[0], d_e), dtype=complex)
    psi[:, :len(w)] = v * np.sqrt(w)
    return psi.reshape(-1)


def oracle_eve_conditionals(rho, measured, observables):
    """Measure the parties on the purification; Eve's unnormalized state for
    outcome o is Tr_parties[(Pi_o x 1)|psi><psi|(Pi_o x 1)]."""
    d = rho.shape[0]
    n = int(round(np.log2(d)))
    psi = oracle_purify(rho).reshape(d, -1)
    out = []
    for outcome in product((0, 1), repeat=len(measured)):
        phi = projector(n, measured, observables, outcome) @ psi
        out.append(phi.T @ phi.conj())
    return out


def oracle_cond_entropy(rho, measured, observables):
    """H(outcomes E) - H(E) on the explicit purification."""
    d = rho.shape[0]
    psi = oracle_purify(rho).reshape(d, -1)
    h_e = entropy(psi.T @ psi.conj())
    blocks = oracle_eve_conditionals(rho, measured, observables)
    return sum(entropy(b) for b in blocks) - h_e


class TestPurify:
    """The oracle's purification."""

    def test_pure_input_trivial_register(self):
        rho = ghz_state(3)
        psi = oracle_purify(rho)
        assert psi.shape == (8,)
        assert np.max(np.abs(np.outer(psi, psi.conj()) - rho)) < 1e-9

    def test_maximally_mixed_gives_bell_state(self):
        psi = oracle_purify(np.eye(2) / 2).reshape(2, 2)
        # maximally entangled: both Schmidt coefficients 1/sqrt(2)
        s = np.linalg.svd(psi, compute_uv=False)
        assert np.allclose(s, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_roundtrip_random_three_qubit(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            rho = random_density(rng, 8)
            psi = oracle_purify(rho)
            total = len(psi)
            n_tot = int(round(np.log2(total)))
            joint = np.outer(psi, psi.conj())
            back = partial_trace(joint, n_tot, {0, 1, 2})
            assert np.max(np.abs(back - rho)) < 1e-9


class TestCqDecomposition:
    """The oracle's Eve conditionals, and the spectral identity that lets
    cond_entropy skip them."""

    def test_traces_sum_to_one_and_psd(self):
        rng = np.random.default_rng(73)
        rho = random_density(rng, 8)
        blocks = oracle_eve_conditionals(rho, [0, 1], [Z, X])
        traces = [np.trace(b).real for b in blocks]
        assert abs(sum(traces) - 1.0) < 1e-9
        for block, outcome in zip(blocks, product((0, 1), repeat=2)):
            pi = projector(3, [0, 1], [Z, X], outcome)
            assert np.trace(pi @ rho).real == pytest.approx(np.trace(block).real,
                                                             abs=1e-12)
            assert np.linalg.eigvalsh(block).min() > -1e-10

    def test_eve_spectrum_is_projected_state_spectrum(self):
        # Eve's conditional and Pi_o rho Pi_o share their nonzero spectrum
        rng = np.random.default_rng(75)
        for rank in (1, 3, 8):
            g = rng.normal(size=(8, rank)) + 1j * rng.normal(size=(8, rank))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            ob = np.cos(1.1) * Z + np.sin(1.1) * X
            blocks = oracle_eve_conditionals(rho, [0, 2], [X, ob])
            for block, outcome in zip(blocks, product((0, 1), repeat=2)):
                pi = projector(3, [0, 2], [X, ob], outcome)
                want = np.linalg.eigvalsh(pi @ rho @ pi)
                got = np.linalg.eigvalsh(block)
                want, got = want[want > 1e-12], got[got > 1e-12]
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


class TestCondEntropy:
    def test_ghz_alice_z(self):
        assert cond_entropy(ghz_state(3), [0], [Z]) == pytest.approx(1.0, abs=1e-10)

    def test_tau_family(self):
        for nu in (0.5, 0.6, 0.75, 0.9, 1.0):
            got = cond_entropy(tau_state(nu).to_matrix(), [0], [Z])
            assert got == pytest.approx(1.0 - h2(nu), abs=1e-10)

    def test_bell_diagonal_cross_formula(self):
        # 1 + h(2p) - H({lambda_ij}) with p from the x-y measurement formula
        rng = np.random.default_rng(79)
        for _ in range(25):
            lam = rng.dirichlet([1.0] * 4)  # order (00, 01, 10, 11)
            rho = np.zeros((4, 4), dtype=complex)
            vecs = {}
            for i in (0, 1):
                for j in (0, 1):
                    v = np.zeros(4, dtype=complex)
                    v[(0 << 1) | j] = 1 / np.sqrt(2)
                    v[(1 << 1) | (1 - j)] = (-1.0) ** i / np.sqrt(2)
                    vecs[i, j] = v
                    rho += lam[2 * i + j] * np.outer(v, v.conj())
            pa, pb = rng.uniform(0, 2 * np.pi, 2)
            oa = np.cos(pa) * X + np.sin(pa) * Y
            ob = np.cos(pb) * X + np.sin(pb) * Y
            p = 0.25 * (1 + np.cos(pa + pb) * (lam[0] - lam[2])
                        + np.cos(pa - pb) * (lam[1] - lam[3]))
            lam_pos = lam[lam > 1e-15]
            formula = 1.0 + h2(2 * p) + float((lam_pos * np.log2(lam_pos)).sum())
            got = cond_entropy(rho, [0, 1], [oa, ob])
            assert got == pytest.approx(formula, abs=1e-9)

    def test_matches_joint_matrix_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            rho = random_density(rng, 8)
            angles = rng.uniform(0, 2 * np.pi, 2)
            oa = np.cos(angles[0]) * Z + np.sin(angles[0]) * X
            ob = np.cos(angles[1]) * Z + np.sin(angles[1]) * X
            got = cond_entropy(rho, [0, 1], [oa, ob])
            want = oracle_cond_entropy(rho, [0, 1], [oa, ob])
            assert got == pytest.approx(want, abs=1e-9)

    def test_one_spectrum_of_rho_per_call(self, monkeypatch):
        # one eigensolve over the stack of states, one over all their blocks
        rng = np.random.default_rng(83)
        rho = np.stack([random_density(rng, 8) for _ in range(3)])
        ob = np.cos(0.4) * Z + np.sin(0.4) * X
        want = [oracle_cond_entropy(r, [0, 1], [Z, ob]) for r in rho]
        calls = []

        def counted(m):
            calls.append(m.shape)
            return qmath.eig_hermitian(m)
        monkeypatch.setattr(centropy, "eig_hermitian", counted)
        got = centropy.cond_entropies(rho, [0, 1], np.stack([Z, ob]))
        assert calls == [(3, 8, 8), (3, 4, 2, 2)]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    def test_pure_state_equals_outcome_entropy(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            angle = rng.uniform(0, 2 * np.pi)
            ob = np.cos(angle) * Z + np.sin(angle) * X
            got = cond_entropy(rho, [0, 1], [Z, ob])
            probs = np.array([np.trace(projector(3, [0, 1], [Z, ob], o) @ rho).real
                              for o in product((0, 1), repeat=2)])
            probs = probs[probs > 1e-15]
            outcome_entropy = float(-(probs * np.log2(probs)).sum())
            assert got == pytest.approx(outcome_entropy, abs=1e-9)

    def test_data_processing_relations(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            rho = random_density(rng, 8)
            a = rng.uniform(0, 2 * np.pi)
            b = rng.uniform(0, 2 * np.pi)
            oa = np.cos(a) * Z + np.sin(a) * X
            ob = np.cos(b) * Z + np.sin(b) * X
            h_ab = cond_entropy(rho, [0, 1], [oa, ob])
            h_a = cond_entropy(rho, [0], [oa])
            assert h_ab >= h_a - 1.0 - 1e-9
            assert h_ab >= -1e-9
            assert h_a <= 1.0 + 1e-9

    def test_uncertainty_relation_sample(self):
        from tribell.verification import check_uncertainty

        assert check_uncertainty(samples=200, seed=101).passed

    def test_party_validation(self):
        ghz = ghz_state(3)
        for parties, obs, match in (([], [], "non-empty"),
                                    ([0, 0], [Z, Z], "duplicate"),
                                    ([0], [Z, X], "one observable"),
                                    ([3], [Z], "out of range"),
                                    ([-1], [Z], "out of range")):
            with pytest.raises(ValidationError, match=match):
                cond_entropy(ghz, parties, obs)

    def test_non_involution_rejected(self):
        with pytest.raises(ValidationError, match="observable 0 is not an involution"):
            cond_entropy(ghz_state(3), [0], [0.5 * Z])

    def test_non_hermitian_observable_rejected(self):
        # an involution with real eigenvalues +-1, but not Hermitian
        bad = np.array([[1, 1], [0, -1]])
        with pytest.raises(ValidationError, match="observable 0 is not Hermitian"):
            cond_entropy(ghz_state(3), [0], [bad])
        with pytest.raises(ValidationError, match="observable 1 is not Hermitian"):
            cond_entropy(ghz_state(3), [0, 2], [Z, bad])
        with pytest.raises(ValidationError, match=r"observable 0 has shape \(4, 4\)"):
            cond_entropy(ghz_state(3), [0], [np.kron(Z, Z)])

    def test_accepts_state_within_hermitian_tolerance(self):
        # the projector onto cos(pi/8)|0> + sin(pi/8)|1> amplifies the
        # anti-Hermitian part of rho by about 1.46
        rho = np.eye(2) / 2 + 0.49e-10j * np.ones((2, 2))
        got = cond_entropy(rho, [0], [(Z + X) / np.sqrt(2)])
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_state_validation(self):
        for rho, match in ((np.diag([0.7, 0.5, -0.2, 0.0]), "not PSD"),
                           (np.eye(3) / 3, "power of two"),
                           (np.eye(4) / 2, "trace"),
                           (np.array([[0.5, 0.1], [0.3, 0.5]]), "not Hermitian")):
            with pytest.raises(ValidationError, match=match):
                cond_entropy(rho, [0], [Z])


def random_observables(rng, shape):
    """Random Hermitian involutions n.sigma, stacked shape + (2, 2)."""
    v = rng.normal(size=shape + (3,))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return np.einsum("...i,ijk->...jk", v, np.stack([X, Y, Z]))


class TestCondEntropies:
    """The batched kernel against the purification oracle."""

    def test_matches_oracle(self):
        rng = np.random.default_rng(101)
        cases = [(8, [0, 1]), (8, [1, 0]), (8, [2, 0]), (8, [0, 1, 2]), (8, [1]),
                 (4, [0, 1]), (4, [1]), (2, [0]), (16, [3, 1])]
        for d, measured in cases:
            rho = []
            for rank in (1, 2, d):  # pure, rank-deficient and full rank
                g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
                rho.append(g @ g.conj().T / np.sum(np.abs(g) ** 2))
            rho = np.stack(rho * 2)
            per_state = random_observables(rng, (len(rho), len(measured)))
            for obs in (per_state, per_state[0]):  # one set per state, then shared
                got = centropy.cond_entropies(rho, measured, obs)
                want = [oracle_cond_entropy(r, measured, o)
                        for r, o in zip(rho, np.broadcast_to(obs, per_state.shape))]
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_batch_equals_one_state_calls(self):
        rng = np.random.default_rng(103)
        rho = np.stack([random_density(rng, 8) for _ in range(50)])
        obs = random_observables(rng, (50, 2))
        got = centropy.cond_entropies(rho, [2, 0], obs)
        want = [cond_entropy(r, [2, 0], o) for r, o in zip(rho, obs)]
        np.testing.assert_array_equal(got, want)

    def test_plus_minus_identity_rejected(self):
        rho = np.stack([ghz_state(3)] * 2)
        for sign in (1, -1):
            with pytest.raises(ValidationError, match="observable 1 is [+]-1"):
                centropy.cond_entropies(rho, [0, 1], np.stack([Z, sign * I2]))
            obs = np.stack([[Z, X], [X, sign * I2]])  # per state: the second's B
            with pytest.raises(ValidationError, match="observable 1 is [+]-1"):
                centropy.cond_entropies(rho, [0, 1], obs)
            with pytest.raises(ValidationError, match="observable 0 is [+]-1"):
                cond_entropy(ghz_state(3), [2], [sign * I2])

    def test_observable_stack_shape(self):
        rho = np.stack([ghz_state(3)] * 3)
        with pytest.raises(ValidationError, match="one observable per measured party"):
            centropy.cond_entropies(rho, [0, 1], np.stack([Z, X, Z]))
        with pytest.raises(ValidationError, match=r"\(3, 2, 2, 2\), not \(2, 2, 2, 2\)"):
            centropy.cond_entropies(rho, [0, 1], np.stack([[Z, X]] * 2))
        with pytest.raises(ValidationError, match="stack of states"):
            centropy.cond_entropies(ghz_state(3), [0], Z[None])

    def test_dimension_cap(self):
        big = np.eye(qmath.MAX_DIM + 1)[None] / (qmath.MAX_DIM + 1)
        with pytest.raises(ValidationError, match="power of two"):
            centropy.cond_entropies(big, [0], Z[None])
        seven_qubits = np.eye(128)[None] / 128
        with pytest.raises(ValidationError, match="limit"):
            centropy.cond_entropies(seven_qubits, [0], Z[None])

    def test_linalg_error_becomes_numeric_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericError, match="did not converge"):
            centropy.cond_entropies(np.stack([ghz_state(3)] * 4), [0], Z[None])
