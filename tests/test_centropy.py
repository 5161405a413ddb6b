"""centropy: purification and exact conditional entropies, validated against
an independent joint-matrix construction built on numpy's own eigensolver."""

import numpy as np
import pytest

from tribell import centropy, qmath, states
from tribell.centropy import cond_entropy, cq_decomposition, purify
from tribell.errors import ValidationError
from tribell.states import ghz_state, tau_state

I2, X, Y, Z = states.I2, states.X, states.Y, states.Z


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1 - x) * np.log2(1 - x))


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def oracle_cond_entropy(rho, measured, observables):
    """Independent path: numpy eigh purification, explicit joint cq matrix."""
    w, v = np.linalg.eigh(rho)
    keep = w > 1e-12
    w, v = w[keep], v[:, keep]
    n = int(round(np.log2(rho.shape[0])))
    h_e = float(-(w * np.log2(w)).sum())
    from itertools import product

    lam_all = []
    for outcome in product((0, 1), repeat=len(measured)):
        ops = [np.eye(2, dtype=complex)] * n
        for idx, q in enumerate(measured):
            o = observables[idx]
            ops[q] = (np.eye(2) + (1 if outcome[idx] == 0 else -1) * o) / 2.0
        pi = np.eye(1, dtype=complex)
        for op in ops:
            pi = np.kron(pi, op)
        block = np.outer(np.sqrt(w), np.sqrt(w)) * (v.conj().T @ pi @ v)
        ev = np.linalg.eigvalsh(block)
        lam_all.extend(x for x in ev if x > 1e-13)
    lam_all = np.array(lam_all)
    return float(-(lam_all * np.log2(lam_all)).sum()) - h_e


class TestPurify:
    def test_pure_input_trivial_register(self):
        rho = ghz_state(3)
        psi = purify(rho)
        assert psi.shape == (8,)
        assert np.max(np.abs(np.outer(psi, psi.conj()) - rho)) < 1e-9

    def test_maximally_mixed_gives_bell_state(self):
        psi = purify(np.eye(2) / 2).reshape(2, 2)
        # maximally entangled: both Schmidt coefficients 1/sqrt(2)
        s = np.linalg.svd(psi, compute_uv=False)
        assert np.allclose(s, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_roundtrip_random_three_qubit(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            rho = random_density(rng, 8)
            psi = purify(rho)
            total = len(psi)
            n_tot = int(round(np.log2(total)))
            joint = np.outer(psi, psi.conj())
            back = qmath.partial_trace(joint, n_tot, {0, 1, 2})
            assert np.max(np.abs(back - rho)) < 1e-9


class TestCqDecomposition:
    def test_traces_sum_to_one_and_psd(self):
        rng = np.random.default_rng(73)
        rho = random_density(rng, 8)
        cq = cq_decomposition(rho, [0, 1], [Z, X])
        assert abs(cq.outcome_probs.sum() - 1.0) < 1e-9
        for block in cq.eve_conditionals:
            w, _ = qmath.eig_hermitian(block)
            assert w.min() > -1e-10

    def test_non_involution_rejected(self):
        with pytest.raises(ValidationError):
            cq_decomposition(ghz_state(3), [0], [0.5 * Z])

    def test_party_validation(self):
        with pytest.raises(ValidationError):
            cq_decomposition(ghz_state(3), [], [])
        with pytest.raises(ValidationError):
            cq_decomposition(ghz_state(3), [3], [Z])
        with pytest.raises(ValidationError):
            cq_decomposition(ghz_state(3), [0, 0], [Z, Z])


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
        rng = np.random.default_rng(83)
        rho = random_density(rng, 8)
        ob = np.cos(0.4) * Z + np.sin(0.4) * X
        # two spectra of rho, as cond_entropy once took them
        w, _ = centropy._spectrum(rho)
        blocks = cq_decomposition(rho, [0, 1], [Z, ob]).eve_conditionals
        want = centropy._block_entropy(blocks) - float(-(w * np.log2(w)).sum())
        calls = []

        def counted(m):
            calls.append(m.shape)
            return qmath.eig_hermitian(m)
        monkeypatch.setattr(centropy, "eig_hermitian", counted)
        got = cond_entropy(rho, [0, 1], [Z, ob])
        assert len(calls) == 5  # rho once, then its four conditional blocks
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_pure_state_equals_outcome_entropy(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            v = rng.normal(size=8) + 1j * rng.normal(size=8)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            angle = rng.uniform(0, 2 * np.pi)
            ob = np.cos(angle) * Z + np.sin(angle) * X
            got = cond_entropy(rho, [0, 1], [Z, ob])
            cq = cq_decomposition(rho, [0, 1], [Z, ob])
            probs = cq.outcome_probs[cq.outcome_probs > 1e-15]
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
