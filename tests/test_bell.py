"""bell: correlators, the four Bell functionals, and the reduced Holz forms."""

import numpy as np
import pytest

from tribell import bell, qmath, states
from tribell.bell import (BellValue, bell_value, correlator, holz_reduced_value,
                          holz_vbar, parity_vbar, reduced_settings, spec_by_name)
from tribell.errors import ValidationError
from tribell.states import (BlockDiagState, ghz_state, optimal_settings,
                            settings_from_angles, tau_state)
from tribell.verification import random_block_states

I2, X, Y, Z = states.I2, states.X, states.Y, states.Z


def naive_expectation(rho, ops):
    """Independent trace: sum_ij rho[i,j] * O[j,i] with an explicit loop."""
    big = np.eye(1, dtype=complex)
    for o in ops:
        big = np.kron(big, o if o is not None else I2)
    total = 0.0 + 0.0j
    for i in range(rho.shape[0]):
        for j in range(rho.shape[0]):
            total += rho[i, j] * big[j, i]
    return total.real


def random_block_state(rng):
    return BlockDiagState(rng.dirichlet([0.6] * 8).reshape(2, 2, 2),
                          rng.uniform(-np.pi / 2, np.pi / 2, size=(2, 2)))


class TestSpecs:
    def test_registry(self):
        assert spec_by_name("holz").quantum_bound == 1.5
        assert spec_by_name("holz").input_bits == 3
        assert spec_by_name("mabk").input_bits == 3
        assert spec_by_name("parity-chsh").input_bits == 2
        assert spec_by_name("chsh").input_bits == 2
        assert spec_by_name("chsh").alpha == 1.0
        sp = spec_by_name("asym-chsh", alpha=2.0)
        assert sp.local_bound == 4.0
        assert sp.quantum_bound == pytest.approx(2 * np.sqrt(5))
        with pytest.raises(ValidationError):
            spec_by_name("ghz-paradox")

    def test_bell_value_invariant(self):
        with pytest.raises(ValidationError):
            BellValue(1.6, spec_by_name("holz"))
        # negative values beyond -quantum_bound are classically reachable
        BellValue(-2.5, spec_by_name("holz"))


class TestCorrelator:
    def test_ghz_stabilizers(self):
        rho = ghz_state(3)
        assert correlator(rho, [Z, Z, None]) == pytest.approx(1.0, abs=1e-12)
        assert correlator(rho, [X, X, X]) == pytest.approx(1.0, abs=1e-12)

    def test_zxx_vanishes(self):
        rho = ghz_state(3)
        got = correlator(rho, [Z, X, X])
        assert got == pytest.approx(naive_expectation(rho, [Z, X, X]), abs=1e-12)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_random_against_naive_trace(self):
        rng = np.random.default_rng(41)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        for ops in ([X, Y, Z], [Z, None, X], [Y, Y, None]):
            assert correlator(rho, ops) == pytest.approx(
                naive_expectation(rho, ops), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            correlator(ghz_state(3), [X, X])


class TestBellValue:
    def test_holz_local_depolarized_closed_form(self):
        spec = spec_by_name("holz")
        s = optimal_settings(spec)
        for p in np.linspace(0.0, 1.0, 9):
            rho = states.depolarize_local(ghz_state(3), p, 3)
            # oracle: correlator-by-correlator evaluation of the functional
            a0, a1 = s.alice[0].matrix, s.alice[1].matrix
            bp, bm = s.b_plus(), s.b_minus()
            cp, cm = s.c_plus(), s.c_minus()
            oracle = (naive_expectation(rho, [a1, bp, cp])
                      - naive_expectation(rho, [a0, bm, None])
                      - naive_expectation(rho, [a0, None, cm])
                      - naive_expectation(rho, [None, bm, cm]))
            got = bell_value(spec, rho, s).beta
            assert got == pytest.approx(oracle, abs=1e-12)
            assert got == pytest.approx(0.75 * (p ** 3 + p ** 2), abs=1e-12)

    def test_mabk_global_scales_linearly(self):
        spec = spec_by_name("mabk")
        s = optimal_settings(spec)
        for p in (0.0, 0.4, 0.9, 1.0):
            rho = states.depolarize_global(ghz_state(3), p)
            assert bell_value(spec, rho, s).beta == pytest.approx(4 * p, abs=1e-12)

    def test_parity_quantum_bound(self):
        spec = spec_by_name("parity-chsh")
        got = bell_value(spec, ghz_state(3), optimal_settings(spec)).beta
        assert got == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_holz_sign_convention_is_positive(self):
        # B- = -(1/2)Z verbatim must give +3/2 on GHZ, not -3/2
        spec = spec_by_name("holz")
        s = optimal_settings(spec)
        assert np.allclose(s.b_minus(), -0.5 * Z)
        assert bell_value(spec, ghz_state(3), s).beta > 0

    def test_asym_chsh_two_conventions_agree(self):
        # 2a<A0B+> + 2<A1B-> == expanded four-correlator form
        rng = np.random.default_rng(43)
        for alpha in (0.5, 1.0, 1.7):
            spec = spec_by_name("asym-chsh", alpha)
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            s = settings_from_angles(*rng.uniform(0, 2 * np.pi, 4))
            got = bell_value(spec, rho, s).beta
            compact = (2 * alpha * naive_expectation(rho, [s.alice[0].matrix, s.b_plus()])
                       + 2 * naive_expectation(rho, [s.alice[1].matrix, s.b_minus()]))
            assert got == pytest.approx(compact, abs=1e-12)

    def test_wrong_dimension(self):
        with pytest.raises(ValidationError):
            bell_value(spec_by_name("holz"), ghz_state(2),
                       optimal_settings(spec_by_name("holz")))


class TestReducedForms:
    def test_tau_family_maximal_value(self):
        for nu in np.linspace(0.5, 1.0, 11):
            st = tau_state(nu)
            a1 = np.pi / 2
            b_minus = np.arctan2(1.0, np.sqrt(max(4 * nu * nu - 1, 1e-300)))
            c_minus = np.arcsin(min(1.0 / (2 * nu), 1.0))
            b0 = b_minus + np.pi / 2
            got = holz_reduced_value(st, b0, a1, c_minus)
            assert got == pytest.approx(2 * nu + 1 / (2 * nu) - 1, abs=1e-12)

    def test_tau_one_is_quantum_bound(self):
        st = tau_state(1.0)
        b0 = np.arctan2(1.0, np.sqrt(3.0)) + np.pi / 2
        got = holz_reduced_value(st, b0, np.pi / 2, np.arcsin(0.5))
        assert got == pytest.approx(1.5, abs=1e-12)

    def test_reduced_agrees_with_full_functional(self):
        rng = np.random.default_rng(47)
        spec = spec_by_name("holz")
        for _ in range(100):
            st = random_block_state(rng)
            b0, a1, cm = rng.uniform(0.0, 2.0 * np.pi, 3)
            red = holz_reduced_value(st, b0, a1, cm)
            full = bell_value(spec, st.to_matrix(),
                              reduced_settings(b0, a1, cm)).beta
            assert red == pytest.approx(full, abs=1e-9)

    def test_vbar_ghz_grid_max(self):
        st = tau_state(1.0)
        grid = np.linspace(0.0, np.pi, 20001)
        best = max(holz_vbar(st, b0) for b0 in grid)
        assert best == pytest.approx(1.5, abs=1e-7)

    def test_vbar_tau_three_quarters(self):
        st = tau_state(0.75)
        grid = np.linspace(0.0, np.pi, 20001)
        best = max(holz_vbar(st, b0) for b0 in grid)
        assert best == pytest.approx(7.0 / 6.0, abs=1e-7)

    def test_vbar_dominates_reduced_value(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            st = random_block_state(rng)
            b0 = rng.uniform(0.0, np.pi)
            vb = holz_vbar(st, b0)
            for _ in range(20):
                a1, cm = rng.uniform(0.0, 2.0 * np.pi, 2)
                assert vb >= holz_reduced_value(st, b0, a1, cm) - 1e-9

    def test_parity_vbar_is_holz_vbar_with_frozen_c(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            st = random_block_state(rng)
            b0 = rng.uniform(0.0, np.pi)
            pv = parity_vbar(st, b0)
            best = max(holz_reduced_value(st, b0, a1, 0.0)
                       for a1 in np.linspace(0, 2 * np.pi, 721))
            assert pv >= best - 1e-9
            assert pv <= best + 1e-4  # grid resolution of the a1 scan

    @pytest.mark.parametrize("seed", [0, 1])
    def test_scalar_forms_equal_batched_rows(self, seed):
        sts = random_block_states(200, seed)
        rho = np.stack([st.rho for st in sts])
        t = np.stack([st.t for st in sts])
        b0 = np.random.default_rng(seed).uniform(0.0, np.pi, len(sts))
        cols = states._block_correlators(rho, t)
        holz = bell._vbar(rho, t, b0, parity=False)
        parity = bell._vbar(rho, t, b0, parity=True)
        for i, st in enumerate(sts):
            c = st.correlators()
            assert [c[k] for k in ("XXX", "ZXX", "ZZI", "ZIZ", "IZZ")] == \
                [col[i] for col in cols]
            assert holz_vbar(st, b0[i]) == holz[i]
            assert parity_vbar(st, b0[i]) == parity[i]


class TestSampledInequalities:
    def test_quantum_bound_never_exceeded(self):
        from tribell.verification import check_quantum_bounds

        assert check_quantum_bounds(samples=100, seed=61).passed

    def test_appendix_b_inequality_sample(self):
        from tribell.verification import check_appendix_b

        assert check_appendix_b(samples=2000, seed=63).passed

    def test_appendix_b_batched_equals_scalar_loop(self):
        from tribell.verification import check_appendix_b

        # the per-state loop the batched check replaced, drawing the same states
        rng = np.random.default_rng(5)
        worst, used = np.inf, 0
        for i in range(600):
            if i % 2 == 0:
                conc = 0.35 if i % 4 == 0 else 1.0
                rho = rng.dirichlet([conc] * 8).reshape(2, 2, 2)
                t = rng.uniform(-np.pi / 2, np.pi / 2, size=(2, 2))
                a1, bm, cm = rng.uniform(0.0, 2.0 * np.pi, size=3)
            else:
                nu = rng.uniform(0.5, 1.0)
                eps = rng.uniform(0.0, 0.15)
                rho = np.full((2, 2, 2), eps / 8.0)
                rho[0, 0, 0] += (1.0 - eps) * nu
                rho[0, 1, 1] += (1.0 - eps) * (1.0 - nu)
                rho = rho / rho.sum()
                t = rng.normal(0.0, 0.15, size=(2, 2))
                t[1, 1] += np.pi / 2
                a1 = np.pi / 2 + rng.normal(0.0, 0.3)
                bm = np.arctan2(1.0, np.sqrt(max(4 * nu * nu - 1.0, 1e-12))) \
                    + rng.normal(0.0, 0.3)
                cm = np.arcsin(min(1.0 / (2 * nu), 1.0)) + rng.normal(0.0, 0.3)
            c = BlockDiagState(rho, t).correlators()
            beta = ((np.cos(a1) * c["ZXX"] + np.sin(a1) * c["XXX"])
                    * np.cos(bm) * np.cos(cm)
                    + np.sin(bm) * c["ZZI"] + np.sin(cm) * c["ZIZ"]
                    - np.sin(bm) * np.sin(cm) * c["IZZ"])
            if beta > 1.0:
                used += 1
                rhs = beta / 2 - 0.5 + 0.5 * np.sqrt(beta * beta + 2 * beta - 3)
                worst = min(worst, abs(c["XXX"]) - rhs)
        assert check_appendix_b(samples=600, seed=5).detail == \
            f"{used} violating-side samples, min margin {worst:.3e}"

    def test_uncertainty_batched_equals_scalar_loop(self):
        from tribell.centropy import cond_entropy
        from tribell.verification import check_uncertainty

        h = qmath.binary_entropy
        worst = min(cond_entropy(st.to_matrix(), [0], [states.Z])
                    - (1.0 - h((1 + abs(st.correlators()["XXX"])) / 2))
                    for st in random_block_states(150, 7))
        assert check_uncertainty(samples=150, seed=7).detail == \
            f"min margin {worst:.3e}"

    def test_appendix_c_inequalities_sample(self):
        from tribell.verification import check_appendix_c

        assert check_appendix_c(samples=2000, seed=67).passed
