"""bell: correlators, the four Bell functionals on angle rows, and the
reduced Holz forms."""

import dataclasses
import re

import numpy as np
import pytest

from tribell import bell, qmath, rates, states, verification
from tribell.bell import BellValue, bell_value, holz_reduced_value, reduced_angles, spec_by_name
from tribell.errors import ValidationError
from tribell.states import BlockDiagState, ghz_state, observable_matrices, tau_state
from tribell.verification import random_density_matrices

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


def kron_expectation(rho, terms):
    """sum_k c_k Re Tr[rho O_k] over the Kronecker (c_k, O_k) terms of
    bell.bell_terms, summed left to right."""
    total = None
    for coef, op in terms:
        term = coef * complex(np.trace(rho @ op)).real
        total = term if total is None else total + term
    return total


def _columns(rho, t, b0):
    """Rows rho (n, 2, 2, 2), t (n, 2, 2), b0 (n,) -> columns (rho, trig)."""
    angles = np.vstack([np.reshape(t, (-1, 4)).T, b0])
    return np.moveaxis(rho, 0, -1), states._block_trig(angles)


def random_block_states(count, seed):
    """The block states of verification's sampled checks, one at a time."""
    rho, t = verification._random_block_columns(count, seed)
    return [BlockDiagState(rho[..., i], t[..., i]) for i in range(count)]


def holz_vbar(st, b0):
    """The reduced Holz value of one state maximized over a1 and c-."""
    return float(bell._block_vbar(*st._columns(b0))[0])


def correlator(rho, ops):
    """Tr[rho (O_1 x O_2 x ...)] of one state, as bell_values contracts it."""
    return float(bell._party_expectation(rho, ops))


def random_block_state(rng):
    return BlockDiagState(rng.dirichlet([0.6] * 8).reshape(2, 2, 2),
                          rng.uniform(-np.pi / 2, np.pi / 2, size=(2, 2)))


def appendix_b_loop(samples, seed):
    """check_appendix_b's violating-side count and min margin, computed one
    drawn state at a time from BlockDiagState correlators."""
    rhos, ts, a1s, bms, cms = verification._appendix_b_draws(samples, seed)
    worst, used = np.inf, 0
    for i in range(samples):
        c = BlockDiagState(rhos[..., i], ts[..., i]).correlators()
        a1, bm, cm = a1s[i], bms[i], cms[i]
        beta = ((np.cos(a1) * c["ZXX"] + np.sin(a1) * c["XXX"])
                * np.cos(bm) * np.cos(cm)
                + np.sin(bm) * c["ZZI"] + np.sin(cm) * c["ZIZ"]
                - np.sin(bm) * np.sin(cm) * c["IZZ"])
        if beta > 1.0:
            used += 1
            rhs = beta / 2 - 0.5 + 0.5 * np.sqrt(beta * beta + 2 * beta - 3)
            worst = min(worst, abs(c["XXX"]) - rhs)
    return used, worst


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

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValidationError, match="non-finite"):
            spec_by_name("asym-chsh", alpha=alpha)

    @pytest.mark.parametrize("alpha", [0.0, 1e-13, -1e-9, 1e200, 1e308, -1e308])
    def test_alpha_without_quantum_gap_rejected(self, alpha):
        with pytest.raises(ValidationError) as exc:
            spec_by_name("asym-chsh", alpha=alpha)
        assert str(exc.value).startswith(f"alpha={alpha!r} leaves the local bound at")

    def test_non_finite_bound_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            dataclasses.replace(bell.holz(), quantum_bound=np.nan)
        with pytest.raises(ValidationError, match="non-finite"):
            dataclasses.replace(bell.holz(), local_bound=-np.inf)

    def test_unknown_plane_rejected(self):
        with pytest.raises(ValidationError, match="unknown plane"):
            dataclasses.replace(bell.holz(), plane="yz")

    def test_odd_length_settings_row_rejected(self):
        with pytest.raises(ValidationError, match="settings row"):
            dataclasses.replace(bell.holz(), angles=bell.holz().angles[:5])

    @pytest.mark.parametrize("angle", [np.nan, np.inf])
    def test_non_finite_settings_row_rejected(self, angle):
        with pytest.raises(ValidationError, match="settings row"):
            dataclasses.replace(bell.holz(), angles=(angle,) + bell.holz().angles[1:])

    def test_empty_terms_rejected(self):
        with pytest.raises(ValidationError, match="at least one term"):
            dataclasses.replace(bell.holz(), terms=())

    def test_term_with_wrong_party_count_rejected(self):
        # a two-party term in a three-party inequality
        with pytest.raises(ValidationError, match="per party"):
            dataclasses.replace(bell.holz(), terms=((1.0, (0, 1)),))

    @pytest.mark.parametrize("name", [2, "x", "0", -1])
    def test_term_with_unknown_observable_rejected(self, name):
        with pytest.raises(ValidationError, match="per party"):
            dataclasses.replace(bell.mabk(), terms=((1.0, (0, name, 1)),))

    @pytest.mark.parametrize("coef", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficient_rejected(self, coef):
        with pytest.raises(ValidationError, match="finite coefficient"):
            dataclasses.replace(bell.parity_chsh(), terms=((coef, (1, "-", 0)),))

    def test_list_fields_stored_as_tuples(self):
        # a spec made from lists hashes, so betas_of_p's cache takes it, and
        # gives the tuple spec's value bit for bit
        spec = bell.holz()
        listed = dataclasses.replace(spec, angles=list(spec.angles),
                                     terms=[[c, list(s)] for c, s in spec.terms])
        assert listed == spec and hash(listed) == hash(spec)
        assert isinstance(listed.angles, tuple)
        assert all(isinstance(t, tuple) and isinstance(t[1], tuple) for t in listed.terms)
        for noise, p in (("local", 0.93), ("global", 0.8)):
            got = rates.betas_of_p(dataclasses.replace(spec, angles=list(spec.angles)), noise, [p])
            want = rates.betas_of_p(spec, noise, [p])
            assert got.view(np.uint64) == want.view(np.uint64)

    def test_list_fields_keep_their_checks(self):
        with pytest.raises(ValidationError, match="settings row"):
            dataclasses.replace(bell.holz(), angles=list(bell.holz().angles[:5]))
        with pytest.raises(ValidationError, match="per party"):
            dataclasses.replace(bell.holz(), terms=[[1.0, [0, 1]]])

    def test_fields_define_the_inequality(self):
        # parties from the settings row; asym-chsh's coefficient is its alpha
        assert [bell.INEQUALITIES[n]().parties for n in bell.INEQUALITIES] == [3, 3, 3, 2, 2]
        assert bell.mabk().plane == "xy" and bell.holz().plane == "xz"
        assert [c for c, _ in bell.asym_chsh(0.3).terms] == [0.3, 0.3, 1.0, -1.0]
        assert hash(bell.asym_chsh(0.3)) == hash(bell.asym_chsh(0.3))

    @pytest.mark.parametrize("name", ["holz", "parity-chsh", "mabk", "chsh"])
    @pytest.mark.parametrize("alpha", [3.0, 0.5, np.nan])
    def test_alpha_only_for_asym_chsh(self, name, alpha):
        with pytest.raises(ValidationError, match="takes no alpha"):
            spec_by_name(name, alpha=alpha)
        assert spec_by_name(name, alpha=1.0) == spec_by_name(name)

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


class TestBatchedBellValues:
    """bell_values contracts 2x2 observables with rho's qubit axes; the
    Kronecker terms of bell_terms are its oracle."""

    @pytest.mark.parametrize("ineq, alpha, plane", [
        ("holz", 1.0, "xz"), ("parity-chsh", 1.0, "xz"), ("mabk", 1.0, "xy"),
        ("chsh", 1.0, "xz"), ("asym-chsh", 0.5, "xz"), ("asym-chsh", 2.0, "xz")])
    def test_matches_kronecker_terms(self, ineq, alpha, plane):
        spec = spec_by_name(ineq, alpha)
        rng = np.random.default_rng(int(10 * alpha) + len(ineq))
        rho = random_density_matrices(40, 2 ** spec.parties, 3)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=(40, 2 * spec.parties))
        want = [kron_expectation(r, bell.bell_terms(spec, a, plane))
                for r, a in zip(rho, angles)]
        np.testing.assert_allclose(bell.bell_values(spec, rho, angles, plane), want,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose([bell_value(spec, r, a, plane).beta
                                    for r, a in zip(rho, angles)], want,
                                   rtol=0, atol=1e-12)

    def test_shapes_checked(self):
        rho = random_density_matrices(3, 8, 1)
        with pytest.raises(ValidationError, match="angles of shape"):
            bell.bell_values(spec_by_name("holz"), rho, np.zeros((3, 4)))
        with pytest.raises(ValidationError, match="3-qubit"):
            bell.bell_values(spec_by_name("holz"), rho[:, :4, :4], np.zeros((3, 6)))


class TestNonFinite:
    def test_nan_angle_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            bell_value(spec_by_name("holz"), ghz_state(3), [np.nan, 0, 0, 0, 0, 0])
        angles = np.zeros((2, 6))
        angles[1, 3] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            bell.bell_values(spec_by_name("holz"), np.stack([ghz_state(3)] * 2), angles)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_bell_value_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValidationError, match="non-finite"):
            BellValue(float(beta), spec_by_name("holz"))


class TestBellValue:
    def test_holz_local_depolarized_closed_form(self):
        spec = spec_by_name("holz")
        angles, plane = spec.angles, spec.plane
        a0, a1, b0, b1, c0, c1 = observable_matrices(plane, angles)
        bp, bm, cp, cm = (b0 + b1) / 2, (b0 - b1) / 2, (c0 + c1) / 2, (c0 - c1) / 2
        for p in np.linspace(0.0, 1.0, 9):
            rho = states.depolarize_local(ghz_state(3), p, 3)
            # oracle: correlator-by-correlator evaluation of the functional
            oracle = (naive_expectation(rho, [a1, bp, cp])
                      - naive_expectation(rho, [a0, bm, None])
                      - naive_expectation(rho, [a0, None, cm])
                      - naive_expectation(rho, [None, bm, cm]))
            got = bell_value(spec, rho, angles, plane).beta
            assert got == pytest.approx(oracle, abs=1e-12)
            assert got == pytest.approx(0.75 * (p ** 3 + p ** 2), abs=1e-12)

    def test_mabk_global_scales_linearly(self):
        spec = spec_by_name("mabk")
        angles, plane = spec.angles, spec.plane
        assert plane == "xy"
        for p in (0.0, 0.4, 0.9, 1.0):
            rho = states.depolarize_global(ghz_state(3), p)
            assert bell_value(spec, rho, angles, plane).beta == pytest.approx(4 * p, abs=1e-12)

    @pytest.mark.parametrize("name", list(bell.INEQUALITIES))
    def test_plane_defaults_to_the_spec_plane(self, name):
        # MABK's row is an x-y row: read in the x-z plane it gave 1.2e-16
        spec = spec_by_name(name)
        rho = ghz_state(spec.parties)
        want = bell_value(spec, rho, spec.angles, spec.plane).beta
        assert bell_value(spec, rho, spec.angles).beta == want
        assert bell.bell_values(spec, rho[None], np.array(spec.angles)[None])[0] == want
        assert kron_expectation(rho, bell.bell_terms(spec, spec.angles)) \
            == kron_expectation(rho, bell.bell_terms(spec, spec.angles, spec.plane))
        assert want == pytest.approx(spec.quantum_bound, abs=1e-12)  # MABK: 4

    def test_parity_quantum_bound(self):
        spec = spec_by_name("parity-chsh")
        got = bell_value(spec, ghz_state(3), spec.angles, spec.plane).beta
        assert got == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_holz_sign_convention_is_positive(self):
        # B- = -(1/2)Z verbatim must give +3/2 on GHZ, not -3/2
        spec = spec_by_name("holz")
        angles, plane = spec.angles, spec.plane
        b0, b1 = observable_matrices(plane, angles[2:4])
        assert np.allclose((b0 - b1) / 2, -0.5 * Z)
        assert bell_value(spec, ghz_state(3), angles, plane).beta > 0

    def test_asym_chsh_two_conventions_agree(self):
        # 2a<A0B+> + 2<A1B-> == expanded four-correlator form
        rng = np.random.default_rng(43)
        for alpha in (0.5, 1.0, 1.7):
            spec = spec_by_name("asym-chsh", alpha)
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            angles = rng.uniform(0, 2 * np.pi, 4)
            a0, a1, b0, b1 = observable_matrices("xz", angles)
            got = bell_value(spec, rho, angles).beta
            compact = (2 * alpha * naive_expectation(rho, [a0, (b0 + b1) / 2])
                       + 2 * naive_expectation(rho, [a1, (b0 - b1) / 2]))
            assert got == pytest.approx(compact, abs=1e-12)

    def test_wrong_dimension(self):
        spec = spec_by_name("holz")
        with pytest.raises(ValidationError):
            bell_value(spec, ghz_state(2), spec.angles, spec.plane)


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

    @pytest.mark.parametrize("name, angles", [("b0", (np.nan, 0.0, 0.0)),
                                              ("a1", (0.0, np.nan, 0.0)),
                                              ("c_minus", (0.0, 0.0, np.inf))])
    def test_non_finite_angle_rejected(self, name, angles):
        with pytest.raises(ValidationError, match=rf"^{name}=(nan|inf) is not finite$"):
            holz_reduced_value(tau_state(0.8), *angles)

    def test_reduced_agrees_with_full_functional(self):
        rng = np.random.default_rng(47)
        spec = spec_by_name("holz")
        for _ in range(100):
            st = random_block_state(rng)
            b0, a1, cm = rng.uniform(0.0, 2.0 * np.pi, 3)
            red = holz_reduced_value(st, b0, a1, cm)
            full = bell_value(spec, st.to_matrix(), reduced_angles(b0, a1, cm)).beta
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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_scalar_forms_equal_batched_rows(self, seed):
        sts = random_block_states(200, seed)
        rho = np.stack([st.rho for st in sts])
        t = np.stack([st.t for st in sts])
        b0 = np.random.default_rng(seed).uniform(0.0, np.pi, len(sts))
        columns = _columns(rho, t, b0)
        cols = states._block_correlators(*columns)
        holz = bell._block_vbar(*columns)
        for i, st in enumerate(sts):
            c = st.correlators()
            assert [c[k] for k in ("XXX", "ZXX", "ZZI", "ZIZ", "IZZ")] == \
                [col[i] for col in cols]
            assert holz_vbar(st, b0[i]) == holz[i]

    def test_reduced_value_bits(self):
        # the scalar wrapper against the formula on the correlator dict, and
        # the columns against the scalar wrapper, bit for bit
        sts = random_block_states(200, 3)
        rng = np.random.default_rng(3)
        b0, a1, cm = rng.uniform(0.0, 2.0 * np.pi, (3, len(sts)))
        cols = bell._block_reduced_value(
            *_columns(np.stack([st.rho for st in sts]), np.stack([st.t for st in sts]), b0),
            a1, cm)
        for i, st in enumerate(sts):
            c = st.correlators()
            want = float((np.cos(a1[i]) * c["ZXX"] + np.sin(a1[i]) * c["XXX"])
                         * np.sin(b0[i]) * np.cos(cm[i])
                         - np.cos(b0[i]) * c["ZZI"]
                         + np.sin(cm[i]) * c["ZIZ"]
                         + np.cos(b0[i]) * np.sin(cm[i]) * c["IZZ"])
            got = holz_reduced_value(st, float(b0[i]), float(a1[i]), float(cm[i]))
            assert got == want == cols[i]


class TestSampledInequalities:
    def test_quantum_bound_never_exceeded(self):
        from tribell.verification import check_quantum_bounds

        assert check_quantum_bounds(samples=100, seed=61).passed

    def test_appendix_b_inequality_sample(self):
        from tribell.verification import check_appendix_b

        assert check_appendix_b(samples=2000, seed=63).passed

    def test_appendix_b_batched_equals_scalar_loop(self):
        from tribell.verification import check_appendix_b

        # the minimum margin sits at tau(nu)'s optimum, where it is rounding
        # error, so the two arithmetic orders agree to a tolerance there
        for samples in (1, 2, 3, 600, 2001):
            used, worst = appendix_b_loop(samples, 5)
            detail = check_appendix_b(samples=samples, seed=5).detail
            count, margin = re.fullmatch(
                r"(\d+) violating-side samples, min margin (\S+)", detail).groups()
            assert int(count) == used
            assert abs(float(margin) - worst) <= 1e-13

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

        assert check_appendix_c().passed
